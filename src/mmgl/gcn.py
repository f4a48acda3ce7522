"""Two-layer graph convolutional classifier over the learned patient graph.

Training and inductive scoring run these layers in closed form over A's row
tiles (block.graph_block, train.predict_inductive_batch), never forming A or
its normalisation; every degree is floored at `DEGREE_FLOOR`. The dense
reference, which only the acceptance gate and the tests run, is the numcore
compositions `normalize_adj` and `gcn_forward`, their numpy entry points (the
tape layer on a no-grad tape) and `extend_adjacency` (one patient attached)."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .errors import DimensionError, ParameterError

DEGREE_FLOOR = 1e-12  # floor on a node's degree; a node below it passes no gradient


@dataclass
class GcnParams:
    w0: "nc.Param"  # (d, d_h)
    w1: "nc.Param"  # (d_h, C)

    def all_params(self):
        return [self.w0, self.w1]


def init_gcn(d, d_h, n_classes, rng):
    if d_h < 1:
        raise ParameterError(f"hidden width must be >= 1, got {d_h}")
    return GcnParams(nc.glorot(rng, d, d_h, "gcn.w0"), nc.glorot(rng, d_h, n_classes, "gcn.w1"))


def normalize_adj(tape, a, add_self_loops=False):
    """Symmetric degree normalisation D^-1/2 A D^-1/2 (optionally of A + I)."""
    n = a.value.shape[0]
    if a.value.shape[1] != n:
        raise DimensionError(f"adjacency must be square, got {a.value.shape}")
    if add_self_loops:
        a = a + np.eye(n)
    s = 1.0 / nc.sqrt(nc.maximum(nc.sum_axis(a, axis=1), DEGREE_FLOOR))  # (N, 1)
    return a * s * s.T


def normalize_adj_np(a, add_self_loops=False):
    """normalize_adj of a numpy adjacency."""
    tape = nc.Tape(trainable=())
    return normalize_adj(tape, tape.const(a), add_self_loops).value


def gcn_forward(tape, h, a_norm, params, dropout=0.0, rng=None):
    """Logits (N, C) from fused features (d, N) and a normalised adjacency."""
    x = h.T  # (N, d)
    hidden = nc.relu(a_norm @ (x @ tape.leaf(params.w0)))
    if dropout > 0.0:
        if rng is None:
            raise ParameterError("dropout needs an rng")
        keep = (rng.random(hidden.value.shape) >= dropout) / (1.0 - dropout)
        hidden = hidden * keep
    return a_norm @ (hidden @ tape.leaf(params.w1))


def gcn_forward_np(h, a_norm, params):
    """gcn_forward of numpy features and adjacency (no dropout; inference only)."""
    tape = nc.Tape(trainable=())
    return gcn_forward(tape, tape.const(h), tape.const(a_norm), params).value


def extend_adjacency(a_train, sims):
    """Attach one node to a trained graph: symmetric row/col of similarities,
    unit self-weight, training edges untouched."""
    n = a_train.shape[0]
    if sims.shape != (n,):
        raise DimensionError(f"similarity row shape {sims.shape} != ({n},)")
    out = np.zeros((n + 1, n + 1))
    out[:n, :n] = a_train
    out[n, :n] = sims
    out[:n, n] = sims
    out[n, n] = 1.0
    return out
