"""Two-layer graph convolutional classifier over the learned patient graph,
plus numpy entry points to the normalisation and forward pass (each runs the
tape layer on a throwaway tape) and the graph extension that spell out
inductive prediction for one patient (train.predict_inductive_batch computes
the same graph in closed form for many).

Training runs these layers inside block.graph_block, which never forms the
normalised adjacency; `normalize_adj` and `gcn_forward` are its dense
reference."""
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
    """Symmetric degree normalisation D^-1/2 A D^-1/2 (optionally A + I), one node."""
    av = a.value
    n = av.shape[0]
    if av.shape[1] != n:
        raise DimensionError(f"adjacency must be square, got {av.shape}")
    if add_self_loops:
        av = av + np.eye(n)
    deg = av.sum(axis=1)
    live = deg > DEGREE_FLOOR
    s = 1.0 / np.sqrt(np.maximum(deg, DEGREE_FLOOR))
    out = av * s[:, None]
    out *= s

    def vjp(g):
        # out_ij = a_ij s_i s_j, s = deg^-1/2: the degree term of row i is
        # -s_i^2 / 2 times row i plus column i of g o out
        buf = np.multiply(g, out)
        t = (buf.sum(axis=1) + buf.sum(axis=0)) * (-0.5 * s * s * live)
        np.multiply(g, s[:, None], out=buf)
        buf *= s
        buf += t[:, None]
        return (buf,)

    return tape._record(out, (a,), vjp)


def normalize_adj_np(a, add_self_loops=False):
    """normalize_adj of a numpy adjacency."""
    tape = nc.Tape()
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
    tape = nc.Tape()
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
