"""Modal-attentional feature fusion.

Per patient, each modality is projected to query/key/value vectors of a common
width, an inter-modal score matrix is normalised into an attention map by
numcore's temperature-scaled softmax (`softmax` forward, `softmax_vjp`
backward, both in place on the (heads, M, M, N) scores), and values are
aggregated across modalities with a residual connection before two projection
layers produce the fused feature. Everything is vectorised over
patients, heads and modality pairs; the attention map is patient-specific.

The inputs are a fixed feature table that nothing upstream trains, so a
fusion is a function of its weights alone: `fuse_batch` takes arrays and
records one tape node whose parents are the M+2 weight leaves, and the Fusion
it returns can record the same node again on another tape without recomputing.
Training uses this: phase B's fusion, made with the fusion weights frozen, is
the node the next epoch's phase A records and differentiates.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .errors import DimensionError, ParameterError


@dataclass
class MaffParams:
    w_qkv: list  # per modality, Param (d_m, 3 d_f): [W_q | W_k | W_v]
    w_m: "nc.Param"  # (M, d_f, d_f), one W_m per modality
    w_h: "nc.Param"  # (M*d_f, d)
    d_f: int
    d: int
    heads: int
    attention_axis: str = "column"  # "column": normalise over queries, as learned
    #   from the score-map definition; "row": conventional key-axis softmax

    @property
    def tau(self):
        # per-head temperature sqrt(d_f / heads)
        return float(np.sqrt(self.d_f / self.heads))

    def all_params(self):
        return [*self.w_qkv, self.w_m, self.w_h]


def init_maff(schema, d_f, d, heads, rng, attention_axis="column"):
    if d_f % heads != 0:
        raise ParameterError(f"d_f={d_f} not divisible by head count {heads}")
    if attention_axis not in ("column", "row"):
        raise ParameterError(f"attention_axis must be 'column' or 'row', got {attention_axis!r}")
    # W_q, W_k, W_v and W_m are drawn per modality in that order, then joined
    w_qkv, w_m = [], []
    for name, dim in schema.modalities:
        qkv = [nc.glorot(rng, dim, d_f).value for _ in range(3)]
        w_qkv.append(nc.Param(np.concatenate(qkv, axis=1), f"w_qkv.{name}"))
        w_m.append(nc.glorot(rng, d_f, d_f).value)
    w_h = nc.glorot(rng, schema.n_modalities * d_f, d, "w_h")
    return MaffParams(w_qkv, nc.Param(np.stack(w_m), "w_m"), w_h, d_f, d, heads, attention_axis)


def earlier_layout(read, schema):
    """Fusion weights by Param name from an artifact in the earlier layout, which stored
    W_q, W_k, W_v and W_m per modality; `read(name)` is the array stored for a name."""
    names = [name for name, _ in schema.modalities]
    qkv = {f"w_qkv.{n}": np.concatenate([read(f"{w}.{n}") for w in ("w_q", "w_k", "w_v")], 1)
           for n in names}
    return {**qkv, "w_m": np.stack([read(f"w_m.{n}") for n in names])}


class Fusion:
    """One finished fuse_batch: the per-patient, per-head attention maps
    `tensor` (heads, M, M, N), and what its node needs to be recorded again:
    the Params, the fused features H (d, N) and the VJP closure.

    The closure reads W_m and W_h by reference, so a Fusion serves only while
    the fusion Params keep the values it was made with, and its VJP must run
    before an optimizer step moves them.
    """

    def __init__(self, tensor, params, value, vjp):
        self.tensor, self.params, self.value, self.vjp = tensor, params, value, vjp

    def global_map(self):
        """Head-averaged map, then averaged over all patients."""
        if self.tensor.shape[3] == 0:
            raise ParameterError("no patients to average attention maps over")
        return self.tensor.mean(axis=(0, 3))

    def record(self, tape):
        """Record this fusion on `tape` as one node with its value and VJP,
        whose parents are fresh leaves of the M+2 Params. No MAFF arithmetic
        runs."""
        leaves = tuple(tape.leaf(p) for p in self.params.all_params())
        return tape._record(self.value, leaves, self.vjp)


def fuse_batch(tape, xs, params):
    """Fuse per-modality feature blocks (d_m, N), arrays, into (H: d x N,
    Fusion).

    Recorded as one tape node whose parents are the M+2 weight leaves: the
    inputs are constants, and the VJP returns the weights' gradients only. The
    returned Fusion holds the attention maps and can record the node again on
    another tape. Q, K and V come from one GEMM per modality,
    [W_q | W_k | W_v]_m^T x_m, and are views of that (M, 3 d_f, N) stack shaped
    (M, heads, d_h, N); the scores S[h, i, j] = <q_i, k_j> / tau are
    normalised in place by `numcore.softmax` over the queries i ("column") or
    the keys j ("row");
    modality m aggregates v_m + sum_j P[h, m, j] v_j, and the stacked W_m acts
    on it as one batched matmul over M.
    The backward mirrors this: one GEMM per modality for [W_q | W_k | W_v]'s
    gradient.
    """
    m_count, heads, d_f = len(params.w_qkv), params.heads, params.d_f
    if len(xs) != m_count:
        raise DimensionError(f"expected {m_count} modalities, got {len(xs)}")
    xv = [np.atleast_2d(np.asarray(x, dtype=np.float64)) for x in xs]
    n = xv[0].shape[1]
    for x, w in zip(xv, params.w_qkv):
        if x.shape != (w.value.shape[0], n):
            raise DimensionError(
                f"modality block {x.shape} does not match projection rows "
                f"{w.value.shape[0]} and {n} patients"
            )
    qkv = np.empty((m_count, 3 * d_f, n))
    for m, (x, w) in enumerate(zip(xv, params.w_qkv)):
        np.matmul(w.value.T, x, out=qkv[m])
    shape = (m_count, heads, d_f // heads, n)
    q, k, v = (qkv[:, i * d_f:(i + 1) * d_f].reshape(shape) for i in range(3))
    tau = params.tau
    axis = 1 if params.attention_axis == "column" else 2
    # the softmax runs in place: each fresh (heads, M, M, N) temporary costs more
    # than the arithmetic on it
    p = np.einsum("ihcn,jhcn->hijn", q, k)
    nc.softmax(p, axis, tau, out=p)  # (heads, M, M, N)
    u = (v + np.einsum("hmjn,jhcn->mhcn", p, v)).reshape(m_count, d_f, n)
    # W_m and W_h are read by reference: the VJP must run before a step moves
    # them. A phase's backward precedes its step, and a handed-on Fusion is
    # differentiated only by the next phase A (train.train_epoch).
    wm, wh = params.w_m.value, params.w_h.value
    vhat = (np.swapaxes(wm, 1, 2) @ u).reshape(m_count * d_f, n)

    def vjp(g):
        g_vhat = (wh @ g).reshape(m_count, d_f, n)
        g_u = (wm @ g_vhat).reshape(shape)
        g_s = np.einsum("mhcn,jhcn->hmjn", g_u, v)  # dL/dP, made dL/dS in place
        nc.softmax_vjp(p, g_s, axis, tau, out=g_s)
        g_qkv = np.empty((m_count, 3 * d_f, n))
        gq, gk, gv = (g_qkv[:, i * d_f:(i + 1) * d_f].reshape(shape) for i in range(3))
        np.einsum("hijn,jhcn->ihcn", g_s, k, out=gq)
        np.einsum("hijn,ihcn->jhcn", g_s, q, out=gk)
        np.add(g_u, np.einsum("hmjn,mhcn->jhcn", p, g_u), out=gv)
        return (*(x @ gm.T for x, gm in zip(xv, g_qkv)), u @ np.swapaxes(g_vhat, 1, 2),
                vhat @ g.T)

    fusion = Fusion(p, params, wh.T @ vhat, vjp)
    return fusion.record(tape), fusion


def fuse_one(tape, x_cols, params):
    """Fuse a single patient given per-modality vectors; returns (the d x 1
    node, Fusion) as fuse_batch does."""
    xs = [np.asarray(x, dtype=np.float64).reshape(-1, 1) for x in x_cols]
    return fuse_batch(tape, xs, params)
