"""Modal-attentional feature fusion.

Per patient, each modality is projected to query/key/value vectors of a common
width, an inter-modal score matrix is softmax-normalised into an attention map,
and values are aggregated across modalities with a residual connection before
two projection layers produce the fused feature. Everything is vectorised over
patients, heads and modality pairs; the attention map is patient-specific.

`fuse_batch` computes a fusion and records it as one tape node; the Fusion it
returns can record the same node again on another tape without recomputing.
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
    w_q: list  # per modality, Param (d_m, d_f)
    w_k: list
    w_v: list
    w_m: list  # per modality, Param (d_f, d_f)
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
        return [*self.w_q, *self.w_k, *self.w_v, *self.w_m, self.w_h]


def init_maff(schema, d_f, d, heads, rng, attention_axis="column"):
    if d_f % heads != 0:
        raise ParameterError(f"d_f={d_f} not divisible by head count {heads}")
    if attention_axis not in ("column", "row"):
        raise ParameterError(f"attention_axis must be 'column' or 'row', got {attention_axis!r}")
    w_q, w_k, w_v, w_m = [], [], [], []
    for name, dim in schema.modalities:
        w_q.append(nc.glorot(rng, dim, d_f, f"w_q.{name}"))
        w_k.append(nc.glorot(rng, dim, d_f, f"w_k.{name}"))
        w_v.append(nc.glorot(rng, dim, d_f, f"w_v.{name}"))
        w_m.append(nc.glorot(rng, d_f, d_f, f"w_m.{name}"))
    w_h = nc.glorot(rng, schema.n_modalities * d_f, d, "w_h")
    return MaffParams(w_q, w_k, w_v, w_m, w_h, d_f, d, heads, attention_axis)


class AttentionMaps:
    """Per-patient, per-head M x M attention scores (detached values)."""

    def __init__(self, tensor):
        self.tensor = np.asarray(tensor)  # (heads, M, M, N)

    @property
    def n_patients(self):
        return self.tensor.shape[3]

    def per_patient(self, i):
        """Head-averaged M x M map of one patient."""
        return self.tensor[:, :, :, i].mean(axis=0)

    def global_map(self):
        """Head-averaged map, then averaged over all patients."""
        if self.n_patients == 0:
            raise ParameterError("no patients to average attention maps over")
        return self.tensor.mean(axis=(0, 3))


class Fusion(AttentionMaps):
    """The attention maps of one finished fuse_batch, with what its node needs
    to be recorded again: the fused features H (d, N), the Params, the input
    blocks and the VJP closure.

    The closure reads W_h by reference, so a Fusion serves only while the
    fusion Params keep the values it was made with, and its VJP must run
    before an optimizer step moves them.
    """

    def __init__(self, tensor, params, xs, value, vjp):
        super().__init__(tensor)
        self.params, self.xs, self.value, self.vjp = params, xs, value, vjp

    def record(self, tape, xs=None):
        """Record this fusion on `tape` as one node with its value and VJP,
        whose parents are fresh leaves of the 4M+1 Params and the M inputs:
        the nodes `xs`, or new constants of the input blocks. No MAFF
        arithmetic runs."""
        if xs is None:
            xs = [tape.const(x) for x in self.xs]
        leaves = [tape.leaf(p) for p in self.params.all_params()]
        return tape._record(self.value, (*leaves, *xs), self.vjp)


def fuse_batch(tape, xs, params):
    """Fuse per-modality feature blocks (d_m, N) into (H: d x N, Fusion).

    Recorded as one tape node whose parents are the 4M+1 weight leaves and the
    M inputs; the returned Fusion holds the attention maps and can record the
    node again on another tape. Q, K and V come from one GEMM per modality,
    [W_q | W_k | W_v]_m^T x_m, and are views of that (M, 3 d_f, N) stack shaped
    (M, heads, d_h, N); the scores S[h, i, j] = <q_i, k_j> / tau are
    softmax-normalised over the queries i ("column") or the keys j ("row");
    modality m aggregates v_m + sum_j P[h, m, j] v_j, and W_m acts on it as one
    batched matmul over M.
    The backward mirrors this: one GEMM per modality for the three weight
    gradients and one for the input's.
    """
    m_count, heads, d_f = len(params.w_q), params.heads, params.d_f
    if len(xs) != m_count:
        raise DimensionError(f"expected {m_count} modalities, got {len(xs)}")
    wants_grad = [isinstance(x, nc.Node) for x in xs]
    xs = [x if isinstance(x, nc.Node) else tape.const(np.atleast_2d(x)) for x in xs]
    n = xs[0].value.shape[1]
    for x, w in zip(xs, params.w_q):
        if x.value.shape != (w.value.shape[0], n):
            raise DimensionError(
                f"modality block {x.value.shape} does not match projection rows "
                f"{w.value.shape[0]} and {n} patients"
            )
    xv = [x.value for x in xs]
    wqkv = [np.concatenate((q.value, k.value, v.value), axis=1)
            for q, k, v in zip(params.w_q, params.w_k, params.w_v)]
    qkv = np.empty((m_count, 3 * d_f, n))
    for m in range(m_count):
        np.matmul(wqkv[m].T, xv[m], out=qkv[m])
    shape = (m_count, heads, d_f // heads, n)
    q, k, v = (qkv[:, i * d_f:(i + 1) * d_f].reshape(shape) for i in range(3))
    tau = params.tau
    axis = 1 if params.attention_axis == "column" else 2
    # the softmax runs in place: each fresh (heads, M, M, N) temporary costs more
    # than the arithmetic on it
    p = np.einsum("ihcn,jhcn->hijn", q, k)
    p /= tau
    # a diverging run's infinite scores give NaN here; the loss check reports it
    with np.errstate(invalid="ignore"):
        p -= p.max(axis=axis, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=axis, keepdims=True)  # (heads, M, M, N)
    u = (v + np.einsum("hmjn,jhcn->mhcn", p, v)).reshape(m_count, d_f, n)
    wm = np.stack([w.value for w in params.w_m])
    vhat = (np.swapaxes(wm, 1, 2) @ u).reshape(m_count * d_f, n)
    # read by reference, unlike wm and wqkv: the VJP must run before a step
    # moves W_h. A phase's backward precedes its step, and a handed-on Fusion
    # is differentiated only by the next phase A (train.train_epoch).
    wh = params.w_h.value

    def vjp(g):
        g_vhat = (wh @ g).reshape(m_count, d_f, n)
        g_u = (wm @ g_vhat).reshape(shape)
        g_s = np.einsum("mhcn,jhcn->hmjn", g_u, v)  # dL/dP, made dL/dS in place
        g_s -= (p * g_s).sum(axis=axis, keepdims=True)
        g_s *= p
        g_s /= tau
        g_qkv = np.empty((m_count, 3 * d_f, n))
        gq, gk, gv = (g_qkv[:, i * d_f:(i + 1) * d_f].reshape(shape) for i in range(3))
        np.einsum("hijn,jhcn->ihcn", g_s, k, out=gq)
        np.einsum("hijn,ihcn->jhcn", g_s, q, out=gk)
        np.add(g_u, np.einsum("hmjn,mhcn->jhcn", p, g_u), out=gv)
        g_wqkv = [x @ gm.T for x, gm in zip(xv, g_qkv)]
        g_w = [gw[:, i * d_f:(i + 1) * d_f] for i in range(3) for gw in g_wqkv]
        g_w += [*(u @ np.swapaxes(g_vhat, 1, 2)), vhat @ g.T]
        # array inputs are constants here: skipping their gradient saves M GEMMs
        g_x = [wqkv[m] @ g_qkv[m] if wants_grad[m] else None for m in range(m_count)]
        return (*g_w, *g_x)

    fusion = Fusion(p, params, xv, wh.T @ vhat, vjp)
    return fusion.record(tape, xs), fusion


def fuse_one(tape, x_cols, params):
    """Fuse a single patient given per-modality vectors; returns (d x 1, maps)."""
    xs = [np.asarray(x, dtype=np.float64).reshape(-1, 1) for x in x_cols]
    return fuse_batch(tape, xs, params)
