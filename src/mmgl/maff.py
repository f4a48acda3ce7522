"""Modal-attentional feature fusion.

Per patient, each modality is projected to query/key/value vectors of a common
width, an inter-modal score matrix is softmax-normalised into an attention map,
and values are aggregated across modalities with a residual connection before
two projection layers produce the fused feature. Everything is vectorised over
patients, heads and modality pairs; the attention map is patient-specific.
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


def fuse_batch(tape, xs, params):
    """Fuse per-modality feature blocks (d_m, N) into (H: d x N, AttentionMaps).

    Recorded as one tape node whose parents are the 4M+1 weight leaves and the
    M inputs. Q, K and V are stacked as (M, heads, d_h, N); the scores
    S[h, i, j] = <q_i, k_j> / tau are softmax-normalised over the queries i
    ("column") or the keys j ("row"); modality m aggregates v_m + sum_j P[h, m, j] v_j.
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
    leaves = [tape.leaf(p) for p in params.all_params()]
    xv = [x.value for x in xs]
    wq, wk, wv = ([w.value for w in ws] for ws in (params.w_q, params.w_k, params.w_v))
    shape = (m_count, heads, d_f // heads, n)
    q, k, v = (np.stack([w.T @ x for w, x in zip(ws, xv)]).reshape(shape)
               for ws in (wq, wk, wv))
    tau = params.tau
    axis = 1 if params.attention_axis == "column" else 2
    s = np.einsum("ihcn,jhcn->hijn", q, k) / tau
    # a diverging run's infinite scores give NaN here; the loss check reports it
    with np.errstate(invalid="ignore"):
        e = np.exp(s - s.max(axis=axis, keepdims=True))
        p = e / e.sum(axis=axis, keepdims=True)  # (heads, M, M, N)
    u = (v + np.einsum("hmjn,jhcn->mhcn", p, v)).reshape(m_count, d_f, n)
    wm = np.stack([w.value for w in params.w_m])
    vhat = np.einsum("mab,man->mbn", wm, u).reshape(m_count * d_f, n)
    wh = params.w_h.value

    def vjp(g):
        g_vhat = (wh @ g).reshape(m_count, d_f, n)
        g_u = np.einsum("mab,mbn->man", wm, g_vhat).reshape(shape)
        g_p = np.einsum("mhcn,jhcn->hmjn", g_u, v)
        g_s = p * (g_p - (p * g_p).sum(axis=axis, keepdims=True)) / tau
        gq = np.einsum("hijn,jhcn->ihcn", g_s, k).reshape(m_count, d_f, n)
        gk = np.einsum("hijn,ihcn->jhcn", g_s, q).reshape(m_count, d_f, n)
        gv = (g_u + np.einsum("hmjn,mhcn->jhcn", p, g_u)).reshape(m_count, d_f, n)
        g_w = [x @ gm.T for gs in (gq, gk, gv) for x, gm in zip(xv, gs)]
        g_w += [*np.einsum("man,mbn->mab", u, g_vhat), vhat @ g.T]
        # inputs given as arrays became constants here: nothing reads their gradient
        g_x = [wq[m] @ gq[m] + wk[m] @ gk[m] + wv[m] @ gv[m] if wants_grad[m] else None
               for m in range(m_count)]
        return (*g_w, *g_x)

    h = tape._record(wh.T @ vhat, (*leaves, *xs), vjp)
    return h, AttentionMaps(p)


def fuse_one(tape, x_cols, params):
    """Fuse a single patient given per-modality vectors; returns (d x 1, maps)."""
    xs = [np.asarray(x, dtype=np.float64).reshape(-1, 1) for x in x_cols]
    return fuse_batch(tape, xs, params)
