"""The learned-graph block that training runs: adjacency, degree
normalisation, the two-layer GCN and the four loss terms as one tape node.

No (N, N) array is kept. Each pass visits A as row tiles of `TILE` rows,
recomputed from the unit-norm projection Zn (d_a, N) with one K=d_a GEMM for a
learned graph, or sliced from the fixed adjacency for the kNN, meta and
identity graphs. Every graph kind gives a symmetric A, so a product with A^T
is taken as one with A, and A's column sums as its row sums.

With s = deg^-1/2 of A~ = A (+ I), P = H^T W0 and A_norm = s A~ s:

- forward, three tile passes: (1) degrees and the Frobenius sum;
  (2) layer 1 and the smoothness product as one GEMM A_r [s o P | H^T];
  (3) layer 2, plus the cross-entropy gradient rows g_L of each tile and
  A (s o g_L);
- backward, one: (4) the rows of A (s o g_U) for the layer-1 gradient and,
  for a learned graph, the masked dA tile as one GEMM, folded into dZn.

The row and column sums of dA_norm o A_norm that the normalisation's VJP needs
come without a pass of their own. With L the logits, U = A_norm P the layer-1
pre-activation and V its activation times W1: row_i = dL_i . L_i + g_U,i . U_i
and col_i = V_i . dV_i + P_i . dP_i, where dP_i is the tile's own row of
A_norm g_U.

agl.learned_adjacency, gcn.normalize_adj, gcn.gcn_forward and
train.total_loss compose the same function from dense primitives; the tests
hold the block to them.
"""
from __future__ import annotations

import numpy as np

from . import numcore as nc
from .agl import DEGREE_GUARD
from .errors import DimensionError, ParameterError
from .gcn import DEGREE_FLOOR

# Rows per tile. Fixed, never sized from N: BLAS rounds a product differently
# depending on its width, and the outputs must not depend on the workload.
TILE = 128


def _tiles(zn, adj):
    """(lo, hi, A[lo:hi]) over the row tiles of A. A learned tile is
    relu(Zn_r^T Zn) with a unit diagonal, a fresh array; a fixed one is a view."""
    n = adj.shape[0] if zn is None else zn.shape[1]
    for lo in range(0, n, TILE):
        hi = min(lo + TILE, n)
        if zn is None:
            yield lo, hi, adj[lo:hi]
            continue
        a = zn[:, lo:hi].T @ zn
        np.maximum(a, 0.0, out=a)
        r = np.arange(hi - lo)
        a[r, r + lo] = 1.0
        yield lo, hi, a


def _cross_entropy(lg, lab, wt):
    """sum_i wt_i (logsumexp(lg_i) - lg_i[lab_i]) over the rows with wt_i > 0,
    and its gradient (zero on the other rows)."""
    g = np.zeros_like(lg)
    k = np.flatnonzero(wt)
    if k.size == 0:
        return 0.0, g
    sel, lab, r = lg[k], lab[k], np.arange(k.size)
    m = sel.max(axis=1, keepdims=True)
    e = np.exp(sel - m)
    z = e.sum(axis=1, keepdims=True)
    loss = wt[k] @ (m[:, 0] + np.log(z[:, 0]) - sel[r, lab])
    p = e / z
    p[r, lab] -= 1.0
    g[k] = p * wt[k, None]
    return float(loss), g


def _label_weights(labels, mask, n, n_classes):
    """Per-row cross-entropy weights (1/|mask| on the mask) and labels that are
    valid on every row."""
    mask, lab = nc.masked_labels(labels, mask, n_classes)
    full = np.zeros(n, dtype=np.int64)
    full[mask] = lab
    return np.bincount(mask, minlength=n) / mask.size, full


def graph_block(tape, h, w0, w1, labels=None, mask=None, *, zn=None, adj=None,
                add_self_loops=False, keep=None):
    """Loss terms and logits of the graph, the GCN and the joint objective.

    h: fused features (d, N); zn: the learned graph's unit-norm projection
    (d_a, N), or adj: a fixed symmetric (N, N) adjacency; w0 (d, d_h), w1
    (d_h, C); keep: the dropout keep mask (N, d_h), already scaled, or None.
    h, zn, w0 and w1 are Nodes; the VJP forms the gradients of those whose
    `needs_grad` is set, and no other.

    Returns (terms, logits): terms is one tape node of value [task, smooth,
    con, reg], and logits the (N, C) array. Without labels only the logits are
    computed and terms is None.
    """
    if (zn is None) == (adj is None):
        raise ParameterError("graph_block needs exactly one of zn and adj")
    hv, w0v, w1v = h.value, w0.value, w1.value
    znv = None if zn is None else zn.value
    d, n = hv.shape
    if (adj is not None and adj.shape != (n, n)) or (znv is not None and znv.shape[1] != n):
        raise DimensionError(f"H has {n} columns but the graph source is "
                             f"{(adj if znv is None else znv).shape}")
    if w0v.shape[0] != d or w1v.shape[0] != w0v.shape[1]:
        raise DimensionError(f"GCN weights {w0v.shape}, {w1v.shape} do not fit H {hv.shape}")

    def tiles():
        return _tiles(znv, adj)

    # pass 1: degrees and the Frobenius sum
    rowsum = np.empty(n)
    frob = 0.0
    for lo, hi, a in tiles():
        rowsum[lo:hi] = a.sum(axis=1)
        frob += np.vdot(a, a)
    deg = rowsum + 1.0 if add_self_loops else rowsum
    s = 1.0 / np.sqrt(np.maximum(deg, DEGREE_FLOOR))
    col = s[:, None]

    # pass 2: layer 1 and A H^T, one GEMM
    x = hv.T
    p = x @ w0v
    sp = col * p
    rhs = np.concatenate([sp, x], axis=1)
    prod = np.empty((n, rhs.shape[1]))
    for lo, hi, a in tiles():
        prod[lo:hi] = a @ rhs
    d_h = p.shape[1]
    u = prod[:, :d_h] + sp if add_self_loops else prod[:, :d_h]
    u *= col
    ha = prod[:, d_h:]  # rows of A H^T
    hidden = np.maximum(u, 0.0)
    if keep is not None:
        hidden *= keep
    v = hidden @ w1v
    sv = col * v

    # pass 3: layer 2; with labels, the task gradient rows and A (s o g_L)
    logits = np.empty_like(v)
    if labels is not None:
        wt, lab = _label_weights(labels, mask, n, v.shape[1])
        task, gl, yl = 0.0, np.empty_like(v), np.zeros_like(v)
    for lo, hi, a in tiles():
        lg = a @ sv
        if add_self_loops:
            lg += sv[lo:hi]
        lg *= col[lo:hi]
        logits[lo:hi] = lg
        if labels is not None:
            loss, g = _cross_entropy(lg, lab[lo:hi], wt[lo:hi])
            task += loss
            gl[lo:hi] = g
            yl += a.T @ (col[lo:hi] * g)
    if labels is None:
        return None, logits
    if add_self_loops:
        yl += col * gl

    sq = np.einsum("ij,ij->j", hv, hv)  # ||h_i||^2
    scale = 1.0 / (2.0 * n * n)
    smooth = (2.0 * (sq @ rowsum) - 2.0 * np.vdot(x, ha)) * scale
    con = -np.log(rowsum + DEGREE_GUARD).sum() / n
    reg = frob / (n * n)
    wants = [t is not None and t.needs_grad for t in (h, zn, w0, w1)]

    def vjp(g):
        want_h, want_z, want_w0, want_w1 = wants
        g_task, g_smooth, g_con, g_reg = (float(t) for t in g)
        c = g_smooth * scale
        d_logits = g_task * gl
        dv = (g_task * col) * yl  # A_norm dL
        grads = {"w1": hidden.T @ dv if want_w1 else None}
        if want_h or want_z or want_w0:
            gu = dv @ w1v.T
            gu *= u > 0
            if keep is not None:
                gu *= keep
            su = col * gu
            dp = np.empty_like(su)  # A_norm g_U
            if want_z:
                # dA_ij = left_i . right_j: the normalisation, smoothness and
                # connectivity terms in one GEMM; the sparsity term is 2 g a_ij / N^2
                right = np.concatenate([sv, sp, x, np.ones((n, 1)), sq[:, None]], axis=1)
                known = (d_logits * logits).sum(axis=1) + (gu * u).sum(axis=1) \
                    + (v * dv).sum(axis=1)
                k_reg = 2.0 * g_reg / (n * n)
                dz = np.zeros_like(znv)
            # pass 4: rows of A (s o g_U); for a learned graph also the dA
            # tile, masked to the edges off the diagonal, folded into dZn. Its
            # unit diagonal keeps every degree >= 1, above the floor.
            for lo, hi, a in tiles():
                yu = a @ su
                if add_self_loops:
                    yu += su[lo:hi]
                dp[lo:hi] = col[lo:hi] * yu
                if not want_z:
                    continue
                t = (known[lo:hi] + (p[lo:hi] * dp[lo:hi]).sum(axis=1)) \
                    * (-0.5 * s[lo:hi] ** 2)
                row = t + c * sq[lo:hi] - g_con / n / (rowsum[lo:hi] + DEGREE_GUARD)
                left = np.concatenate([col[lo:hi] * d_logits[lo:hi], su[lo:hi],
                                       (-2.0 * c) * x[lo:hi], row[:, None],
                                       np.full((hi - lo, 1), c)], axis=1)
                da = left @ right.T
                edge = a > 0
                a *= k_reg
                da += a
                da *= edge
                r = np.arange(hi - lo)
                da[r, r + lo] = 0.0
                dz += znv[:, lo:hi] @ da
                dz[:, lo:hi] += znv @ da.T
            grads["w0"] = hv @ dp if want_w0 else None
            if want_h:
                grads["h"] = w0v @ dp.T + (4.0 * c) * (hv * rowsum - ha.T)
            if want_z:
                grads["zn"] = dz
        return tuple(grads.get(k) for k, t in zip(("h", "zn", "w0", "w1"), (h, zn, w0, w1))
                     if t is not None)

    parents = tuple(t for t in (h, zn, w0, w1) if t is not None)
    terms = tape._record(np.array([task, smooth, con, reg]), parents, vjp)
    return terms, logits
