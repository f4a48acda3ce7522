"""The learned-graph block that training runs: adjacency, degree
normalisation, the two-layer GCN and the four loss terms as one tape node.

No (N, N) array is formed. Each pass visits A as `row_tiles` of `TILE` rows,
made afresh by the graph kind's edge rule (agl) over all N nodes: for a
learned graph, one K=d_a GEMM of the unit-norm projection Zn (d_a, N). Every
graph kind gives a symmetric A, so a product with A^T is taken as one with A,
and A's column sums as its row sums.

With s = deg^-1/2 of A~ = A (+ I), P = H^T W0 and A_norm = s A~ s, every pass
reads the tiles of A~, its self weight on their diagonal, as `predict` does:

- forward, two tile passes: (1) `normalized_product`: degrees, the Frobenius
  sum, and layer 1 with the smoothness product as A~ [s o P | H^T];
  (2) layer 2, plus the cross-entropy gradient rows g_L of each tile and
  A~ (s o g_L);
- backward, one: (3) the rows of A~ (s o g_U) for the layer-1 gradient and,
  for a learned graph, the masked dA tile as one GEMM, folded into dZn. The
  VJP returns every parent's gradient, and numcore's backward drops a frozen
  one's: skipping it would save only O(N d d_h) beside pass 3.
Passes 1 and 2 sum their products as sum_r A~_r^T rhs_r, rhs_r from the tile's
own rows; pass 3 cannot, as its dA tile needs whole rows of A_norm g_U.
The loss terms are A's: with self-loops, A's row sums are deg - 1, A H^T is
A~ H^T - H^T and ||A||_F^2 is ||A~||_F^2 - 3N (the dA tile zeroes its diagonal).

The row and column sums of dA_norm o A_norm that the normalisation's VJP needs
come without a pass of their own. With L the logits, U = A_norm P the layer-1
pre-activation and V its activation times W1: row_i = dL_i . L_i + g_U,i . U_i
and col_i = V_i . dV_i + P_i . dP_i, where dP_i is the tile's own row of
A_norm g_U.

A known limit: smoothness is 2 (||h||^2 . rowsum) - 2 <H^T, A H^T>, a
difference of large sums, so once small `loss_smooth` keeps about eight
significant digits, as does the h gradient's `hv * rowsum - ha.T`. The exact
pairwise form would cost an O(N^2 d) elementwise pass.

Export reads a fitted model's A through the same tiles, and inductive scoring
also the tiles of A~[S][:, S] over one patient's neighbours S (`nodes`).
agl.learned_adjacency, gcn.normalize_adj, gcn.gcn_forward and
train.total_loss compose the block's function from dense primitives; they run
only in the tests, which hold the block to them.
"""
from __future__ import annotations

import numpy as np

from . import numcore as nc
from .agl import DEGREE_GUARD, TILE
from .errors import DimensionError
from .gcn import DEGREE_FLOOR


def row_tiles(n, edges, diag=1.0, nodes=None):
    """(lo, hi, A[lo:hi]) over the row tiles of the (N, N) adjacency whose
    edge rule is `edges` (agl): fresh arrays, with `diag` on A's diagonal (1;
    2 gives the rows of A + I). Given `nodes`, sorted distinct indices S, the
    tiles are those of A[S][:, S] and lo:hi index S. The generator lets go of
    each tile once it is yielded, so a consumer that deletes its own
    reference before asking for the next holds one tile at a time."""
    size = n if nodes is None else len(nodes)
    cols = slice(None) if nodes is None else nodes
    for lo in range(0, size, TILE):
        hi = min(lo + TILE, size)
        a = edges(slice(lo, hi) if nodes is None else nodes[lo:hi], cols)
        if a.shape != (hi - lo, size):
            raise DimensionError(f"rows {lo}:{hi} of a graph over {size} nodes have shape "
                                 f"{a.shape}")
        np.fill_diagonal(a[:, lo:], diag)  # where a row node meets itself
        yield lo, hi, a
        del a


def normalized_product(n, edges, diag, p, x):
    """One pass over the row tiles of A~ (`diag` on A's diagonal): its degrees,
    s = deg^-1/2 floored at DEGREE_FLOOR, ||A~||_F^2 and A~ [s o p | x]. A~ is
    symmetric, so the product is sum_r A~_r^T [s_r o p_r | x_r]: each tile
    needs only its own rows' degrees."""
    deg, s, frob = np.empty(n), np.empty(n), 0.0
    prod = np.zeros((n, p.shape[1] + x.shape[1]))
    part = np.empty_like(prod)
    for lo, hi, a in row_tiles(n, edges, diag):
        deg[lo:hi] = a.sum(axis=1)
        s[lo:hi] = 1.0 / np.sqrt(np.maximum(deg[lo:hi], DEGREE_FLOOR))
        frob += np.vdot(a, a)
        rhs = np.concatenate([s[lo:hi, None] * p[lo:hi], x[lo:hi]], axis=1)
        prod += np.matmul(a.T, rhs, out=part)
        del a  # each pass releases its tile before the next is built
    return deg, s, frob, prod


def graph_block(tape, h, w0, w1, labels=None, mask=None, *, edges, zn=None,
                add_self_loops=False, keep=None):
    """Loss terms and logits of the graph, the GCN and the joint objective.

    h: fused features (d, N); edges: A's edge rule (row_tiles); zn: the learned
    graph's Zn (d_a, N) that `edges` reads, else None; w0 (d, d_h), w1 (d_h, C);
    keep: the dropout keep mask (N, d_h), already scaled, or None.
    Each pass reads the tiles of A~, as `predict` does; the loss terms are A's.
    h, zn, w0 and w1 are Nodes.

    Returns (terms, logits): terms is one tape node of value [task, smooth,
    con, reg], and logits the (N, C) array. Without labels only the logits are
    computed and terms is None.
    """
    hv, w0v, w1v = h.value, w0.value, w1.value
    znv = None if zn is None else zn.value
    d, n = hv.shape
    if w0v.shape[0] != d or w1v.shape[0] != w0v.shape[1]:
        raise DimensionError(f"GCN weights {w0v.shape}, {w1v.shape} do not fit H {hv.shape}")

    # pass 1: degrees, the Frobenius sum, and layer 1 with A~ H^T
    diag = 2.0 if add_self_loops else 1.0  # a node's own entry in A~
    x = hv.T
    p = x @ w0v
    deg, s, frob, prod = normalized_product(n, edges, diag, p, x)
    col = s[:, None]
    sp = col * p
    d_h = p.shape[1]
    u = prod[:, :d_h]
    u *= col
    hidden = np.maximum(u, 0.0)
    if keep is not None:
        hidden *= keep
    v = hidden @ w1v
    sv = col * v

    # pass 2: layer 2; with labels, the task gradient rows and A~ (s o g_L)
    logits = np.empty_like(v)
    if labels is not None:
        wt, lab = nc.label_weights(labels, mask, n, v.shape[1])
        task, gl, yl = 0.0, np.empty_like(v), np.zeros_like(v)
    for lo, hi, a in row_tiles(n, edges, diag):
        lg = a @ sv
        lg *= col[lo:hi]
        logits[lo:hi] = lg
        if labels is not None:
            loss, g = nc.cross_entropy_rows(lg, lab[lo:hi], wt[lo:hi])
            task += loss
            gl[lo:hi] = g
            yl += a.T @ (col[lo:hi] * g)
        del a
    if labels is None:
        return None, logits
    rowsum, ha = deg, prod[:, d_h:]  # A's row sums and rows of A H^T
    if add_self_loops:  # the loss terms read A: take the self-loops back out
        rowsum, ha, frob = deg - 1.0, ha - x, frob - 3.0 * n

    sq = np.einsum("ij,ij->j", hv, hv)  # ||h_i||^2
    scale = 1.0 / (2.0 * n * n)
    smooth = (2.0 * (sq @ rowsum) - 2.0 * np.vdot(x, ha)) * scale
    con = -np.log(rowsum + DEGREE_GUARD).sum() / n
    reg = frob / (n * n)

    def vjp(g):
        g_task, g_smooth, g_con, g_reg = (float(t) for t in g)
        c = g_smooth * scale
        d_logits = g_task * gl
        dv = (g_task * col) * yl  # A_norm dL
        gu = dv @ w1v.T
        gu *= u > 0
        if keep is not None:
            gu *= keep
        su = col * gu
        dp = np.empty_like(su)  # A_norm g_U
        if zn is not None:
            # dA_ij = left_i . right_j: the normalisation, smoothness and
            # connectivity terms in one GEMM; the sparsity term is 2 g a_ij / N^2
            right = np.concatenate([sv, sp, x, np.ones((n, 1)), sq[:, None]], axis=1)
            known = (d_logits * logits).sum(axis=1) + (gu * u).sum(axis=1) \
                + (v * dv).sum(axis=1)
            k_reg = 2.0 * g_reg / (n * n)
            dz = np.zeros_like(znv)
        # pass 3: rows of A~ (s o g_U); for a learned graph also the dA tile,
        # masked to the edges off the diagonal, folded into dZn. Its unit
        # diagonal keeps every degree >= 1, above the floor.
        for lo, hi, a in row_tiles(n, edges, diag):
            yu = a @ su
            dp[lo:hi] = col[lo:hi] * yu
            if zn is None:
                del a
                continue
            t = (known[lo:hi] + (p[lo:hi] * dp[lo:hi]).sum(axis=1)) * (-0.5 * s[lo:hi] ** 2)
            row = t + c * sq[lo:hi] - g_con / n / (rowsum[lo:hi] + DEGREE_GUARD)
            left = np.concatenate([col[lo:hi] * d_logits[lo:hi], su[lo:hi],
                                   (-2.0 * c) * x[lo:hi], row[:, None],
                                   np.full((hi - lo, 1), c)], axis=1)
            da = left @ right.T
            edge = a > 0
            a *= k_reg
            da += a
            da *= edge
            np.fill_diagonal(da[:, lo:], 0.0)
            dz += znv[:, lo:hi] @ da
            dz[:, lo:hi] += znv @ da.T
            del a, da, edge
        d_h = w0v @ dp.T + (4.0 * c) * (hv * rowsum - ha.T)
        d_w0, d_w1 = hv @ dp, hidden.T @ dv
        return (d_h, d_w0, d_w1) if zn is None else (d_h, dz, d_w0, d_w1)

    parents = tuple(t for t in (h, zn, w0, w1) if t is not None)
    terms = tape._record(np.array([task, smooth, con, reg]), parents, vjp)
    return terms, logits
