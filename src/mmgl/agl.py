"""Adaptive graph structure learning.

The adjacency is the ReLU of a learned weighted cosine similarity between
projected node features, with three regularisers (Dirichlet smoothness, a
log-barrier on node degrees, and a Frobenius penalty) keeping the learned
graph smooth, connected, and sparse. Non-learned graphs (kNN-RBF, meta-feature
agreement and the identity) are provided as ablation baselines.

An edge rule, edges(rows, cols), gives the block A[rows][:, cols] of a graph's
adjacency as a fresh array, with any value where a row node meets itself;
rows and cols are slices or sorted index arrays over the N nodes. It is read
only as block.row_tiles, which writes the diagonal: over all N nodes in
training, export and the inductive passes every patient shares, and over one
unseen patient's neighbours for that patient's correction. The learned
graph's rule takes `cosine_edges` of its projection (also the inductive
kernel), and `knn_edges`, `meta_edges` and `no_edges` build the others' from
O(N d) state. The dense tape layers here, the block's reference that only the
acceptance gate and the tests run, compose numcore ops; only the log barrier
on degrees records a node of its own, as numcore has no log.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .errors import DimensionError, ParameterError

# Rows per tile of A. Fixed, never sized from N: BLAS rounds a product differently
# depending on its width, and the outputs must not depend on the workload.
TILE = 128
NORM_GUARD = 1e-12  # floor on embedding norms; a degenerate node gets ~0 similarity
DEGREE_GUARD = 1e-8  # keeps the log barrier finite for near-isolated nodes


@dataclass
class AglParams:
    w_a: "nc.Param"  # (d, d_a)

    def all_params(self):
        return [self.w_a]


def init_agl(d, d_a, rng):
    if d_a < 1:
        raise ParameterError(f"projection width d_a must be >= 1, got {d_a}")
    return AglParams(nc.glorot(rng, d, d_a, "w_a"))


@dataclass
class LearnedGraph:
    """A learned graph's dense adjacency."""

    a: np.ndarray


def cosine_normalize(z):
    """Columns of the node z scaled to unit norm: the learned graph's edge
    kernel is relu of their dot products."""
    n2 = nc.sum_axis(z * z, axis=0)  # (1, N)
    # guard inside the sqrt: same floored value, but the gradient stays
    # finite for a node whose projection is exactly zero
    norm = nc.sqrt(nc.maximum(n2, NORM_GUARD * NORM_GUARD))
    return z / norm


def cosine_edges(z_rows, z):
    """The learned graph's edge weights relu(z_rows^T z), (R, N), between the
    unit-norm projections z_rows (d_a, R) and z (d_a, N); no unit diagonal."""
    a = z_rows.T @ z
    np.maximum(a, 0.0, out=a)
    return a


def learned_adjacency(tape, h, params):
    """Differentiable adjacency relu(Zn^T Zn) with a unit diagonal, where Zn is
    the column-normalised projection W_a^T H. Returns (A, Zn)."""
    zn = cosine_normalize(tape.leaf(params.w_a).T @ h)
    eye = np.eye(zn.value.shape[1])
    return nc.relu(zn.T @ zn) * (1.0 - eye) + eye, zn


def learned_graph(h, params):
    """Non-differentiable wrapper: numpy features in, LearnedGraph out."""
    tape = nc.Tape(trainable=())
    a, _ = learned_adjacency(tape, tape.const(np.asarray(h, dtype=np.float64)), params)
    return LearnedGraph(a.value)


def _total(x):
    """The sum of every entry of the node x, as a scalar node."""
    return nc.sum_axis(x, axis=(0, 1), keepdims=False)


def smoothness_loss(tape, h, a):
    """Dirichlet energy sum_ij a_ij ||h_i - h_j||^2 / (2 N^2).

    Uses the trace form sum_ij a_ij (sq_i + sq_j) - 2 sum(H o H A^T), so no
    pairwise N x N matrix is built; A need not be symmetric.
    """
    n = a.value.shape[0]
    if h.value.shape[1] != n:
        raise DimensionError(f"H has {h.value.shape[1]} columns but A is {a.value.shape}")
    sq = nc.sum_axis(h * h, axis=0)  # (1, N): ||h_i||^2
    deg = nc.sum_axis(a, axis=1).T + nc.sum_axis(a, axis=0)  # row plus column sums
    return (_total(sq * deg) - 2.0 * _total(h * (h @ a.T))) / (2.0 * n * n)


def connectivity_loss(tape, a):
    """Log-barrier on node degrees; zero when every degree is one."""
    av = a.value
    n = av.shape[0]
    deg = av.sum(axis=1) + DEGREE_GUARD

    def vjp(g):
        # every entry of row i moves degree i alike: a broadcast view suffices
        return (np.broadcast_to((-float(g) / n / deg)[:, None], av.shape),)

    return tape._record(-np.log(deg).sum() / n, (a,), vjp)


def sparsity_reg(tape, a):
    """Mean squared edge weight (Frobenius norm squared over N^2)."""
    n = a.value.shape[0]
    return _total(a * a) / (n * n)


def graph_loss(tape, h, a, alpha, beta):
    """Smoothness + alpha * connectivity + beta * sparsity; returns each term."""
    smooth = smoothness_loss(tape, h, a)
    con = connectivity_loss(tape, a)
    reg = sparsity_reg(tape, a)
    return smooth + alpha * con + beta * reg, smooth, con, reg


def rbf_kernel(a, b, sigma):
    """(N, B) similarities exp(-||a_i - b_j||^2 / 2 sigma^2) between the columns
    of a (d, N) and b (d, B), the squared distance in Gram form floored at 0;
    in place in one (N, B) buffer besides the Gram product."""
    d2 = (a * a).sum(axis=0)[:, None] + (b * b).sum(axis=0)[None, :]
    d2 -= 2.0 * a.T @ b
    np.maximum(d2, 0.0, out=d2)
    d2 /= -2.0 * sigma * sigma
    return np.exp(d2, out=d2)


def top_k(w, k, axis):
    """w with all but its k largest entries along `axis` set to zero."""
    nbrs = np.take(np.argpartition(w, -k, axis=axis), range(-k, 0), axis=axis)
    out = np.zeros_like(w)
    np.put_along_axis(out, nbrs, np.take_along_axis(w, nbrs, axis=axis), axis=axis)
    return out


def knn_edges(h, k, sigma):
    """The kNN-RBF graph's edge rule over features h (d, N): each node lists
    its k most similar others (rbf_kernel, in row tiles), and a pair listed
    either way is an edge, weighted by the larger listed weight."""
    h = np.asarray(h, dtype=np.float64)
    n = h.shape[1]
    if not (1 <= k < n and sigma > 0):
        raise ParameterError(f"kNN needs 1 <= k < N and sigma > 0, got k={k}, N={n}, "
                             f"sigma={sigma}")
    nbrs, w = np.empty((n, k), dtype=np.intp), np.empty((n, k))
    for lo in range(0, n, TILE):
        sims = rbf_kernel(h[:, lo:lo + TILE], h, sigma)
        np.fill_diagonal(sims[:, lo:], -np.inf)  # self excluded from the neighbour ranking
        nbrs[lo:lo + TILE] = top = np.argpartition(sims, -k, axis=1)[:, -k:]
        w[lo:lo + TILE] = np.take_along_axis(sims, top, axis=1)
        del sims, top  # freed before the next tile's kernel is formed
    nodes = np.arange(n)

    def edges(rows, cols):
        rows, cols = nodes[rows], nodes[cols]
        a = np.zeros((rows.size, cols.size))
        # the rows' own lists, then the columns' lists written into a^T; a
        # node lists another at most once, so no (i, j) repeats in one pass
        for listing, listed, out in ((rows, cols, a), (cols, rows, a.T)):
            at = np.full(n, -1)
            at[listed] = np.arange(listed.size)
            pos = at[nbrs[listing]]
            i, t = np.nonzero(pos >= 0)
            j = pos[i, t]
            out[i, j] = np.maximum(out[i, j], w[listing[i], t])
        return a

    return edges


def meta_edges(meta, threshold):
    """The agreement graph's edge rule over discrete meta rows (n_meta, N): the
    fraction of meta columns two patients agree on, if at least `threshold`."""
    meta = np.asarray(meta)
    n_meta, n = meta.shape
    if not 1 <= threshold <= n_meta:
        raise ParameterError(f"threshold must be in [1, {n_meta}], got {threshold}")

    def edges(rows, cols):
        m_rows, m_cols = meta[:, rows], meta[:, cols]
        a = np.zeros((m_rows.shape[1], m_cols.shape[1]))  # agreement counts
        for r in range(n_meta):
            np.add(a, m_rows[r, :, None] == m_cols[r], out=a)
        if threshold > 1:  # every count of 1 or more already reaches a threshold of 1
            a *= a >= threshold
        a /= n_meta
        return a

    return edges


def no_edges(n):
    """The identity graph's edge rule over n nodes: no edge off the diagonal."""
    nodes = np.arange(n)
    return lambda rows, cols: np.zeros((nodes[rows].size, nodes[cols].size))
