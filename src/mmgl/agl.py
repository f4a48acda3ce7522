"""Adaptive graph structure learning.

The adjacency is the ReLU of a learned weighted cosine similarity between
projected node features, with three regularisers (Dirichlet smoothness, a
log-barrier on node degrees, and a Frobenius penalty) keeping the learned
graph smooth, connected, and sparse. Non-learned constructors (kNN-RBF and
meta-feature agreement) are provided as ablation baselines.

Training evaluates the graph and its regularisers inside block.graph_block,
tile by tile, from `cosine_normalize`'s projection. The dense primitives here
are its reference, and `learned_adjacency` also forms the dense A that a
fitted model caches for export and inductive prediction.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .errors import DimensionError, ParameterError

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
    """Adjacency with provenance; `pre_relu` kept for learned graphs."""

    a: np.ndarray
    provenance: str  # learned | knn | meta | dense
    pre_relu: np.ndarray = None


def cosine_normalize(z):
    """Columns of the node z scaled to unit norm: the learned graph's edge
    kernel is relu of their dot products."""
    n2 = nc.sum_axis(z * z, axis=0)  # (1, N)
    # guard inside the sqrt: same floored value, but the gradient stays
    # finite for a node whose projection is exactly zero
    norm = nc.sqrt(nc.maximum(n2, NORM_GUARD * NORM_GUARD))
    return z / norm


def learned_adjacency(tape, h, params):
    """Differentiable adjacency node relu(Zn^T Zn) with a unit diagonal, where
    Zn is the column-normalised projection W_a^T H. Returns (A, Zn).

    A is one tape node whose backward pass reads the ReLU mask back from A:
    off the diagonal, A > 0 exactly where Zn^T Zn > 0.
    """
    zn = cosine_normalize(tape.leaf(params.w_a).T @ h)
    znv = zn.value
    a = znv.T @ znv
    np.maximum(a, 0.0, out=a)
    np.fill_diagonal(a, 1.0)

    def vjp(g):
        gm = np.where(a > 0, g, 0.0)
        np.fill_diagonal(gm, 0.0)
        return (znv @ gm + znv @ gm.T,)

    return tape._record(a, (zn,), vjp), zn


def learned_graph(h, params):
    """Non-differentiable wrapper: numpy features in, LearnedGraph out."""
    tape = nc.Tape()
    a, zn = learned_adjacency(tape, tape.const(np.asarray(h, dtype=np.float64)), params)
    return LearnedGraph(a.value, "learned", zn.value.T @ zn.value)


def smoothness_loss(tape, h, a):
    """Dirichlet energy sum_ij a_ij ||h_i - h_j||^2 / (2 N^2).

    Uses the trace form sum_ij a_ij (sq_i + sq_j) - 2 sum(H o H A^T), so no
    pairwise N x N matrix is built; A need not be symmetric.
    """
    hv, av = h.value, a.value
    n = av.shape[0]
    if hv.shape[1] != n:
        raise DimensionError(f"H has {hv.shape[1]} columns but A is {av.shape}")
    scale = 1.0 / (2.0 * n * n)
    sq = np.einsum("ij,ij->j", hv, hv)  # ||h_i||^2
    deg = av.sum(axis=1) + av.sum(axis=0)  # row plus column sums
    hat = hv @ av.T
    value = (sq @ deg - 2.0 * np.vdot(hv, hat)) * scale

    def vjp(g):
        c = float(g) * scale
        ga = hv.T @ hv  # the Gram buffer becomes c * ||h_i - h_j||^2 in place
        ga *= -2.0
        ga += sq[:, None]
        ga += sq[None, :]
        ga *= c
        gh = (2.0 * c) * (hv * deg - hat - hv @ av)
        return gh, ga

    return tape._record(value, (h, a), vjp)


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
    av = a.value
    n = av.shape[0]

    def vjp(g):
        return ((2.0 * float(g) / (n * n)) * av,)

    return tape._record(np.vdot(av, av) / (n * n), (a,), vjp)


def graph_loss(tape, h, a, alpha, beta):
    """Smoothness + alpha * connectivity + beta * sparsity; returns each term."""
    smooth = smoothness_loss(tape, h, a)
    con = connectivity_loss(tape, a)
    reg = sparsity_reg(tape, a)
    return smooth + alpha * con + beta * reg, smooth, con, reg


def rbf_kernel(a, b, sigma):
    """(N, B) similarities exp(-||a_i - b_j||^2 / 2 sigma^2) between the columns
    of a (d, N) and b (d, B), the squared distance in Gram form floored at 0."""
    d2 = (a * a).sum(axis=0)[:, None] + (b * b).sum(axis=0)[None, :] - 2.0 * a.T @ b
    return np.exp(-np.maximum(d2, 0.0) / (2.0 * sigma * sigma))


def top_k(w, k, axis):
    """w with all but its k largest entries along `axis` set to zero."""
    nbrs = np.take(np.argpartition(w, -k, axis=axis), range(-k, 0), axis=axis)
    out = np.zeros_like(w)
    np.put_along_axis(out, nbrs, np.take_along_axis(w, nbrs, axis=axis), axis=axis)
    return out


def knn_graph_rbf(h, k, sigma):
    """RBF-kernel kNN graph on numpy features (d, N); symmetrised by max."""
    h = np.asarray(h, dtype=np.float64)
    n = h.shape[1]
    if not 1 <= k < n:
        raise ParameterError(f"k must be in [1, N), got k={k}, N={n}")
    if sigma <= 0:
        raise ParameterError(f"sigma must be positive, got {sigma}")
    w = rbf_kernel(h, h, sigma)
    np.fill_diagonal(w, -np.inf)  # self excluded from the neighbour ranking
    a = top_k(w, k, axis=1)
    a = np.maximum(a, a.T)
    np.fill_diagonal(a, 1.0)
    return LearnedGraph(a, "knn")


def meta_graph(meta, threshold):
    """Agreement graph over discrete meta feature rows (n_meta, N).

    Edge weight is the fraction of meta columns two patients agree on, kept
    only when the agreement count reaches `threshold`.
    """
    meta = np.asarray(meta)
    n_meta, n = meta.shape
    if not 1 <= threshold <= n_meta:
        raise ParameterError(f"threshold must be in [1, {n_meta}], got {threshold}")
    agree = np.zeros((n, n))
    for r in range(n_meta):
        agree += meta[r][:, None] == meta[r][None, :]
    a = np.where(agree >= threshold, agree / n_meta, 0.0)
    np.fill_diagonal(a, 1.0)
    return LearnedGraph(a, "meta")


def identity_graph(n):
    """Self-loops only; turns the GCN into a per-node MLP."""
    return LearnedGraph(np.eye(n), "dense")
