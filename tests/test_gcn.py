"""Adjacency normalisation, the two-layer graph classifier, graph extension."""
import numpy as np
import pytest

from mmgl import numcore as nc
from mmgl.agl import graph_loss, init_agl, learned_adjacency
from mmgl.data import ModalitySchema
from mmgl.errors import DimensionError, ParameterError
from mmgl.gcn import (
    DEGREE_FLOOR, GcnParams, extend_adjacency, gcn_forward, gcn_forward_np, init_gcn,
    normalize_adj, normalize_adj_np,
)
from mmgl.maff import fuse_batch, init_maff
from reference_ops import sum_all


def norm_np(a, self_loops=False):
    t = nc.Tape()
    return normalize_adj(t, t.const(np.asarray(a, dtype=np.float64)), self_loops).value


# ---------------------------------------------------------- normalize_adj

def test_normalize_single_isolated_node_with_self_loop():
    assert np.array_equal(norm_np(np.zeros((1, 1)), self_loops=True), [[1.0]])


def test_normalize_two_node_hand_case():
    # all-ones 2x2 (unit diagonal already present): D = 2I, entries 1/2
    out = norm_np(np.ones((2, 2)))
    assert np.allclose(out, 0.5)


def test_normalize_row_sums_one_on_regular_graphs():
    ring = np.eye(4)[np.r_[1, 2, 3, 0]] + np.eye(4)[np.r_[3, 0, 1, 2]]
    assert np.allclose(norm_np(ring).sum(axis=1), 1.0)
    complete = np.ones((6, 6)) - np.eye(6)
    assert np.allclose(norm_np(complete).sum(axis=1), 1.0)
    # a non-regular graph: strictly below 1 somewhere
    chain = np.diag(np.ones(3), 1) + np.diag(np.ones(3), -1)
    assert norm_np(chain, self_loops=True).sum(axis=1).min() < 1.0


def test_normalize_symmetric_and_bounded_spectrum():
    rng = np.random.default_rng(1)
    for _ in range(10):
        n = rng.integers(2, 8)
        a = np.abs(rng.normal(size=(n, n)))
        a = (a + a.T) / 2
        out = norm_np(a, self_loops=True)
        assert np.allclose(out, out.T)
        v = rng.normal(size=n)
        for _ in range(200):  # power iteration
            v = out @ v
            v /= np.linalg.norm(v)
        rho = abs(v @ out @ v)
        assert rho <= 1 + 1e-6


def test_normalize_matches_numpy_twin():
    rng = np.random.default_rng(2)
    a = np.abs(rng.normal(size=(5, 5)))
    a = (a + a.T) / 2
    assert np.allclose(norm_np(a), normalize_adj_np(a))
    assert np.allclose(norm_np(a, True), normalize_adj_np(a, True))


def test_normalize_rejects_non_square():
    t = nc.Tape()
    with pytest.raises(DimensionError):
        normalize_adj(t, t.const(np.ones((2, 3))))


def test_normalize_gradient():
    rng = np.random.default_rng(3)
    p = nc.Param(np.abs(rng.normal(size=(4, 4))) + 0.1, "a")
    p.value[...] = (p.value + p.value.T) / 2

    def build2(tape):
        out = normalize_adj(tape, tape.leaf(p))
        return sum_all(out * out)

    assert nc.grad_check(build2, [p], rng=rng) < 1e-4


# ------------------------------------------ gradients and an independent form
# normalize_adj is a composition of numcore ops: its values are held to the
# textbook D^-1/2 A D^-1/2 in numpy, and its gradients to finite differences.

def normalize_textbook(a, self_loops=False):
    """D^-1/2 A D^-1/2 (of A + I with self-loops) as numpy products with a
    diagonal matrix, each degree floored at DEGREE_FLOOR."""
    if self_loops:
        a = a + np.eye(a.shape[0])
    d = np.diag(np.maximum(a.sum(axis=1), DEGREE_FLOOR) ** -0.5)
    return d @ a @ d


def rel_err(x, ref):
    return float(np.abs(x - ref).max() / np.abs(ref).max())


@pytest.mark.parametrize("self_loops", [False, True])
@pytest.mark.parametrize("case", ["symmetric", "non_symmetric", "zero_row", "isolated"])
def test_fused_normalize_matches_reference(case, self_loops):
    rng = np.random.default_rng(13)
    a_np = np.abs(rng.normal(size=(7, 7)))
    if case == "symmetric":
        a_np = (a_np + a_np.T) / 2
    elif case == "zero_row":
        a_np[2] = 0.0  # degree 0 hits the 1e-12 floor unless self-loops are added
    elif case == "isolated":
        a_np[2] = 0.0
        a_np[:, 2] = 0.0
    a = nc.Param(a_np, "A")
    weights = rng.normal(size=(7, 7))
    assert rel_err(norm_np(a_np, self_loops), normalize_textbook(a_np, self_loops)) < 1e-12
    # a degree on the floor is a kink, where finite differences are one-sided:
    # the floored row is held at zero for them, and its own gradient is the
    # direct term w_ij s_i s_j alone, as the floor passes none through s_i
    deg = a_np.sum(axis=1) + (1.0 if self_loops else 0.0)
    floored = deg <= DEGREE_FLOOR
    keep = np.where(floored[:, None], 0.0, 1.0)

    def build(tape):
        return sum_all(normalize_adj(tape, tape.leaf(a) * keep, self_loops) * weights)

    assert nc.grad_check(build, [a], rng=rng, max_coords=a_np.size) < 1e-6
    assert floored.any() == (case in ("zero_row", "isolated") and not self_loops)
    if floored.any():
        a.zero_grad()
        tape = nc.Tape()
        tape.backward(sum_all(normalize_adj(tape, tape.leaf(a), self_loops) * weights))
        s = np.maximum(deg, DEGREE_FLOOR) ** -0.5
        assert rel_err(a.grad[floored], (weights * s[:, None] * s)[floored]) < 1e-12


@pytest.mark.parametrize("self_loops", [False, True])
def test_fused_normalize_grad_check_non_symmetric(self_loops):
    rng = np.random.default_rng(14)
    p = nc.Param(np.abs(rng.normal(size=(5, 5))) + 0.1, "a")
    weights = rng.normal(size=(5, 5))

    def build(tape):
        return sum_all(normalize_adj(tape, tape.leaf(p), self_loops) * weights)

    assert nc.grad_check(build, [p], rng=rng) < 1e-6


# ------------------------------------------------------------ gcn_forward

def random_gcn(d, d_h, c, seed=0):
    return init_gcn(d, d_h, c, np.random.default_rng(seed))


def test_identity_adjacency_is_per_node_mlp():
    rng = np.random.default_rng(4)
    params = random_gcn(3, 5, 2, seed=5)
    h = rng.normal(size=(3, 4))
    t = nc.Tape()
    logits = gcn_forward(t, t.const(h), t.const(np.eye(4)), params)
    mlp = np.maximum(h.T @ params.w0.value, 0.0) @ params.w1.value
    assert np.allclose(logits.value, mlp)


def test_duplicate_nodes_get_identical_logits():
    rng = np.random.default_rng(6)
    params = random_gcn(2, 4, 3, seed=7)
    h = rng.normal(size=(2, 3))
    h[:, 2] = h[:, 0]
    a = np.array([[1.0, 0.3, 1.0], [0.3, 1.0, 0.3], [1.0, 0.3, 1.0]])
    t = nc.Tape()
    a_norm = normalize_adj(t, t.const(a))
    logits = gcn_forward(t, t.const(h), a_norm, params).value
    assert np.allclose(logits[0], logits[2])


def test_four_node_straight_line_oracle():
    rng = np.random.default_rng(8)
    params = random_gcn(3, 4, 2, seed=9)
    h = rng.normal(size=(3, 4))
    a = np.abs(rng.normal(size=(4, 4)))
    a = (a + a.T) / 2
    an = normalize_adj_np(a)
    t = nc.Tape()
    logits = gcn_forward(t, t.const(h), t.const(an), params).value
    expect = an @ np.maximum(an @ (h.T @ params.w0.value), 0.0) @ params.w1.value
    assert np.allclose(logits, expect)
    assert np.allclose(gcn_forward_np(h, an, params), expect)


def test_permutation_equivariance():
    rng = np.random.default_rng(10)
    params = random_gcn(2, 3, 2, seed=11)
    h = rng.normal(size=(2, 5))
    a = np.abs(rng.normal(size=(5, 5)))
    a = (a + a.T) / 2
    perm = rng.permutation(5)
    base = gcn_forward_np(h, normalize_adj_np(a), params)
    permuted = gcn_forward_np(h[:, perm], normalize_adj_np(a[np.ix_(perm, perm)]), params)
    assert np.allclose(base[perm], permuted)


def test_dropout_needs_rng():
    params = random_gcn(2, 3, 2)
    t = nc.Tape()
    with pytest.raises(ParameterError):
        gcn_forward(t, t.const(np.zeros((2, 3))), t.const(np.eye(3)), params, dropout=0.5)


def test_init_gcn_validation():
    with pytest.raises(ParameterError):
        init_gcn(4, 0, 2, np.random.default_rng(0))


# ------------------------------------------------------- extend_adjacency

def test_extend_adjacency_structure():
    a = np.array([[1.0, 0.4], [0.4, 1.0]])
    sims = np.array([0.2, 0.9])
    out = extend_adjacency(a, sims)
    assert out.shape == (3, 3)
    assert np.array_equal(out[:2, :2], a)
    assert np.array_equal(out[2, :2], sims) and np.array_equal(out[:2, 2], sims)
    assert out[2, 2] == 1.0
    assert np.array_equal(out, out.T)


def test_extend_adjacency_shape_error():
    with pytest.raises(DimensionError):
        extend_adjacency(np.eye(3), np.zeros(2))


# ----------------------------------------- end-to-end differentiability

def test_full_pipeline_gradient_eight_nodes():
    # the central claim: task + graph losses differentiate through the GCN,
    # the learned adjacency, and the fusion stack in one pass
    rng = np.random.default_rng(12)
    schema = ModalitySchema((("m0", 2), ("m1", 3), ("m2", 2)))
    mp = init_maff(schema, 4, 4, 2, rng)
    ap = init_agl(4, 4, rng)
    gp = init_gcn(4, 4, 2, rng)
    xs = [rng.normal(size=(d, 8)) for d in (2, 3, 2)]
    labels = np.array([0, 1, 0, 1, 1, 0, 1, 0])

    def build(tape):
        h, _ = fuse_batch(tape, xs, mp)
        a, _ = learned_adjacency(tape, h, ap)
        a_norm = normalize_adj(tape, a)
        logits = gcn_forward(tape, h, a_norm, gp)
        task = nc.cross_entropy_masked(logits, labels, np.arange(8))
        g_total, *_ = graph_loss(tape, h, a, 0.5, 0.5)
        return task + 1.0 * g_total

    params = mp.all_params() + ap.all_params() + gp.all_params()
    assert nc.grad_check(build, params, rng=rng) < 1e-4
