"""Learned adjacency, its regularisers, and the baseline graph constructors."""
import numpy as np
import pytest

from mmgl import numcore as nc
from mmgl.agl import (
    DEGREE_GUARD, NORM_GUARD, TILE, AglParams, connectivity_loss, graph_loss, init_agl,
    knn_edges, learned_adjacency, learned_graph, meta_edges, rbf_kernel, smoothness_loss,
    sparsity_reg,
)
from mmgl.errors import DimensionError, ParameterError
from reference_ops import dense_graph, knn_graph_rbf, log, meta_graph, sum_all


def identity_agl(d):
    return AglParams(nc.Param(np.eye(d), "w_a"))


def zn_gram(h, params):
    """Zn^T Zn, the learned graph's cosines before relu, from the unit-norm
    projection Zn that `learned_adjacency` records."""
    tape = nc.Tape(trainable=())
    _, zn = learned_adjacency(tape, tape.const(np.asarray(h, dtype=np.float64)), params)
    return zn.value.T @ zn.value


def wrap(a):
    t = nc.Tape()
    return t, t.const(np.asarray(a, dtype=np.float64))


# ---------------------------------------------------------- learned graph

def test_identical_patients_all_ones():
    h = np.tile(np.array([[1.0], [2.0]]), (1, 4))
    g = learned_graph(h, identity_agl(2))
    assert np.allclose(g.a, 1.0)


def test_orthogonal_embeddings_zero_off_diagonal():
    h = np.array([[1.0, 0.0], [0.0, 1.0]])
    g = learned_graph(h, identity_agl(2))
    assert np.allclose(g.a, np.eye(2))


def test_antipodal_embeddings_clipped_to_zero():
    h = np.array([[1.0, -1.0], [2.0, -2.0]])
    g = learned_graph(h, identity_agl(2))
    assert np.allclose(zn_gram(h, identity_agl(2)), [[1.0, -1.0], [-1.0, 1.0]])
    assert np.allclose(g.a, np.eye(2))


def test_learned_graph_contract_50_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        d, n = rng.integers(2, 6), rng.integers(2, 12)
        params = init_agl(d, d, rng)
        h = rng.normal(size=(d, n))
        a = learned_graph(h, params).a
        assert np.all(np.abs(a - a.T) < 1e-12)
        assert np.all(a >= 0) and np.all(a <= 1 + 1e-12)
        assert np.allclose(np.diag(a), 1.0)


def test_learned_graph_scale_invariant():
    rng = np.random.default_rng(1)
    params = init_agl(3, 3, rng)
    h = rng.normal(size=(3, 8))
    base = learned_graph(h, params).a
    for c in (0.25, 0.5, 2.0, 8.0):  # power-of-two scalings are float-exact
        assert np.array_equal(learned_graph(c * h, params).a, base)
    for c in (0.3, 1.7, 113.0):
        assert np.allclose(learned_graph(c * h, params).a, base, atol=1e-12)


def test_degenerate_node_guarded():
    h = np.array([[1.0, 0.0], [1.0, 0.0]])  # second node projects to zero
    g = learned_graph(h, identity_agl(2))
    assert np.isfinite(g.a).all()
    assert g.a[0, 1] == 0.0 and g.a[1, 1] == 1.0


def test_relu_never_increases_frobenius():
    rng = np.random.default_rng(2)
    for _ in range(10):
        params = init_agl(3, 3, rng)
        h = rng.normal(size=(3, 6))
        g = learned_graph(h, params)
        off = ~np.eye(6, dtype=bool)
        assert np.linalg.norm(g.a[off]) <= np.linalg.norm(zn_gram(h, params)[off]) + 1e-12


# ------------------------------------------------------------- smoothness

def test_smoothness_identical_columns():
    t, a = wrap(np.ones((3, 3)))
    h = t.const(np.tile([[1.0], [2.0]], (1, 3)))
    assert float(smoothness_loss(t, h, a).value) == pytest.approx(0.0, abs=1e-15)


def test_smoothness_hand_case():
    # two scalar nodes at 0 and 2, unit off-diagonal: (1/8) * (4 + 4) = 1
    t, a = wrap([[0.0, 1.0], [1.0, 0.0]])
    h = t.const([[0.0, 2.0]])
    assert float(smoothness_loss(t, h, a).value) == pytest.approx(1.0)


def test_smoothness_linear_in_adjacency():
    rng = np.random.default_rng(3)
    h_np = rng.normal(size=(3, 5))
    a_np = np.abs(rng.normal(size=(5, 5)))
    a_np = (a_np + a_np.T) / 2
    t, a = wrap(a_np)
    one = float(smoothness_loss(t, t.const(h_np), a).value)
    t2, a2 = wrap(2 * a_np)
    assert float(smoothness_loss(t2, t2.const(h_np), a2).value) == pytest.approx(2 * one)


def test_smoothness_matches_trace_form():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n, d = rng.integers(2, 10), rng.integers(1, 5)
        h_np = rng.normal(size=(d, n))
        a_np = np.abs(rng.normal(size=(n, n)))
        a_np = (a_np + a_np.T) / 2
        t, a = wrap(a_np)
        ours = float(smoothness_loss(t, t.const(h_np), a).value)
        lap = np.diag(a_np.sum(axis=1)) - a_np
        trace = np.trace(h_np @ lap @ h_np.T) / (n * n)
        assert abs(ours - trace) < 1e-10


def test_smoothness_shape_error():
    t, a = wrap(np.eye(3))
    with pytest.raises(DimensionError):
        smoothness_loss(t, t.const(np.zeros((2, 4))), a)


# ----------------------------------------------------------- connectivity

def test_connectivity_unit_rows():
    t, a = wrap(np.eye(4))
    assert abs(float(connectivity_loss(t, a).value)) < 1e-7  # degree guard


def test_connectivity_rows_summing_to_e():
    t, a = wrap(np.full((3, 3), np.e / 3))
    assert float(connectivity_loss(t, a).value) == pytest.approx(-1.0, abs=1e-7)


def test_connectivity_monotone():
    t, a = wrap(np.eye(3))
    base = float(connectivity_loss(t, a).value)
    smaller = np.eye(3) * 0.5
    t2, a2 = wrap(smaller)
    assert float(connectivity_loss(t2, a2).value) > base


# --------------------------------------------------------------- sparsity

def test_sparsity_identity():
    t, a = wrap(np.eye(2))
    assert float(sparsity_reg(t, a).value) == pytest.approx(0.5)
    t5, a5 = wrap(np.eye(5))
    assert float(sparsity_reg(t5, a5).value) == pytest.approx(1 / 5)


def test_sparsity_zero():
    t, a = wrap(np.zeros((3, 3)))
    assert float(sparsity_reg(t, a).value) == 0.0


def test_sparsity_quadratic_homogeneity():
    rng = np.random.default_rng(5)
    a_np = rng.normal(size=(4, 4))
    t, a = wrap(a_np)
    base = float(sparsity_reg(t, a).value)
    t2, a2 = wrap(3.0 * a_np)
    assert float(sparsity_reg(t2, a2).value) == pytest.approx(9.0 * base)


# ------------------------------------------------------------- graph_loss

def test_graph_loss_reduces_to_smoothness():
    rng = np.random.default_rng(6)
    h_np, a_np = rng.normal(size=(2, 4)), np.abs(rng.normal(size=(4, 4)))
    t, a = wrap(a_np)
    h = t.const(h_np)
    total, smooth, _, _ = graph_loss(t, h, a, 0.0, 0.0)
    assert float(total.value) == pytest.approx(float(smooth.value))


def test_graph_loss_three_node_hand_sum():
    t, a = wrap([[1.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.0]])
    h = t.const(np.array([[0.0, 1.0, -1.0]]))
    total, smooth, con, reg = graph_loss(t, h, a, 0.7, 0.3)
    assert float(total.value) == pytest.approx(
        float(smooth.value) + 0.7 * float(con.value) + 0.3 * float(reg.value), abs=1e-12
    )
    # independent scalar recomputation of each term
    a_np = a.value
    hn = h.value
    pair = sum(a_np[i, j] * (hn[0, i] - hn[0, j]) ** 2 for i in range(3) for j in range(3))
    assert float(smooth.value) == pytest.approx(pair / 18)
    assert float(con.value) == pytest.approx(-np.log(a_np.sum(axis=1) + 1e-8).mean())
    assert float(reg.value) == pytest.approx((a_np ** 2).sum() / 9)


def test_graph_loss_gradient_through_w_a():
    rng = np.random.default_rng(7)
    params = init_agl(3, 2, rng)
    h_np = rng.normal(size=(3, 5))

    def build(tape):
        a, _ = learned_adjacency(tape, tape.const(h_np), params)
        total, *_ = graph_loss(tape, tape.const(h_np), a, 0.5, 0.5)
        return total

    assert nc.grad_check(build, params.all_params(), rng=rng) < 1e-4


def test_graph_loss_descent_decreases():
    rng = np.random.default_rng(8)
    params = init_agl(3, 3, rng)
    h_np = rng.normal(size=(3, 6))
    prev = np.inf
    for _ in range(20):
        params.w_a.zero_grad()
        tape = nc.Tape()
        a, _ = learned_adjacency(tape, tape.const(h_np), params)
        total, *_ = graph_loss(tape, tape.const(h_np), a, 0.5, 0.5)
        val = float(total.value)
        assert val <= prev + 1e-12
        prev = val
        tape.backward(total)
        params.w_a.value -= 1e-4 * params.w_a.grad


# ------------------------------------------ gradients and independent forms
# The reference layers are compositions of numcore ops. Their gradients are
# held to finite differences, their values to numpy forms written here, and
# the smoothness and connectivity terms also to the pairwise and log-composed
# forms below, which differ from the trace form and the barrier's own VJP.

def cosine_np(w_a, h):
    """Zn^T Zn in numpy, Zn the projection W_a^T h with unit-norm columns."""
    z = w_a.T @ h
    zn = z / np.maximum(np.linalg.norm(z, axis=0), NORM_GUARD)
    return zn.T @ zn


def adjacency_np(w_a, h):
    """The learned adjacency in numpy: relu of the cosines, unit diagonal."""
    cos = cosine_np(w_a, h)
    return np.where(np.eye(cos.shape[0], dtype=bool), 1.0, np.maximum(cos, 0.0))


def graph_loss_np(h, a, alpha, beta):
    """Pairwise smoothness + alpha * log barrier + beta * sparsity in numpy."""
    n = a.shape[0]
    pair = ((h[:, :, None] - h[:, None, :]) ** 2).sum(axis=0)
    con = -np.log(a.sum(axis=1) + DEGREE_GUARD).mean()
    return (a * pair).sum() / (2 * n * n) + alpha * con + beta * (a * a).sum() / (n * n)


def ref_smoothness(tape, h, a):
    n = a.value.shape[0]
    sq = nc.sum_axis(h * h, axis=0)
    pairwise = sq + sq.T - 2.0 * (h.T @ h)
    return sum_all(a * pairwise) / (2.0 * n * n)


def ref_connectivity(tape, a):
    n = a.value.shape[0]
    return sum_all(log(nc.sum_axis(a, axis=1) + DEGREE_GUARD)) / -n


def rel_err(x, ref):
    return float(np.abs(np.asarray(x) - ref).max() / np.abs(ref).max())


def value_and_grads(build, params):
    """(forward value, [grad of each param]) of the scalar `build` returns."""
    for p in params:
        p.zero_grad()
    tape = nc.Tape()
    loss, value = build(tape)
    tape.backward(loss)
    return np.array(value), [p.grad.copy() for p in params]


def assert_matches_reference(build, ref, params):
    v, grads = value_and_grads(build, params)
    v_ref, grads_ref = value_and_grads(ref, params)
    assert rel_err(v, v_ref) < 1e-12
    for p, g, g_ref in zip(params, grads, grads_ref):
        assert rel_err(g, g_ref) < 1e-12, p.name


def test_fused_adjacency_matches_reference_mixed_signs():
    rng = np.random.default_rng(20)
    params = init_agl(4, 3, rng)
    h = nc.Param(rng.normal(size=(4, 9)), "H")
    weights = rng.normal(size=(9, 9))  # a non-symmetric upstream gradient
    a_hat = cosine_np(params.w_a.value, h.value)
    off = ~np.eye(9, dtype=bool)
    assert (a_hat[off] > 0).any() and (a_hat[off] < 0).any()

    def build(tape):
        a, _ = learned_adjacency(tape, tape.leaf(h), params)
        return sum_all(a * weights)

    assert nc.grad_check(build, [params.w_a, h], rng=rng) < 1e-6
    g = learned_graph(h.value, params)
    assert rel_err(g.a, adjacency_np(params.w_a.value, h.value)) < 1e-12
    assert np.allclose(zn_gram(h.value, params), a_hat, rtol=0, atol=1e-15)


@pytest.mark.parametrize("term", ["smoothness", "connectivity", "sparsity"])
def test_fused_loss_terms_match_reference_non_symmetric(term):
    rng = np.random.default_rng(21)
    h = nc.Param(rng.normal(size=(3, 7)), "H")
    a = nc.Param(np.abs(rng.normal(size=(7, 7))) + 0.05, "A")
    assert not np.allclose(a.value, a.value.T)
    if term == "sparsity":
        t, an = wrap(a.value)
        assert rel_err(sparsity_reg(t, an).value, (a.value ** 2).sum() / a.value.size) < 1e-12
        assert nc.grad_check(lambda tape: sparsity_reg(tape, tape.leaf(a)), [a], rng=rng) < 1e-6
        return
    if term == "smoothness":
        fns, params = (smoothness_loss, ref_smoothness), [h, a]
    else:
        fns = [lambda t, h, a, f=f: f(t, a) for f in (connectivity_loss, ref_connectivity)]
        params = [a]

    def build(fn):
        def run(tape):
            loss = fn(tape, tape.leaf(h), tape.leaf(a))
            return 3.0 * loss, loss.value
        return run

    assert_matches_reference(build(fns[0]), build(fns[1]), params)


def test_fused_graph_loss_matches_reference_through_w_a():
    rng = np.random.default_rng(22)
    params = init_agl(5, 4, rng)
    h = nc.Param(rng.normal(size=(5, 11)), "H")

    def build(tape):
        hn = tape.leaf(h)
        a, _ = learned_adjacency(tape, hn, params)
        total, *_ = graph_loss(tape, hn, a, 0.7, 0.3)
        return total

    assert nc.grad_check(build, [params.w_a, h], rng=rng) < 1e-6
    want = graph_loss_np(h.value, adjacency_np(params.w_a.value, h.value), 0.7, 0.3)
    assert rel_err(build(nc.Tape(trainable=())).value, want) < 1e-12


@pytest.mark.parametrize("term", ["adjacency", "smoothness", "connectivity", "sparsity"])
def test_fused_primitive_grad_check(term):
    rng = np.random.default_rng(23)
    h = nc.Param(rng.normal(size=(3, 6)), "H")
    a = nc.Param(np.abs(rng.normal(size=(6, 6))) + 0.1, "A")  # non-symmetric
    weights = rng.normal(size=(6, 6))
    params = init_agl(3, 3, rng)
    if term == "adjacency":
        def build(tape):
            adj, _ = learned_adjacency(tape, tape.leaf(h), params)
            return sum_all(adj * weights)
        checked = [params.w_a, h]
    elif term == "smoothness":
        def build(tape):
            return smoothness_loss(tape, tape.leaf(h), tape.leaf(a))
        checked = [h, a]
    else:
        fn = connectivity_loss if term == "connectivity" else sparsity_reg

        def build(tape):
            return fn(tape, tape.leaf(a))
        checked = [a]
    assert nc.grad_check(build, checked, rng=rng) < 1e-6


# ------------------------------------------------------------------- knn

def knn_tiles(h, k, sigma):
    """The kNN graph's row tiles (agl.knn_edges), stacked."""
    return dense_graph(h.shape[1], knn_edges(h, k, sigma))


def meta_tiles(meta, threshold):
    """The meta graph's row tiles (agl.meta_edges), stacked."""
    return dense_graph(np.shape(meta)[1], meta_edges(meta, threshold))


def test_knn_fully_connected_at_max_k():
    rng = np.random.default_rng(9)
    h = rng.normal(size=(2, 5))
    a = knn_tiles(h, 4, 1.0)
    off = ~np.eye(5, dtype=bool)
    assert np.all(a[off] > 0)


def test_knn_separated_clusters():
    h = np.concatenate([np.zeros((2, 4)), np.full((2, 4), 100.0)], axis=1)
    h += np.random.default_rng(10).normal(size=h.shape) * 0.01
    a = knn_tiles(h, 2, 1.0)
    assert np.all(a[:4, 4:] == 0.0) and np.all(a[4:, :4] == 0.0)


def test_knn_symmetric_non_negative_unit_diag():
    rng = np.random.default_rng(11)
    h = rng.normal(size=(3, 9))
    a = knn_tiles(h, 3, 0.8)
    assert np.array_equal(a, a.T)
    assert np.all(a >= 0)
    assert np.allclose(np.diag(a), 1.0)


def knn_row_loop(h, k, sigma):
    """Reference kNN graph: each row's k nearest neighbours picked one row at
    a time."""
    n = h.shape[1]
    w = rbf_kernel(h, h, sigma)
    np.fill_diagonal(w, -np.inf)
    a = np.zeros((n, n))
    for i in range(n):
        nbrs = np.argpartition(w[i], -k)[-k:]
        a[i, nbrs] = w[i, nbrs]
    a = np.maximum(a, a.T)
    np.fill_diagonal(a, 1.0)
    return a


@pytest.mark.parametrize("k", [1, 2, 5])
def test_knn_matches_row_loop_with_ties(k):
    rng = np.random.default_rng(12)
    h = rng.normal(size=(3, 20))
    # patients 1 and 2 are exactly as far from patient 0, and patients 3 and 4
    # duplicate patient 5: tied pairs in the rankings of patients 0 and 5
    h[:, :3] = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]
    h[:, 3] = h[:, 4] = h[:, 5]
    w = rbf_kernel(h, h, 0.9)
    assert w[0, 1] == w[0, 2] and w[5, 3] == w[5, 4]
    assert np.array_equal(knn_tiles(h, k, 0.9), knn_row_loop(h, k, 0.9))
    assert np.array_equal(knn_graph_rbf(h, k, 0.9), knn_row_loop(h, k, 0.9))


@pytest.mark.parametrize("n", [TILE - 1, TILE])
def test_knn_tiles_match_dense_within_one_tile(n):
    # one tile covers every row, so its kernel rows are the whole product's
    h = np.random.default_rng(n).normal(size=(6, n))
    assert np.array_equal(knn_tiles(h, 7, 1.5), knn_graph_rbf(h, 7, 1.5))


@pytest.mark.parametrize("n", [TILE + 1, 300, 685])
def test_knn_tiles_match_dense_above_one_tile(n):
    # a tile's kernel rows may differ from the whole product's in the last
    # bit, but not the edges they select
    h = np.random.default_rng(n).normal(size=(16, n))
    a, ref = knn_tiles(h, 10, 4.0), knn_graph_rbf(h, 10, 4.0)
    assert np.array_equal(a > 0, ref > 0)
    np.testing.assert_allclose(a, ref, rtol=0.0, atol=1e-15)


def test_rbf_kernel_matches_pairwise_differences():
    rng = np.random.default_rng(13)
    a, b = rng.normal(size=(4, 9)), rng.normal(size=(4, 5))
    d2 = ((a[:, :, None] - b[:, None, :]) ** 2).sum(axis=0)
    np.testing.assert_allclose(rbf_kernel(a, b, 1.3), np.exp(-d2 / (2 * 1.3**2)),
                               rtol=1e-13, atol=1e-15)
    assert np.all(rbf_kernel(a, a, 1.3).diagonal() <= 1.0)


def test_knn_parameter_errors():
    h = np.zeros((2, 5))
    with pytest.raises(ParameterError):
        knn_edges(h, 0, 1.0)
    with pytest.raises(ParameterError):
        knn_edges(h, 5, 1.0)
    with pytest.raises(ParameterError):
        knn_edges(h, 2, 0.0)


# ------------------------------------------------------------------- meta

def test_meta_identical_rows():
    meta = np.array([[1.0, 1.0], [0.0, 0.0], [2.0, 2.0]])
    assert np.allclose(meta_tiles(meta, 1), 1.0)


def test_meta_total_disagreement():
    meta = np.array([[0.0, 1.0], [0.0, 1.0]])
    assert np.allclose(meta_tiles(meta, 1), np.eye(2))


def test_meta_partial_agreement():
    meta = np.array([[1.0, 1.0], [2.0, 2.0], [0.0, 1.0]])  # agree on 2 of 3
    assert meta_tiles(meta, 2)[0, 1] == pytest.approx(2 / 3)
    assert meta_tiles(meta, 3)[0, 1] == 0.0


def test_meta_threshold_validation():
    meta = np.zeros((2, 3))
    with pytest.raises(ParameterError):
        meta_edges(meta, 0)
    with pytest.raises(ParameterError):
        meta_edges(meta, 3)


@pytest.mark.parametrize("threshold", [1, 2, 4])
def test_meta_tiles_match_dense(threshold):
    meta = np.random.default_rng(threshold).integers(0, 3, size=(4, 2 * TILE + 5)).astype(float)
    assert np.array_equal(meta_tiles(meta, threshold), meta_graph(meta, threshold))


# ------------------------------------------------------------------- init

def test_init_agl_validation():
    with pytest.raises(ParameterError):
        init_agl(4, 0, np.random.default_rng(0))
