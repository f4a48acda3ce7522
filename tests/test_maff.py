"""Attention-based feature fusion: projections, score maps, aggregation."""
import numpy as np
import pytest

from mmgl import numcore as nc
from mmgl.data import ModalitySchema
from mmgl.errors import DimensionError, ParameterError
from mmgl.maff import AttentionMaps, MaffParams, fuse_batch, fuse_one, init_maff
from reference_ops import concat_rows, slice_rows, sum_all


def schema3(dims=(3, 4, 5)):
    return ModalitySchema(tuple((f"m{i}", d) for i, d in enumerate(dims)))


def random_params(dims=(3, 4, 5), d_f=4, d=4, heads=1, seed=0, axis="column"):
    return init_maff(schema3(dims), d_f, d, heads, np.random.default_rng(seed), axis)


def manual_params(w_q, w_k, w_v, w_m, w_h, d_f, d, heads=1, axis="column"):
    return MaffParams(
        [nc.Param(w, f"wq{i}") for i, w in enumerate(w_q)],
        [nc.Param(w, f"wk{i}") for i, w in enumerate(w_k)],
        [nc.Param(w, f"wv{i}") for i, w in enumerate(w_v)],
        [nc.Param(w, f"wm{i}") for i, w in enumerate(w_m)],
        nc.Param(w_h, "wh"), d_f, d, heads, axis,
    )


# ------------------------------------------------------------------- init

def test_init_validation():
    with pytest.raises(ParameterError):
        init_maff(schema3(), 6, 4, 4, np.random.default_rng(0))
    with pytest.raises(ParameterError):
        init_maff(schema3(), 4, 4, 1, np.random.default_rng(0), "diagonal")


def test_tau_per_head():
    p = random_params(d_f=16, heads=4)
    assert p.tau == 2.0  # sqrt(16 / 4)


# ------------------------------------------------------- loop reference

def loop_project(tape, xs, params):
    """Per-modality q/k/v projections, one matmul node each."""
    qs, ks, vs = [], [], []
    for x, wq, wk, wv in zip(xs, params.w_q, params.w_k, params.w_v):
        x = x if isinstance(x, nc.Node) else tape.const(np.atleast_2d(x))
        qs.append(tape.leaf(wq).T @ x)
        ks.append(tape.leaf(wk).T @ x)
        vs.append(tape.leaf(wv).T @ x)
    return qs, ks, vs


def loop_attention_rows(qs, ks, params):
    """Per head, the 1 x N coefficient node of each (m, j) pair, plus the
    detached (heads, M, M, N) score map."""
    m_count = len(qs)
    heads, dh = params.heads, params.d_f // params.heads
    tau = params.tau
    coeff = []
    tensor = np.empty((heads, m_count, m_count, qs[0].value.shape[1]))
    for h in range(heads):
        qh = [slice_rows(q, h * dh, (h + 1) * dh) for q in qs]
        kh = [slice_rows(k, h * dh, (h + 1) * dh) for k in ks]
        scores = [
            [nc.sum_axis(qh[i] * kh[j], axis=0) for j in range(m_count)]
            for i in range(m_count)
        ]
        rows = {}
        if params.attention_axis == "column":
            for j in range(m_count):
                col = nc.softmax_columns(
                    concat_rows([scores[i][j] for i in range(m_count)]), tau
                )
                tensor[h, :, j, :] = col.value
                for m in range(m_count):
                    rows[(m, j)] = slice_rows(col, m, m + 1)
        else:
            for i in range(m_count):
                row = nc.softmax_columns(
                    concat_rows([scores[i][j] for j in range(m_count)]), tau
                )
                tensor[h, i, :, :] = row.value
                for j in range(m_count):
                    rows[(i, j)] = slice_rows(row, j, j + 1)
        coeff.append(rows)
    return coeff, tensor


def loop_fuse_batch(tape, xs, params):
    """Reference fusion built from composed tape ops, looping over heads and
    modality pairs."""
    qs, ks, vs = loop_project(tape, xs, params)
    m_count = len(xs)
    heads, dh = params.heads, params.d_f // params.heads
    coeff, tensor = loop_attention_rows(qs, ks, params)
    vhats = []
    for m in range(m_count):
        head_parts = []
        for h in range(heads):
            vh = [slice_rows(v, h * dh, (h + 1) * dh) for v in vs]
            agg = vh[m]  # residual
            for j in range(m_count):
                agg = agg + coeff[h][(m, j)] * vh[j]
            head_parts.append(agg)
        merged = head_parts[0] if heads == 1 else concat_rows(head_parts)
        vhats.append(tape.leaf(params.w_m[m]).T @ merged)
    h_out = tape.leaf(params.w_h).T @ concat_rows(vhats)
    return h_out, AttentionMaps(tensor)


def assert_rel_close(actual, expect, tol=1e-12):
    # relative to the largest entry; an all-zero reference must be matched exactly
    assert np.abs(actual - expect).max() <= tol * np.abs(expect).max()


def fused_grads(fuse, xs, p, r):
    """H, attention tensor and every weight and input gradient of sum(H * r)."""
    inputs = [nc.Param(x, f"x{m}") for m, x in enumerate(xs)]
    params = p.all_params() + inputs
    for q in params:
        q.zero_grad()
    tape = nc.Tape()
    h, maps = fuse(tape, [tape.leaf(x) for x in inputs], p)
    tape.backward(sum_all(h * r))
    return h.value, maps.tensor, [q.grad.copy() for q in params]


@pytest.mark.parametrize("axis", ["column", "row"])
@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("dims,n", [((3, 4, 5), 6), ((3,), 5), ((2, 5), 1)])
def test_fuse_batch_matches_loop_reference(axis, heads, dims, n):
    rng = np.random.default_rng(21)
    p = random_params(dims=dims, d_f=8, d=3, heads=heads, seed=22, axis=axis)
    xs = [rng.normal(size=(d, n)) for d in dims]
    r = rng.normal(size=(3, n))
    h, tensor, grads = fused_grads(fuse_batch, xs, p, r)
    h_ref, tensor_ref, grads_ref = fused_grads(loop_fuse_batch, xs, p, r)
    assert_rel_close(h, h_ref)
    assert_rel_close(tensor, tensor_ref)
    assert len(grads) == len(grads_ref) == 5 * len(dims) + 1
    for g, g_ref in zip(grads, grads_ref):
        assert_rel_close(g, g_ref)


def test_fuse_batch_tape_nodes_independent_of_heads():
    rng = np.random.default_rng(23)
    xs = [rng.normal(size=(d, 4)) for d in (3, 4, 5)]
    counts = set()
    for heads in (1, 2, 4):
        tape = nc.Tape()
        fuse_batch(tape, xs, random_params(d_f=8, heads=heads))
        counts.add(len(tape.nodes))
    assert counts == {4 * 3 + 1 + 3 + 1}  # weight leaves, input constants, one fused node


def test_project_shape_errors():
    p = random_params()
    with pytest.raises(DimensionError):
        fuse_batch(nc.Tape(), [np.zeros((3, 2))], p)
    with pytest.raises(DimensionError):
        fuse_batch(nc.Tape(), [np.zeros((9, 2)), np.zeros((4, 2)), np.zeros((5, 2))], p)


# ---------------------------------------------------------- attention map

def test_attention_uniform_when_scores_equal():
    p = random_params(dims=(2, 2, 2), d_f=2, d=2)
    x = np.ones((2, 1))
    for m in range(3):  # identical projections for every modality
        p.w_q[m].value[...] = np.eye(2)
        p.w_k[m].value[...] = np.eye(2)
    pm = fuse_one(nc.Tape(), [x, x, x], p)[1].per_patient(0)
    assert np.allclose(pm, 1 / 3)


def test_attention_hand_softmax_two_modalities():
    # scores S = [[ln2, 0], [0, 0]] at tau=1 -> column 0 is (2/3, 1/3)
    schema = ModalitySchema((("a", 1), ("b", 1)))
    p = init_maff(schema, 1, 1, 1, np.random.default_rng(0))
    p.w_q[0].value[...] = np.log(2.0)
    p.w_q[1].value[...] = 0.0
    p.w_k[0].value[...] = 1.0
    p.w_k[1].value[...] = 0.0
    assert p.tau == 1.0
    pm = fuse_one(nc.Tape(), [np.ones(1), np.ones(1)], p)[1].per_patient(0)
    assert np.allclose(pm[:, 0], [2 / 3, 1 / 3])
    assert np.allclose(pm[:, 1], [0.5, 0.5])


def test_attention_maps_column_stochastic():
    rng = np.random.default_rng(3)
    for seed in range(10):
        p = random_params(d_f=8, heads=2, seed=seed)
        xs = [rng.normal(size=(d, 7)) for d in (3, 4, 5)]
        _, maps = fuse_batch(nc.Tape(), xs, p)
        sums = maps.tensor.sum(axis=1)  # over the query axis
        assert np.all(np.abs(sums - 1.0) <= 1e-9)
        assert np.all(maps.tensor >= 0) and np.all(maps.tensor <= 1)
        for i in range(7):
            assert np.all(np.abs(maps.per_patient(i).sum(axis=0) - 1.0) <= 1e-9)
        gm = maps.global_map()
        assert np.all(np.abs(gm.sum(axis=0) - 1.0) <= 1e-9)


def test_attention_row_axis_normalises_over_keys():
    rng = np.random.default_rng(4)
    p = random_params(seed=5, axis="row")
    xs = [rng.normal(size=(d, 3)) for d in (3, 4, 5)]
    _, maps = fuse_batch(nc.Tape(), xs, p)
    sums = maps.tensor.sum(axis=2)  # over the key axis
    assert np.all(np.abs(sums - 1.0) <= 1e-9)


# --------------------------------------------------------------- fuse_one

def test_fuse_zero_input():
    p = random_params()
    h, _ = fuse_one(nc.Tape(), [np.zeros(3), np.zeros(4), np.zeros(5)], p)
    assert not h.value.any()


def test_fuse_single_modality_residual_doubles():
    # M=1: P = [1], so the aggregation is v + 1*v = 2v
    schema = ModalitySchema((("only", 3),))
    rng = np.random.default_rng(6)
    p = init_maff(schema, 2, 2, 1, rng)
    x = rng.normal(size=3)
    h, maps = fuse_one(nc.Tape(), [x], p)
    v = p.w_v[0].value.T @ x
    expect = p.w_h.value.T @ (p.w_m[0].value.T @ (2.0 * v))
    assert np.allclose(h.value[:, 0], expect)
    assert np.allclose(maps.per_patient(0), [[1.0]])


def test_fuse_matches_straight_line_oracle():
    # single-head M=3 case recomputed step by step in plain numpy
    rng = np.random.default_rng(7)
    p = random_params(seed=8)
    xs = [rng.normal(size=d) for d in (3, 4, 5)]
    h, maps = fuse_one(nc.Tape(), xs, p)

    q = [p.w_q[m].value.T @ xs[m] for m in range(3)]
    k = [p.w_k[m].value.T @ xs[m] for m in range(3)]
    v = [p.w_v[m].value.T @ xs[m] for m in range(3)]
    s = np.array([[q[i] @ k[j] for j in range(3)] for i in range(3)])
    e = np.exp(s / p.tau - (s / p.tau).max(axis=0, keepdims=True))
    att = e / e.sum(axis=0, keepdims=True)  # normalised over the query index
    assert np.allclose(att, maps.per_patient(0))
    vhat = [p.w_m[m].value.T @ (v[m] + sum(att[m, j] * v[j] for j in range(3)))
            for m in range(3)]
    expect = p.w_h.value.T @ np.concatenate(vhat)
    assert np.allclose(h.value[:, 0], expect)


def test_fuse_multi_head_segments():
    # with 2 heads the first half of q/k/v attends independently of the second
    rng = np.random.default_rng(9)
    p = random_params(d_f=8, d=6, heads=2, seed=10)
    xs = [rng.normal(size=d) for d in (3, 4, 5)]
    h, maps = fuse_one(nc.Tape(), xs, p)
    assert maps.tensor.shape == (2, 3, 3, 1)
    q = [p.w_q[m].value.T @ xs[m] for m in range(3)]
    k = [p.w_k[m].value.T @ xs[m] for m in range(3)]
    v = [p.w_v[m].value.T @ xs[m] for m in range(3)]
    tau = np.sqrt(8 / 2)
    merged = []
    for m in range(3):
        parts = []
        for hd, sl in enumerate((slice(0, 4), slice(4, 8))):
            s = np.array([[q[i][sl] @ k[j][sl] for j in range(3)] for i in range(3)])
            e = np.exp(s / tau - (s / tau).max(axis=0, keepdims=True))
            att = e / e.sum(axis=0, keepdims=True)
            assert np.allclose(att, maps.tensor[hd, :, :, 0])
            parts.append(v[m][sl] + sum(att[m, j] * v[j][sl] for j in range(3)))
        merged.append(p.w_m[m].value.T @ np.concatenate(parts))
    expect = p.w_h.value.T @ np.concatenate(merged)
    assert np.allclose(h.value[:, 0], expect)


# ------------------------------------------------------------- fuse_batch

def test_batch_of_one_equals_fuse_one():
    rng = np.random.default_rng(11)
    p = random_params(seed=12)
    xs = [rng.normal(size=d) for d in (3, 4, 5)]
    h1, _ = fuse_one(nc.Tape(), xs, p)
    hb, _ = fuse_batch(nc.Tape(), [x.reshape(-1, 1) for x in xs], p)
    assert np.allclose(h1.value, hb.value)


def test_batch_permutation_equivariance():
    rng = np.random.default_rng(13)
    p = random_params(d_f=8, heads=2, seed=14)
    xs = [rng.normal(size=(d, 6)) for d in (3, 4, 5)]
    perm = rng.permutation(6)
    h, maps = fuse_batch(nc.Tape(), xs, p)
    hp, maps_p = fuse_batch(nc.Tape(), [x[:, perm] for x in xs], p)
    assert np.allclose(h.value[:, perm], hp.value)
    assert np.allclose(maps.tensor[:, :, :, perm], maps_p.tensor)


def test_batch_gradients_pass_finite_differences():
    rng = np.random.default_rng(15)
    p = random_params(dims=(2, 3, 2), d_f=4, d=3, heads=2, seed=16)
    xs = [rng.normal(size=(d, 4)) for d in (2, 3, 2)]

    def build(tape):
        h, _ = fuse_batch(tape, xs, p)
        return sum_all(h * h)

    assert nc.grad_check(build, p.all_params(), rng=rng) < 1e-4


# ---------------------------------------------------- global attention map

def test_global_map_identical_patients():
    rng = np.random.default_rng(17)
    p = random_params(seed=18)
    x = [rng.normal(size=(d, 1)) for d in (3, 4, 5)]
    xs = [np.repeat(c, 5, axis=1) for c in x]
    _, maps = fuse_batch(nc.Tape(), xs, p)
    single = maps.per_patient(0)
    assert np.allclose(maps.global_map(), single)


def test_global_map_two_patient_mean():
    rng = np.random.default_rng(19)
    p = random_params(seed=20)
    xs = [rng.normal(size=(d, 2)) for d in (3, 4, 5)]
    _, maps = fuse_batch(nc.Tape(), xs, p)
    expect = (maps.per_patient(0) + maps.per_patient(1)) / 2
    assert np.allclose(maps.global_map(), expect)


def test_global_map_empty_errors():
    maps = AttentionMaps(np.empty((1, 3, 3, 0)))
    with pytest.raises(ParameterError):
        maps.global_map()
