"""Attention-based feature fusion: projections, score maps, aggregation."""
import numpy as np
import pytest

from mmgl import numcore as nc
from mmgl.data import ModalitySchema
from mmgl.errors import DimensionError, ParameterError
from mmgl.maff import MaffParams, fuse_batch, fuse_one, init_maff
from reference_ops import concat_rows, slice_rows, sum_all, take


def schema3(dims=(3, 4, 5)):
    return ModalitySchema(tuple((f"m{i}", d) for i, d in enumerate(dims)))


def random_params(dims=(3, 4, 5), d_f=4, d=4, heads=1, seed=0, axis="column"):
    return init_maff(schema3(dims), d_f, d, heads, np.random.default_rng(seed), axis)


def manual_params(w_qkv, w_m, w_h, d_f, d, heads=1, axis="column"):
    return MaffParams([nc.Param(w, f"wqkv{i}") for i, w in enumerate(w_qkv)],
                      nc.Param(w_m, "wm"), nc.Param(w_h, "wh"), d_f, d, heads, axis)


def proj(p, which, m):
    """Modality m's W_q, W_k or W_v (`which` is "q", "k" or "v"): a view of
    its columns of w_qkv."""
    i = "qkv".index(which)
    return p.w_qkv[m].value[:, i * p.d_f:(i + 1) * p.d_f]


# ------------------------------------------------------------------- init

def test_init_validation():
    with pytest.raises(ParameterError):
        init_maff(schema3(), 6, 4, 4, np.random.default_rng(0))
    with pytest.raises(ParameterError):
        init_maff(schema3(), 4, 4, 1, np.random.default_rng(0), "diagonal")


@pytest.mark.parametrize("dims", [(3, 4, 5), (7,)])
def test_init_joins_the_per_matrix_draws(dims):
    # a seed gives the weights that one Param per matrix drew: glorot draws
    # of W_q, W_k, W_v and W_m per modality in that order, then W_h, joined
    # into each [W_q | W_k | W_v] and the stacked W_m bit for bit
    d_f, d = 4, 3
    p = init_maff(schema3(dims), d_f, d, 2, np.random.default_rng(31))
    rng = np.random.default_rng(31)
    draws = [[nc.glorot(rng, rows, d_f).value for rows in (dim, dim, dim, d_f)] for dim in dims]
    w_h = nc.glorot(rng, len(dims) * d_f, d).value
    assert [q.name for q in p.all_params()] == [f"w_qkv.m{i}" for i in range(len(dims))] + [
        "w_m", "w_h"]
    for w, (q, k, v, _) in zip(p.w_qkv, draws, strict=True):
        assert w.value.shape == (q.shape[0], 3 * d_f)
        assert w.value.tobytes() == np.concatenate((q, k, v), axis=1).tobytes()
    assert p.w_m.value.shape == (len(dims), d_f, d_f)
    assert p.w_m.value.tobytes() == np.stack([m for *_, m in draws]).tobytes()
    assert p.w_h.value.tobytes() == w_h.tobytes()


def test_tau_per_head():
    p = random_params(d_f=16, heads=4)
    assert p.tau == 2.0  # sqrt(16 / 4)


# ------------------------------------------------------- loop reference

def loop_project(tape, xs, params):
    """Per-modality q/k/v projections, sliced from one matmul node each."""
    qs, ks, vs = [], [], []
    d_f = params.d_f
    for x, w in zip(xs, params.w_qkv):
        qkv = tape.leaf(w).T @ tape.const(np.atleast_2d(x))
        for out, i in ((qs, 0), (ks, 1), (vs, 2)):
            out.append(slice_rows(qkv, i * d_f, (i + 1) * d_f))
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
    modality pairs; returns H and the attention tensor."""
    qs, ks, vs = loop_project(tape, xs, params)
    m_count = len(xs)
    heads, dh = params.heads, params.d_f // params.heads
    coeff, tensor = loop_attention_rows(qs, ks, params)
    w_m = tape.leaf(params.w_m)
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
        vhats.append(take(w_m, m).T @ merged)
    h_out = tape.leaf(params.w_h).T @ concat_rows(vhats)
    return h_out, tensor


def assert_rel_close(actual, expect, tol=1e-12):
    # relative to the largest entry; an all-zero reference must be matched exactly
    assert np.abs(actual - expect).max() <= tol * np.abs(expect).max()


def batch_tensor(tape, xs, params):
    """fuse_batch's H and attention tensor."""
    h, fusion = fuse_batch(tape, xs, params)
    return h, fusion.tensor


def fused_grads(fuse, xs, p, r):
    """H, attention tensor and the M+2 weight gradients of sum(H * r); `fuse`
    returns H and the tensor."""
    params = p.all_params()
    for q in params:
        q.zero_grad()
    tape = nc.Tape()
    h, tensor = fuse(tape, xs, p)
    tape.backward(sum_all(h * r))
    return h.value, tensor, [q.grad.copy() for q in params]


@pytest.mark.parametrize("axis", ["column", "row"])
@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("dims,n", [((3, 4, 5), 6), ((3,), 5), ((2, 5), 1)])
def test_fuse_batch_matches_loop_reference(axis, heads, dims, n):
    rng = np.random.default_rng(21)
    p = random_params(dims=dims, d_f=8, d=3, heads=heads, seed=22, axis=axis)
    xs = [rng.normal(size=(d, n)) for d in dims]
    r = rng.normal(size=(3, n))
    h, tensor, grads = fused_grads(batch_tensor, xs, p, r)
    h_ref, tensor_ref, grads_ref = fused_grads(loop_fuse_batch, xs, p, r)
    assert_rel_close(h, h_ref)
    assert_rel_close(tensor, tensor_ref)
    assert len(grads) == len(grads_ref) == len(dims) + 2
    for g, g_ref in zip(grads, grads_ref):
        assert_rel_close(g, g_ref)


def permuted_params(p, perm):
    """The same fusion with its modalities listed in the order `perm`."""
    blocks = p.w_h.value.reshape(len(perm), p.d_f, p.d)[perm].reshape(p.w_h.value.shape)
    return manual_params([p.w_qkv[i].value for i in perm], p.w_m.value[perm], blocks,
                         p.d_f, p.d, p.heads, p.attention_axis)


@pytest.mark.parametrize("axis", ["column", "row"])
@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("dims", [(3, 4, 5, 2), (3, 3, 3, 3)])
def test_fuse_modality_permutation(axis, heads, dims):
    # listing the modalities in another order, with their weights and their
    # d_f-row blocks of w_h, is the same fusion: H is unchanged, the attention
    # maps and every per-modality gradient permute
    rng = np.random.default_rng(24)
    p = random_params(dims=dims, d_f=4, d=3, heads=heads, seed=25, axis=axis)
    xs = [rng.normal(size=(d, 7)) for d in dims]
    r = rng.normal(size=(3, 7))
    perm = np.array([2, 0, 3, 1])
    h, tensor, grads = fused_grads(batch_tensor, xs, p, r)
    hp, tensor_p, grads_p = fused_grads(batch_tensor, [xs[i] for i in perm],
                                        permuted_params(p, perm), r)
    assert_rel_close(hp, h)
    assert_rel_close(tensor_p, tensor[:, perm][:, :, perm])
    m = len(dims)
    for i, j in enumerate(perm):  # w_qkv
        assert_rel_close(grads_p[i], grads[j])
    assert_rel_close(grads_p[m], grads[m][perm])  # w_m
    g_wh = grads[m + 1].reshape(m, 4, 3)
    assert_rel_close(grads_p[m + 1], g_wh[perm].reshape(4 * m, 3))


def test_fuse_batch_tape_nodes_independent_of_heads():
    rng = np.random.default_rng(23)
    xs = [rng.normal(size=(d, 4)) for d in (3, 4, 5)]
    counts = set()
    for heads in (1, 2, 4):
        tape = nc.Tape()
        fuse_batch(tape, xs, random_params(d_f=8, heads=heads))
        counts.add(len(tape.nodes))
    assert counts == {3 + 3}  # the M+2 weight leaves and one fused node


@pytest.mark.parametrize("m", [1, 3, 8])
def test_fusion_node_hangs_from_its_weights_alone(m):
    # the inputs are constants: the fused node's parents are exactly the
    # leaves of the M+2 weights, in all_params order, whether fuse_batch
    # records it or a Fusion records it again on another tape
    dims = tuple(range(2, 2 + m))
    p = random_params(dims=dims, d_f=4, d=3, heads=2, seed=26)
    rng = np.random.default_rng(27)
    tape = nc.Tape()
    h, fusion = fuse_batch(tape, [rng.normal(size=(d, 5)) for d in dims], p)
    again = nc.Tape()
    h2 = fusion.record(again)
    assert h2.value is h.value
    for node, t in ((h, tape), (h2, again)):
        assert [q._param for q in node._parents] == p.all_params()
        assert all(q._parents == () for q in node._parents)
        assert t.nodes == [*node._parents, node]


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
        proj(p, "q", m)[...] = np.eye(2)
        proj(p, "k", m)[...] = np.eye(2)
    pm = fuse_one(nc.Tape(), [x, x, x], p)[1].tensor[..., 0].mean(axis=0)
    assert np.allclose(pm, 1 / 3)


def test_attention_hand_softmax_two_modalities():
    # scores S = [[ln2, 0], [0, 0]] at tau=1 -> column 0 is (2/3, 1/3)
    schema = ModalitySchema((("a", 1), ("b", 1)))
    p = init_maff(schema, 1, 1, 1, np.random.default_rng(0))
    proj(p, "q", 0)[...] = np.log(2.0)
    proj(p, "q", 1)[...] = 0.0
    proj(p, "k", 0)[...] = 1.0
    proj(p, "k", 1)[...] = 0.0
    assert p.tau == 1.0
    pm = fuse_one(nc.Tape(), [np.ones(1), np.ones(1)], p)[1].tensor[..., 0].mean(axis=0)
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
            assert np.all(np.abs(maps.tensor[..., i].mean(axis=0).sum(axis=0) - 1.0) <= 1e-9)
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
    v = proj(p, "v", 0).T @ x
    expect = p.w_h.value.T @ (p.w_m.value[0].T @ (2.0 * v))
    assert np.allclose(h.value[:, 0], expect)
    assert np.allclose(maps.tensor[..., 0].mean(axis=0), [[1.0]])


def test_fuse_matches_straight_line_oracle():
    # single-head M=3 case recomputed step by step in plain numpy
    rng = np.random.default_rng(7)
    p = random_params(seed=8)
    xs = [rng.normal(size=d) for d in (3, 4, 5)]
    h, maps = fuse_one(nc.Tape(), xs, p)

    q = [proj(p, "q", m).T @ xs[m] for m in range(3)]
    k = [proj(p, "k", m).T @ xs[m] for m in range(3)]
    v = [proj(p, "v", m).T @ xs[m] for m in range(3)]
    s = np.array([[q[i] @ k[j] for j in range(3)] for i in range(3)])
    e = np.exp(s / p.tau - (s / p.tau).max(axis=0, keepdims=True))
    att = e / e.sum(axis=0, keepdims=True)  # normalised over the query index
    assert np.allclose(att, maps.tensor[..., 0].mean(axis=0))
    vhat = [p.w_m.value[m].T @ (v[m] + sum(att[m, j] * v[j] for j in range(3)))
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
    q = [proj(p, "q", m).T @ xs[m] for m in range(3)]
    k = [proj(p, "k", m).T @ xs[m] for m in range(3)]
    v = [proj(p, "v", m).T @ xs[m] for m in range(3)]
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
        merged.append(p.w_m.value[m].T @ np.concatenate(parts))
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


@pytest.mark.parametrize("axis", ["column", "row"])
@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("dims", [(3,), (2, 3, 2)], ids=["M1", "M3"])
def test_batch_gradients_pass_finite_differences(axis, heads, dims):
    # grad_check samples at most max_coords coordinates of a Param; here it
    # checks every coordinate of the M+2 weights
    rng = np.random.default_rng(28)
    p = random_params(dims=dims, d_f=4, d=3, heads=heads, seed=29, axis=axis)
    xs = [rng.normal(size=(d, 4)) for d in dims]

    def build(tape):
        h, _ = fuse_batch(tape, xs, p)
        return sum_all(h * h)

    size = max(q.value.size for q in p.all_params())
    assert nc.grad_check(build, p.all_params(), rng=rng, max_coords=size) < 1e-4


# ---------------------------------------------------- global attention map

def test_global_map_identical_patients():
    rng = np.random.default_rng(17)
    p = random_params(seed=18)
    x = [rng.normal(size=(d, 1)) for d in (3, 4, 5)]
    xs = [np.repeat(c, 5, axis=1) for c in x]
    _, maps = fuse_batch(nc.Tape(), xs, p)
    single = maps.tensor[..., 0].mean(axis=0)
    assert np.allclose(maps.global_map(), single)


def test_global_map_two_patient_mean():
    rng = np.random.default_rng(19)
    p = random_params(seed=20)
    xs = [rng.normal(size=(d, 2)) for d in (3, 4, 5)]
    _, maps = fuse_batch(nc.Tape(), xs, p)
    expect = (maps.tensor[..., 0].mean(axis=0) + maps.tensor[..., 1].mean(axis=0)) / 2
    assert np.allclose(maps.global_map(), expect)


def test_global_map_empty_errors():
    h, maps = fuse_batch(nc.Tape(), [np.empty((d, 0)) for d in (3, 4, 5)], random_params())
    assert h.value.shape == (4, 0) and maps.tensor.shape == (1, 3, 3, 0)
    with pytest.raises(ParameterError):
        maps.global_map()


# ----------------------------------------- shift invariance (criterion 3)

def shift_patient(xs, params, block, delta, patient):
    """Copies of xs with one patient's inputs changed so that every
    modality's queries (block 0), keys (1) or values (2) move by the common
    vector delta (d_f,) and its other projections stay: [W_q | W_k | W_v]^T
    has full row rank when d_m >= 3 d_f."""
    d_f = params.d_f
    out = [x.copy() for x in xs]
    for x, w in zip(out, params.w_qkv):
        w = w.value  # [W_q | W_k | W_v]
        target = np.zeros(3 * d_f)
        target[block * d_f:(block + 1) * d_f] = delta
        step = np.linalg.lstsq(w.T, target, rcond=None)[0]
        assert np.abs(w.T @ step - target).max() < 1e-12
        x[:, patient] += step
    return out


@pytest.mark.parametrize("axis", ["column", "row"])
def test_softmax_shift_invariance_through_fuse_batch(axis):
    # acceptance criterion 3 on the softmax that fusion runs: a patient's
    # scores move by a constant along the softmax axis and neither its maps
    # nor H move. Common key moves add a per-query constant, which the key
    # axis ("row") normalises away; common query moves add a per-key
    # constant, which the query axis ("column") does
    dims, patient = (12, 13, 15), 2
    params = random_params(dims, d_f=4, d=4, heads=2, seed=5, axis=axis)
    rng = np.random.default_rng(6)
    xs = [rng.normal(size=(d, 5)) for d in dims]
    delta = 3.0 * rng.normal(size=params.d_f)
    invariant, other = (1, 0) if axis == "row" else (0, 1)
    h0, f0 = fuse_batch(nc.Tape(), xs, params)
    h1, f1 = fuse_batch(nc.Tape(), shift_patient(xs, params, invariant, delta, patient), params)
    assert np.abs(f1.tensor - f0.tensor).max() < 1e-12
    assert np.abs(h1.value - h0.value).max() < 1e-12
    # the same move of the other projection shifts scores across the softmax
    # axis and changes that patient's map, and only that patient's
    h2, f2 = fuse_batch(nc.Tape(), shift_patient(xs, params, other, delta, patient), params)
    moved = np.abs(f2.tensor - f0.tensor).max(axis=(0, 1, 2))
    assert moved[patient] > 1e-3 and np.delete(moved, patient).max() < 1e-12
    assert np.abs(h2.value - h0.value)[:, patient].max() > 1e-3
