"""The tiled graph block against the dense primitives it replaces, and the
training phases built on it: what their tapes hold and which gradients they
form."""
import copy
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mmgl import agl, block
from mmgl import numcore as nc
from mmgl.agl import (
    AglParams, cosine_edges, cosine_normalize, init_agl, knn_edges, learned_adjacency, meta_edges,
    no_edges,
)
from mmgl.block import TILE, graph_block, normalized_product, row_tiles
from mmgl.data import ModalitySchema
from mmgl.errors import DataError, DimensionError, ParameterError
from mmgl.gcn import DEGREE_FLOOR, gcn_forward, init_gcn, normalize_adj
from mmgl.train import (
    Model, TrainConfig, fit, predict_inductive_batch, total_loss, train_epoch,
)
from reference_ops import dense_graph

TERMS = ("task", "smooth", "con", "reg")
TOTAL = np.array([1.0, 0.7, 0.7 * 0.3, 0.7 * 0.4])  # lam=0.7, alpha=0.3, beta=0.4
GRAPH_ONLY = np.array([0.0, 1.0, 0.3, 0.4])


def rel_err(x, ref):
    return float(np.abs(np.asarray(x) - ref).max() / max(np.abs(ref).max(), 1e-300))


def weighted(terms, weights):
    out = None
    for t, w in zip(terms, weights):
        out = t * float(w) if out is None else out + t * float(w)
    return out


def learned_edges(zn):
    """The learned graph's edge rule over its unit-norm projection Zn (d_a, N),
    as train.Model.edge_rule builds it."""
    return lambda rows, cols: cosine_edges(zn[:, rows], zn[:, cols])


def make_case(n, d=4, d_a=3, d_h=5, c=3, seed=0, graph="learned"):
    rng = np.random.default_rng(seed)
    h = nc.Param(rng.normal(size=(d, n)), "H")
    gp = init_gcn(d, d_h, c, rng)
    labels = rng.integers(0, c, size=n)
    mask = np.sort(rng.choice(n, size=max(1, (2 * n) // 3), replace=False))
    if graph == "learned":
        source = init_agl(d, d_a, rng)
    elif graph == "knn":
        source = knn_edges(h.value, min(3, n - 1), 1.5)
    elif graph == "meta":
        source = meta_edges(rng.integers(0, 2, size=(3, n)), 1)
    else:
        source = no_edges(n)
    return h, source, gp, labels, mask


def dense(tape, h, source, gp, labels, mask, weights, self_loops, p, seed):
    """The dense tape: learned_adjacency (or the stacked tiles of a fixed
    graph's edge rule) -> normalize_adj -> gcn_forward -> total_loss."""
    h = tape.leaf(h)
    if isinstance(source, AglParams):
        a, _ = learned_adjacency(tape, h, source)
    else:
        a = tape.const(dense_graph(h.value.shape[1], source))
    logits = gcn_forward(tape, h, normalize_adj(tape, a, self_loops), gp, p,
                         np.random.default_rng(seed))
    _, parts = total_loss(tape, logits, labels, mask, h, a, 1.0, 1.0, 1.0)
    terms = [parts[k] for k in TERMS]
    return weighted(terms, weights), np.array([float(t.value) for t in terms]), logits.value


def tiled(tape, h, source, gp, labels, mask, weights, self_loops, p, seed):
    h = tape.leaf(h)
    n, d_h = h.value.shape[1], gp.w0.value.shape[1]
    keep = None
    if p > 0:
        keep = (np.random.default_rng(seed).random((n, d_h)) >= p) / (1.0 - p)
    if isinstance(source, AglParams):
        zn = cosine_normalize(tape.leaf(source.w_a).T @ h)
        graph = {"zn": zn, "edges": learned_edges(zn.value)}
    else:
        graph = {"edges": source}
    terms, logits = graph_block(tape, h, tape.leaf(gp.w0), tape.leaf(gp.w1), labels, mask,
                                add_self_loops=self_loops, keep=keep, **graph)
    return nc.sum_axis(terms * weights, axis=0, keepdims=False), terms.value, logits


def run(fn, params, *args):
    for p in params:
        p.zero_grad()
    tape = nc.Tape()
    objective, terms, logits = fn(tape, *args)
    tape.backward(objective)
    return terms, logits, [p.grad.copy() for p in params]


def assert_block_matches_dense(h, source, gp, labels, mask, weights=TOTAL, self_loops=False,
                               p=0.0, seed=7):
    params = [h, *gp.all_params()]
    if isinstance(source, AglParams):
        params.append(source.w_a)
    args = (h, source, gp, labels, mask, weights, self_loops, p, seed)
    terms, logits, grads = run(tiled, params, *args)
    terms_ref, logits_ref, grads_ref = run(dense, params, *args)
    for name, t, t_ref in zip(TERMS, terms, terms_ref):
        # the identity graph's smoothness is 0 up to rounding
        assert abs(t - t_ref) <= 1e-12 * max(abs(t_ref), 1e-3), name
    assert rel_err(logits, logits_ref) < 1e-12
    for param, g, g_ref in zip(params, grads, grads_ref):
        if np.abs(g_ref).max() == 0.0:
            assert np.abs(g).max() == 0.0, param.name
        else:
            assert rel_err(g, g_ref) < 1e-12, param.name


@pytest.mark.parametrize("n", [5, TILE, TILE + 37, 2 * TILE + 1])
@pytest.mark.parametrize("self_loops", [False, True])
def test_learned_block_matches_dense(n, self_loops):
    h, source, gp, labels, mask = make_case(n, seed=n)
    sims = cosine_normalize(nc.Tape().const(source.w_a.value.T @ h.value)).value
    off = ~np.eye(n, dtype=bool)
    assert ((sims.T @ sims)[off] > 0).any() and ((sims.T @ sims)[off] < 0).any()
    assert_block_matches_dense(h, source, gp, labels, mask, self_loops=self_loops)


@pytest.mark.parametrize("graph", ["knn", "meta", "identity"])
@pytest.mark.parametrize("self_loops", [False, True])
def test_fixed_graph_block_matches_dense(graph, self_loops):
    h, source, gp, labels, mask = make_case(TILE + 11, graph=graph, seed=3)
    assert_block_matches_dense(h, source, gp, labels, mask, self_loops=self_loops)


@pytest.mark.parametrize("weights", [TOTAL, GRAPH_ONLY], ids=["total", "graph-only"])
@pytest.mark.parametrize("p", [0.0, 0.4])
def test_block_phase_objectives_and_dropout(weights, p):
    h, source, gp, labels, mask = make_case(TILE + 5, seed=11)
    assert_block_matches_dense(h, source, gp, labels, mask, weights=weights, p=p)


def test_block_zero_projection_column():
    # H column 2 projects to zero: the NORM_GUARD floor gives node 2 no edge
    h, source, gp, labels, mask = make_case(9, seed=4)
    h.value[:, 2] = 0.0
    assert_block_matches_dense(h, source, gp, labels, mask)


@pytest.mark.parametrize("self_loops", [False, True])
def test_block_isolated_node(self_loops, monkeypatch):
    # node 4 has no edge: its degree is its unit self-weight alone
    monkeypatch.setattr(block, "TILE", 3)
    h, _, gp, labels, mask = make_case(10, seed=5)
    rng = np.random.default_rng(5)
    a = np.abs(rng.normal(size=(10, 10)))
    a = (a + a.T) / 2
    a[4] = 0.0
    a[:, 4] = 0.0
    assert_block_matches_dense(h, lambda rows, cols: a[rows][:, cols], gp, labels, mask,
                               self_loops=self_loops)


@pytest.mark.parametrize("tile", [1, 3, 4])
def test_block_small_tiles_match_dense(tile, monkeypatch):
    monkeypatch.setattr(block, "TILE", tile)
    h, source, gp, labels, mask = make_case(10, seed=tile)
    assert_block_matches_dense(h, source, gp, labels, mask, self_loops=tile == 3, p=0.3)


def test_block_gradient_of_zn(monkeypatch):
    # dZn itself: the projection's normalisation hides its radial part, such
    # as a gradient left on A's constant diagonal
    monkeypatch.setattr(block, "TILE", 4)
    h, source, gp, labels, mask = make_case(10, seed=6)
    z = source.w_a.value.T @ h.value
    zn = nc.Param(z / np.linalg.norm(z, axis=0), "Zn")
    eye = np.eye(10)

    def build(tape, tiled_block):
        zl, hc = tape.leaf(zn), tape.const(h.value)
        if tiled_block:
            terms, _ = graph_block(tape, hc, tape.leaf(gp.w0), tape.leaf(gp.w1),
                                   labels, mask, edges=learned_edges(zl.value), zn=zl)
            return nc.sum_axis(terms * TOTAL, axis=0, keepdims=False)
        a = nc.relu(zl.T @ zl) * (1.0 - eye) + eye
        logits = gcn_forward(tape, hc, normalize_adj(tape, a), gp)
        _, parts = total_loss(tape, logits, labels, mask, hc, a, 1.0, 1.0, 1.0)
        return weighted([parts[k] for k in TERMS], TOTAL)

    grads = []
    for tiled_block in (True, False):
        zn.zero_grad()
        tape = nc.Tape()
        tape.backward(build(tape, tiled_block))
        grads.append(zn.grad.copy())
    assert rel_err(*grads) < 1e-12


@pytest.mark.parametrize("graph", ["learned", "knn"])
def test_block_grad_check(graph, monkeypatch):
    monkeypatch.setattr(block, "TILE", 3)
    h, source, gp, labels, mask = make_case(8, seed=9, graph=graph)
    params = [h, *gp.all_params()]
    if graph == "learned":
        params.append(source.w_a)

    def build(tape):
        return tiled(tape, h, source, gp, labels, mask, TOTAL, True, 0.0, 0)[0]

    assert nc.grad_check(build, params, rng=np.random.default_rng(0)) < 1e-6


def test_block_forms_only_trainable_gradients():
    h, source, gp, labels, mask = make_case(6, seed=2)
    tape = nc.Tape(trainable=[gp.w0])
    hn, w0, w1 = tape.leaf(h), tape.leaf(gp.w0), tape.leaf(gp.w1)
    terms, _ = graph_block(tape, hn, w0, w1, labels, mask, edges=no_edges(6))
    for p in (h, gp.w0, gp.w1):
        p.zero_grad()
    tape.backward(nc.sum_axis(terms * TOTAL, axis=0, keepdims=False))
    assert hn.grad is None and w1.grad is None
    assert not h.grad.any() and not gp.w1.grad.any() and gp.w0.grad.any()


def test_block_without_labels_gives_logits_only():
    h, source, gp, labels, mask = make_case(7, seed=3)
    tape = nc.Tape()
    hn = tape.const(h.value)
    zn = cosine_normalize(tape.const(source.w_a.value.T) @ hn)
    w0, w1 = tape.const(gp.w0.value), tape.const(gp.w1.value)
    recorded = len(tape.nodes)
    terms, logits = graph_block(tape, hn, w0, w1, edges=learned_edges(zn.value), zn=zn)
    _, _, logits_ref = tiled(nc.Tape(), h, source, gp, labels, mask, TOTAL, False, 0.0, 0)
    assert terms is None and len(tape.nodes) == recorded
    assert np.array_equal(logits, logits_ref)


# ------------------------------------------------------- training phases

class Record:
    """Optimizer stand-in: keeps every Param's gradient at step time and
    updates nothing, so both phases see the same weights."""

    def __init__(self, model, params):
        self.model = model
        self.params = list(params)
        self.grads = None

    def step(self):
        self.grads = {id(p): p.grad.copy() for p in self.model.all_params()}


def phase_model(n=40, dropout=0.25, phase_a_loss="total", graph="learned"):
    rng = np.random.default_rng(3)
    schema = ModalitySchema((("m0", 3), ("m1", 2)))
    cfg = TrainConfig(d_f=4, heads=2, d_h=6, dropout=dropout, lam=0.7, alpha=0.3, beta=0.4,
                      phase_a_loss=phase_a_loss, graph=graph, knn_k=5)
    model = Model(schema, 3, cfg)
    mods = [rng.normal(size=(3, n)), rng.normal(size=(2, n))]
    return model, mods, rng.integers(0, 3, size=n), np.arange(0, n, 2)


def dense_phase_grads(model, mods, labels, mask, rng, loss_kind):
    """Every Param's gradient on the full dense tape of one phase."""
    cfg = model.cfg
    for p in model.all_params():
        p.zero_grad()
    tape = nc.Tape()
    h, _ = model.fuse(tape, mods)
    if cfg.graph == "learned":
        a, _ = learned_adjacency(tape, h, model.agl)
    else:
        a = tape.const(dense_graph(h.value.shape[1], model.edge_rule(h.value)))
    logits = gcn_forward(tape, h, normalize_adj(tape, a, cfg.add_self_loops), model.gcn,
                         cfg.dropout, rng)
    total, parts = total_loss(tape, logits, labels, mask, h, a, cfg.lam, cfg.alpha, cfg.beta)
    tape.backward(parts["graph"] if loss_kind == "graph-only" else total)
    return {id(p): p.grad.copy() for p in model.all_params()}


@pytest.mark.parametrize("phase_a_loss", ["total", "graph-only"])
@pytest.mark.parametrize("graph", ["learned", "knn"])
def test_phase_gradients_match_dense_tape_and_frozen_groups_get_none(phase_a_loss, graph):
    model, mods, labels, mask = phase_model(phase_a_loss=phase_a_loss, graph=graph)
    rng = copy.deepcopy(model._drop_rng)
    rec_a = Record(model, model.fusion_params() + model.agl_params())
    rec_b = Record(model, model.agl_params() + model.gcn_params())
    train_epoch(model, mods, labels, mask, rec_a, rec_b, 0)
    for rec, kind in ((rec_a, phase_a_loss), (rec_b, "total")):
        ref = dense_phase_grads(model, mods, labels, mask, rng, kind)
        trainable = {id(p) for p in rec.params}
        for p in model.all_params():
            if id(p) in trainable:
                assert rel_err(rec.grads[id(p)], ref[id(p)]) < 1e-12, p.name
            else:
                assert not rec.grads[id(p)].any(), f"frozen {p.name} got a gradient"


def phase_tapes(model, mods, labels, mask, monkeypatch):
    """The nodes of each phase's tape; backward drops them from the tape."""
    tapes = []
    backward = nc.Tape.backward

    def keep_tape(tape, loss):
        tapes.append(tape.nodes)
        return backward(tape, loss)

    monkeypatch.setattr(nc.Tape, "backward", keep_tape)
    train_epoch(model, mods, labels, mask,
                nc.Adam(model.fusion_params() + model.agl_params(), 0.01),
                nc.Adam(model.agl_params() + model.gcn_params(), 0.01), 0)
    assert len(tapes) == 2
    return tapes


def test_learned_phase_tapes_hold_no_square_node(monkeypatch):
    model, mods, labels, mask = phase_model(n=40)
    for nodes in phase_tapes(model, mods, labels, mask, monkeypatch):
        shapes = [node.value.shape for node in nodes]
        assert (40, 40) not in shapes


def test_frozen_groups_get_no_gradient_node(monkeypatch):
    # Both phases record the same nodes, so that a traced run's tape counts
    # repeat from phase to phase. Phase B forms no gradient on any node the
    # fusion weights feed, so no fusion VJP runs; phase A forms no GCN weight
    # gradient.
    model, mods, labels, mask = phase_model()
    tape_a, tape_b = phase_tapes(model, mods, labels, mask, monkeypatch)
    assert [n.value.shape for n in tape_a] == [n.value.shape for n in tape_b]

    def graded(nodes, params, users=False):
        """Whether each leaf of `params` (and, with users, each node they
        feed) got a gradient."""
        ids = {id(p) for p in params}
        leaves = [n for n in nodes if id(n._param) in ids]
        fed = [n for n in nodes if any(p in leaves for p in n._parents)] if users else []
        assert leaves
        return [n.grad is not None for n in leaves + fed]

    assert all(graded(tape_a, model.fusion_params(), users=True))
    assert not any(graded(tape_b, model.fusion_params(), users=True))
    assert not any(graded(tape_a, model.gcn_params()))
    assert all(graded(tape_b, model.gcn_params()))
    # the fused features reach the graph block without a gradient in phase B
    block_b = next(n for n in tape_b
                   if getattr(n._vjp, "__qualname__", "").startswith("graph_block"))
    assert block_b._parents[0].value.shape == (model.cfg.dim_fused, 40)
    assert not block_b._parents[0].needs_grad and block_b._parents[0].grad is None


def test_learned_phase_memory_at_n2400():
    model, mods, labels, mask = phase_model(n=2400, dropout=0.0)
    opt = nc.Adam(model.agl_params() + model.gcn_params(), 0.01)
    tracemalloc.start()
    try:
        train_epoch(model, mods, labels, mask, opt, opt, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_block_argument_errors():
    h, source, gp, labels, mask = make_case(6, seed=1)
    tape = nc.Tape()
    hn, w0, w1 = tape.leaf(h), tape.leaf(gp.w0), tape.leaf(gp.w1)
    with pytest.raises(TypeError, match="edges"):
        graph_block(tape, hn, w0, w1, labels, mask)
    with pytest.raises(DimensionError):
        graph_block(tape, hn, w0, w1, labels, mask, edges=no_edges(5))
    with pytest.raises(ParameterError, match="empty mask"):
        graph_block(tape, hn, w0, w1, labels, [], edges=no_edges(6))
    with pytest.raises(DataError, match="out of range"):
        graph_block(tape, hn, w0, w1, labels + 3, mask, edges=no_edges(6))


@pytest.mark.parametrize("graph", ["learned", "knn"])
def test_fit_forms_no_dense_graph(monkeypatch, graph):
    # a learned graph's forward builds its edge rule; a knn rule is built by
    # the forwards that fuse afresh (both phases of the first epoch, then
    # phase B) and handed on to the rest, so a fit of E epochs builds E + 1
    # neighbour lists. The final cache keeps the last rule: with early
    # stopping, stopping's own forward after each epoch is the cache, so no
    # forward follows the last.
    model, mods, labels, mask = phase_model(n=30, graph=graph)
    rules = []
    edge_rule = Model.edge_rule
    monkeypatch.setattr(Model, "edge_rule",
                        lambda *args: rules.append(edge_rule(*args)) or rules[-1])
    knn_edges_, builds = agl.knn_edges, []
    monkeypatch.setattr(agl, "knn_edges", lambda *args: builds.append(1) or knn_edges_(*args))
    monkeypatch.setattr(agl, "learned_adjacency", None)
    for patience in (0, 50):
        rules.clear()
        builds.clear()
        cfg = replace(model.cfg, epochs=6, patience=patience)
        fitted, history = fit(model.schema, mods, labels, mask, cfg, 3)
        forwards = 2 * 6 + (6 if patience else 1)
        assert len(history) == 6 and len(rules) == (6 + 1 if graph == "knn" else forwards)
        assert len(builds) == (len(rules) if graph == "knn" else 0)
        assert "A" not in fitted.cache and fitted.cache["edges"] is rules[-1]


@pytest.mark.parametrize("n, self_loops", [(150, False), (685, False), (150, True), (685, True)],
                         ids=["150", "685", "150-self_loops", "685-self_loops"])
def test_cached_graph_is_the_trained_graph(monkeypatch, n, self_loops):
    # the cached edge rule gives, bit for bit, the row tiles of A~ the block
    # visited in the fit's last forward, which are the tiles inductive scoring
    # reads; at both sizes a dense Zn^T Zn differs in last bits
    tiles, graph_block_ = {}, block.graph_block

    def recording_tiles(n, edges, diag=1.0):
        for lo, hi, a in row_tiles(n, edges, diag):
            if recording_tiles.on:
                tiles[lo] = a.copy()
            yield lo, hi, a

    def recording_block(*args, **kwargs):
        recording_tiles.on = True
        try:
            return graph_block_(*args, **kwargs)
        finally:
            recording_tiles.on = False

    recording_tiles.on = False
    monkeypatch.setattr(block, "row_tiles", recording_tiles)
    monkeypatch.setattr(block, "graph_block", recording_block)
    rng = np.random.default_rng(n)
    schema = ModalitySchema((("a", 12), ("b", 6)))
    cfg = TrainConfig(epochs=3, lr=0.01, add_self_loops=self_loops)  # d_a = 16, as by default
    mods = [rng.normal(size=(12, n)), rng.normal(size=(6, n))]
    fitted, _ = fit(schema, mods, rng.integers(0, 3, size=n), np.arange(0, n, 2), cfg, 3)
    scored = [a for _, _, a in row_tiles(n, fitted.cache["edges"], 2.0 if self_loops else 1.0)]
    assert np.array_equal(np.concatenate(scored),
                          np.concatenate([tiles[lo] for lo in sorted(tiles)]))


# ------------------------------------------------ the row tiles' contract

def kind_model(graph, n, rng):
    """A Model of one graph kind over n patients, and fused features for it."""
    schema = ModalitySchema((("a", 3), ("b", 2)))
    meta = rng.integers(0, 3, size=(3, n))
    return Model(schema, 3, TrainConfig(graph=graph, knn_k=7), meta=meta), rng.normal(size=(16, n))


@pytest.mark.parametrize("n", [TILE - 1, TILE + 1, 2 * TILE + 5])
@pytest.mark.parametrize("graph", ["learned", "knn", "meta", "identity"])
def test_row_tiles_contract(graph, n):
    # criterion 4 on the tiles every command reads: symmetric (exactly, but
    # for the learned graph's two products), non-negative, unit diagonal
    model, h = kind_model(graph, n, np.random.default_rng(n))
    a = dense_graph(n, model.edge_rule(h))
    if graph == "learned":
        np.testing.assert_allclose(a, a.T, rtol=0.0, atol=1e-12)
        assert (a == 0).any() and (a > 0).mean() > 0.1
    else:
        assert np.array_equal(a, a.T)
    assert (a >= 0).all() and np.array_equal(np.diag(a), np.ones(n))
    if graph == "knn":
        assert ((a > 0).sum(axis=1) >= 7 + 1).all()


@pytest.mark.parametrize("n", [TILE - 1, TILE + 1, 2 * TILE + 5])
def test_learned_tiles_invariant_to_power_of_two_rescale(n):
    model, h = kind_model("learned", n, np.random.default_rng(n))
    a = dense_graph(n, model.edge_rule(h))
    for scale in (2.0 ** -20, 0.5, 8.0, 2.0 ** 30):
        assert np.array_equal(dense_graph(n, model.edge_rule(scale * h)), a)


@pytest.mark.parametrize("graph", ["learned", "knn", "meta", "identity"])
def test_row_tiles_over_a_node_subset(graph):
    # the tiles of A[S][:, S] that inductive scoring reads: A's entries, bit
    # for bit but for the learned graph's narrower products, with `diag`
    # where a row node meets itself; S spans two tiles, one, or none
    n = 2 * TILE + 5
    rng = np.random.default_rng(7)
    model, h = kind_model(graph, n, rng)
    edges = model.edge_rule(h)
    a = dense_graph(n, edges)
    for size in (TILE + 40, 9, 0):
        sub = np.sort(rng.choice(n, size=size, replace=False))
        tiles = [(lo, hi, t) for lo, hi, t in row_tiles(n, edges, 2.0, nodes=sub)]
        assert [lo for lo, _, _ in tiles] == list(range(0, size, TILE))
        want = a[np.ix_(sub, sub)] + np.eye(size)
        got = np.concatenate([t for _, _, t in tiles]) if tiles else np.zeros((0, 0))
        if graph == "learned":
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)
            assert np.array_equal(got > 0, want > 0)
        else:
            assert np.array_equal(got, want)


# ------------------------------------------- the normalised product's pass

def assert_normalized_product_matches_dense(n, edges, diag, rng):
    a = dense_graph(n, edges)
    np.fill_diagonal(a, diag)
    deg_ref = a.sum(axis=1)
    s_ref = 1.0 / np.sqrt(np.maximum(deg_ref, DEGREE_FLOOR))
    p = rng.normal(size=(n, 5))
    for x in (rng.normal(size=(n, 3)), np.empty((n, 0))):
        deg, s, frob, prod = normalized_product(n, edges, diag, p, x)
        assert rel_err(deg, deg_ref) < 1e-12 and rel_err(s, s_ref) < 1e-12
        assert abs(frob - np.vdot(a, a)) <= 1e-12 * np.vdot(a, a)
        assert prod.shape == (n, 5 + x.shape[1])
        assert rel_err(prod, a @ np.concatenate([s_ref[:, None] * p, x], axis=1)) < 1e-12


@pytest.mark.parametrize("graph, n", [
    (graph, n) for graph in ("learned", "knn", "meta", "identity")
    for n in (1, TILE - 1, TILE, TILE + 1, 300) if (graph, n) != ("knn", 1)  # kNN needs k < N
])
def test_normalized_product_matches_dense(graph, n):
    # deg, s, ||A~||_F^2 and A~ [s o p | x], x of three columns or none
    rng = np.random.default_rng(n)
    model, h = kind_model(graph, n, rng)
    edges = model.edge_rule(h)
    for diag in (1.0, 2.0):
        assert_normalized_product_matches_dense(n, edges, diag, rng)


@pytest.mark.parametrize("diag", [0.0, 1.0, 2.0])
def test_normalized_product_isolated_node(diag):
    # node 130, in the second tile, has no edge: with no self weight its
    # degree is 0 and s takes the floor
    n = TILE + 20
    rng = np.random.default_rng(13)
    a = np.abs(rng.normal(size=(n, n)))
    a = (a + a.T) / 2
    a[130] = 0.0
    a[:, 130] = 0.0
    edges = lambda rows, cols: a[rows][:, cols]  # noqa: E731
    assert_normalized_product_matches_dense(n, edges, diag, rng)
    _, s, _, _ = normalized_product(n, edges, diag, np.ones((n, 1)), np.empty((n, 0)))
    assert s[130] == 1.0 / np.sqrt(DEGREE_FLOOR if diag == 0.0 else diag)


def counted(edges):
    """`edges` wrapped to record each call's (rows, cols)."""
    calls = []

    def rule(rows, cols):
        calls.append((rows, cols))
        return edges(rows, cols)

    return rule, calls


@pytest.mark.parametrize("n", [TILE + 1, 685])
@pytest.mark.parametrize("graph", ["learned", "knn"])
def test_block_tile_passes(graph, n):
    # a labelled block reads A~ three times (pass 1: degrees, Frobenius sum,
    # layer 1 and A~ H^T; pass 2: layer 2; the backward), an unlabelled
    # forward twice
    h, source, gp, labels, mask = make_case(n, graph=graph)
    tape = nc.Tape()
    hn, w0, w1 = tape.leaf(h), tape.leaf(gp.w0), tape.leaf(gp.w1)
    zn, edges = None, source
    if graph == "learned":
        zn = cosine_normalize(tape.leaf(source.w_a).T @ hn)
        edges = learned_edges(zn.value)
    rule, calls = counted(edges)
    terms, _ = graph_block(tape, hn, w0, w1, labels, mask, edges=rule, zn=zn)
    tape.backward(nc.sum_axis(terms * TOTAL, axis=0, keepdims=False))
    tiles = -(-n // TILE)
    assert len(calls) == 3 * tiles
    calls.clear()
    graph_block(tape, hn, w0, w1, edges=rule, zn=zn)
    assert len(calls) == 2 * tiles


@pytest.mark.parametrize("n", [TILE + 1, 685])
def test_predict_tile_passes(n):
    # inductive scoring reads A~ once, for the degrees and Q = A~ (s0 o P)
    # together, then each unseen patient's support S once, tile by tile
    rng = np.random.default_rng(n)
    schema = ModalitySchema((("a", 3), ("b", 2)))
    mods = [rng.normal(size=(3, n + 40)), rng.normal(size=(2, n + 40))]
    cfg = TrainConfig(epochs=1, d_f=4, heads=2, d_h=4)
    model, _ = fit(schema, [m[:, :n] for m in mods], rng.integers(0, 3, size=n),
                   np.arange(0, n, 2), cfg, 3)
    rule, calls = counted(model.cache["edges"])
    model.cache["edges"] = rule
    predict_inductive_batch(model, [m[:, n:] for m in mods])
    assert sum(isinstance(c, slice) for _, c in calls) == -(-n // TILE)
    groups = []  # the support tiles, one list per patient: the first is S[:TILE]
    for rows, cols in calls:
        if not isinstance(cols, slice):
            if np.array_equal(rows, cols[:rows.size]):
                groups.append([])
            groups[-1].append((rows, cols))
    assert len(groups) == 40
    for group in groups:
        support = group[0][1]
        assert len(group) == -(-support.size // TILE)
        assert np.array_equal(np.concatenate([r for r, _ in group]), support)


@pytest.mark.parametrize("self_loops", [False, True])
@pytest.mark.parametrize("graph", ["learned", "knn", "meta"])
def test_block_equivariant_to_patient_relabelling(graph, self_loops):
    # relabelling the patients across row tiles permutes the logits, dH and
    # dZn, and leaves the loss terms, dW0 and dW1 as they were
    n, d, d_h = 300, 4, 5
    rng = np.random.default_rng(31)
    h = rng.normal(size=(d, n))
    zn = rng.normal(size=(3, n))
    zn /= np.linalg.norm(zn, axis=0)
    meta = rng.integers(0, 2, size=(3, n))
    gp = init_gcn(d, d_h, 3, rng)
    labels = rng.integers(0, 3, size=n)
    mask = np.sort(rng.choice(n, size=200, replace=False))
    keep = (rng.random((n, d_h)) >= 0.3) / 0.7
    perm = rng.permutation(n)

    def run(order, mask):
        hp, zp = nc.Param(h[:, order], "H"), nc.Param(zn[:, order], "Zn")
        gp.w0.zero_grad()
        gp.w1.zero_grad()
        tape = nc.Tape()
        if graph == "learned":
            kw = {"zn": tape.leaf(zp), "edges": learned_edges(zp.value)}
        elif graph == "knn":
            kw = {"edges": knn_edges(hp.value, 5, 1.5)}
        else:
            kw = {"edges": meta_edges(meta[:, order], 2)}
        terms, logits = graph_block(tape, tape.leaf(hp), tape.leaf(gp.w0), tape.leaf(gp.w1),
                                    labels[order], mask, keep=keep[order],
                                    add_self_loops=self_loops, **kw)
        tape.backward(nc.sum_axis(terms * TOTAL, axis=0, keepdims=False))
        return terms.value, logits, [p.grad.copy() for p in (hp, zp, gp.w0, gp.w1)]

    terms, logits, (dh, dz, dw0, dw1) = run(np.arange(n), mask)
    moved, moved_logits, (mdh, mdz, mdw0, mdw1) = run(perm, np.sort(np.argsort(perm)[mask]))
    np.testing.assert_allclose(moved, terms, rtol=1e-12, atol=0.0)
    assert rel_err(moved_logits, logits[perm]) < 1e-12
    assert rel_err(mdh, dh[:, perm]) < 1e-12
    if graph == "learned":
        assert rel_err(mdz, dz[:, perm]) < 1e-12
    assert rel_err(mdw0, dw0) < 1e-12 and rel_err(mdw1, dw1) < 1e-12
