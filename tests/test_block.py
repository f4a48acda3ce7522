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
    AglParams, cosine_normalize, init_agl, knn_graph_rbf, learned_adjacency, meta_graph,
)
from mmgl.block import TILE, graph_block
from mmgl.data import ModalitySchema
from mmgl.errors import DataError, DimensionError, ParameterError
from mmgl.gcn import gcn_forward, init_gcn, normalize_adj
from mmgl.train import Model, TrainConfig, fit, total_loss, train_epoch

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


def make_case(n, d=4, d_a=3, d_h=5, c=3, seed=0, graph="learned"):
    rng = np.random.default_rng(seed)
    h = nc.Param(rng.normal(size=(d, n)), "H")
    gp = init_gcn(d, d_h, c, rng)
    labels = rng.integers(0, c, size=n)
    mask = np.sort(rng.choice(n, size=max(1, (2 * n) // 3), replace=False))
    if graph == "learned":
        source = init_agl(d, d_a, rng)
    elif graph == "knn":
        source = knn_graph_rbf(h.value, min(3, n - 1), 1.5).a
    elif graph == "meta":
        source = meta_graph(rng.integers(0, 2, size=(3, n)), 1).a
    else:
        source = np.eye(n)
    return h, source, gp, labels, mask


def dense(tape, h, source, gp, labels, mask, weights, self_loops, p, seed):
    """The dense tape: learned_adjacency -> normalize_adj -> gcn_forward ->
    total_loss."""
    h = tape.leaf(h)
    if isinstance(source, AglParams):
        a, _ = learned_adjacency(tape, h, source)
    else:
        a = tape.const(source)
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
        graph = {"zn": cosine_normalize(tape.leaf(source.w_a).T @ h)}
    else:
        graph = {"adj": source}
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
    # node 4 has no edge and no self-weight: its degree falls to the floor
    monkeypatch.setattr(block, "TILE", 3)
    h, _, gp, labels, mask = make_case(10, seed=5)
    rng = np.random.default_rng(5)
    a = np.abs(rng.normal(size=(10, 10)))
    a = (a + a.T) / 2
    a[4] = 0.0
    a[:, 4] = 0.0
    assert_block_matches_dense(h, a, gp, labels, mask, self_loops=self_loops)


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
                                   labels, mask, zn=zl)
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
    terms, _ = graph_block(tape, hn, w0, w1, labels, mask, adj=np.eye(6))
    for p in (h, gp.w0, gp.w1):
        p.zero_grad()
    tape.backward(nc.sum_axis(terms * TOTAL, axis=0, keepdims=False))
    assert hn.grad is None and w1.grad is None
    assert not h.grad.any() and not gp.w1.grad.any() and gp.w0.grad.any()
    # the VJP forms no gradient for the frozen parents at all
    d_h, d_w0, d_w1 = terms._vjp(np.ones(4))
    assert d_h is None and d_w1 is None and d_w0.shape == gp.w0.value.shape


def test_block_without_labels_gives_logits_only():
    h, source, gp, labels, mask = make_case(7, seed=3)
    tape = nc.Tape()
    hn = tape.const(h.value)
    zn = cosine_normalize(tape.const(source.w_a.value.T) @ hn)
    w0, w1 = tape.const(gp.w0.value), tape.const(gp.w1.value)
    recorded = len(tape.nodes)
    terms, logits = graph_block(tape, hn, w0, w1, zn=zn)
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
        a = tape.const(model.fixed_adjacency(h.value))
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
    tapes = []
    backward = nc.Tape.backward

    def keep_tape(tape, loss):
        tapes.append(tape)
        return backward(tape, loss)

    monkeypatch.setattr(nc.Tape, "backward", keep_tape)
    train_epoch(model, mods, labels, mask,
                nc.Adam(model.fusion_params() + model.agl_params(), 0.01),
                nc.Adam(model.agl_params() + model.gcn_params(), 0.01), 0)
    assert len(tapes) == 2
    return tapes


def test_learned_phase_tapes_hold_no_square_node(monkeypatch):
    model, mods, labels, mask = phase_model(n=40)
    for tape in phase_tapes(model, mods, labels, mask, monkeypatch):
        shapes = [node.value.shape for node in tape.nodes]
        assert (40, 40) not in shapes


def test_frozen_groups_get_no_gradient_node(monkeypatch):
    # Both phases record the same nodes, so that a traced run's tape counts
    # repeat from phase to phase. Phase B forms no gradient on any node the
    # fusion weights feed, so no fusion VJP runs; phase A forms no GCN weight
    # gradient.
    model, mods, labels, mask = phase_model()
    tape_a, tape_b = phase_tapes(model, mods, labels, mask, monkeypatch)
    assert [n.value.shape for n in tape_a.nodes] == [n.value.shape for n in tape_b.nodes]

    def graded(tape, params, users=False):
        """Whether each leaf of `params` (and, with users, each node they
        feed) got a gradient."""
        ids = {id(p) for p in params}
        leaves = [n for n in tape.nodes if id(n._param) in ids]
        fed = [n for n in tape.nodes if any(p in leaves for p in n._parents)] if users else []
        assert leaves
        return [n.grad is not None for n in leaves + fed]

    assert all(graded(tape_a, model.fusion_params(), users=True))
    assert not any(graded(tape_b, model.fusion_params(), users=True))
    assert not any(graded(tape_a, model.gcn_params()))
    assert all(graded(tape_b, model.gcn_params()))
    # the fused features reach the graph block without a gradient in phase B
    block_b = next(n for n in tape_b.nodes
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
    with pytest.raises(ParameterError, match="exactly one"):
        graph_block(tape, hn, w0, w1, labels, mask)
    with pytest.raises(DimensionError):
        graph_block(tape, hn, w0, w1, labels, mask, adj=np.eye(5))
    with pytest.raises(ParameterError, match="empty mask"):
        graph_block(tape, hn, w0, w1, labels, [], adj=np.eye(6))
    with pytest.raises(DataError, match="out of range"):
        graph_block(tape, hn, w0, w1, labels + 3, mask, adj=np.eye(6))


def test_fit_forms_the_dense_graph_once(monkeypatch):
    # early stopping reads the block's logits; only the final cache forms A
    model, mods, labels, mask = phase_model(n=30)
    calls = []
    dense_adjacency = agl.learned_adjacency
    monkeypatch.setattr(agl, "learned_adjacency",
                        lambda *args: calls.append(1) or dense_adjacency(*args))
    cfg = replace(model.cfg, epochs=6, patience=10)
    fitted, history = fit(model.schema, mods, labels, mask, cfg, 3)
    assert len(history) == 6 and len(calls) == 1
    assert fitted.cache["A"].shape == (30, 30)
