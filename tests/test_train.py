"""Joint objective, two-phase training, CV harness, metrics, inductive mode."""
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmgl import numcore as nc
from mmgl.agl import NORM_GUARD
from mmgl.data import Preprocessor, SynthConfig, stratified_kfold, synth_generate, zscore
from mmgl.errors import ConfigError, ParameterError, TrainingDiverged
from mmgl.gcn import extend_adjacency, gcn_forward_np, normalize_adj_np
from mmgl.maff import fuse_one
from mmgl.train import (
    PREDICT_BLOCK, Metrics, Model, TrainConfig, _edge_weights, accuracy, auc, evaluate,
    fallback_meta, fit, meta_rows, predict_inductive, predict_inductive_batch, run_ablation, run_cv,
    total_loss, train_epoch, write_ablation_csv, write_history_csv,
    write_metrics_csv,
)


def tiny_dataset(n=24, classes=2, dims=(3, 3), seed=0, separation=3.0):
    return zscore(synth_generate(SynthConfig(
        n=n, classes=classes, modality_dims=dims, separation=separation, seed=seed)))


def tiny_cfg(**kw):
    base = dict(epochs=5, d_f=4, heads=2, d_h=4, lr=0.05, lam=0.5)
    base.update(kw)
    return TrainConfig(**base)


def fit_tiny(ds, cfg, train_idx=None):
    idx = np.arange(ds.n) if train_idx is None else train_idx
    return fit(ds.schema, ds.modalities, ds.labels, idx, cfg, ds.n_classes)


# ------------------------------------------------------------ TrainConfig

def test_config_validation():
    for kw in (dict(lr=0.0), dict(epochs=0), dict(lam=-1.0), dict(fusion="nope"),
               dict(graph="nope"), dict(eval_mode="nope"), dict(phase_a_loss="nope"),
               dict(d_f=6, heads=4), dict(dropout=1.0)):
        with pytest.raises(ConfigError):
            TrainConfig(**kw)


def test_config_unknown_key():
    with pytest.raises(ConfigError, match="mystery"):
        TrainConfig.from_dict({"mystery": 1})


def test_config_dim_defaults():
    cfg = TrainConfig(d_f=8, heads=2)
    assert cfg.dim_fused == 8 and cfg.dim_graph == 8
    cfg = TrainConfig(d_f=8, heads=2, d=6, d_a=3)
    assert cfg.dim_fused == 6 and cfg.dim_graph == 3


def test_config_json_round_trip(tmp_path):
    cfg = TrainConfig(epochs=7, lam=0.25, fusion="mlp")
    path = tmp_path / "cfg.json"
    import json

    path.write_text(json.dumps(cfg.to_dict()))
    assert TrainConfig.load(path) == cfg


# ------------------------------------------------------------- total_loss

def test_total_loss_lambda_zero_is_task_only():
    rng = np.random.default_rng(0)
    t = nc.Tape()
    logits = t.const(rng.normal(size=(4, 2)))
    h = t.const(rng.normal(size=(3, 4)))
    a = t.const(np.abs(rng.normal(size=(4, 4))))
    labels = np.array([0, 1, 0, 1])
    total, parts = total_loss(t, logits, labels, np.arange(4), h, a, 0.0, 0.5, 0.5)
    assert float(total.value) == pytest.approx(float(parts["task"].value))


def test_total_loss_confident_predictions_vanish():
    t = nc.Tape()
    logits = np.full((3, 2), -40.0)
    labels = np.array([1, 0, 1])
    logits[np.arange(3), labels] = 40.0
    h = t.const(np.zeros((2, 3)))
    a = t.const(np.eye(3))
    total, _ = total_loss(t, t.const(logits), labels, np.arange(3), h, a, 0.0, 0.5, 0.5)
    assert float(total.value) < 1e-12


def test_total_loss_matches_term_oracles():
    rng = np.random.default_rng(1)
    t = nc.Tape()
    logits = t.const(rng.normal(size=(6, 3)))
    h = t.const(rng.normal(size=(2, 6)))
    a_np = np.abs(rng.normal(size=(6, 6)))
    a_np = (a_np + a_np.T) / 2
    a = t.const(a_np)
    labels = rng.integers(0, 3, size=6)
    lam, alpha, beta = 0.8, 0.4, 0.2
    total, parts = total_loss(t, logits, labels, np.arange(6), h, a, lam, alpha, beta)
    recomposed = float(parts["task"].value) + lam * (
        float(parts["smooth"].value)
        + alpha * float(parts["con"].value)
        + beta * float(parts["reg"].value)
    )
    assert abs(float(total.value) - recomposed) < 1e-10


# ------------------------------------------------------------ train_epoch

def test_phase_freeze_contract():
    ds = tiny_dataset()
    cfg = tiny_cfg(epochs=1)
    # phase B optimizer over nothing: any change must come from phase A,
    # so the GCN weights have to stay bitwise identical
    model = Model(ds.schema, ds.n_classes, cfg)
    opt_a = nc.Adam(model.fusion_params() + model.agl_params(), cfg.lr)
    opt_none = nc.Adam([], cfg.lr)
    before = [p.value.copy() for p in model.gcn_params()]
    fused_before = [p.value.copy() for p in model.fusion_params()]
    train_epoch(model, ds.modalities, ds.labels, np.arange(ds.n), opt_a, opt_none, 0)
    assert all(np.array_equal(a, b) for a, b in zip(before, [p.value for p in model.gcn_params()]))
    assert not all(
        np.array_equal(a, b)
        for a, b in zip(fused_before, [p.value for p in model.fusion_params()])
    )
    # and the mirror image: an epoch whose phase A updates nothing leaves
    # the fusion weights untouched while the GCN moves
    model2 = Model(ds.schema, ds.n_classes, cfg)
    opt_b = nc.Adam(model2.agl_params() + model2.gcn_params(), cfg.lr)
    fused_before = [p.value.copy() for p in model2.fusion_params()]
    gcn_before = [p.value.copy() for p in model2.gcn_params()]
    train_epoch(model2, ds.modalities, ds.labels, np.arange(ds.n),
                nc.Adam([], cfg.lr), opt_b, 0)
    assert all(
        np.array_equal(a, b)
        for a, b in zip(fused_before, [p.value for p in model2.fusion_params()])
    )
    assert not all(
        np.array_equal(a, b)
        for a, b in zip(gcn_before, [p.value for p in model2.gcn_params()])
    )


def test_train_epoch_reports_all_terms():
    ds = tiny_dataset()
    cfg = tiny_cfg(epochs=1)
    _, history = fit_tiny(ds, cfg)
    assert set(history[0]) == {"total", "task", "smooth", "con", "reg"}
    row = history[0]
    recomposed = row["task"] + cfg.lam * (
        row["smooth"] + cfg.alpha * row["con"] + cfg.beta * row["reg"]
    )
    assert abs(row["total"] - recomposed) < 1e-10


def test_divergence_names_term():
    ds = tiny_dataset()
    cfg = tiny_cfg(epochs=3)
    model = Model(ds.schema, ds.n_classes, cfg)
    model.gcn.w0.value[0, 0] = np.nan
    opt_a = nc.Adam(model.fusion_params() + model.agl_params(), cfg.lr)
    opt_b = nc.Adam(model.agl_params() + model.gcn_params(), cfg.lr)
    with pytest.raises(TrainingDiverged) as exc:
        train_epoch(model, ds.modalities, ds.labels, np.arange(ds.n), opt_a, opt_b, 7)
    assert exc.value.term in ("task", "smooth", "con", "reg", "total")
    assert exc.value.epoch == 7


def test_graph_only_phase_a_loss():
    ds = tiny_dataset()
    model, history = fit_tiny(ds, tiny_cfg(phase_a_loss="graph-only"))
    assert np.isfinite([row["total"] for row in history]).all()


def test_overfit_smoke():
    # with the graph disabled the schedule behaves like plain supervised
    # training and memorizes a tiny dataset
    ds = tiny_dataset(n=30, classes=3, dims=(4, 4), seed=1, separation=2.0)
    cfg = tiny_cfg(epochs=200, lam=0.0, graph="identity", patience=0)
    start = time.time()
    model, history = fit_tiny(ds, cfg)
    acc = accuracy(model.cache["logits"], ds.labels)
    assert acc == 1.0
    assert time.time() - start < 30


def test_loss_trace_finite_long_run():
    ds = synth_generate(SynthConfig())  # generator defaults
    cfg = TrainConfig(epochs=500, d_f=8, heads=2, d_h=8)
    res_model, history = fit(ds.schema, zscore(ds).modalities, ds.labels,
                             np.arange(ds.n), cfg, ds.n_classes)
    assert len(history) == 500
    assert all(np.isfinite(list(row.values())).all() for row in history)


def test_fit_deterministic():
    ds = tiny_dataset(seed=2)
    cfg = tiny_cfg()
    m1, h1 = fit_tiny(ds, cfg)
    m2, h2 = fit_tiny(ds, cfg)
    assert np.array_equal(m1.cache["logits"], m2.cache["logits"])
    assert h1 == h2


def test_fit_early_stopping():
    ds = tiny_dataset(seed=3)
    _, history = fit_tiny(ds, tiny_cfg(epochs=200, patience=3))
    assert len(history) < 200


def test_meta_graph_requires_meta():
    ds = tiny_dataset()
    model = Model(ds.schema, ds.n_classes, tiny_cfg(graph="meta"))
    with pytest.raises(ParameterError):
        model.forward(nc.Tape(), ds.modalities)


# ---------------------------------------------------------------- metrics

def test_accuracy_basics():
    logits = np.array([[2.0, 0.0], [0.0, 2.0], [2.0, 0.0]])
    assert accuracy(logits, [0, 1, 1]) == pytest.approx(2 / 3)


def test_auc_perfect_and_ties():
    assert auc(np.array([0.1, 0.4, 0.8, 0.9]), np.array([0, 0, 1, 1])) == 1.0
    assert auc(np.zeros(6), np.array([0, 1, 0, 1, 0, 1])) == 0.5


def test_auc_matches_pair_enumeration():
    rng = np.random.default_rng(4)
    for _ in range(25):
        scores = rng.integers(0, 6, size=20).astype(float)  # force ties
        labels = rng.integers(0, 2, size=20)
        if labels.min() == labels.max():
            continue
        pos, neg = scores[labels == 1], scores[labels == 0]
        wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
        assert auc(scores, labels) == wins / (pos.size * neg.size)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-100, 100), min_size=4, max_size=30), st.data())
def test_auc_rank_invariance(scores, data):
    scores = np.array(scores, dtype=np.float64)
    labels = np.array(data.draw(
        st.lists(st.integers(0, 1), min_size=scores.size, max_size=scores.size)))
    if labels.min() == labels.max():
        return
    base = auc(scores, labels)
    assert 0.0 <= base <= 1.0
    # strictly increasing affine transform preserves ranks and ties exactly
    assert auc(2.0 * scores + 3.0, labels) == base


def test_auc_macro_reduces_to_binary_for_two_classes():
    rng = np.random.default_rng(5)
    p1 = rng.random(40)
    probs = np.stack([1 - p1, p1], axis=1)
    labels = rng.integers(0, 2, size=40)
    assert auc(probs, labels) == pytest.approx(auc(p1, labels), abs=1e-12)


def test_auc_single_class_nan():
    assert np.isnan(auc(np.array([0.1, 0.2]), np.array([1, 1])))


def test_metrics_aggregates():
    m = Metrics([0.8, 0.9, 1.0], [0.7, 0.8, 0.9])
    assert m.mean_acc == pytest.approx(0.9)
    assert m.std_acc == pytest.approx(np.std([0.8, 0.9, 1.0], ddof=1))
    assert m.se_acc == pytest.approx(m.std_acc / np.sqrt(3))
    assert m.mean_auc == pytest.approx(0.8)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_metrics_nan_auc_folds():
    nan = float("nan")
    none = Metrics([1.0] * 3, [nan] * 3)
    assert np.isnan(none.mean_auc) and np.isnan(none.std_auc) and np.isnan(none.se_auc)
    one = Metrics([1.0] * 3, [nan, 0.5, nan])
    assert one.mean_auc == 0.5 and np.isnan(one.std_auc) and np.isnan(one.se_auc)
    two = Metrics([1.0] * 3, [0.5, nan, 0.7])
    assert two.mean_auc == np.nanmean(two.auc_folds)
    assert two.std_auc == np.nanstd(two.auc_folds, ddof=1)
    # the standard error counts only the two folds that have an AUC
    assert two.se_auc == two.std_auc / np.sqrt(2)
    assert Metrics([1.0], [nan]).std_auc == 0.0


# ---------------------------------------------------------------- run_cv

def test_run_cv_covers_every_sample_once():
    ds = synth_generate(SynthConfig(n=30, classes=2, modality_dims=(3, 3), seed=6))
    res = run_cv(ds, tiny_cfg(epochs=2), k=5)
    tests = np.concatenate([test for _, test in res.split.folds])
    assert np.array_equal(np.sort(tests), np.arange(30))
    assert len(res.folds) == 5
    for fr in res.folds:
        assert 0.0 <= fr.acc <= 1.0


def test_run_cv_deterministic_bitwise():
    ds = synth_generate(SynthConfig(n=30, classes=2, modality_dims=(3, 3), seed=7))
    cfg = tiny_cfg(epochs=3)
    a = run_cv(ds, cfg, k=3)
    b = run_cv(ds, cfg, k=3)
    assert a.metrics.acc_folds == b.metrics.acc_folds
    assert a.metrics.auc_folds == b.metrics.auc_folds
    assert all(fa.losses == fb.losses for fa, fb in zip(a.folds, b.folds))


def test_run_cv_threads_match_serial():
    ds = synth_generate(SynthConfig(n=30, classes=2, modality_dims=(3, 3), seed=8))
    cfg = tiny_cfg(epochs=3)
    serial = run_cv(ds, cfg, k=3, threads=1)
    threaded = run_cv(ds, cfg, k=3, threads=3)
    assert serial.metrics.acc_folds == threaded.metrics.acc_folds
    assert serial.metrics.auc_folds == threaded.metrics.auc_folds


def test_run_cv_all_graph_and_fusion_kinds():
    ds = synth_generate(SynthConfig(n=24, classes=2, modality_dims=(3, 3),
                                    meta_dims=2, seed=9))
    for fusion in ("maff", "mlp", "concat"):
        for graph in ("learned", "knn", "meta", "identity"):
            cfg = tiny_cfg(epochs=2, fusion=fusion, graph=graph, knn_k=3)
            res = run_cv(ds, cfg, k=2)
            assert len(res.folds) == 2


def test_run_cv_inductive_mode():
    ds = synth_generate(SynthConfig(n=24, classes=2, modality_dims=(3, 3), seed=10))
    res = run_cv(ds, tiny_cfg(epochs=3, eval_mode="inductive"), k=3)
    for fr in res.folds:
        assert 0.0 <= fr.acc <= 1.0 and 0.0 <= fr.auc <= 1.0


def test_run_cv_per_fold_stats():
    ds = synth_generate(SynthConfig(n=24, classes=2, modality_dims=(3, 3),
                                    missing_rate=0.1, seed=11))
    res = run_cv(ds, tiny_cfg(epochs=2, per_fold_stats=True), k=2)
    assert len(res.folds) == 2


def test_per_fold_preprocess_ignores_test_fold_cells():
    # imputation means and z-score statistics both come from the training
    # fold, so editing held-out cells leaves every training input unchanged
    ds = synth_generate(SynthConfig(n=24, classes=2, modality_dims=(3, 3),
                                    missing_rate=0.2, seed=11))
    train_idx, test_idx = stratified_kfold(ds.labels, 3, 0).folds[0]
    assert any(m[:, train_idx].any() for m in ds.missing)
    edited = [x.copy() for x in ds.modalities]
    for x in edited:
        x[:, test_idx] += 100.0
    base = Preprocessor.fit(ds, train_idx).transform(ds)
    moved_ds = replace(ds, modalities=edited)
    moved = Preprocessor.fit(moved_ds, train_idx).transform(moved_ds)
    for a, b in zip(base.modalities, moved.modalities):
        assert np.array_equal(a[:, train_idx], b[:, train_idx])
        assert not np.array_equal(a[:, test_idx], b[:, test_idx])


# ------------------------------------------------------------- ablation

def test_ablation_single_cell():
    ds = synth_generate(SynthConfig(n=24, classes=2, modality_dims=(3, 3), seed=12))
    rows = run_ablation(ds, tiny_cfg(epochs=2), fusions=("maff",), graphs=("learned",), k=2)
    assert len(rows) == 1
    assert rows[0]["fusion"] == "maff" and rows[0]["graph"] == "learned"


def test_ablation_cell_matches_plain_cv():
    ds = synth_generate(SynthConfig(n=24, classes=2, modality_dims=(3, 3), seed=13))
    cfg = tiny_cfg(epochs=3)
    rows = run_ablation(ds, cfg, fusions=("maff",), graphs=("learned",), k=3)
    plain = run_cv(ds, cfg, k=3)
    assert rows[0]["result"].metrics.acc_folds == plain.metrics.acc_folds
    assert rows[0]["result"].metrics.auc_folds == plain.metrics.auc_folds


# ------------------------------------------------------------- inductive

def test_inductive_duplicate_close_to_transductive():
    ds = tiny_dataset(n=30, seed=14, separation=4.0)
    model, _ = fit_tiny(ds, tiny_cfg(epochs=30))
    probs = nc.softmax_rows_values(model.cache["logits"])
    for i in (0, 7, 13):
        p_ind = predict_inductive(model, [m[:, i] for m in ds.modalities])
        tv = 0.5 * np.abs(p_ind - probs[i]).sum()
        assert tv <= 0.05


def test_inductive_batch_equals_loop():
    ds = tiny_dataset(n=20, seed=15)
    model, _ = fit_tiny(ds, tiny_cfg(epochs=5))
    new = [m[:, :4] for m in ds.modalities]
    batch = predict_inductive_batch(model, new)
    for i in range(4):
        single = predict_inductive(model, [m[:, i] for m in new])
        assert np.array_equal(batch[i], single)


def loop_predict(model, x_cols):
    """Reference inductive prediction: the patient attached to an explicit
    (N+1)^2 graph, normalised and passed through the trained GCN layers."""
    cfg = model.cfg
    h_train = model.cache["H"]
    xs = [np.asarray(x, dtype=np.float64).reshape(-1, 1) for x in x_cols]
    if cfg.fusion == "maff":
        h_new = fuse_one(nc.Tape(), xs, model.maff)[0].value
    elif cfg.fusion == "mlp":
        xc = np.concatenate(xs, axis=0)
        h_new = model.mlp_w2.value.T @ np.maximum(model.mlp_w1.value.T @ xc, 0.0)
    else:
        h_new = model.concat_w.value.T @ np.concatenate(xs, axis=0)
    if cfg.graph == "learned":
        w = model.agl.w_a.value
        z_train = w.T @ h_train
        z_new = (w.T @ h_new)[:, 0]
        nt = np.maximum(np.linalg.norm(z_train, axis=0), NORM_GUARD)
        nn_ = max(np.linalg.norm(z_new), NORM_GUARD)
        sims = np.maximum((z_train.T @ z_new) / (nt * nn_), 0.0)
    elif cfg.graph == "knn":
        d2 = ((h_train - h_new) ** 2).sum(axis=0)
        w = np.exp(-d2 / (2.0 * cfg.rbf_sigma ** 2))
        k = min(cfg.knn_k, h_train.shape[1])
        sims = np.zeros_like(w)
        nbrs = np.argpartition(w, -k)[-k:]
        sims[nbrs] = w[nbrs]
    else:
        sims = np.zeros(h_train.shape[1])
    a_norm = normalize_adj_np(extend_adjacency(model.cache["A"], sims), cfg.add_self_loops)
    logits = gcn_forward_np(np.concatenate([h_train, h_new], axis=1), a_norm, model.gcn)
    return nc.softmax_rows_values(logits[-1:])[0]


def fit_heldout(fusion, graph, add_self_loops=False, seed=20, dims=(3, 4), blocks=1, **kw):
    """A model fitted on the first 22 of 30 patients, plus unseen patients:
    the other 8, a zero patient (zero embedding) and `blocks` scoring blocks
    of random ones. `kw` overrides config fields."""
    ds = tiny_dataset(n=30, classes=3, dims=dims, seed=seed)
    train = np.arange(22)
    cfg = tiny_cfg(fusion=fusion, graph=graph, knn_k=3, add_self_loops=add_self_loops, **kw)
    model, _ = fit(ds.schema, [m[:, train] for m in ds.modalities], ds.labels[train],
                   np.arange(train.size), cfg, ds.n_classes)
    rng = np.random.default_rng(seed)
    new = [np.concatenate([m[:, 22:], np.zeros((m.shape[0], 1)),
                           rng.normal(size=(m.shape[0], blocks * PREDICT_BLOCK))], axis=1)
           for m in ds.modalities]
    return model, new


@pytest.mark.parametrize("add_self_loops", [False, True])
@pytest.mark.parametrize("graph", ["learned", "knn", "identity"])
@pytest.mark.parametrize("fusion", ["maff", "mlp", "concat"])
def test_inductive_batch_matches_loop_oracle(fusion, graph, add_self_loops):
    model, new = fit_heldout(fusion, graph, add_self_loops)
    batch = predict_inductive_batch(model, new)
    ref = np.array([loop_predict(model, [m[:, i] for m in new]) for i in range(len(batch))])
    np.testing.assert_allclose(batch, ref, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("fusion,graph,kw", [
    ("maff", "learned", {}), ("mlp", "knn", {}), ("concat", "learned", {}),
    # a 600-wide modality: BLAS rounds the columns of a fusion product this
    # size differently once it is wide enough, so fusing all 137 patients in
    # one product would fail here
    ("maff", "learned", {"dims": (600, 4), "blocks": 4, "d_f": 16}),
])
def test_inductive_rows_independent_of_blocking(fusion, graph, kw):
    model, new = fit_heldout(fusion, graph, seed=21, **kw)
    n = new[0].shape[1]
    assert n > PREDICT_BLOCK  # splits below cross the internal block boundary
    whole = predict_inductive_batch(model, new)
    for c in range(1, n):
        parts = [predict_inductive_batch(model, [m[:, cols] for m in new])
                 for cols in (slice(None, c), slice(c, None))]
        assert np.array_equal(np.concatenate(parts), whole), f"split at {c}"
    singles = [predict_inductive(model, [m[:, i] for m in new]) for i in range(n)]
    assert np.array_equal(np.array(singles), whole)


def test_inductive_edges_of_training_patient_match_learned_graph():
    # scored as unseen, a training patient gets the edges the learned graph
    # gave it: both sides go through the same cosine kernel
    ds = tiny_dataset(n=60, classes=3, dims=(5, 4), seed=23)
    model, _ = fit_tiny(ds, tiny_cfg(epochs=5))
    idx = np.arange(0, 60, 7)
    h = model.fuse(nc.Tape(), [m[:, idx] for m in ds.modalities])[0].value
    w = _edge_weights(model)(h)  # (N, B)
    a = model.cache["A"]
    assert (a > 0).mean() < 0.9  # some edges are cut by the ReLU
    for b, i in enumerate(idx):
        off = np.arange(ds.n) != i
        np.testing.assert_allclose(w[off, b], a[i, off], rtol=0.0, atol=1e-13)


def test_inductive_degenerate_embedding_isolated():
    ds = tiny_dataset(n=20, seed=16)
    model, _ = fit_tiny(ds, tiny_cfg(epochs=5, fusion="concat"))
    zeros = [np.zeros(3), np.zeros(3)]
    p = predict_inductive(model, zeros)  # z_new = 0 -> self-loop only
    # the isolated node sees only its own (zero) features
    w0, w1 = model.gcn.w0.value, model.gcn.w1.value
    expect = nc.softmax_rows_values(
        (np.maximum(np.zeros((1, w0.shape[0])) @ w0, 0.0) @ w1))[0]
    assert np.allclose(p, expect)
    assert p.sum() == pytest.approx(1.0)


def test_inductive_requires_cache_and_supports_graph_kinds():
    ds = tiny_dataset(n=20, seed=17)
    cfg = tiny_cfg(epochs=2)
    model = Model(ds.schema, ds.n_classes, cfg)
    with pytest.raises(ParameterError):
        predict_inductive(model, [m[:, 0] for m in ds.modalities])
    for graph in ("knn", "identity"):
        m2, _ = fit_tiny(ds, tiny_cfg(epochs=2, graph=graph, knn_k=3))
        p = predict_inductive(m2, [m[:, 0] for m in ds.modalities])
        assert p.shape == (2,) and p.sum() == pytest.approx(1.0)


def test_inductive_not_supported_for_meta():
    ds = synth_generate(SynthConfig(n=20, classes=2, modality_dims=(3, 3),
                                    meta_dims=1, seed=18))
    ds = zscore(ds)
    cfg = tiny_cfg(epochs=2, graph="meta")
    model, _ = fit(ds.schema, ds.modalities, ds.labels, np.arange(ds.n), cfg,
                   ds.n_classes, meta=ds.meta_matrix())
    with pytest.raises(ParameterError):
        predict_inductive(model, [m[:, 0] for m in ds.modalities])


def test_meta_rows_per_graph_kind():
    ds = synth_generate(SynthConfig(n=20, classes=2, modality_dims=(3, 3), meta_dims=2, seed=18))
    assert meta_rows(ds, tiny_cfg()) is None
    assert np.array_equal(meta_rows(ds, tiny_cfg(graph="meta")), ds.meta_matrix())
    plain = tiny_dataset(n=21, seed=19)
    assert np.array_equal(meta_rows(plain, tiny_cfg(graph="meta")), fallback_meta(plain))


def test_fallback_meta_shape():
    ds = tiny_dataset(n=21, seed=19)
    meta = fallback_meta(ds)
    assert meta.shape == (2, 21)
    assert set(np.unique(meta)) <= {0.0, 1.0, 2.0}


# ------------------------------------------------------------ csv writers

def test_metrics_csv_format(tmp_path):
    ds = synth_generate(SynthConfig(n=24, classes=2, modality_dims=(3, 3), seed=20))
    res = run_cv(ds, tiny_cfg(epochs=2), k=3)
    path = tmp_path / "metrics.csv"
    write_metrics_csv(res, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "fold,acc,auc,loss_task,loss_smooth,loss_con,loss_reg"
    assert len(lines) == 1 + 3 + 3  # header + folds + mean/std/stderr
    write_metrics_csv(res, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def test_history_csv_format(tmp_path):
    ds = tiny_dataset(seed=21)
    _, history = fit_tiny(ds, tiny_cfg(epochs=4))
    path = tmp_path / "history.csv"
    write_history_csv(history, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,total,task,smooth,con,reg"
    assert len(lines) == 5


def test_ablation_csv_format(tmp_path):
    ds = synth_generate(SynthConfig(n=24, classes=2, modality_dims=(3, 3), seed=22))
    rows = run_ablation(ds, tiny_cfg(epochs=2), fusions=("maff", "concat"),
                        graphs=("learned",), k=2)
    path = tmp_path / "ablation.csv"
    write_ablation_csv(rows, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "fusion,graph,mean_acc,std_acc,mean_auc,std_auc"
    assert len(lines) == 3
