"""Acceptance gate: the ten headline guarantees, one test per criterion.

Each test prints a single `criterion N PASS/FAIL: ...` line directly to the
terminal (bypassing capture) so the gate's outcome is visible in any log.
Criterion 6 trains 200 cross-validated models and dominates the runtime of
the whole suite (465 s single-threaded on a shared 2-core x86-64 VM).
"""
import csv
import json
import time

import numpy as np
import pytest

from mmgl import numcore as nc
from mmgl.agl import (
    connectivity_loss, graph_loss, init_agl, learned_adjacency, learned_graph,
    smoothness_loss, sparsity_reg,
)
from mmgl.cli import main
from mmgl.data import ModalitySchema, SynthConfig, synth_generate, zscore
from mmgl.gcn import gcn_forward, init_gcn, normalize_adj
from mmgl.maff import fuse_batch, init_maff
from mmgl.train import TrainConfig, accuracy, auc, fit, predict_inductive, run_cv


def report(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"criterion {n} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


# 1 — end-to-end gradient fidelity ------------------------------------------

def test_criterion_01_gradient_fidelity(capsys):
    start = time.time()
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
        logits = gcn_forward(tape, h, normalize_adj(tape, a), gp)
        task = nc.cross_entropy_masked(logits, labels, np.arange(8))
        g_total, *_ = graph_loss(tape, h, a, 0.5, 0.5)
        return task + g_total

    err = nc.grad_check(build, mp.all_params() + ap.all_params() + gp.all_params(), rng=rng)
    elapsed = time.time() - start
    report(capsys, 1, err < 1e-4 and elapsed < 60,
           f"full-pipeline finite-difference error {err:.2e} (< 1e-4) in {elapsed:.1f}s")


# 2 — loss-term oracles -------------------------------------------------------

def test_criterion_02_loss_oracles(capsys):
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(50):
        n, d = int(rng.integers(2, 12)), int(rng.integers(1, 6))
        h_np = rng.normal(size=(d, n))
        a_np = np.abs(rng.normal(size=(n, n)))
        a_np = (a_np + a_np.T) / 2
        t = nc.Tape()
        ours = float(smoothness_loss(t, t.const(h_np), t.const(a_np)).value)
        lap = np.diag(a_np.sum(axis=1)) - a_np
        worst = max(worst, abs(ours - np.trace(h_np @ lap @ h_np.T) / (n * n)))
    t = nc.Tape()
    reg_err = abs(float(sparsity_reg(t, t.const(np.eye(7))).value) - 1 / 7)
    con_err = abs(float(connectivity_loss(t, t.const(np.eye(5))).value))
    ok = worst < 1e-10 and reg_err < 1e-15 and con_err < 1e-7
    report(capsys, 2, ok,
           f"trace-form gap {worst:.1e} (< 1e-10), identity sparsity err {reg_err:.1e}, "
           f"unit-degree connectivity {con_err:.1e}")


# 3 — attention maps are column-stochastic -----------------------------------

def test_criterion_03_attention_contract(capsys):
    rng = np.random.default_rng(3)
    worst = 0.0
    for seed in range(100):
        dims = tuple(int(d) for d in rng.integers(2, 6, size=int(rng.integers(2, 5))))
        schema = ModalitySchema(tuple((f"m{i}", d) for i, d in enumerate(dims)))
        heads = int(rng.choice([1, 2]))
        p = init_maff(schema, 4, 4, heads, np.random.default_rng(seed))
        xs = [rng.normal(size=(d, 5)) for d in dims]
        _, maps = fuse_batch(nc.Tape(), xs, p)
        worst = max(worst, float(np.abs(maps.tensor.sum(axis=1) - 1.0).max()))
        worst = max(worst, float(np.abs(maps.global_map().sum(axis=0) - 1.0).max()))
    # shift invariance: integer scores keep the shifted softmax bitwise equal
    scores = np.random.default_rng(4).integers(-5, 6, size=(4, 7)).astype(np.float64)
    t = nc.Tape()
    base = nc.softmax_columns(t.const(scores), 1.0).value
    shifted = nc.softmax_columns(t.const(scores + 3.0), 1.0).value
    shift_ok = np.array_equal(base, shifted)
    report(capsys, 3, worst < 1e-9 and shift_ok,
           f"max column-sum deviation {worst:.1e} over 100 models (< 1e-9), "
           f"shift invariance exact: {shift_ok}")


# 4 — learned-graph contract --------------------------------------------------

def test_criterion_04_graph_contract(capsys):
    rng = np.random.default_rng(5)
    ok = True
    for trial in range(50):
        d, n = int(rng.integers(2, 6)), int(rng.integers(2, 14))
        params = init_agl(d, d, rng)
        h = rng.normal(size=(d, n))
        a = learned_graph(h, params).a
        ok &= bool(np.all(np.abs(a - a.T) < 1e-12))
        ok &= bool(np.all(a >= 0) and np.all(a <= 1 + 1e-12))
        ok &= bool(np.allclose(np.diag(a), 1.0))
        scale = float(2.0 ** rng.integers(-6, 7))  # power-of-two: float-exact
        ok &= bool(np.array_equal(learned_graph(scale * h, params).a, a))
    report(capsys, 4, ok,
           "symmetric, non-negative, unit-diagonal, scale-invariant over 50 trials")


# 5 — overfit smoke test ------------------------------------------------------

def test_criterion_05_overfit_smoke(capsys):
    start = time.time()
    ds = zscore(synth_generate(SynthConfig(
        n=30, classes=3, modality_dims=(4, 4), separation=2.0, seed=1)))
    cfg = TrainConfig(epochs=200, lam=0.0, graph="identity",
                      d_f=4, heads=2, d_h=4, lr=0.05)
    model, _ = fit(ds.schema, ds.modalities, ds.labels, np.arange(ds.n), cfg, ds.n_classes)
    acc = accuracy(model.cache["logits"], ds.labels)
    elapsed = time.time() - start
    report(capsys, 5, acc == 1.0 and elapsed < 30,
           f"training accuracy {acc:.2f} on 30 samples in {elapsed:.1f}s (< 30s)")


# 6 — complementary-modality synthetic benchmark ------------------------------

def test_criterion_06_synthetic_benchmark(capsys):
    start = time.time()
    maff_accs, concat_accs = [], []
    for seed in range(10):
        ds = synth_generate(SynthConfig(
            n=600, classes=3, modality_dims=(12, 12, 12), separation=9.0,
            noise=1.0, pattern="complementary", seed=seed))
        per_seed = {}
        for fusion in ("maff", "concat"):
            cfg = TrainConfig(epochs=60, d_f=8, heads=2, fusion=fusion,
                              graph="learned", lam=0.2, lr=0.03, seed=seed)
            per_seed[fusion] = run_cv(ds, cfg, k=10).metrics.mean_acc
        maff_accs.append(per_seed["maff"])
        concat_accs.append(per_seed["concat"])
        with capsys.disabled():
            print(f"  seed {seed}: attention-fusion {per_seed['maff']:.4f}  "
                  f"concat {per_seed['concat']:.4f}  ({time.time() - start:.0f}s)")
    mean_maff = float(np.mean(maff_accs))
    mean_concat = float(np.mean(concat_accs))
    elapsed = time.time() - start
    ok = mean_maff >= 0.90 and mean_maff - mean_concat >= 0.02 and elapsed < 900
    report(capsys, 6, ok,
           f"attention-fusion acc {mean_maff:.4f} (>= 0.90), concat {mean_concat:.4f} "
           f"(gap {mean_maff - mean_concat:+.4f} >= 0.02), {elapsed:.0f}s (< 900s)")


# 7 — ablation grid matches plain CV ------------------------------------------

def test_criterion_07_ablation_harness(capsys, tmp_path):
    data = tmp_path / "data"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"epochs": 3, "d_f": 4, "heads": 2, "d_h": 4, "lr": 0.05, "lam": 0.5}))
    synth_path = tmp_path / "synth.json"
    synth_path.write_text(json.dumps(
        {"n": 24, "classes": 2, "modality_dims": [3, 3], "separation": 3.0, "seed": 5}))
    assert main(["synth", "--config", str(synth_path), "--out", str(data)]) == 0
    assert main(["ablate", "--config", str(cfg_path), "--data", str(data),
                 "--out", str(tmp_path / "ablate"), "--folds", "2"]) == 0
    assert main(["cv", "--config", str(cfg_path), "--data", str(data),
                 "--out", str(tmp_path / "cv"), "--folds", "2"]) == 0
    with open(tmp_path / "ablate" / "ablation.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    grid_ok = {(r["fusion"], r["graph"]) for r in rows} == {
        (fu, gr) for fu in ("maff", "mlp", "concat") for gr in ("learned", "knn", "meta")
    }
    with open(tmp_path / "cv" / "metrics.csv", newline="") as f:
        ref = {r[0]: r for r in csv.reader(f)}
    cell = next(r for r in rows if r["fusion"] == "maff" and r["graph"] == "learned")
    cell_ok = (cell["mean_acc"] == ref["mean"][1] and cell["mean_auc"] == ref["mean"][2]
               and cell["std_acc"] == ref["std"][1] and cell["std_auc"] == ref["std"][2])
    report(capsys, 7, grid_ok and cell_ok,
           f"3x3 grid complete: {grid_ok}; attention+learned cell bit-identical "
           f"to plain cv: {cell_ok}")


# 8 — rank-based AUC oracle ---------------------------------------------------

def test_criterion_08_auc_oracle(capsys):
    rng = np.random.default_rng(8)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(4, 40))
        scores = rng.integers(0, 8, size=n).astype(np.float64)  # ties likely
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            continue
        pos, neg = scores[labels == 1], scores[labels == 0]
        diff = pos[:, None] - neg[None, :]
        wins = float((diff > 0).sum() + 0.5 * (diff == 0).sum())
        ok &= auc(scores, labels) == wins / diff.size
    p1 = rng.random(60)
    labels = rng.integers(0, 2, size=60)
    macro = auc(np.stack([1 - p1, p1], axis=1), labels)
    macro_ok = abs(macro - auc(p1, labels)) < 1e-12
    report(capsys, 8, ok and macro_ok,
           f"1000 pair-enumeration matches exact: {ok}; "
           f"macro C=2 reduces to binary: {macro_ok}")


# 9 — inductive/transductive consistency --------------------------------------

def test_criterion_09_inductive_consistency(capsys):
    worst = 0.0
    for seed in (14, 15):
        ds = zscore(synth_generate(SynthConfig(
            n=30, classes=2, modality_dims=(3, 3), separation=4.0, seed=seed)))
        cfg = TrainConfig(epochs=30, d_f=4, heads=2, d_h=4, lr=0.05, lam=0.5, seed=seed)
        model, _ = fit(ds.schema, ds.modalities, ds.labels, np.arange(ds.n),
                       cfg, ds.n_classes)
        probs = nc.softmax_rows_values(model.cache["logits"])
        patients = np.random.default_rng(seed).choice(30, size=10, replace=False)
        for i in patients:
            p_ind = predict_inductive(model, [m[:, i] for m in ds.modalities])
            worst = max(worst, float(0.5 * np.abs(p_ind - probs[i]).sum()))
    report(capsys, 9, worst <= 0.05,
           f"max total variation {worst:.4f} over 20 duplicated patients (<= 0.05)")


# 10 — byte-level determinism --------------------------------------------------

def test_criterion_10_determinism(capsys, tmp_path):
    data = tmp_path / "data"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"epochs": 5, "d_f": 4, "heads": 2, "d_h": 4, "lr": 0.05, "lam": 0.5, "seed": 3}))
    assert main(["synth", "--seed", "3", "--out", str(data)]) == 0
    for name in ("run1", "run2"):
        assert main(["cv", "--config", str(cfg_path), "--data", str(data),
                     "--out", str(tmp_path / name), "--folds", "3"]) == 0
    same = (tmp_path / "run1" / "metrics.csv").read_bytes() == \
        (tmp_path / "run2" / "metrics.csv").read_bytes()
    report(capsys, 10, same, f"repeated cv metrics byte-identical: {same}")
