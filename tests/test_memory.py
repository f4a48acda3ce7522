"""Memory: no command path allocates an (N, N) float64 array, whatever the
graph kind, a row-tile pass holds one tile, a training tape is freed when its
backward ends, a forward that nothing differentiates keeps no tape, a fit holds
one fusion at a time, and reading or writing a feature table holds about its
values. Peaks are read with tracemalloc, which counts numpy's buffers; what
would wait for the cyclic collector is read from gc.garbage."""
import csv
import gc
import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from mmgl.agl import TILE, no_edges
from mmgl.block import row_tiles
from mmgl.cli import TADPOLE_LIKE, load_model, main
from mmgl.data import ModalitySchema, SynthConfig, read_table, save_dataset, synth_generate
from mmgl.numcore import Node, Tape
from mmgl.train import TrainConfig, evaluate, fit, predict_inductive_batch

GRAPHS = ["learned", "knn", "meta", "identity"]


def dense_bytes(n):
    return n * n * 8  # one (N, N) float64 array: 43.9 MiB at 2400, 11.0 MiB at 1200


def traced_peak(fn):
    """tracemalloc's peak, in bytes, over fn()."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def cohort(n, graph, seed=0):
    rng = np.random.default_rng(seed)
    mods = [rng.normal(size=(12, n)), rng.normal(size=(6, n))]
    meta = rng.integers(0, 3, size=(2, n)).astype(float) if graph == "meta" else None
    return ModalitySchema((("a", 12), ("b", 6))), mods, rng.integers(0, 3, size=n), meta


@pytest.mark.parametrize("graph", GRAPHS)
def test_fit_peak_below_one_dense_graph(graph):
    schema, mods, labels, meta = cohort(2400, graph)
    cfg = TrainConfig(epochs=3, graph=graph)
    peak = traced_peak(lambda: fit(schema, mods, labels, np.arange(0, 2400, 2), cfg, 3,
                                   meta=meta))
    assert peak < dense_bytes(2400), f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("graph,patience", [
    pytest.param(graph, patience, id=graph + ("-patience" if patience else ""))
    for patience in (0, 50) for graph in ("learned", "identity")])
def test_fit_peak_does_not_grow_with_epochs(graph, patience):
    # with the cyclic collector off, a tape that outlived its backward, or an
    # early-stopping forward that recorded one, would keep every epoch's
    # arrays alive until the fit returned
    schema, mods, labels, meta = cohort(400, graph)
    gc.collect()
    gc.disable()
    try:
        peaks = [traced_peak(lambda: fit(
            schema, mods, labels, np.arange(0, 400, 2),
            TrainConfig(epochs=epochs, graph=graph, patience=patience), 3))
            for epochs in (2, 8)]
    finally:
        gc.enable()
    assert peaks[1] < 1.25 * peaks[0], [p / 2**20 for p in peaks]


def trained_model(tmp, n, graph):
    """`mmgl train` (3 epochs) on an n-patient synthetic cohort with
    modalities of 12 and 6 features; returns (model.npz, features.csv)."""
    synth = tmp / "synth.json"
    synth.write_text(json.dumps({"n": n, "classes": 3, "modality_dims": [12, 6], "seed": 3}))
    assert main(["synth", "--config", str(synth), "--out", str(tmp / "data")]) == 0
    cfg = tmp / "train.json"
    cfg.write_text(json.dumps({"epochs": 3, "graph": graph}))
    assert main(["train", "--config", str(cfg), "--data", str(tmp / "data"),
                 "--out", str(tmp / "run")]) == 0
    return tmp / "run" / "model.npz", tmp / "data" / "features.csv"


def tapes_left_for_the_collector(fn):
    """Type name -> count of the numcore Nodes and Tapes that fn() leaves in
    reference cycles, found by one collection with the collector otherwise off."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        fn()
        gc.collect()
        return Counter(type(o).__name__ for o in gc.garbage if isinstance(o, (Node, Tape)))
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def test_nothing_left_for_the_collector(tmp_path):
    # every tape ends with its backward or records nothing, so a fit (with its
    # early-stopping and cache forwards), an evaluation, an inductive predict
    # and a model load free what they recorded as they go
    model_path, _ = trained_model(tmp_path, 120, "learned")
    schema, mods, labels, _ = cohort(120, "learned")
    train_idx, test_idx = np.arange(0, 120, 2), np.arange(1, 120, 2)
    cfg = TrainConfig(epochs=4, patience=10)
    state = {}
    steps = {
        "fit": lambda: state.update(model=fit(schema, mods, labels, train_idx, cfg, 3)[0]),
        "evaluate": lambda: evaluate(state["model"], labels, test_idx),
        "predict": lambda: predict_inductive_batch(state["model"], [m[:, :85] for m in mods]),
        "load": lambda: load_model(model_path),
    }
    for step in steps.values():  # warm up: imports and first-call caches
        step()
    left = {name: tapes_left_for_the_collector(step) for name, step in steps.items()}
    assert left == {name: Counter() for name in steps}


@pytest.mark.parametrize("graph", ["learned", "knn", "identity"])
def test_predict_peak_below_one_dense_graph(tmp_path, graph):
    # a quarter of one dense graph: scoring holds (N, d_h) rows and one row
    # tile, and a patient's work is sized by its neighbours, not by N
    model, features = trained_model(tmp_path, 2400, graph)
    with open(features, newline="") as f:
        rows = list(csv.reader(f))[:1 + 85]
    patients = tmp_path / "patients.csv"
    with open(patients, "w", newline="") as f:
        csv.writer(f).writerows(rows)
    argv = ["predict", "--model", str(model), "--features", str(patients),
            "--out", str(tmp_path / "p.csv")]
    peak = traced_peak(lambda: main(argv))
    assert (tmp_path / "p.csv").read_text().count("\n") == 1 + 85
    assert peak < dense_bytes(2400) / 4, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("graph", GRAPHS)
def test_export_graph_peak_below_one_dense_graph(tmp_path, graph):
    model, _ = trained_model(tmp_path, 1200, graph)
    argv = ["export", "--model", str(model), "--what", "graph", "--out", str(tmp_path / "g.csv")]
    peak = traced_peak(lambda: main(argv))
    assert (tmp_path / "g.csv").read_text().count("\n") >= 1 + 1200
    assert peak < dense_bytes(1200), f"peak {peak / 2**20:.1f} MiB"


def read_table_peak(tmp_path, blanks):
    """(tracemalloc peak of read_table, bytes of the values it returned) on
    the tadpole-like table, with one blank cell in every row if `blanks`."""
    assert main(["synth", "--preset", "tadpole-like", "--out", str(tmp_path)]) == 0
    schema = ModalitySchema.load(str(tmp_path / "schema.json"))
    path = tmp_path / "features.csv"
    if blanks:
        lines = path.read_text().splitlines(keepends=True)
        path.write_text(lines[0] + "".join("," + line.split(",", 1)[1] for line in lines[1:]))
    got = []
    peak = traced_peak(lambda: got.append(read_table(path, schema)))
    values = got[0][0]
    assert values.shape == (366, 685) and np.isnan(values).sum() == 685 * blanks
    return peak, values.nbytes


def test_read_table_peak_near_its_values(tmp_path):
    # numpy reads a complete table in one pass, holding its (N, d_in) result
    # and the (d_in, N) copy: 2.05 times the values
    peak, nbytes = read_table_peak(tmp_path, blanks=False)
    assert peak < 2.5 * nbytes, f"peak {peak / 2**20:.1f} MiB"


def test_read_table_peak_with_blank_cells(tmp_path):
    # numpy reads a table with blank cells in the same one pass, and they
    # stay NaN, counted by a passing mask: 2.05 times the values
    peak, nbytes = read_table_peak(tmp_path, blanks=True)
    assert peak < 2.5 * nbytes, f"peak {peak / 2**20:.1f} MiB"


def test_save_dataset_peak_is_rows_not_the_table(tmp_path):
    # one patient's cells are held as Python objects at a time: 2.3 MiB on
    # the tadpole-like cohort, about its (d_in, N) values, where whole-table
    # lists for the csv module held 12.0 MiB
    ds = synth_generate(SynthConfig.from_dict(TADPOLE_LIKE))
    peak = traced_peak(lambda: save_dataset(ds, tmp_path / "f.csv", tmp_path / "s.json"))
    assert peak < 6 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_row_tile_pass_holds_one_tile():
    # row_tiles lets go of a tile once it is yielded, and a consumer that
    # deletes its own reference holds one tile while the next is built
    n = 2400
    tile = TILE * n * 8  # 2.34 MiB

    def one_pass():
        for _, _, a in row_tiles(n, no_edges(n)):
            a.sum()
            del a

    peak = traced_peak(one_pass)
    assert peak < 1.5 * tile, f"peak {peak / 2**20:.2f} MiB"
