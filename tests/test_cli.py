"""End-to-end command-line behaviour: artifacts, determinism, exit codes."""
import csv
import json
import os
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mmgl
from mmgl.cli import main
from mmgl.data import SynthConfig, load_csv
from mmgl.train import TrainConfig


def run(*argv):
    return main(list(argv))


def run_subprocess(*argv, cwd):
    env = os.environ | {"PYTHONPATH": os.pathsep.join(
        [str(Path(mmgl.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-m", "mmgl", *argv], env=env, cwd=cwd,
                          capture_output=True, text=True)


@pytest.fixture()
def synth_dir(tmp_path):
    out = tmp_path / "data"
    cfg = {"n": 24, "classes": 2, "modality_dims": [3, 3], "separation": 3.0, "seed": 5}
    path = tmp_path / "synth.json"
    path.write_text(json.dumps(cfg))
    assert run("synth", "--config", str(path), "--out", str(out)) == 0
    return out


def write_train_cfg(tmp_path, **kw):
    cfg = {"epochs": 3, "d_f": 4, "heads": 2, "d_h": 4, "lr": 0.05, "lam": 0.5}
    cfg.update(kw)
    path = tmp_path / "train.json"
    path.write_text(json.dumps(cfg))
    return path


# ------------------------------------------------------------------ synth

def test_synth_round_trip(synth_dir):
    ds = load_csv(synth_dir / "features.csv", synth_dir / "schema.json")
    assert ds.n == 24
    assert ds.schema.d_in == 6
    assert ds.n_classes == 2


def test_synth_same_seed_byte_identical(tmp_path):
    for name in ("a", "b"):
        assert run("synth", "--seed", "9", "--out", str(tmp_path / name)) == 0
    assert (tmp_path / "a" / "features.csv").read_bytes() == \
        (tmp_path / "b" / "features.csv").read_bytes()
    assert (tmp_path / "a" / "schema.json").read_bytes() == \
        (tmp_path / "b" / "schema.json").read_bytes()


def test_synth_tadpole_like_preset(tmp_path):
    out = tmp_path / "tadpole"
    assert run("synth", "--preset", "tadpole-like", "--out", str(out)) == 0
    ds = load_csv(out / "features.csv", out / "schema.json")
    assert ds.n == 685
    assert ds.schema.dims == [200, 100, 50, 16]
    assert ds.n_classes == 3


# ------------------------------------------------------------------ train

def test_train_writes_artifacts(tmp_path, synth_dir):
    cfg = write_train_cfg(tmp_path)
    out = tmp_path / "run"
    assert run("train", "--config", str(cfg), "--data", str(synth_dir),
               "--out", str(out)) == 0
    for name in ("model.npz", "metrics.csv", "history.csv", "manifest.json"):
        assert (out / name).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["epochs"] == 3
    assert len(manifest["data"]["features_sha256"]) == 64
    lines = (out / "metrics.csv").read_text().strip().splitlines()
    assert lines[0] == "split,acc,auc"
    assert len((out / "history.csv").read_text().strip().splitlines()) == 4


def test_train_missing_schema_exit_3(tmp_path):
    empty = tmp_path / "nodata"
    empty.mkdir()
    cfg = write_train_cfg(tmp_path)
    assert run("train", "--config", str(cfg), "--data", str(empty),
               "--out", str(tmp_path / "o")) == 3


def test_train_bad_config_exit_2(tmp_path, synth_dir):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"epochs": 0}))
    assert run("train", "--config", str(bad), "--data", str(synth_dir),
               "--out", str(tmp_path / "o")) == 2


@pytest.mark.parametrize("text", [
    json.dumps({"heads": 0}),
    json.dumps({"epochs": "5"}),
    '{"epochs": 3,',
    json.dumps(5),
])
def test_train_invalid_config_exit_2(tmp_path, synth_dir, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert run("train", "--config", str(bad), "--data", str(synth_dir),
               "--out", str(tmp_path / "o")) == 2


CONFIG_JUNK = st.one_of(
    st.none(), st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4),
    st.lists(st.integers(-1, 3), max_size=2),
)
CONFIG_TYPED = {
    "int": st.integers(-1, 5), "float": st.floats(-0.5, 2.0), "bool": st.booleans(),
    "str": st.sampled_from(["column", "row", "maff", "mlp", "concat", "learned", "knn", "meta",
                            "identity", "transductive", "inductive", "total", "graph-only"]),
}


def config_item(key):
    """A (key, value) pair; the value mostly has the field's own type."""
    field = TrainConfig.__dataclass_fields__.get(key)
    typed = CONFIG_TYPED[field.type] if field else st.integers()
    value = st.integers(0, 3).flatmap(lambda i: CONFIG_JUNK if i == 0 else typed)
    return st.tuples(st.just(key), value)


CONFIG_OBJECT = st.lists(
    st.sampled_from(sorted(TrainConfig.__dataclass_fields__) + ["mystery"]).flatmap(config_item),
    max_size=4,
).map(
    # small defaults keep each accepted config to a fraction of a second
    lambda items: json.dumps({"epochs": 2, "d_f": 4, "heads": 2, "d_h": 4} | dict(items)).encode())
CONFIG_BYTES = st.one_of(
    CONFIG_OBJECT, CONFIG_OBJECT, CONFIG_OBJECT,
    st.text(max_size=12).map(lambda t: t.encode("utf-8", "surrogatepass")) | st.binary(max_size=12),
)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=CONFIG_BYTES)
def test_cv_exit_code_contract_fuzzed_config(synth_dir, raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_bytes(raw)
        code = run("cv", "--config", str(path), "--data", str(synth_dir),
                   "--out", str(Path(tmp) / "o"), "--folds", "2")
    assert code in (0, 2, 3, 4)


@pytest.mark.parametrize("key,value,top", [
    ("dim", "x", False), ("class_names", 5, True), ("name", ["a"], False),
    ("dim", 3.7, False), ("dim", True, False), ("label_column", 0, True),
    ("meta_columns", ["a", 1], True),
])
def test_cv_malformed_schema_exit_3(tmp_path, synth_dir, capsys, key, value, top):
    schema = json.loads((synth_dir / "schema.json").read_text())
    (schema if top else schema["modalities"][0])[key] = value
    (synth_dir / "schema.json").write_text(json.dumps(schema))
    assert run("cv", "--config", str(write_train_cfg(tmp_path)), "--data", str(synth_dir),
               "--out", str(tmp_path / "o"), "--folds", "2") == 3
    assert "malformed schema" in capsys.readouterr().err


SCHEMA_JUNK = st.one_of(CONFIG_JUNK, st.integers(-1, 4), st.booleans(), st.floats(0.5, 3.5),
                        st.lists(st.text(max_size=3), max_size=2),
                        st.dictionaries(st.text(max_size=3), st.integers(0, 3), max_size=2))
SCHEMA_FIELDS = ["modalities", "label_column", "class_names", "meta_columns", "mystery",
                 (0, "name"), (0, "dim"), (1, "name"), (1, "dim"), (1, "mystery")]


@st.composite
def schema_bytes(draw, base):
    """The schema of `base` (a parsed schema.json) with up to three fields
    replaced by junk, or arbitrary bytes."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.binary(max_size=12))
    schema = json.loads(json.dumps(base))
    for field in draw(st.lists(st.sampled_from(SCHEMA_FIELDS), max_size=3)):
        mods = schema.get("modalities")
        if isinstance(field, str):
            schema[field] = draw(SCHEMA_JUNK)
        elif isinstance(mods, list) and field[0] < len(mods) and isinstance(mods[field[0]], dict):
            mods[field[0]][field[1]] = draw(SCHEMA_JUNK)
    return json.dumps(schema).encode()


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cv_exit_code_contract_fuzzed_schema(tmp_path, synth_dir, data):
    raw = data.draw(schema_bytes(json.loads((synth_dir / "schema.json").read_text())))
    cfg = write_train_cfg(tmp_path, epochs=1)
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "features.csv").write_bytes((synth_dir / "features.csv").read_bytes())
        (Path(tmp) / "schema.json").write_bytes(raw)
        code = run("cv", "--config", str(cfg), "--data", tmp,
                   "--out", str(Path(tmp) / "o"), "--folds", "2")
    assert code in (0, 2, 3)


@pytest.mark.parametrize("cfg", [
    {"modality_dims": ["x"]}, {"seed": -1}, {"meta_dims": "2"}, {"pattern": 5}, {"n": 10.5},
])
def test_synth_malformed_config_exit_2(tmp_path, cfg):
    path = tmp_path / "synth.json"
    path.write_text(json.dumps(cfg))
    assert run("synth", "--config", str(path), "--out", str(tmp_path / "o")) == 2


def test_synth_non_finite_output_exit_2(tmp_path):
    path = tmp_path / "synth.json"
    path.write_text(json.dumps(
        {"n": 40, "separation": 1e308, "corruption": 1e308, "pattern": "complementary"}))
    assert run("synth", "--config", str(path), "--out", str(tmp_path / "o")) == 2
    assert not (tmp_path / "o" / "features.csv").exists()


def test_python_m_mmgl(tmp_path):
    ok = run_subprocess("--help", cwd=tmp_path)
    assert ok.returncode == 0 and "usage: mmgl" in ok.stdout
    (tmp_path / "synth.json").write_text("{not json")
    bad = run_subprocess("synth", "--config", "synth.json", "--out", "o", cwd=tmp_path)
    assert bad.returncode == 2 and "error:" in bad.stderr


SYNTH_TYPED = {
    "n": st.integers(-1, 30), "classes": st.integers(-1, 4), "meta_dims": st.integers(-1, 3),
    "seed": st.integers(-1, 5), "modality_dims": st.lists(st.integers(-1, 4), max_size=3),
    "pattern": st.one_of(
        st.sampled_from(["all", "none", "complementary", "mod1"]),
        st.lists(st.one_of(st.sampled_from(["mod1", "mod2"]), st.integers(-1, 2)), max_size=2)),
}


def synth_item(key):
    """A (key, value) pair; the value mostly has the field's own type."""
    typed = SYNTH_TYPED.get(key, st.floats(-0.5, 2.0))
    value = st.integers(0, 3).flatmap(lambda i: CONFIG_JUNK if i == 0 else typed)
    return st.tuples(st.just(key), value)


SYNTH_BYTES = st.one_of(
    st.lists(
        st.sampled_from(sorted(SynthConfig.__dataclass_fields__) + ["mystery"]).flatmap(synth_item),
        max_size=4,
    ).map(lambda items: json.dumps({"n": 12, "modality_dims": [2, 2]} | dict(items)).encode()),
    st.text(max_size=12).map(lambda t: t.encode("utf-8", "surrogatepass")) | st.binary(max_size=12),
)


@settings(max_examples=100, deadline=None)
@given(raw=SYNTH_BYTES)
def test_synth_exit_code_contract_fuzzed_config(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "synth.json"
        path.write_bytes(raw)
        code = run("synth", "--config", str(path), "--out", str(Path(tmp) / "o"))
    assert code in (0, 2, 3)


def with_cell(src_dir, dst_dir, cell):
    """Copy of a dataset dir whose second patient's second feature is `cell`."""
    dst_dir.mkdir()
    (dst_dir / "schema.json").write_bytes((src_dir / "schema.json").read_bytes())
    lines = (src_dir / "features.csv").read_text().splitlines()
    cells = lines[2].split(",")
    cells[1] = cell
    lines[2] = ",".join(cells)
    (dst_dir / "features.csv").write_text("\n".join(lines) + "\n")
    return dst_dir


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_cv_non_finite_cell_exit_3(tmp_path, synth_dir, cell, capsys):
    data = with_cell(synth_dir, tmp_path / "bad", cell)
    cfg = write_train_cfg(tmp_path)
    assert run("cv", "--config", str(cfg), "--data", str(data),
               "--out", str(tmp_path / "o"), "--folds", "2") == 3
    assert "row 3" in capsys.readouterr().err


def test_train_divergence_exit_4(tmp_path, synth_dir):
    cfg = write_train_cfg(tmp_path, lr=1e155, epochs=10)
    assert run("train", "--config", str(cfg), "--data", str(synth_dir),
               "--out", str(tmp_path / "o")) == 4


def test_train_divergence_prints_only_the_error(tmp_path, synth_dir):
    cfg = write_train_cfg(tmp_path, lr=1e155, epochs=3)
    res = run_subprocess("train", "--config", str(cfg), "--data", str(synth_dir),
                         "--out", str(tmp_path / "o"), cwd=tmp_path)
    assert res.returncode == 4
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: training diverged: "), res.stderr


# --------------------------------------------------------------------- cv

def test_cv_deterministic_metrics(tmp_path, synth_dir):
    cfg = write_train_cfg(tmp_path)
    for name in ("cv1", "cv2"):
        assert run("cv", "--config", str(cfg), "--data", str(synth_dir),
                   "--out", str(tmp_path / name), "--folds", "3") == 0
    a = (tmp_path / "cv1" / "metrics.csv").read_bytes()
    assert a == (tmp_path / "cv2" / "metrics.csv").read_bytes()
    lines = a.decode().strip().splitlines()
    assert len(lines) == 1 + 3 + 3
    for f in range(3):
        assert (tmp_path / "cv1" / f"history_fold{f}.csv").exists()


def test_cv_threads_env_matches_serial(tmp_path, synth_dir, monkeypatch):
    cfg = write_train_cfg(tmp_path)
    assert run("cv", "--config", str(cfg), "--data", str(synth_dir),
               "--out", str(tmp_path / "serial"), "--folds", "3") == 0
    monkeypatch.setenv("MMGL_THREADS", "3")
    assert run("cv", "--config", str(cfg), "--data", str(synth_dir),
               "--out", str(tmp_path / "threaded"), "--folds", "3") == 0
    assert (tmp_path / "serial" / "metrics.csv").read_bytes() == \
        (tmp_path / "threaded" / "metrics.csv").read_bytes()


@pytest.mark.parametrize("value", ["abc", "0", "-2"])
def test_cv_bad_threads_env_exit_2(tmp_path, synth_dir, monkeypatch, capsys, value):
    monkeypatch.setenv("MMGL_THREADS", value)
    cfg = write_train_cfg(tmp_path)
    assert run("cv", "--config", str(cfg), "--data", str(synth_dir),
               "--out", str(tmp_path / "o"), "--folds", "2") == 2
    assert "MMGL_THREADS" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cv_seed_override_changes_folds(tmp_path, synth_dir):
    cfg = write_train_cfg(tmp_path)
    for seed, name in (("1", "s1"), ("2", "s2")):
        assert run("cv", "--config", str(cfg), "--data", str(synth_dir),
                   "--out", str(tmp_path / name), "--seed", seed, "--folds", "3") == 0
    assert (tmp_path / "s1" / "metrics.csv").read_bytes() != \
        (tmp_path / "s2" / "metrics.csv").read_bytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.filterwarnings("ignore:class .* members:UserWarning")
def test_cv_every_auc_fold_nan(tmp_path):
    # eight patients in eight folds: every test fold holds one class only
    synth = tmp_path / "synth.json"
    synth.write_text(json.dumps({"n": 8, "classes": 2, "modality_dims": [3, 4]}))
    assert run("synth", "--config", str(synth), "--out", str(tmp_path / "data")) == 0
    cfg = write_train_cfg(tmp_path)
    assert run("cv", "--config", str(cfg), "--data", str(tmp_path / "data"),
               "--out", str(tmp_path / "o"), "--folds", "8") == 0
    with open(tmp_path / "o" / "metrics.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [r["fold"] for r in rows] == [str(i) for i in range(8)] + ["mean", "std", "stderr"]
    assert all(r["auc"] == "nan" for r in rows)


def test_manifest_mode_matches_other_outputs(tmp_path, synth_dir):
    cfg = write_train_cfg(tmp_path)
    old = os.umask(0o022)
    try:
        assert run("cv", "--config", str(cfg), "--data", str(synth_dir),
                   "--out", str(tmp_path / "o"), "--folds", "2") == 0
    finally:
        os.umask(old)
    modes = {name: stat.S_IMODE(os.stat(tmp_path / "o" / name).st_mode)
             for name in ("manifest.json", "metrics.csv")}
    assert modes == {"manifest.json": 0o644, "metrics.csv": 0o644}
    assert [p.name for p in (tmp_path / "o").iterdir() if p.name.endswith(".tmp")] == []


# ----------------------------------------------------------------- ablate

def test_ablate_grid_and_cell_matches_cv(tmp_path, synth_dir):
    cfg = write_train_cfg(tmp_path)
    out = tmp_path / "ablate"
    assert run("ablate", "--config", str(cfg), "--data", str(synth_dir),
               "--out", str(out), "--folds", "2",
               "--fusions", "maff,mlp,concat", "--graphs", "learned,knn,identity") == 0
    with open(out / "ablation.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 9
    assert {(r["fusion"], r["graph"]) for r in rows} == {
        (fu, gr) for fu in ("maff", "mlp", "concat")
        for gr in ("learned", "knn", "identity")
    }
    # the maff+learned cell must agree bit-for-bit with a plain cv run
    assert run("cv", "--config", str(cfg), "--data", str(synth_dir),
               "--out", str(tmp_path / "cvref"), "--folds", "2") == 0
    with open(tmp_path / "cvref" / "metrics.csv", newline="") as f:
        ref = {r[0]: r for r in csv.reader(f)}
    cell = next(r for r in rows if r["fusion"] == "maff" and r["graph"] == "learned")
    assert cell["mean_acc"] == ref["mean"][1]
    assert cell["mean_auc"] == ref["mean"][2]
    assert cell["std_acc"] == ref["std"][1]


# ----------------------------------------------------------------- export

@pytest.fixture()
def trained(tmp_path, synth_dir):
    cfg = write_train_cfg(tmp_path)
    out = tmp_path / "run"
    assert run("train", "--config", str(cfg), "--data", str(synth_dir),
               "--out", str(out)) == 0
    return out


def test_export_graph_edges(tmp_path, trained):
    out = tmp_path / "graph.csv"
    assert run("export", "--model", str(trained / "model.npz"),
               "--what", "graph", "--out", str(out)) == 0
    with np.load(trained / "model.npz") as z:
        a = z["A"]
    n = a.shape[0]
    upper = np.triu(a, 1)
    with open(out, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["src", "dst", "weight"]
    assert len(rows) - 1 == n + int((upper != 0).sum())
    nodes = (tmp_path / "graph.nodes.csv").read_text().strip().splitlines()
    assert nodes[0] == "node,label"
    assert len(nodes) == 1 + n


def test_export_fuse_map(tmp_path, trained):
    out = tmp_path / "map.csv"
    assert run("export", "--model", str(trained / "model.npz"),
               "--what", "fuse-map", "--out", str(out)) == 0
    with open(out, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0][0] == "modality"
    assert len(rows[0]) == 3  # two modality columns
    assert len(rows) == 3
    col_sums = np.array([[float(v) for v in r[1:]] for r in rows[1:]]).sum(axis=0)
    assert np.allclose(col_sums, 1.0, atol=1e-9)


def test_export_embeddings(tmp_path, trained):
    out = tmp_path / "emb.csv"
    assert run("export", "--model", str(trained / "model.npz"),
               "--what", "embeddings", "--out", str(out)) == 0
    with open(out, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["h0", "h1", "h2", "h3"]  # d_f = 4
    assert len(rows) == 1 + 24


def test_export_fuse_map_requires_maff(tmp_path, synth_dir):
    cfg = write_train_cfg(tmp_path, fusion="concat")
    out = tmp_path / "run_concat"
    assert run("train", "--config", str(cfg), "--data", str(synth_dir),
               "--out", str(out)) == 0
    assert run("export", "--model", str(out / "model.npz"),
               "--what", "fuse-map", "--out", str(tmp_path / "m.csv")) == 2


def test_export_missing_model_exit_3(tmp_path):
    assert run("export", "--model", str(tmp_path / "nope.npz"),
               "--what", "graph", "--out", str(tmp_path / "g.csv")) == 3


# ---------------------------------------------------------------- predict

def test_predict_probabilities(tmp_path, trained, synth_dir):
    out = tmp_path / "preds.csv"
    # the training table itself works as input; its label column is dropped
    assert run("predict", "--model", str(trained / "model.npz"),
               "--features", str(synth_dir / "features.csv"), "--out", str(out)) == 0
    with open(out, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0][:2] == ["patient", "prediction"]
    assert len(rows) == 1 + 24
    for r in rows[1:]:
        probs = np.array([float(v) for v in r[2:]])
        assert probs.size == 2 and np.all(probs >= 0)
        assert probs.sum() == pytest.approx(1.0)


@pytest.mark.parametrize("case", ["empty", "header_only", "ragged"])
def test_predict_unusable_features_exit_3(tmp_path, trained, synth_dir, case):
    header, first = (synth_dir / "features.csv").read_text().splitlines()[:2]
    bad = tmp_path / "bad.csv"
    bad.write_text({"empty": "", "header_only": f"{header}\n",
                    "ragged": f"{header}\n{first.rsplit(',', 2)[0]}\n"}[case])  # two cells short
    out = tmp_path / "p.csv"
    assert run("predict", "--model", str(trained / "model.npz"),
               "--features", str(bad), "--out", str(out)) == 3
    assert not out.exists()


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_predict_non_finite_cell_exit_3(tmp_path, trained, synth_dir, cell):
    data = with_cell(synth_dir, tmp_path / "bad", cell)
    out = tmp_path / "p.csv"
    assert run("predict", "--model", str(trained / "model.npz"),
               "--features", str(data / "features.csv"), "--out", str(out)) == 3
    assert not out.exists()


def test_predict_one_row_matches_full_file(tmp_path, trained, synth_dir):
    lines = (synth_dir / "features.csv").read_text().splitlines()
    (tmp_path / "one.csv").write_text(f"{lines[0]}\n{lines[6]}\n")  # patient 5 alone
    runs = {"pred_full.csv": synth_dir / "features.csv", "pred_one.csv": tmp_path / "one.csv"}
    for out, src in runs.items():
        assert run("predict", "--model", str(trained / "model.npz"), "--features", str(src),
                   "--out", str(tmp_path / out)) == 0
    full = (tmp_path / "pred_full.csv").read_bytes().splitlines()
    one = (tmp_path / "pred_one.csv").read_bytes().splitlines()
    assert len(one) == 2
    assert one[1].split(b",", 1)[1] == full[6].split(b",", 1)[1]


def test_predict_imputes_training_mean(tmp_path, trained, synth_dir):
    # the training data has no missing cells, yet a blank cell in a new
    # patient gets its feature's training mean, as the artifact records it
    with np.load(trained / "model.npz") as z:
        mean = float(z["impute_means"][1])
    header, row = (synth_dir / "features.csv").read_text().splitlines()[0:7:6]
    cells = row.split(",")
    variants = {}
    for name, cell in (("blank", ""), ("mean", repr(mean))):
        cells[1] = cell
        (tmp_path / f"{name}.csv").write_text(f"{header}\n{','.join(cells)}\n")
        assert run("predict", "--model", str(trained / "model.npz"), "--features",
                   str(tmp_path / f"{name}.csv"), "--out", str(tmp_path / f"p_{name}.csv")) == 0
        variants[name] = (tmp_path / f"p_{name}.csv").read_bytes()
    assert variants["blank"] == variants["mean"]


def test_predict_non_npz_model_exit_3(tmp_path, synth_dir):
    bogus = tmp_path / "model.npz"
    bogus.write_text("not an archive")
    assert run("predict", "--model", str(bogus), "--features",
               str(synth_dir / "features.csv"), "--out", str(tmp_path / "p.csv")) == 3


def test_predict_artifact_with_invalid_config_exit_3(tmp_path, trained, synth_dir):
    with np.load(trained / "model.npz") as z:
        arrays = dict(z)
    cfg = json.loads(str(arrays["config_json"]))
    arrays["config_json"] = np.array(json.dumps(cfg | {"heads": 0}))
    bad = tmp_path / "bad.npz"
    np.savez(bad, **arrays)
    assert run("predict", "--model", str(bad), "--features",
               str(synth_dir / "features.csv"), "--out", str(tmp_path / "p.csv")) == 3


def test_predict_artifact_with_malformed_schema_exit_3(tmp_path, trained, synth_dir):
    with np.load(trained / "model.npz") as z:
        arrays = dict(z)
    schema = json.loads(str(arrays["schema_json"]))
    arrays["schema_json"] = np.array(json.dumps(schema | {"class_names": 5}))
    bad = tmp_path / "bad.npz"
    np.savez(bad, **arrays)
    assert run("predict", "--model", str(bad), "--features",
               str(synth_dir / "features.csv"), "--out", str(tmp_path / "p.csv")) == 3


def test_predict_wrong_width_exit_3(tmp_path, trained):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    assert run("predict", "--model", str(trained / "model.npz"),
               "--features", str(bad), "--out", str(tmp_path / "p.csv")) == 3


@pytest.mark.parametrize("key,trim", [("A", 0), ("H", 1), ("z_mu", 0)])
def test_predict_shape_inconsistent_artifact_exit_3(tmp_path, trained, synth_dir, key, trim):
    with np.load(trained / "model.npz") as z:
        arrays = dict(z)
    arrays[key] = np.delete(arrays[key], -1, axis=trim)  # one row, column or entry short
    bad = tmp_path / "bad.npz"
    np.savez(bad, **arrays)
    assert run("predict", "--model", str(bad), "--features",
               str(synth_dir / "features.csv"), "--out", str(tmp_path / "p.csv")) == 3


COMPAT = Path(__file__).resolve().parent / "compat"


def test_predict_with_earlier_artifact(tmp_path):
    """tests/compat holds an artifact written by an earlier version of mmgl
    (`mmgl train` on a 24-patient, 3-modality synth cohort with missing
    cells: maff fusion, learned graph, 40 epochs), a table of unseen patients
    and that version's predictions for them. A change to the artifact format
    or to inductive scoring fails here."""
    out = tmp_path / "preds.csv"
    assert run("predict", "--model", str(COMPAT / "model.npz"),
               "--features", str(COMPAT / "patients.csv"), "--out", str(out)) == 0
    with open(out, newline="") as f:
        got = list(csv.reader(f))
    with open(COMPAT / "predictions.csv", newline="") as f:
        want = list(csv.reader(f))
    assert got[0] == want[0] and len(got) == len(want) == 11
    for g, w in zip(got[1:], want[1:]):
        assert g[:2] == w[:2]
        np.testing.assert_allclose([float(v) for v in g[2:]], [float(v) for v in w[2:]],
                                   rtol=0, atol=1e-12)
