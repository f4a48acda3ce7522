"""End-to-end command-line behaviour: artifacts, determinism, exit codes."""
import csv
import importlib
import json
import os
import platform
import resource
import stat
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mmgl
from mmgl import cli
from mmgl.cli import load_model, main
from mmgl.data import SynthConfig, load_csv
from mmgl.train import TrainConfig
from reference_ops import dense_graph, write_graph_csv


def run(*argv):
    return main(list(argv))


def run_subprocess(*argv, cwd, timeout=None):
    env = os.environ | {"PYTHONPATH": os.pathsep.join(
        [str(Path(mmgl.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-m", "mmgl", *argv], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


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


# widths past any 64-bit address space: numpy refuses them without touching memory
UNALLOCATABLE_WEIGHTS = [{"d": 2**70}, {"d_f": 2**70, "heads": 2**70}, {"d_h": 10**15}]


@pytest.mark.parametrize("text", [
    json.dumps({"heads": 0}),
    json.dumps({"epochs": "5"}),
    '{"epochs": 3,',
    json.dumps(5),
    *map(json.dumps, UNALLOCATABLE_WEIGHTS),
])
def test_train_invalid_config_exit_2(tmp_path, synth_dir, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert run("train", "--config", str(bad), "--data", str(synth_dir),
               "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err.count("error:") == 1


@pytest.mark.parametrize("cfg", UNALLOCATABLE_WEIGHTS)
def test_cv_unallocatable_weights_exit_2(tmp_path, synth_dir, capsys, cfg):
    path = write_train_cfg(tmp_path, **cfg)
    assert run("cv", "--config", str(path), "--data", str(synth_dir),
               "--out", str(tmp_path / "o"), "--folds", "2") == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "numpy cannot allocate" in err


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
    {"pattern": ["mod9"]},
    # tables past any 64-bit address space
    {"n": 2**70}, {"modality_dims": [2**70]}, {"n": 10**15}, {"modality_dims": [10**15]},
])
def test_synth_malformed_config_exit_2(tmp_path, capsys, cfg):
    path = tmp_path / "synth.json"
    path.write_text(json.dumps(cfg))
    assert run("synth", "--config", str(path), "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err.count("error:") == 1


@pytest.mark.parametrize("cfg", [{"classes": 10**15, "n": 10**15}, {"meta_dims": 10**15}],
                         ids=["classes", "meta-columns"])
def test_synth_sizes_table_before_naming_columns_exit_2(tmp_path, cfg):
    # the schema holds one name per class and meta column; a table too large
    # to allocate is refused before any name is built, so the command ends
    # at once, whatever the host's memory
    (tmp_path / "synth.json").write_text(json.dumps(cfg))
    res = run_subprocess("synth", "--config", "synth.json", "--out", "o", cwd=tmp_path,
                         timeout=30)
    assert res.returncode == 2 and res.stderr.count("error:") == 1
    assert "Traceback" not in res.stderr and not (tmp_path / "o").exists()


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


def blank_label(features, dst):
    """Write to `dst` the table `features` with its second patient's label blank."""
    with open(features, newline="") as f:
        rows = list(csv.reader(f))
    rows[2][rows[0].index("label")] = ""
    with open(dst, "w", newline="") as f:
        csv.writer(f).writerows(rows)


@pytest.mark.parametrize("class_names", [True, False], ids=["class-names", "indices"])
def test_cv_blank_label_exit_3(tmp_path, synth_dir, capsys, class_names):
    schema = json.loads((synth_dir / "schema.json").read_text())
    if not class_names:
        schema["class_names"] = []
    (synth_dir / "schema.json").write_text(json.dumps(schema))
    blank_label(synth_dir / "features.csv", synth_dir / "features.csv")
    assert run("cv", "--config", str(write_train_cfg(tmp_path)), "--data", str(synth_dir),
               "--out", str(tmp_path / "o"), "--folds", "2") == 3
    assert "row 3: blank label in column 'label'" in capsys.readouterr().err


@pytest.mark.parametrize("relabel, message", [
    ({"c0": "-1", "c1": "0"}, "row 2: negative class index '-1' in column 'label'"),
    ({"c0": "0", "c1": "7"}, "class index 1 is unused in column 'label'"),
], ids=["negative", "gapped"])
def test_cv_bad_class_index_exit_3(tmp_path, synth_dir, capsys, relabel, message):
    # integer labels without class names must be the indices 0..K-1
    schema = json.loads((synth_dir / "schema.json").read_text())
    schema["class_names"] = []
    (synth_dir / "schema.json").write_text(json.dumps(schema))
    with open(synth_dir / "features.csv", newline="") as f:
        rows = list(csv.reader(f))
    for row in rows[1:]:
        row[-1] = relabel[row[-1]]
    with open(synth_dir / "features.csv", "w", newline="") as f:
        csv.writer(f).writerows(rows)
    assert run("cv", "--config", str(write_train_cfg(tmp_path)), "--data", str(synth_dir),
               "--out", str(tmp_path / "o"), "--folds", "2") == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_cv_non_finite_cell_exit_3(tmp_path, synth_dir, cell, capsys):
    data = with_cell(synth_dir, tmp_path / "bad", cell)
    cfg = write_train_cfg(tmp_path)
    assert run("cv", "--config", str(cfg), "--data", str(data),
               "--out", str(tmp_path / "o"), "--folds", "2") == 3
    assert "row 3" in capsys.readouterr().err


@pytest.mark.parametrize("mode", [["--eval-mode", "inductive"], []],
                         ids=["inductive", "per-fold-stats"])
def test_cv_feature_observed_only_in_held_out_patient_exit_3(tmp_path, synth_dir, mode):
    # a feature filled in for one patient only has an observed cell, but none
    # among the training patients of the fold that holds that patient out
    with open(synth_dir / "features.csv", newline="") as f:
        rows = list(csv.reader(f))
    j = rows[0].index("mod1_0")
    for row in rows[2:]:
        row[j] = ""
    with open(synth_dir / "features.csv", "w", newline="") as f:
        csv.writer(f).writerows(rows)
    cfg = write_train_cfg(tmp_path, per_fold_stats=not mode)
    res = run_subprocess("cv", "--config", str(cfg), "--data", str(synth_dir), "--out", "o",
                         "--folds", "3", *mode, cwd=tmp_path, timeout=120)
    assert res.returncode == 3 and res.stderr.count("error:") == 1
    assert ("error: feature 'mod1_0' has no observed values to impute from among the "
            "patients the statistics are fitted on") in res.stderr
    assert "Traceback" not in res.stderr


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


@pytest.mark.parametrize("command", ["train", "cv", "ablate"])
def test_manifest_records_runtime(tmp_path, synth_dir, monkeypatch, command):
    # outputs move in their last bits with the BLAS thread count, so a run
    # records what it ran on; unset thread variables read back as null. A
    # finished run adds its wall time and the process's peak RSS so far,
    # which an in-process caller sees as a running maximum
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MMGL_THREADS", "1")
    extra = {"train": [], "cv": ["--folds", "2"],
             "ablate": ["--folds", "2", "--fusions", "mlp", "--graphs", "identity"]}[command]
    kib = 1024 if sys.platform == "darwin" else 1  # ru_maxrss is in bytes on macOS

    def rss_mib():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / kib / 1024

    rss_before = rss_mib()
    start = time.perf_counter()
    assert run(command, "--config", str(write_train_cfg(tmp_path)), "--data", str(synth_dir),
               "--out", str(tmp_path / "o"), *extra) == 0
    wall = time.perf_counter() - start
    runtime = json.loads((tmp_path / "o" / "manifest.json").read_text())["runtime"]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    wall_s, peak = runtime.pop("wall_s"), runtime.pop("peak_rss_mib")
    assert runtime == {
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": {k: blas[k] for k in ("name", "version", "openblas configuration") if k in blas},
        "threads": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None, "MMGL_THREADS": "1"},
    }
    assert runtime["blas"]["name"]
    assert 0 < wall_s <= wall
    assert rss_before - 0.1 <= peak <= rss_mib() + 0.1  # rounded to 0.1 MiB


def test_failed_run_manifest_has_no_run_times(tmp_path, synth_dir):
    # the manifest written at the start is rewritten only when the run ends well
    cfg = write_train_cfg(tmp_path, lr=1e155, epochs=3)
    assert run("train", "--config", str(cfg), "--data", str(synth_dir),
               "--out", str(tmp_path / "o")) == 4
    runtime = json.loads((tmp_path / "o" / "manifest.json").read_text())["runtime"]
    assert "wall_s" not in runtime and "peak_rss_mib" not in runtime


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


@pytest.mark.parametrize("flag,names", [("--fusions", "maff,bogus"),
                                        ("--graphs", "learned,bogus")])
def test_ablate_bad_cell_exit_2_before_training(tmp_path, synth_dir, monkeypatch, capsys,
                                                flag, names):
    fits = []
    monkeypatch.setattr("mmgl.train.fit", lambda *args, **kw: fits.append(1))
    assert run("ablate", "--config", str(write_train_cfg(tmp_path)), "--data", str(synth_dir),
               "--out", str(tmp_path / "ablate"), "--folds", "2", flag, names) == 2
    assert "bogus" in capsys.readouterr().err and fits == []
    assert not (tmp_path / "ablate" / "ablation.csv").exists()


def test_cv_inductive_meta_exit_2_before_training(tmp_path, synth_dir, monkeypatch, capsys):
    fits = []
    monkeypatch.setattr("mmgl.train.fit", lambda *args, **kw: fits.append(1))
    cfg = write_train_cfg(tmp_path, graph="meta")
    assert run("cv", "--config", str(cfg), "--data", str(synth_dir), "--out",
               str(tmp_path / "cv"), "--folds", "2", "--eval-mode", "inductive") == 2
    assert "inductive" in capsys.readouterr().err and fits == []
    assert not (tmp_path / "cv").exists()


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
    cache = load_model(trained / "model.npz")[0].cache
    n = cache["H"].shape[1]
    a = dense_graph(n, cache["edges"])
    upper = np.triu(a, 1)
    with open(out, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["src", "dst", "weight"]
    assert len(rows) - 1 == n + int((upper != 0).sum())
    assert all(a[int(i), int(j)] == float(w) for i, j, w in rows[1:])
    nodes = (tmp_path / "graph.nodes.csv").read_text().strip().splitlines()
    assert nodes[0] == "node,label"
    assert len(nodes) == 1 + n


@pytest.mark.parametrize("graph", ["learned", "knn"])
def test_export_graph_writes_the_csv_modules_bytes(tmp_path, synth_dir, graph):
    cfg = write_train_cfg(tmp_path, graph=graph, knn_k=5)
    assert run("train", "--config", str(cfg), "--data", str(synth_dir),
               "--out", str(tmp_path / "run")) == 0
    model = tmp_path / "run" / "model.npz"
    assert run("export", "--model", str(model), "--what", "graph",
               "--out", str(tmp_path / "graph.csv")) == 0
    write_graph_csv(24, load_model(model)[0].cache["edges"], tmp_path / "want.csv")
    got = (tmp_path / "graph.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    assert got.count(b"\r\n") > 1 + 24  # the edges off the diagonal are written too


@pytest.mark.parametrize("graph", ["learned", "knn", "meta", "identity"])
def test_loaded_graph_is_the_fitted_graph(tmp_path, synth_dir, monkeypatch, graph):
    # the artifact stores no graph and no logits (a meta graph its meta rows):
    # loading rebuilds the edge rule, whose tiles are bit for bit the fitted
    # model's; the fitted, loaded and exported fusion maps are one (M, M) map
    fitted = {}
    save_model = cli.save_model
    monkeypatch.setattr(cli, "save_model", lambda model, *args: fitted.update(
        A=dense_graph(24, model.cache["edges"]), fuse_map=model.cache["fuse_map"])
        or save_model(model, *args))
    cfg = write_train_cfg(tmp_path, graph=graph, knn_k=5)
    assert run("train", "--config", str(cfg), "--data", str(synth_dir),
               "--out", str(tmp_path / "run")) == 0
    with np.load(tmp_path / "run" / "model.npz") as z:
        assert not {"A", "logits", "meta_adj"} & set(z)
        assert ("meta" in z) == (graph == "meta")
    loaded = load_model(tmp_path / "run" / "model.npz")[0].cache
    assert np.array_equal(dense_graph(24, loaded["edges"]), fitted["A"])
    assert fitted["fuse_map"].shape == (2, 2)
    assert np.array_equal(loaded["fuse_map"], fitted["fuse_map"])
    assert run("export", "--model", str(tmp_path / "run" / "model.npz"),
               "--what", "fuse-map", "--out", str(tmp_path / "map.csv")) == 0
    with open(tmp_path / "map.csv", newline="") as f:
        exported = [[float(v) for v in row[1:]] for row in list(csv.reader(f))[1:]]
    assert np.array_equal(exported, fitted["fuse_map"])


@pytest.mark.parametrize("graph,edit", [
    ("meta", lambda arrays, cfg: arrays.pop("meta")),
    ("meta", lambda arrays, cfg: cfg.update(meta_threshold=3)),  # above the 2 meta rows
    ("knn", lambda arrays, cfg: cfg.update(knn_k=24)),  # the artifact's N
    ("knn", lambda arrays, cfg: cfg.update(knn_k=30)),
], ids=["meta-without-meta", "meta_threshold-above-rows", "knn_k-is-N", "knn_k-above-N"])
def test_artifact_graph_not_rebuildable_exit_3(tmp_path, synth_dir, capsys, graph, edit):
    cfg = write_train_cfg(tmp_path, graph=graph, knn_k=5)
    assert run("train", "--config", str(cfg), "--data", str(synth_dir),
               "--out", str(tmp_path / "run")) == 0
    with np.load(tmp_path / "run" / "model.npz") as z:
        arrays = dict(z)
    config = json.loads(str(arrays["config_json"]))
    edit(arrays, config)
    arrays["config_json"] = np.array(json.dumps(config))
    bad = tmp_path / "bad.npz"
    np.savez(bad, **arrays)
    capsys.readouterr()
    for argv in (["export", "--what", "graph"], ["predict", "--features",
                                                 str(synth_dir / "features.csv")]):
        assert run(*argv, "--model", str(bad), "--out", str(tmp_path / "out.csv")) == 3
        assert "graph cannot be rebuilt" in capsys.readouterr().err


def test_artifact_with_earlier_meta_adj_exit_3(tmp_path, synth_dir, capsys):
    # an earlier version stored a meta graph as its dense agreement matrix
    # and no meta rows: such an artifact is refused, never read
    cfg = write_train_cfg(tmp_path, graph="meta")
    assert run("train", "--config", str(cfg), "--data", str(synth_dir),
               "--out", str(tmp_path / "run")) == 0
    with np.load(tmp_path / "run" / "model.npz") as z:
        arrays = dict(z)
    arrays["meta_adj"] = np.eye(24)
    del arrays["meta"]
    bad = tmp_path / "old.npz"
    np.savez(bad, **arrays)
    capsys.readouterr()
    for what in ("graph", "embeddings"):
        assert run("export", "--model", str(bad), "--what", what,
                   "--out", str(tmp_path / "out.csv")) == 3
        assert "must be retrained" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


# The dense tape path: the tiled block's reference, which only the tests run.
DENSE_REFERENCE = [("agl", "learned_adjacency"), ("agl", "graph_loss"), ("gcn", "normalize_adj"),
                   ("gcn", "gcn_forward"), ("train", "total_loss"),
                   ("numcore", "cross_entropy_masked")]


@pytest.mark.parametrize("graph", ["learned", "knn"])
def test_commands_never_run_the_dense_reference(tmp_path, synth_dir, monkeypatch, graph):
    modules = [m for name, m in sys.modules.items() if name.startswith("mmgl.")]
    for module, name in DENSE_REFERENCE:
        fn = getattr(importlib.import_module(f"mmgl.{module}"), name)

        def refuse(*args, name=name, **kwargs):
            raise AssertionError(f"{name} ran outside the tests")

        for mod in modules:  # every binding, as `from m import f` makes its own
            for key, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, key, refuse)
    cfg = str(write_train_cfg(tmp_path, graph=graph, knn_k=5))
    data, features = str(synth_dir), str(synth_dir / "features.csv")
    model = str(tmp_path / "run" / "model.npz")
    assert run("train", "--config", cfg, "--data", data, "--out", str(tmp_path / "run")) == 0
    for mode in ("transductive", "inductive"):
        assert run("cv", "--config", cfg, "--data", data, "--out", str(tmp_path / mode),
                   "--folds", "2", "--eval-mode", mode) == 0
    assert run("export", "--model", model, "--what", "graph",
               "--out", str(tmp_path / "graph.csv")) == 0
    assert run("predict", "--model", model, "--features", features,
               "--out", str(tmp_path / "p.csv")) == 0


def test_export_fuse_map(tmp_path, trained, synth_dir, monkeypatch):
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
    # an mlp fit caches no fusion map, and its artifact holds none
    fitted = []
    save_model = cli.save_model
    monkeypatch.setattr(cli, "save_model", lambda model, *args: fitted.append(
        model.cache["fuse_map"]) or save_model(model, *args))
    cfg = write_train_cfg(tmp_path, fusion="mlp")
    assert run("train", "--config", str(cfg), "--data", str(synth_dir),
               "--out", str(tmp_path / "run_mlp")) == 0
    assert fitted == [None]
    assert load_model(tmp_path / "run_mlp" / "model.npz")[0].cache["fuse_map"] is None


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


def test_predict_ignores_a_blank_label(tmp_path, trained, synth_dir):
    # training refuses a blank label; predict never reads its label column
    blank_label(synth_dir / "features.csv", tmp_path / "new.csv")
    outs = []
    for features in (synth_dir / "features.csv", tmp_path / "new.csv"):
        outs.append(tmp_path / f"{features.stem}.preds.csv")
        assert run("predict", "--model", str(trained / "model.npz"),
                   "--features", str(features), "--out", str(outs[-1])) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


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


@pytest.mark.parametrize("key,trim", [("H", 1), ("z_mu", 0), ("param:gcn.w0", "0-d"),
                                      ("param:w_a", "row"), ("param:gcn.w1", "column")])
def test_predict_shape_inconsistent_artifact_exit_3(tmp_path, trained, synth_dir, capsys, key,
                                                    trim):
    # one row, column or entry short, or a parameter cut to a shape that
    # broadcasts into its Param
    with np.load(trained / "model.npz") as z:
        arrays = dict(z)
    a = arrays[key]
    arrays[key] = (np.delete(a, -1, axis=trim) if isinstance(trim, int)
                   else {"0-d": a[0, 0], "row": a[:1], "column": a[:, :1]}[trim])
    bad = tmp_path / "bad.npz"
    np.savez(bad, **arrays)
    assert run("predict", "--model", str(bad), "--features",
               str(synth_dir / "features.csv"), "--out", str(tmp_path / "p.csv")) == 3
    assert f"artifact array {key!r} has shape" in capsys.readouterr().err


@pytest.mark.parametrize("edit", [
    {"n_classes": np.array(10**15)},
    {"schema_json": {"modalities": [{"name": "mod1", "dim": 10**15}, {"name": "mod2", "dim": 3}]}},
    {"config_json": {"d_h": 10**15}},
])
def test_unallocatable_artifact_exit_3(tmp_path, trained, synth_dir, capsys, edit):
    # widths past any 64-bit address space, which the model's weights are drawn at
    with np.load(trained / "model.npz") as z:
        arrays = dict(z)
    for key, value in edit.items():
        if key.endswith("_json"):
            value = np.array(json.dumps(json.loads(str(arrays[key])) | value))
        arrays[key] = value
    bad = tmp_path / "bad.npz"
    np.savez(bad, **arrays)
    for argv in (["predict", "--features", str(synth_dir / "features.csv")],
                 ["export", "--what", "graph"]):
        assert run(*argv, "--model", str(bad), "--out", str(tmp_path / "o.csv")) == 3
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "numpy cannot allocate" in err


def predict_rows(trained, features, out):
    """Exit code of `mmgl predict` on `features`, and the rows it wrote."""
    if out.exists():
        out.unlink()
    code = run("predict", "--model", str(trained / "model.npz"), "--features", str(features),
               "--out", str(out))
    if not out.exists():
        return code, None
    with open(out, newline="") as f:
        return code, list(csv.reader(f))[1:]


def test_load_model_reads_each_artifact_array_once(trained, monkeypatch):
    reads = []
    artifact_array = cli._artifact_array
    monkeypatch.setattr(cli, "_artifact_array",
                        lambda z, key: reads.append(key) or artifact_array(z, key))
    load_model(trained / "model.npz")
    assert "labels" in reads and "H" in reads
    assert sorted(reads) == sorted(set(reads))


def test_train_artifact_keeps_feature_names(trained, synth_dir):
    header = (synth_dir / "features.csv").read_text().splitlines()[0].split(",")
    with np.load(trained / "model.npz") as z:
        assert json.loads(str(z["feature_names_json"])) == [h for h in header if h != "label"]


@pytest.mark.parametrize("edit,column", [
    ("first-to-end", 1), ("last-repeats-first", 6), ("renamed", 3)])
def test_predict_refuses_a_foreign_header(tmp_path, trained, synth_dir, capsys, edit, column):
    # the cells are those of the training table; only the header names differ
    # from the training run's, so scoring them would read features by position
    lines = (synth_dir / "features.csv").read_text().splitlines()
    rows = [line.split(",")[:-1] for line in lines]  # the label column is last
    if edit == "first-to-end":
        rows = [r[1:] + r[:1] for r in rows]
    elif edit == "last-repeats-first":
        rows[0][-1] = rows[0][0]
    else:
        rows[0][2] = rows[0][2].upper()
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(",".join(r) for r in rows) + "\n")
    code, written = predict_rows(trained, bad, tmp_path / "p.csv")
    assert code == 3 and written is None
    assert f"feature column {column} is {rows[0][column - 1]!r}" in capsys.readouterr().err


def test_predict_header_with_byte_order_mark(tmp_path, trained, synth_dir):
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + (synth_dir / "features.csv").read_bytes())
    code, got = predict_rows(trained, marked, tmp_path / "p_marked.csv")
    assert code == 0
    assert got == predict_rows(trained, synth_dir / "features.csv", tmp_path / "p.csv")[1]


def test_predict_rows_permute_with_the_input(tmp_path, trained):
    # 70 unseen patients fill three 32-patient scoring blocks; a permutation
    # moves them across blocks and block positions
    cfg = tmp_path / "synth70.json"
    cfg.write_text(json.dumps({"n": 70, "classes": 2, "modality_dims": [3, 3],
                               "separation": 3.0, "seed": 6}))
    assert run("synth", "--config", str(cfg), "--out", str(tmp_path / "new")) == 0
    header, *body = (tmp_path / "new" / "features.csv").read_text().splitlines()
    perm = np.random.default_rng(0).permutation(len(body))
    (tmp_path / "perm.csv").write_text("\n".join([header] + [body[i] for i in perm]) + "\n")
    code, rows = predict_rows(trained, tmp_path / "new" / "features.csv", tmp_path / "p.csv")
    code_perm, rows_perm = predict_rows(trained, tmp_path / "perm.csv", tmp_path / "q.csv")
    assert code == code_perm == 0 and len(rows) == 70
    assert [r[1:] for r in rows_perm] == [rows[i][1:] for i in perm]


HEADER_EDITS = (None, "rename", "duplicate", "reorder", "drop", "add-label")
# "" and whitespace are missing cells, which predict imputes; the rest are refused
CELLS = ("", "  ", "nan", "-inf", "1e400", "abc", "\x00")


@st.composite
def predict_table(draw, header, rows):
    """A predict features CSV made from the training table's `header` and
    `rows` (label column removed) by header edits, cell replacements, a row of
    the wrong length, a BOM and latin-1 bytes. Returns the file's bytes and
    the exit code `mmgl predict` must give."""
    names = list(header)
    header, rows = list(header), [list(r) for r in rows]
    d = len(header)
    replaced = set()
    for _ in range(draw(st.integers(0, 3))):
        r, c, cell = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, d - 1)), \
            draw(st.sampled_from(CELLS))
        rows[r][c] = cell
        replaced.add((r, c))
    # a later draw may blank a cell an earlier one made invalid: what counts
    # is what each replaced position holds in the end
    valid_cells = all(rows[r][c].strip() == "" for r, c in replaced)
    edit = draw(st.sampled_from(HEADER_EDITS))
    i, j = draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True))
    if edit == "rename":
        header[i] = draw(st.sampled_from(["", header[i] + "x", " " + header[i], "label_"]))
    elif edit == "duplicate":
        header[i] = header[j]
    elif edit in ("reorder", "drop"):
        for line in [header, *rows]:
            line[i], line[j] = line[j], line[i]
            if edit == "drop":
                del line[j]
    elif edit == "add-label":
        for line, value in zip([header, *rows], ["label"] + ["c1"] * len(rows)):
            line.insert(i, value)
    length = draw(st.sampled_from([None, "short", "long"]))
    if length:
        row = rows[draw(st.integers(0, len(rows) - 1))]
        row[:] = row[:-1] if length == "short" else row + ["0.5"]
    latin = draw(st.booleans())
    if latin:  # é as one latin-1 byte, which is not UTF-8
        rows[draw(st.integers(0, len(rows) - 1))][0] = "\xe9"
    text = "".join(",".join(line) + "\n" for line in [header, *rows])
    data = (b"\xef\xbb\xbf" if draw(st.booleans()) else b"") + \
        text.encode("latin-1" if latin else "utf-8")
    matches = [h for h in header if h != "label"] == names
    return data, 0 if matches and valid_cells and not length and not latin else 3


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_predict_exit_code_contract_fuzzed_features(tmp_path, trained, synth_dir, data):
    # exit 0 only for the training header, in order; never a traceback
    lines = (synth_dir / "features.csv").read_text().splitlines()
    table = [line.split(",")[:-1] for line in lines]  # the label column is last
    raw, want = data.draw(predict_table(table[0], table[1:]))
    (tmp_path / "new.csv").write_bytes(raw)
    code, rows = predict_rows(trained, tmp_path / "new.csv", tmp_path / "p.csv")
    assert code == want
    if code == 0:
        probs = np.array([[float(v) for v in r[2:]] for r in rows])
        assert len(rows) == len(table) - 1 and np.isfinite(probs).all()
        assert np.allclose(probs.sum(axis=1), 1.0)


def predict_with(tmp_path, synth_dir, arrays):
    """Exit code of `mmgl predict` with a model artifact holding `arrays`,
    and the probabilities it wrote (None if it wrote none)."""
    bad = tmp_path / "bad.npz"
    np.savez(bad, **arrays)
    out = tmp_path / "p.csv"
    if out.exists():
        out.unlink()
    code = run("predict", "--model", str(bad), "--features",
               str(synth_dir / "features.csv"), "--out", str(out))
    if not out.exists():
        return code, None
    with open(out, newline="") as f:
        rows = list(csv.reader(f))[1:]
    return code, np.array([[float(v) for v in row[2:]] for row in rows])


@pytest.mark.parametrize("key,value", [
    ("n_classes", np.array([3, 3])),
    ("n_classes", np.array(3.7)),
    ("n_classes", np.array(0)),
    ("labels", lambda a: a.astype(np.float64)),
    ("z_sd", lambda a: a.astype(str)),
    ("H", lambda a: np.full_like(a, np.inf)),
    ("z_sd", lambda a: np.full_like(a, np.nan)),
    ("H", lambda a: a.astype(np.complex128)),
    ("param:w_h", lambda a: a.astype(np.complex128)),
    ("param:gcn.w0", lambda a: a.astype(str)),
    ("feature_names_json", lambda a: np.array(json.dumps(json.loads(str(a))[:-1]))),
    ("feature_names_json", lambda a: np.array(json.dumps(json.loads(str(a))[:-1] + [7]))),
    ("feature_names_json", lambda a: np.array("m0_0,m0_1")),
    ("feature_names_json", lambda a: np.array([str(a)])),
], ids=["n_classes-pair", "n_classes-float", "n_classes-zero", "labels-float", "z_sd-str",
        "H-inf", "z_sd-nan", "H-complex", "w_h-complex", "w0-str", "names-short",
        "names-number", "names-not-json", "names-1-d"])
def test_predict_malformed_artifact_array_exit_3(tmp_path, trained, synth_dir, capsys,
                                                 key, value):
    with np.load(trained / "model.npz") as z:
        arrays = dict(z)
    arrays[key] = value(arrays[key]) if callable(value) else value
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning on the way to the exit code
        code, probs = predict_with(tmp_path, synth_dir, arrays)
    assert code == 3 and probs is None
    assert f"artifact array {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["schema_json", "config_json", "feature_names_json"])
def test_predict_artifact_with_deeply_nested_json_exit_3(tmp_path, trained, synth_dir, key):
    with np.load(trained / "model.npz") as z:
        arrays = dict(z)
    arrays[key] = np.array("[" * 100_000 + "]" * 100_000)
    assert predict_with(tmp_path, synth_dir, arrays) == (3, None)


@st.composite
def artifact_arrays(draw, base):
    """The arrays of `base` (a model artifact) with a key dropped, or one
    array's dtype or entries changed."""
    arrays = dict(base)
    key = draw(st.sampled_from(sorted(arrays)))
    change = draw(st.sampled_from(["drop", "str", "complex", "int", "float32", "bool",
                                   "nan", "inf", "scalar", "2-d"]))
    a = arrays[key]
    if change == "drop":
        del arrays[key]
    elif change in ("nan", "inf"):
        if a.dtype.kind == "f" and a.size:
            a = a.copy()
            a.reshape(-1)[draw(st.integers(0, a.size - 1))] = np.nan if change == "nan" else np.inf
            arrays[key] = a
    elif change == "scalar":
        arrays[key] = np.array(draw(st.sampled_from([0, 3, -1, 2.5])))
    elif change == "2-d":
        arrays[key] = np.atleast_2d(a)
    else:
        try:
            arrays[key] = a.astype({"int": np.int64}.get(change, change))
        except ValueError:  # a JSON string has no numeric value
            pass
    return arrays


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_predict_exit_code_contract_fuzzed_artifact(tmp_path, trained, synth_dir, data):
    with np.load(trained / "model.npz") as z:
        base = dict(z)
    arrays = data.draw(artifact_arrays(base))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, probs = predict_with(tmp_path, synth_dir, arrays)
    assert code in (0, 3)
    if code == 0:
        assert np.isfinite(probs).all() and np.allclose(probs.sum(axis=1), 1.0)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(compressed=st.booleans(), keep=st.floats(0.0, 1.0), flip=st.floats(0.0, 1.0))
def test_predict_exit_code_contract_damaged_artifact(tmp_path, trained, synth_dir, compressed,
                                                     keep, flip):
    # the artifact's bytes truncated, with one byte inverted
    with np.load(trained / "model.npz") as z:
        arrays = dict(z)
    (np.savez_compressed if compressed else np.savez)(tmp_path / "full.npz", **arrays)
    raw = bytearray((tmp_path / "full.npz").read_bytes())
    raw = raw[:int(keep * len(raw))]
    if raw:
        raw[min(int(flip * len(raw)), len(raw) - 1)] ^= 0xFF
    bad = tmp_path / "bad.npz"
    bad.write_bytes(bytes(raw))
    out = tmp_path / "p.csv"
    if out.exists():
        out.unlink()
    code = run("predict", "--model", str(bad), "--features",
               str(synth_dir / "features.csv"), "--out", str(out))
    assert code in (0, 3)
    if code == 0:
        with open(out, newline="") as f:
            probs = np.array([[float(v) for v in row[2:]] for row in list(csv.reader(f))[1:]])
        assert np.isfinite(probs).all() and np.allclose(probs.sum(axis=1), 1.0)


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


def per_matrix_layout(arrays, model):
    """The arrays of `model`'s artifact with its fusion weights stored as an
    earlier version stored them: W_q, W_k, W_v and W_m per modality."""
    out, d_f = dict(arrays), model.cfg.d_f
    w_m = out.pop("param:w_m")
    for (name, _), m in zip(model.schema.modalities, w_m, strict=True):
        qkv = out.pop(f"param:w_qkv.{name}")
        for i, w in enumerate(("w_q", "w_k", "w_v")):
            out[f"param:{w}.{name}"] = qkv[:, i * d_f:(i + 1) * d_f]
        out[f"param:w_m.{name}"] = m
    return out


def test_artifact_in_the_per_matrix_layout_loads_and_predicts_the_same(tmp_path, trained,
                                                                      synth_dir):
    path, earlier = trained / "model.npz", tmp_path / "earlier.npz"
    model, _ = load_model(path)
    with np.load(path) as z:
        np.savez(earlier, **per_matrix_layout(z, model))
    again, _ = load_model(earlier)
    assert [p.name for p in again.all_params()] == [p.name for p in model.all_params()]
    for p, q in zip(again.all_params(), model.all_params()):
        assert p.value.tobytes() == q.value.tobytes()
    for name, m in (("now", path), ("earlier", earlier)):
        assert run("predict", "--model", str(m), "--features", str(synth_dir / "features.csv"),
                   "--out", str(tmp_path / f"{name}.csv")) == 0
    assert (tmp_path / "now.csv").read_bytes() == (tmp_path / "earlier.csv").read_bytes()


def test_per_matrix_artifact_missing_a_matrix_exit_3(tmp_path, trained, synth_dir):
    model, _ = load_model(trained / "model.npz")
    with np.load(trained / "model.npz") as z:
        arrays = per_matrix_layout(z, model)
    name = model.schema.modalities[1][0]
    del arrays[f"param:w_k.{name}"]
    bad = tmp_path / "bad.npz"
    np.savez(bad, **arrays)
    for argv in (["predict", "--features", str(synth_dir / "features.csv")],
                 ["export", "--what", "graph"]):
        proc = run_subprocess(*argv, "--model", str(bad), "--out", str(tmp_path / "out.csv"),
                              cwd=tmp_path)
        assert proc.returncode == 3
        assert f"param:w_k.{name}" in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "out.csv").exists()
