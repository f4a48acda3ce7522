"""Command-line surface: synthetic data generation, training, cross-validated
evaluation, the ablation grid, artifact exports, and inductive prediction.

Exit codes: 0 ok, 2 config error, 3 data error, 4 numerical divergence.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
import zipfile
import zlib
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from . import __version__
from .block import row_tiles
# impute_mean and zscore are unused here; bench/selftest.py checks that cli binds them
from .data import (  # noqa: F401
    ModalitySchema, Preprocessor, SynthConfig, impute_mean, load_csv, read_table,
    save_dataset, synth_generate, write_csv, zscore,
)
from .errors import ConfigError, DataError, ParameterError, SchemaError, TrainingDiverged
from .maff import earlier_layout
from .train import (
    Model, TrainConfig, evaluate, fit, meta_rows, predict_inductive_batch, run_ablation, run_cv,
    write_ablation_csv, write_history_csv, write_metrics_csv,
)

TADPOLE_LIKE = {"n": 685, "classes": 3, "modality_dims": [200, 100, 50, 16], "separation": 3.0}


def _threads():
    raw = os.environ.get("MMGL_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ConfigError(f"MMGL_THREADS must be an integer >= 1, got {raw!r}")
    return threads


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json_atomic(obj, path):
    # a plain open, so the file mode follows the umask like every other output
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as f:
        json.dump(obj, f, indent=2, default=str)
        f.write("\n")
    os.replace(tmp, path)


def _manifest(cfg, data_dir, outputs):
    features = os.path.join(data_dir, "features.csv")
    schema = os.path.join(data_dir, "schema.json")
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "tool_version": __version__,
        "created": datetime.now(timezone.utc).isoformat(),
        "seed": cfg.seed,
        "config": cfg.to_dict(),
        "data": {
            "features": features, "features_sha256": _sha256(features),
            "schema": schema, "schema_sha256": _sha256(schema),
        },
        "outputs": outputs,
        # outputs are byte-stable only for a fixed BLAS thread count
        "runtime": {
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": {k: blas[k] for k in ("name", "version", "openblas configuration")
                     if k in blas},
            "threads": {k: os.environ.get(k)
                        for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MMGL_THREADS")},
        },
    }


def _peak_rss_mib():
    """The process's peak resident set so far, in MiB; None without `resource`."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB, but bytes on macOS
    return round(peak / (2**20 if sys.platform == "darwin" else 2**10), 1)


def _start_run(args, names):
    """Config, dataset and output paths of a run over `args.data`, and a
    callable that ends the run. Writes the run's manifest; the callable
    rewrites it with the run's wall time and the process's peak RSS."""
    start = time.perf_counter()
    cfg = _train_config(args)
    ds = load_csv(os.path.join(args.data, "features.csv"), os.path.join(args.data, "schema.json"))
    os.makedirs(args.out, exist_ok=True)
    outputs = {name: os.path.join(args.out, name) for name in names}
    manifest = _manifest(cfg, args.data, outputs)
    path = os.path.join(args.out, "manifest.json")
    _write_json_atomic(manifest, path)

    def finish():
        manifest["runtime"].update(wall_s=round(time.perf_counter() - start, 3),
                                   peak_rss_mib=_peak_rss_mib())
        _write_json_atomic(manifest, path)

    return cfg, ds, outputs, finish


def _train_config(args):
    cfg = TrainConfig.load(args.config) if args.config else TrainConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if getattr(args, "eval_mode", None):
        overrides["eval_mode"] = args.eval_mode
    return replace(cfg, **overrides) if overrides else cfg


def save_model(model, labels, prep, feature_names, path):
    """Self-describing artifact: parameters, the fused training features H,
    preprocessing statistics, schema, feature names, config snapshot and a meta
    graph's rows `meta` (n_meta, N). No graph: `load_model` rebuilds its rule."""
    arrays = {"param:" + p.name: p.value for p in model.all_params()}
    arrays.update(H=model.cache["H"], labels=np.asarray(labels), **vars(prep))
    if model.cache["fuse_map"] is not None:
        arrays["fuse_map"] = model.cache["fuse_map"]
    if model.meta is not None:
        arrays["meta"] = model.meta
    np.savez(
        path,
        schema_json=json.dumps(model.schema.to_dict()),
        config_json=json.dumps(model.cfg.to_dict()),
        feature_names_json=json.dumps(list(feature_names)),
        n_classes=model.n_classes,
        **arrays,
    )


def load_model(path):
    if not os.path.exists(path):
        raise DataError(f"model artifact not found: {path}")
    try:
        return _read_model(path)
    # zipfile raises NotImplementedError for a compression method or version
    # it cannot read; a damaged compressed member raises zlib.error; json
    # raises RecursionError for arrays nested too deeply
    except (OSError, EOFError, ValueError, KeyError, NotImplementedError, RecursionError,
            zipfile.BadZipFile, zlib.error, ConfigError) as exc:
        raise DataError(f"unreadable model artifact {path}: {exc}") from exc


def _artifact_array(z, key):
    """One array of a model artifact, checked for the kind the model reads:
    `n_classes` a 0-d integer, `labels` integers, every other array real
    floating and finite."""
    value = z[key]
    if key == "n_classes":
        if value.ndim != 0 or not np.issubdtype(value.dtype, np.integer) or value < 1:
            raise DataError(f"artifact array 'n_classes' must be one integer >= 1, "
                            f"got {value.dtype} {value.shape}")
    elif key == "labels":
        if not np.issubdtype(value.dtype, np.integer):
            raise DataError(f"artifact array 'labels' must be integers, got {value.dtype}")
    elif not np.issubdtype(value.dtype, np.floating):
        raise DataError(f"artifact array {key!r} must be real floating, got {value.dtype}")
    elif not np.isfinite(value).all():
        raise DataError(f"artifact array {key!r} has non-finite entries")
    return value


def _read_model(path):
    with np.load(path, allow_pickle=False) as z:
        schema = ModalitySchema.from_dict(json.loads(str(z["schema_json"])))
        cfg = TrainConfig.from_dict(json.loads(str(z["config_json"])))
        n_classes = int(_artifact_array(z, "n_classes"))
        model = Model(schema, n_classes, cfg)
        labels = _artifact_array(z, "labels")
        n = labels.shape[0] if labels.ndim == 1 else None
        m, d_in = schema.n_modalities, schema.d_in
        # an earlier version's `A` and `logits` are not read; a parameter must
        # have its Param's shape, which assignment would broadcast into
        shapes = {"labels": (n,), "H": (cfg.dim_fused, n), "impute_means": (d_in,),
                  "z_mu": (d_in,), "z_sd": (d_in,), "fuse_map": (m, m),
                  **{"param:" + p.name: p.value.shape for p in model.all_params()}}
        if "meta_adj" in z and "meta" not in z:
            raise DataError("a meta graph stored as 'meta_adj' (earlier format) must be retrained")
        arrays = {"labels": labels}
        if cfg.fusion == "maff" and "param:" + model.maff.w_m.name not in z:
            stored = earlier_layout(lambda name: _artifact_array(z, "param:" + name), schema)
            arrays.update({"param:" + name: value for name, value in stored.items()})
        for key in (*shapes, "meta"):  # the two optional arrays may be absent
            if key not in arrays and (key in z or key not in ("fuse_map", "meta")):
                arrays[key] = _artifact_array(z, key)
        shapes["meta"] = np.shape(arrays.get("meta"))[:1] + (n,)  # any number of meta rows
        for key, value in arrays.items():
            if value.shape != shapes[key]:
                raise DataError(f"artifact array {key!r} has shape {value.shape}, "
                                f"expected {shapes[key]}")
        model.meta = arrays.get("meta")
        for p in model.all_params():
            p.value[...] = arrays["param:" + p.name]
        try:
            edges = model.edge_rule(arrays["H"])
        except ParameterError as exc:  # a meta graph without meta rows, knn_k >= N
            raise DataError(f"the artifact's graph cannot be rebuilt: {exc}") from exc
        model.cache = {"H": arrays["H"], "edges": edges, "fuse_map": arrays.get("fuse_map")}
        prep = Preprocessor(arrays["impute_means"], arrays["z_mu"], arrays["z_sd"])
        names = _feature_names(z, d_in)
    return model, {"labels": arrays["labels"], "preprocessor": prep, "feature_names": names}


def _feature_names(z, d_in):
    """The training table's feature names in an artifact; None for an artifact
    of an earlier version, which kept none."""
    if "feature_names_json" not in z:
        return None
    try:
        names = json.loads(str(z["feature_names_json"]))
    except ValueError:
        names = None
    if not (isinstance(names, list) and len(names) == d_in
            and all(isinstance(c, str) for c in names)):
        raise DataError(f"artifact array 'feature_names_json' must be a JSON list of "
                        f"{d_in} strings")
    return names


def cmd_synth(args):
    cfg = SynthConfig.load(args.config) if args.config else SynthConfig()
    if args.preset == "tadpole-like":
        base = cfg.__dict__ | TADPOLE_LIKE
        cfg = SynthConfig.from_dict({k: base[k] for k in SynthConfig.__dataclass_fields__})
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    ds = synth_generate(cfg)
    os.makedirs(args.out, exist_ok=True)
    save_dataset(ds, os.path.join(args.out, "features.csv"), os.path.join(args.out, "schema.json"))
    print(f"wrote {ds.n} patients, {ds.schema.d_in} features, "
          f"{ds.schema.n_modalities} modalities to {args.out}")
    return 0


def cmd_train(args):
    cfg, ds, outputs, finish = _start_run(args, ("model.npz", "metrics.csv", "history.csv"))
    prep = Preprocessor.fit(ds)
    clean = prep.transform(ds)
    model, history = fit(clean.schema, clean.modalities, clean.labels, np.arange(clean.n),
                         cfg, clean.n_classes, meta=meta_rows(clean, cfg))
    save_model(model, clean.labels, prep, clean.feature_names, outputs["model.npz"])
    write_history_csv(history, outputs["history.csv"])
    acc, auc = evaluate(model, clean.labels, np.arange(clean.n))
    write_csv(outputs["metrics.csv"], ["split", "acc", "auc"], [["train", repr(acc), repr(auc)]])
    finish()
    print(f"trained on {clean.n} patients; artifacts in {args.out}")
    return 0


def cmd_cv(args):
    threads = _threads()
    cfg, ds, outputs, finish = _start_run(args, ("metrics.csv",))
    res = run_cv(ds, cfg, k=args.folds, threads=threads)
    write_metrics_csv(res, outputs["metrics.csv"])
    for fr in res.folds:
        write_history_csv(fr.history, os.path.join(args.out, f"history_fold{fr.fold}.csv"))
    finish()
    m = res.metrics
    print(f"cv({args.folds}): acc {m.mean_acc:.4f} +- {m.std_acc:.4f}, "
          f"auc {m.mean_auc:.4f} +- {m.std_auc:.4f}")
    return 0


def cmd_ablate(args):
    threads = _threads()
    cfg, ds, outputs, finish = _start_run(args, ("ablation.csv",))
    fusions = tuple(args.fusions.split(","))
    graphs = tuple(args.graphs.split(","))
    rows = run_ablation(ds, cfg, fusions, graphs, k=args.folds, threads=threads)
    write_ablation_csv(rows, outputs["ablation.csv"])
    finish()
    for row in rows:
        m = row["result"].metrics
        print(f"{row['fusion']}+{row['graph']}: acc {m.mean_acc:.4f} auc {m.mean_auc:.4f}")
    return 0


def _upper_edges(n, edges):
    """The edges above A's diagonal as csv would write their [src, dst,
    weight] rows: one string of lines per row of A, row tile by row tile."""
    for lo, _, a in row_tiles(n, edges):
        for r, row in enumerate(np.triu(a, lo + 1), lo):
            j = np.flatnonzero(row)
            yield "".join(f"{r},{c},{w!r}\r\n" for c, w in zip(j.tolist(), row[j].tolist()))


def cmd_export(args):
    model, extras = load_model(args.model)
    if args.what == "graph":
        n = model.cache["H"].shape[1]
        with open(args.out, "w", newline="") as f:
            f.write("src,dst,weight\r\n")
            f.writelines(f"{i},{i},1.0\r\n" for i in range(n))
            f.writelines(_upper_edges(n, model.cache["edges"]))
        write_csv(os.path.splitext(args.out)[0] + ".nodes.csv", ["node", "label"],
                  ([i, int(y)] for i, y in enumerate(extras["labels"])))
    elif args.what == "fuse-map":
        if model.cache["fuse_map"] is None:
            raise ParameterError("artifact has no attention map (fusion is not 'maff')")
        names = model.schema.names
        write_csv(args.out, ["modality"] + names,
                  ([name] + [repr(float(v)) for v in row]
                   for name, row in zip(names, model.cache["fuse_map"])))
    elif args.what == "embeddings":
        h = model.cache["H"]
        write_csv(args.out, [f"h{j}" for j in range(h.shape[0])],
                  ([repr(float(v)) for v in col] for col in h.T))
    else:
        raise ConfigError(f"unknown export target {args.what!r}")
    print(f"wrote {args.what} to {args.out}")
    return 0


def _load_new_patients(path, schema, names):
    """Feature table for unseen patients; the label column is optional. The
    feature columns must be `names`, the training table's, in order (None:
    not checked)."""
    x, _, header = read_table(path, schema, require_label=False)
    if names is not None and header != names:
        j = next(j for j, (got, want) in enumerate(zip(header, names)) if got != want)
        raise SchemaError(f"{path}: feature column {j + 1} is {header[j]!r}, but the model "
                          f"was trained with {names[j]!r} there")
    return x


def cmd_predict(args):
    model, extras = load_model(args.model)
    x = _load_new_patients(args.features, model.schema, extras["feature_names"])
    x = extras["preprocessor"].apply(x)  # the training run's transform
    probs = predict_inductive_batch(model, model.schema.split(x))
    classes = model.schema.class_names or tuple(str(c) for c in range(model.n_classes))
    write_csv(args.out, ["patient", "prediction"] + [f"p_{c}" for c in classes],
              ([i, classes[int(np.argmax(p))]] + [repr(float(v)) for v in p]
               for i, p in enumerate(probs)))
    print(f"predicted {probs.shape[0]} patients -> {args.out}")
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="mmgl", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate a synthetic multi-modal dataset")
    sp.add_argument("--config", help="synthetic-config JSON")
    sp.add_argument("--preset", choices=["tadpole-like"], default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_synth)

    def common(sp):
        sp.add_argument("--config", help="training config JSON")
        sp.add_argument("--data", required=True, help="dir with features.csv + schema.json")
        sp.add_argument("--out", required=True)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--eval-mode", choices=["transductive", "inductive"], default=None)

    sp = sub.add_parser("train", help="train on the full dataset, save an artifact")
    common(sp)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("cv", help="stratified K-fold cross-validation")
    common(sp)
    sp.add_argument("--folds", type=int, default=10)
    sp.set_defaults(func=cmd_cv)

    sp = sub.add_parser("ablate", help="fusion x graph ablation grid")
    common(sp)
    sp.add_argument("--folds", type=int, default=10)
    sp.add_argument("--fusions", default="maff,mlp,concat")
    sp.add_argument("--graphs", default="learned,knn,meta")
    sp.set_defaults(func=cmd_ablate)

    sp = sub.add_parser("export", help="export graph / fuse-map / embeddings")
    sp.add_argument("--model", required=True)
    sp.add_argument("--what", choices=["graph", "fuse-map", "embeddings"], required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_export)

    sp = sub.add_parser("predict", help="inductive prediction for unseen patients")
    sp.add_argument("--model", required=True)
    sp.add_argument("--features", required=True, help="CSV of new patients")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_predict)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TrainingDiverged as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return 4
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
