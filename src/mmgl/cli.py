"""Command-line surface: synthetic data generation, training, cross-validated
evaluation, the ablation grid, artifact exports, and inductive prediction.

Exit codes: 0 ok, 2 config error, 3 data error, 4 numerical divergence.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import tempfile
import zipfile
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .data import (
    ModalitySchema, SynthConfig, impute_mean, load_csv, read_table, save_dataset,
    synth_generate, zscore,
)
from .errors import ConfigError, DataError, ParameterError, TrainingDiverged
from .numcore import softmax_rows_values
from .train import (
    Model, TrainConfig, accuracy, auc, fit, predict_inductive_batch, run_ablation,
    run_cv, write_ablation_csv, write_history_csv, write_metrics_csv,
)

TADPOLE_LIKE = {"n": 685, "classes": 3, "modality_dims": [200, 100, 50, 16], "separation": 3.0}


def _threads():
    try:
        return max(1, int(os.environ.get("MMGL_THREADS", "1")))
    except ValueError:
        return 1


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json_atomic(obj, path):
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)) or ".")
    with os.fdopen(fd, "w") as f:
        json.dump(obj, f, indent=2, default=str)
        f.write("\n")
    os.replace(tmp, path)


def _manifest(cfg, data_dir, outputs, out_path):
    features = os.path.join(data_dir, "features.csv")
    schema = os.path.join(data_dir, "schema.json")
    obj = {
        "tool_version": __version__,
        "created": datetime.now(timezone.utc).isoformat(),
        "seed": cfg.seed,
        "config": cfg.to_dict(),
        "data": {
            "features": features, "features_sha256": _sha256(features),
            "schema": schema, "schema_sha256": _sha256(schema),
        },
        "outputs": outputs,
    }
    _write_json_atomic(obj, out_path)


def _load_dataset(data_dir):
    features = os.path.join(data_dir, "features.csv")
    schema = os.path.join(data_dir, "schema.json")
    for p in (features, schema):
        if not os.path.exists(p):
            raise DataError(f"missing input file: {p}")
    return load_csv(features, schema)


def _train_config(args):
    cfg = TrainConfig.load(args.config) if args.config else TrainConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if getattr(args, "eval_mode", None):
        overrides["eval_mode"] = args.eval_mode
    return replace(cfg, **overrides) if overrides else cfg


def _preprocess_with_stats(ds):
    """Impute + z-score the full dataset, returning the statistics needed to
    apply the identical transform to unseen patients."""
    flat_raw = ds.stacked()
    mask = (
        np.concatenate(ds.missing, axis=0)
        if ds.missing is not None else np.zeros(flat_raw.shape, dtype=bool)
    )
    impute_means = np.array([
        flat_raw[j, ~mask[j]].mean() if (~mask[j]).any() else 0.0
        for j in range(flat_raw.shape[0])
    ])
    clean = impute_mean(ds)
    flat = clean.stacked()
    z_mu = flat.mean(axis=1)
    z_sd = flat.std(axis=1)
    return zscore(clean), {"impute_means": impute_means, "z_mu": z_mu, "z_sd": z_sd}


def save_model(model, labels, stats, path):
    """Self-describing artifact: parameters, training caches, preprocessing
    statistics, schema, and the config snapshot."""
    arrays = {"param:" + p.name: p.value for p in model.all_params()}
    arrays.update(
        H=model.cache["H"], A=model.cache["A"], logits=model.cache["logits"],
        labels=np.asarray(labels),
        **stats,
    )
    if model.cfg.fusion == "maff" and model.cache.get("maps") is not None:
        arrays["fuse_map"] = model.cache["maps"].global_map()
    if model.meta_adj is not None:
        arrays["meta_adj"] = model.meta_adj
    np.savez(
        path,
        schema_json=json.dumps(model.schema.to_dict()),
        config_json=json.dumps(model.cfg.to_dict()),
        n_classes=model.n_classes,
        **arrays,
    )


def load_model(path):
    if not os.path.exists(path):
        raise DataError(f"model artifact not found: {path}")
    try:
        return _read_model(path)
    except (OSError, ValueError, KeyError, zipfile.BadZipFile, ConfigError) as exc:
        raise DataError(f"unreadable model artifact {path}: {exc}") from exc


def _read_model(path):
    with np.load(path, allow_pickle=False) as z:
        schema = ModalitySchema.from_dict(json.loads(str(z["schema_json"])))
        cfg = TrainConfig.from_dict(json.loads(str(z["config_json"])))
        n_classes = int(z["n_classes"])
        model = Model(schema, n_classes, cfg)
        labels = z["labels"]
        n = labels.shape[0] if labels.ndim == 1 else None
        m, d_in = schema.n_modalities, schema.d_in
        shapes = {"labels": (n,), "H": (cfg.dim_fused, n), "A": (n, n), "logits": (n, n_classes),
                  "impute_means": (d_in,), "z_mu": (d_in,), "z_sd": (d_in,),
                  "fuse_map": (m, m), "meta_adj": (n, n)}
        arrays = {key: z[key] for key in shapes if key in z}
        for key, value in arrays.items():
            if value.shape != shapes[key]:
                raise DataError(f"artifact array {key!r} has shape {value.shape}, "
                                f"expected {shapes[key]}")
        if "meta_adj" in arrays:
            model.meta_adj = arrays["meta_adj"]
        for p in model.all_params():
            p.value[...] = z["param:" + p.name]
        model.cache = {"H": arrays["H"], "A": arrays["A"], "logits": arrays["logits"],
                       "maps": None}
        if "fuse_map" in arrays:
            model.cache["fuse_map"] = arrays["fuse_map"]
        extras = {key: arrays[key] for key in ("labels", "impute_means", "z_mu", "z_sd")}
    return model, extras


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
    cfg = _train_config(args)
    ds = _load_dataset(args.data)
    os.makedirs(args.out, exist_ok=True)
    outputs = {name: os.path.join(args.out, name)
               for name in ("model.npz", "metrics.csv", "history.csv")}
    _manifest(cfg, args.data, outputs, os.path.join(args.out, "manifest.json"))
    clean, stats = _preprocess_with_stats(ds)
    all_idx = np.arange(clean.n)
    meta = None
    if cfg.graph == "meta":
        meta = clean.meta_matrix()
        if meta is None:
            from .train import fallback_meta

            meta = fallback_meta(clean)
    model, history = fit(clean.schema, clean.modalities, clean.labels, all_idx,
                         cfg, clean.n_classes, meta=meta)
    save_model(model, clean.labels, stats, outputs["model.npz"])
    write_history_csv(history, outputs["history.csv"])
    probs = softmax_rows_values(model.cache["logits"])
    with open(outputs["metrics.csv"], "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["split", "acc", "auc"])
        w.writerow(["train", repr(accuracy(probs, clean.labels)),
                    repr(auc(probs, clean.labels))])
    print(f"trained on {clean.n} patients; artifacts in {args.out}")
    return 0


def cmd_cv(args):
    cfg = _train_config(args)
    ds = _load_dataset(args.data)
    os.makedirs(args.out, exist_ok=True)
    outputs = {"metrics.csv": os.path.join(args.out, "metrics.csv")}
    _manifest(cfg, args.data, outputs, os.path.join(args.out, "manifest.json"))
    res = run_cv(ds, cfg, k=args.folds, threads=_threads())
    write_metrics_csv(res, outputs["metrics.csv"])
    for fr in res.folds:
        write_history_csv(fr.history, os.path.join(args.out, f"history_fold{fr.fold}.csv"))
    m = res.metrics
    print(f"cv({args.folds}): acc {m.mean_acc:.4f} +- {m.std_acc:.4f}, "
          f"auc {m.mean_auc:.4f} +- {m.std_auc:.4f}")
    return 0


def cmd_ablate(args):
    cfg = _train_config(args)
    ds = _load_dataset(args.data)
    os.makedirs(args.out, exist_ok=True)
    outputs = {"ablation.csv": os.path.join(args.out, "ablation.csv")}
    _manifest(cfg, args.data, outputs, os.path.join(args.out, "manifest.json"))
    fusions = tuple(args.fusions.split(","))
    graphs = tuple(args.graphs.split(","))
    rows = run_ablation(ds, cfg, fusions, graphs, k=args.folds, threads=_threads())
    write_ablation_csv(rows, outputs["ablation.csv"])
    for row in rows:
        m = row["result"].metrics
        print(f"{row['fusion']}+{row['graph']}: acc {m.mean_acc:.4f} auc {m.mean_auc:.4f}")
    return 0


def cmd_export(args):
    model, extras = load_model(args.model)
    if args.what == "graph":
        a = model.cache["A"]
        labels = extras["labels"]
        n = a.shape[0]
        with open(args.out, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["src", "dst", "weight"])
            for i in range(n):
                w.writerow([i, i, repr(float(a[i, i]))])
            for i in range(n):
                for j in range(i + 1, n):
                    if a[i, j] != 0.0:
                        w.writerow([i, j, repr(float(a[i, j]))])
        nodes_path = os.path.splitext(args.out)[0] + ".nodes.csv"
        with open(nodes_path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["node", "label"])
            for i, y in enumerate(labels):
                w.writerow([i, int(y)])
    elif args.what == "fuse-map":
        if "fuse_map" not in model.cache or model.cache["fuse_map"] is None:
            raise ParameterError("artifact has no attention map (fusion is not 'maff')")
        names = model.schema.names
        fm = model.cache["fuse_map"]
        with open(args.out, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["modality"] + names)
            for i, name in enumerate(names):
                w.writerow([name] + [repr(float(v)) for v in fm[i]])
    elif args.what == "embeddings":
        h = model.cache["H"]
        with open(args.out, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow([f"h{j}" for j in range(h.shape[0])])
            for i in range(h.shape[1]):
                w.writerow([repr(float(v)) for v in h[:, i]])
    else:
        raise ConfigError(f"unknown export target {args.what!r}")
    print(f"wrote {args.what} to {args.out}")
    return 0


def _load_new_patients(path, schema):
    """Feature table for unseen patients; the label column is optional."""
    x, miss, _, _ = read_table(path, schema, require_label=False)
    return x, miss


def cmd_predict(args):
    model, extras = load_model(args.model)
    x, miss = _load_new_patients(args.features, model.schema)
    # identical preprocessing to the training run
    x = np.where(miss, extras["impute_means"][:, None], x)
    sd = extras["z_sd"]
    x = np.where(sd[:, None] < 1e-12, 0.0, (x - extras["z_mu"][:, None]) / np.where(sd[:, None] < 1e-12, 1.0, sd[:, None]))
    offsets = np.cumsum([0] + model.schema.dims)
    mods = [x[offsets[i]:offsets[i + 1]] for i in range(model.schema.n_modalities)]
    probs = predict_inductive_batch(model, mods)
    classes = model.schema.class_names or tuple(str(c) for c in range(model.n_classes))
    with open(args.out, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["patient", "prediction"] + [f"p_{c}" for c in classes])
        for i in range(probs.shape[0]):
            w.writerow([i, classes[int(np.argmax(probs[i]))]]
                       + [repr(float(v)) for v in probs[i]])
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
