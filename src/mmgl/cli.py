"""Command-line surface: synthetic data generation, training, cross-validated
evaluation, the ablation grid, artifact exports, and inductive prediction.

Exit codes: 0 ok, 2 config error, 3 data error, 4 numerical divergence.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import zipfile
from dataclasses import replace
from datetime import datetime, timezone
from itertools import chain

import numpy as np

from . import __version__
# impute_mean and zscore are unused here; bench/selftest.py checks that cli binds them
from .data import (  # noqa: F401
    ModalitySchema, Preprocessor, SynthConfig, impute_mean, load_csv, read_table,
    save_dataset, synth_generate, write_csv, zscore,
)
from .errors import ConfigError, DataError, ParameterError, TrainingDiverged
from .numcore import softmax_rows_values
from .train import (
    Model, TrainConfig, accuracy, auc, fit, meta_rows, predict_inductive_batch, run_ablation,
    run_cv, write_ablation_csv, write_history_csv, write_metrics_csv,
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


def _start_run(args, names):
    """Config, dataset and output paths of a run over `args.data`; writes the
    run's manifest."""
    cfg = _train_config(args)
    ds = load_csv(os.path.join(args.data, "features.csv"), os.path.join(args.data, "schema.json"))
    os.makedirs(args.out, exist_ok=True)
    outputs = {name: os.path.join(args.out, name) for name in names}
    _manifest(cfg, args.data, outputs, os.path.join(args.out, "manifest.json"))
    return cfg, ds, outputs


def _train_config(args):
    cfg = TrainConfig.load(args.config) if args.config else TrainConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if getattr(args, "eval_mode", None):
        overrides["eval_mode"] = args.eval_mode
    return replace(cfg, **overrides) if overrides else cfg


def save_model(model, labels, prep, path):
    """Self-describing artifact: parameters, training caches, preprocessing
    statistics, schema, and the config snapshot."""
    arrays = {"param:" + p.name: p.value for p in model.all_params()}
    arrays.update(
        H=model.cache["H"], A=model.cache["A"], logits=model.cache["logits"],
        labels=np.asarray(labels),
        **vars(prep),
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
        prep = Preprocessor(arrays["impute_means"], arrays["z_mu"], arrays["z_sd"])
    return model, {"labels": arrays["labels"], "preprocessor": prep}


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
    cfg, ds, outputs = _start_run(args, ("model.npz", "metrics.csv", "history.csv"))
    prep = Preprocessor.fit(ds)
    clean = prep.transform(ds)
    model, history = fit(clean.schema, clean.modalities, clean.labels, np.arange(clean.n),
                         cfg, clean.n_classes, meta=meta_rows(clean, cfg))
    save_model(model, clean.labels, prep, outputs["model.npz"])
    write_history_csv(history, outputs["history.csv"])
    probs = softmax_rows_values(model.cache["logits"])
    write_csv(outputs["metrics.csv"], ["split", "acc", "auc"],
              [["train", repr(accuracy(probs, clean.labels)), repr(auc(probs, clean.labels))]])
    print(f"trained on {clean.n} patients; artifacts in {args.out}")
    return 0


def cmd_cv(args):
    threads = _threads()
    cfg, ds, outputs = _start_run(args, ("metrics.csv",))
    res = run_cv(ds, cfg, k=args.folds, threads=threads)
    write_metrics_csv(res, outputs["metrics.csv"])
    for fr in res.folds:
        write_history_csv(fr.history, os.path.join(args.out, f"history_fold{fr.fold}.csv"))
    m = res.metrics
    print(f"cv({args.folds}): acc {m.mean_acc:.4f} +- {m.std_acc:.4f}, "
          f"auc {m.mean_auc:.4f} +- {m.std_auc:.4f}")
    return 0


def cmd_ablate(args):
    threads = _threads()
    cfg, ds, outputs = _start_run(args, ("ablation.csv",))
    fusions = tuple(args.fusions.split(","))
    graphs = tuple(args.graphs.split(","))
    rows = run_ablation(ds, cfg, fusions, graphs, k=args.folds, threads=threads)
    write_ablation_csv(rows, outputs["ablation.csv"])
    for row in rows:
        m = row["result"].metrics
        print(f"{row['fusion']}+{row['graph']}: acc {m.mean_acc:.4f} auc {m.mean_auc:.4f}")
    return 0


def cmd_export(args):
    model, extras = load_model(args.model)
    if args.what == "graph":
        a = model.cache["A"]
        pairs = chain(zip(range(len(a)), range(len(a))), zip(*np.nonzero(np.triu(a, 1))))
        write_csv(args.out, ["src", "dst", "weight"],
                  ([int(i), int(j), repr(float(a[i, j]))] for i, j in pairs))
        write_csv(os.path.splitext(args.out)[0] + ".nodes.csv", ["node", "label"],
                  ([i, int(y)] for i, y in enumerate(extras["labels"])))
    elif args.what == "fuse-map":
        if "fuse_map" not in model.cache or model.cache["fuse_map"] is None:
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


def _load_new_patients(path, schema):
    """Feature table for unseen patients; the label column is optional."""
    x, miss, _, _ = read_table(path, schema, require_label=False)
    return x, miss


def cmd_predict(args):
    model, extras = load_model(args.model)
    x, miss = _load_new_patients(args.features, model.schema)
    x = extras["preprocessor"].apply(x, miss)  # the training run's transform
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
