"""The benchmark's workloads: inputs made from the workload seed, the `mmgl`
argv a user would type, and the checks on each call's outputs. README.md
records why each workload was chosen.
"""
from __future__ import annotations

import csv
import json
import math
import os
import shutil

# Accuracy floors, fixed from seeded reference runs with a margin below the
# lowest value seen: a call below its floor counts as failed. On tadpole-like
# data a short run now and then leaves one class unlearned in one fold
# (accuracy 0.83 or 0.67), so the floor sits below that; chance is 0.33.
TADPOLE_ACC_FLOOR = 0.6
MANYMODAL_ACC_FLOOR = 0.5
PREDICT_ACC_FLOOR = 0.6

MANYMODAL = {
    "n": 150, "classes": 3, "modality_dims": [40, 30, 20, 12, 10, 8, 6, 4],
    "pattern": ["mod2", "mod5", "mod7"], "separation": 1.0, "missing_rate": 0.1,
}
# Self-test sizes: same code paths, a fraction of the work.
TINY_TADPOLE = {"n": 60, "classes": 3, "modality_dims": [20, 10, 5, 4], "separation": 3.0}
TINY_MANYMODAL = dict(MANYMODAL, n=45)


class CheckFailed(Exception):
    """An output that breaks the workload's correctness contract."""


def _write_json(obj, path):
    with open(path, "w") as f:
        json.dump(obj, f)


def _run(cli_main, argv):
    rc = cli_main(argv)
    if rc != 0:
        raise CheckFailed(f"set-up call {argv[0]} exited {rc}")


def _read_csv(path):
    if not os.path.exists(path):
        raise CheckFailed(f"missing output {path}")
    with open(path, newline="") as f:
        return list(csv.reader(f))


class Workload:
    """`setup` makes the inputs in `work` from the seed; `argv(i)` is the i-th
    measured call; `check(i)` validates that call's outputs, raising
    CheckFailed, and returns its accuracy, AUC and items of work done."""

    items_unit = ""

    def __init__(self, seed, tiny=False):
        self.seed = seed
        self.tiny = tiny
        self.first_bytes = {}  # output key -> bytes of its first call

    def min_calls(self):
        return 2  # two calls, so the byte-identity check always runs

    def same_as_first(self, key, path):
        with open(path, "rb") as f:
            data = f.read()
        if self.first_bytes.setdefault(key, data) != data:
            raise CheckFailed(f"{path} differs from the first call on the same inputs")

    def quality(self, results):
        """Run-level (accuracy, auc) from the per-call results."""
        raise NotImplementedError


class CvWorkload(Workload):
    """Repeated `mmgl cv` over `n_datasets` synthetic cohorts, in rotation."""

    items_unit = "training epochs"

    def __init__(self, seed, tiny, synth, n_datasets, folds, epochs, acc_floor):
        super().__init__(seed, tiny)
        self.synth = synth  # preset name or synthetic-config dict
        self.n_datasets = n_datasets
        self.folds = folds
        self.epochs = epochs
        self.acc_floor = 0.0 if tiny else acc_floor

    def min_calls(self):
        return self.n_datasets + 1

    def dataset_seed(self, k):
        return self.seed * self.n_datasets + k

    def setup(self, cli_main, work):
        self.work = work
        if isinstance(self.synth, dict):
            _write_json(self.synth, os.path.join(work, "synth.json"))
            source = ["--config", os.path.join(work, "synth.json")]
        else:
            source = ["--preset", self.synth]
        _write_json({"epochs": self.epochs}, os.path.join(work, "train.json"))
        for k in range(self.n_datasets):
            _run(cli_main, ["synth", *source, "--seed", str(self.dataset_seed(k)),
                            "--out", os.path.join(work, f"data{k}")])

    def inputs(self):
        return [os.path.join(self.work, f"data{k}", "features.csv")
                for k in range(self.n_datasets)]

    def argv(self, i):
        """The i-th call's argv; removes that call's output file first."""
        k = i % self.n_datasets
        out = os.path.join(self.work, f"cv{k}")
        if os.path.exists(os.path.join(out, "metrics.csv")):
            os.remove(os.path.join(out, "metrics.csv"))
        return ["cv", "--data", os.path.join(self.work, f"data{k}"), "--out", out,
                "--config", os.path.join(self.work, "train.json"),
                "--folds", str(self.folds), "--seed", str(self.dataset_seed(k))]

    def check(self, i):
        k = i % self.n_datasets
        path = os.path.join(self.work, f"cv{k}", "metrics.csv")
        rows = _read_csv(path)
        keys = [r[0] for r in rows[1:]]
        want = [str(f) for f in range(self.folds)] + ["mean", "std", "stderr"]
        if keys != want:
            raise CheckFailed(f"metrics.csv rows {keys}, expected {want}")
        acc, auc = float(rows[1 + self.folds][1]), float(rows[1 + self.folds][2])
        if not (math.isfinite(acc) and math.isfinite(auc)):
            raise CheckFailed(f"non-finite mean metrics acc={acc} auc={auc}")
        if acc < self.acc_floor:
            raise CheckFailed(f"cv accuracy {acc} below floor {self.acc_floor}")
        self.same_as_first(k, path)
        return {"dataset": k, "acc": acc, "auc": auc, "items": self.folds * self.epochs}

    def quality(self, results):
        """Mean over cohorts of each cohort's cv accuracy and AUC."""
        per = {r["dataset"]: (r["acc"], r["auc"]) for r in results}
        accs = [a for a, _ in per.values()]
        aucs = [b for _, b in per.values()]
        return sum(accs) / len(accs), sum(aucs) / len(aucs)


class PredictWorkload(Workload):
    """Repeated `mmgl predict` of held-out patients against a trained model."""

    items_unit = "patients"

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        self.n_train = 50 if tiny else 600
        self.epochs = 2 if tiny else 15
        self.acc_floor = 0.0 if tiny else PREDICT_ACC_FLOOR

    def setup(self, cli_main, work):
        self.work = work
        full = os.path.join(work, "full")
        if self.tiny:
            _write_json(TINY_TADPOLE, os.path.join(work, "synth.json"))
            source = ["--config", os.path.join(work, "synth.json")]
        else:
            source = ["--preset", "tadpole-like"]
        _run(cli_main, ["synth", *source, "--seed", str(self.seed), "--out", full])
        rows = _read_csv(os.path.join(full, "features.csv"))
        header, body = rows[0], rows[1:]
        label = header.index("label")
        train_dir = os.path.join(work, "train")
        os.makedirs(train_dir)
        shutil.copy(os.path.join(full, "schema.json"), train_dir)
        with open(os.path.join(train_dir, "features.csv"), "w", newline="") as f:
            csv.writer(f).writerows([header] + body[:self.n_train])
        with open(os.path.join(work, "heldout.csv"), "w", newline="") as f:
            csv.writer(f).writerows(
                [[c for j, c in enumerate(r) if j != label]
                 for r in [header] + body[self.n_train:]])
        self.labels = [r[label] for r in body[self.n_train:]]
        _write_json({"epochs": self.epochs}, os.path.join(work, "train.json"))
        _run(cli_main, ["train", "--data", train_dir, "--out", os.path.join(work, "model"),
                        "--config", os.path.join(work, "train.json"), "--seed", str(self.seed)])

    def inputs(self):
        return [os.path.join(self.work, "full", "features.csv")]

    def argv(self, i):
        out = os.path.join(self.work, "pred.csv")
        if os.path.exists(out):
            os.remove(out)
        return ["predict", "--model", os.path.join(self.work, "model", "model.npz"),
                "--features", os.path.join(self.work, "heldout.csv"), "--out", out]

    def check(self, i):
        from mmgl.train import auc as macro_auc

        path = os.path.join(self.work, "pred.csv")
        rows = _read_csv(path)
        header, body = rows[0], rows[1:]
        if len(body) != len(self.labels):
            raise CheckFailed(f"{len(body)} predictions for {len(self.labels)} patients")
        classes = [h[2:] for h in header[2:]]
        probs = []
        for r in body:
            p = [float(v) for v in r[2:]]
            if not all(math.isfinite(v) and v >= 0.0 for v in p) or abs(sum(p) - 1.0) > 1e-9:
                raise CheckFailed(f"patient {r[0]}: probabilities {p} are not a distribution")
            if r[1] != classes[max(range(len(p)), key=p.__getitem__)]:
                raise CheckFailed(f"patient {r[0]}: prediction {r[1]} is not the argmax")
            probs.append(p)
        acc = sum(r[1] == y for r, y in zip(body, self.labels)) / len(body)
        if acc < self.acc_floor:
            raise CheckFailed(f"predict accuracy {acc} below floor {self.acc_floor}")
        auc = macro_auc(probs, [classes.index(y) for y in self.labels])
        self.same_as_first("pred", path)
        return {"acc": acc, "auc": auc, "items": len(body)}

    def quality(self, results):
        return results[0]["acc"], results[0]["auc"]


def make(name, seed, tiny=False):
    if name == "cv-tadpole":
        synth = TINY_TADPOLE if tiny else "tadpole-like"
        return CvWorkload(seed, tiny, synth, n_datasets=1, folds=2,
                          epochs=2 if tiny else 20, acc_floor=TADPOLE_ACC_FLOOR)
    if name == "cv-manymodal":
        return CvWorkload(seed, tiny, TINY_MANYMODAL if tiny else MANYMODAL,
                          n_datasets=3 if tiny else 11, folds=2,
                          epochs=2 if tiny else 15, acc_floor=MANYMODAL_ACC_FLOOR)
    if name == "predict-tadpole":
        return PredictWorkload(seed, tiny)
    raise KeyError(name)
