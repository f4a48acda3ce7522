"""Joint objective, the two-phase iterative training schedule, cross-validated
evaluation, the ablation grid, and metrics (accuracy, rank-based AUC)."""
from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from . import agl, gcn, maff, numcore as nc
from .data import check_field_types, impute_mean, read_json, stratified_kfold, zscore
from .errors import ConfigError, ParameterError, TrainingDiverged

FUSIONS = ("maff", "mlp", "concat")
GRAPHS = ("learned", "knn", "meta", "identity")


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.01
    epochs: int = 300
    lam: float = 1.0  # weight of the graph regularisation block
    alpha: float = 0.5  # connectivity term inside the graph loss
    beta: float = 0.5  # sparsity term inside the graph loss
    d_f: int = 16  # q/k/v projection width
    d: int = 0  # fused feature width; 0 = d_f
    d_a: int = 0  # graph-learning projection width; 0 = d
    d_h: int = 16  # GCN hidden width
    heads: int = 4
    attention_axis: str = "column"
    eval_mode: str = "transductive"
    seed: int = 0
    patience: int = 0  # 0 = no early stopping
    phase_a_loss: str = "total"  # or "graph-only"
    fusion: str = "maff"
    graph: str = "learned"
    knn_k: int = 10
    rbf_sigma: float = 1.0
    meta_threshold: int = 1
    dropout: float = 0.0
    add_self_loops: bool = False
    per_fold_stats: bool = False  # per-fold imputation/normalisation statistics

    def __post_init__(self):
        check_field_types(self)
        for name in ("lr", "rbf_sigma"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("epochs", "d_f", "d_h", "heads", "knn_k", "meta_threshold"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("d", "d_a", "seed", "patience"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if min(self.lam, self.alpha, self.beta) < 0:
            raise ConfigError("loss weights lam/alpha/beta must be >= 0")
        choices = {"fusion": FUSIONS, "graph": GRAPHS, "attention_axis": ("column", "row"),
                   "eval_mode": ("transductive", "inductive"),
                   "phase_a_loss": ("total", "graph-only")}
        for name, allowed in choices.items():
            if getattr(self, name) not in allowed:
                raise ConfigError(f"{name} must be one of {allowed}, got {getattr(self, name)!r}")
        if self.d_f % self.heads != 0:
            raise ConfigError(f"d_f={self.d_f} not divisible by heads={self.heads}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def dim_fused(self):
        return self.d or self.d_f

    @property
    def dim_graph(self):
        return self.d_a or self.dim_fused

    @classmethod
    def from_dict(cls, obj):
        if not isinstance(obj, dict):
            raise ConfigError(f"config must be a JSON object, got {type(obj).__name__}")
        known = set(cls.__dataclass_fields__)
        unknown = set(obj) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**obj)

    @classmethod
    def load(cls, path):
        return cls.from_dict(read_json(path, ConfigError))

    def to_dict(self):
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


class Model:
    """Fusion + graph + GCN parameter bundle with a full forward pass."""

    def __init__(self, schema, n_classes, cfg, seed_key=None, meta=None):
        self.schema = schema
        self.n_classes = n_classes
        self.cfg = cfg
        d, d_a = cfg.dim_fused, cfg.dim_graph
        key = list(seed_key) if seed_key is not None else [cfg.seed, 101]
        rng = np.random.default_rng(key)
        if cfg.fusion == "maff":
            self.maff = maff.init_maff(schema, cfg.d_f, d, cfg.heads, rng, cfg.attention_axis)
        elif cfg.fusion == "mlp":
            self.mlp_w1 = nc.glorot(rng, schema.d_in, cfg.d_f, "mlp.w1")
            self.mlp_w2 = nc.glorot(rng, cfg.d_f, d, "mlp.w2")
        else:  # concat
            self.concat_w = nc.glorot(rng, schema.d_in, d, "concat.w")
        self.agl = agl.init_agl(d, d_a, rng) if cfg.graph == "learned" else None
        self.gcn = gcn.init_gcn(d, cfg.d_h, n_classes, rng)
        self.meta_adj = None
        if cfg.graph == "meta" and meta is not None:
            self.meta_adj = agl.meta_graph(meta, cfg.meta_threshold).a
        self._drop_rng = np.random.default_rng(key + [977])
        self.cache = {}

    def fusion_params(self):
        if self.cfg.fusion == "maff":
            return self.maff.all_params()
        if self.cfg.fusion == "mlp":
            return [self.mlp_w1, self.mlp_w2]
        return [self.concat_w]

    def agl_params(self):
        return self.agl.all_params() if self.agl is not None else []

    def gcn_params(self):
        return self.gcn.all_params()

    def all_params(self):
        return self.fusion_params() + self.agl_params() + self.gcn_params()

    def fuse(self, tape, mods):
        maps = None
        if self.cfg.fusion == "maff":
            h, maps = maff.fuse_batch(tape, mods, self.maff)
        elif self.cfg.fusion == "mlp":
            x = tape.const(np.concatenate([np.asarray(m) for m in mods], axis=0))
            h = tape.leaf(self.mlp_w2).T @ nc.relu(tape.leaf(self.mlp_w1).T @ x)
        else:
            x = tape.const(np.concatenate([np.asarray(m) for m in mods], axis=0))
            h = tape.leaf(self.concat_w).T @ x
        return h, maps

    def adjacency(self, tape, h):
        if self.cfg.graph == "learned":
            a, _ = agl.learned_adjacency(tape, h, self.agl)
            return a
        n = h.value.shape[1]
        if self.cfg.graph == "knn":
            return tape.const(agl.knn_graph_rbf(h.value, self.cfg.knn_k, self.cfg.rbf_sigma).a)
        if self.cfg.graph == "meta":
            if self.meta_adj is None:
                raise ParameterError("graph='meta' needs a meta feature matrix")
            return tape.const(self.meta_adj)
        return tape.const(np.eye(n))

    def forward(self, tape, mods, dropout=False):
        h, maps = self.fuse(tape, mods)
        a = self.adjacency(tape, h)
        a_norm = gcn.normalize_adj(tape, a, self.cfg.add_self_loops)
        p = self.cfg.dropout if dropout else 0.0
        logits = gcn.gcn_forward(tape, h, a_norm, self.gcn, p, self._drop_rng)
        return {"H": h, "A": a, "A_norm": a_norm, "logits": logits, "maps": maps}

    def refresh_cache(self, mods):
        """Inference forward pass; caches H/A/logits/maps for eval and export."""
        out = self.forward(nc.Tape(), mods, dropout=False)
        self.cache = {
            "H": out["H"].value,
            "A": out["A"].value,
            "logits": out["logits"].value,
            "maps": out["maps"],
        }
        return self.cache


def total_loss(tape, logits, labels, mask, h, a, lam, alpha, beta):
    """Cross-entropy on masked nodes + lam * graph regularisation.

    Returns (total, parts) with parts holding each term as a Node.
    """
    task = nc.cross_entropy_masked(logits, labels, mask)
    g_total, smooth, con, reg = agl.graph_loss(tape, h, a, alpha, beta)
    total = task + lam * g_total
    return total, {"task": task, "smooth": smooth, "con": con, "reg": reg}


def _loss_values(parts):
    return {k: float(v.value) for k, v in parts.items()}


def _check_finite(values, epoch):
    for term, v in values.items():
        if not np.isfinite(v):
            raise TrainingDiverged(term, epoch)


def train_epoch(model, mods, labels, mask, opt_a, opt_b, epoch):
    """One modular-iterative epoch: phase A updates fusion+AGL with the GCN
    frozen, phase B re-runs the forward pass and updates AGL+GCN with the
    fusion frozen. Returns the loss breakdown after phase B."""
    cfg = model.cfg

    def run_phase(opt, loss_kind):
        for p in model.all_params():
            p.zero_grad()
        tape = nc.Tape()
        out = model.forward(tape, mods, dropout=True)
        total, parts = total_loss(
            tape, out["logits"], labels, mask, out["H"], out["A"],
            cfg.lam, cfg.alpha, cfg.beta,
        )
        if loss_kind == "graph-only":
            objective = parts["smooth"] + cfg.alpha * parts["con"] + cfg.beta * parts["reg"]
        else:
            objective = total
        values = _loss_values(parts)
        values["total"] = float(total.value)
        _check_finite(values, epoch)
        tape.backward(objective)
        opt.step()
        return values

    run_phase(opt_a, cfg.phase_a_loss)
    return run_phase(opt_b, "total")


def fit(schema, mods, labels, train_idx, cfg, n_classes, seed_key=None, meta=None, val_idx=None):
    """Train a Model; returns (model, per-epoch history)."""
    model = Model(schema, n_classes, cfg, seed_key=seed_key, meta=meta)
    opt_a = nc.Adam(model.fusion_params() + model.agl_params(), cfg.lr)
    opt_b = nc.Adam(model.agl_params() + model.gcn_params(), cfg.lr)
    history = []
    best_acc, best_epoch = -1.0, -1
    watch = val_idx if val_idx is not None else train_idx
    for epoch in range(cfg.epochs):
        values = train_epoch(model, mods, labels, train_idx, opt_a, opt_b, epoch)
        history.append(values)
        if cfg.patience > 0:
            cache = model.refresh_cache(mods)
            acc = accuracy(cache["logits"][watch], labels[watch])
            if acc > best_acc:
                best_acc, best_epoch = acc, epoch
            elif epoch - best_epoch >= cfg.patience:
                break
    model.refresh_cache(mods)
    return model, history


def accuracy(logits, labels):
    return float((np.argmax(logits, axis=1) == np.asarray(labels)).mean())


def _binary_auc(scores, positive):
    """P(random positive outranks random negative), ties counted 0.5."""
    scores = np.asarray(scores, dtype=np.float64)
    positive = np.asarray(positive, dtype=bool)
    n_pos = int(positive.sum())
    n_neg = positive.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    below = np.concatenate(([0], np.cumsum(counts)[:-1]))
    ranks = below[inverse] + (counts[inverse] + 1) / 2.0
    return float((ranks[positive].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def auc(scores, labels):
    """Binary AUC for 1-D scores; macro one-vs-rest mean for (N, C) scores."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim == 1:
        return _binary_auc(scores, labels == labels.max())
    per_class = []
    for c in range(scores.shape[1]):
        v = _binary_auc(scores[:, c], labels == c)
        if not np.isnan(v):
            per_class.append(v)
    return float(np.mean(per_class)) if per_class else float("nan")


@dataclass
class Metrics:
    acc_folds: list
    auc_folds: list

    @property
    def mean_acc(self):
        return float(np.mean(self.acc_folds))

    @property
    def std_acc(self):
        return float(np.std(self.acc_folds, ddof=1)) if len(self.acc_folds) > 1 else 0.0

    @property
    def se_acc(self):
        return self.std_acc / np.sqrt(len(self.acc_folds))

    @property
    def mean_auc(self):
        return float(np.nanmean(self.auc_folds))

    @property
    def std_auc(self):
        return float(np.nanstd(self.auc_folds, ddof=1)) if len(self.auc_folds) > 1 else 0.0

    @property
    def se_auc(self):
        return self.std_auc / np.sqrt(len(self.auc_folds))


def evaluate(model, labels, test_idx, probs=None):
    """Accuracy and AUC on the held-out indices (transductive by default)."""
    if probs is None:
        probs = nc.softmax_rows_values(model.cache["logits"])
    test_idx = np.asarray(test_idx)
    p = probs[test_idx]
    return accuracy(p, labels[test_idx]), auc(p, np.asarray(labels)[test_idx])


def predict_inductive(model, x_cols):
    """Class distribution for one unseen patient via single-node graph extension."""
    cfg = model.cfg
    if not model.cache:
        raise ParameterError("model has no cached training state; call fit first")
    h_train, a_train = model.cache["H"], model.cache["A"]
    xs = [np.asarray(x, dtype=np.float64).reshape(-1, 1) for x in x_cols]
    if cfg.fusion == "maff":
        h_new = maff.fuse_one(nc.Tape(), xs, model.maff)[0].value
    elif cfg.fusion == "mlp":
        xc = np.concatenate(xs, axis=0)
        h_new = model.mlp_w2.value.T @ np.maximum(model.mlp_w1.value.T @ xc, 0.0)
    else:
        h_new = model.concat_w.value.T @ np.concatenate(xs, axis=0)

    if cfg.graph == "learned":
        w = model.agl.w_a.value
        z_train = w.T @ h_train
        z_new = (w.T @ h_new)[:, 0]
        nt = np.maximum(np.linalg.norm(z_train, axis=0), agl.NORM_GUARD)
        nn_ = max(np.linalg.norm(z_new), agl.NORM_GUARD)
        sims = np.maximum((z_train.T @ z_new) / (nt * nn_), 0.0)
    elif cfg.graph == "knn":
        d2 = ((h_train - h_new) ** 2).sum(axis=0)
        w = np.exp(-d2 / (2.0 * cfg.rbf_sigma ** 2))
        k = min(cfg.knn_k, h_train.shape[1])
        sims = np.zeros_like(w)
        nbrs = np.argpartition(w, -k)[-k:]
        sims[nbrs] = w[nbrs]
    elif cfg.graph == "identity":
        sims = np.zeros(h_train.shape[1])
    else:
        raise ParameterError("inductive prediction is not supported for meta graphs")

    a_ext = gcn.extend_adjacency(a_train, sims)
    a_norm = gcn.normalize_adj_np(a_ext, cfg.add_self_loops)
    h_ext = np.concatenate([h_train, h_new], axis=1)
    logits = gcn.gcn_forward_np(h_ext, a_norm, model.gcn)
    return nc.softmax_rows_values(logits[-1:])[0]


def predict_inductive_batch(model, mods):
    """One-at-a-time inductive prediction for a block of unseen patients."""
    n = mods[0].shape[1]
    out = np.zeros((n, model.n_classes))
    for i in range(n):
        out[i] = predict_inductive(model, [m[:, i] for m in mods])
    return out


@dataclass
class FoldResult:
    fold: int
    acc: float
    auc: float
    losses: dict  # final-epoch loss breakdown
    history: list
    model: object = None


@dataclass
class CvResult:
    metrics: Metrics
    folds: list  # FoldResult
    split: object
    config: TrainConfig


def _preprocess(dataset, train_idx=None):
    """Impute and z-score; both statistics come from `train_idx` if given."""
    return zscore(impute_mean(dataset, train_idx), train_idx)


def _run_fold(dataset, clean, cfg, f, train_idx, test_idx, collect_models):
    ds = _preprocess(dataset, train_idx) if cfg.per_fold_stats else clean
    meta = None
    if cfg.graph == "meta":
        meta = ds.meta_matrix()
        if meta is None:
            meta = fallback_meta(ds)
    seed_key = [cfg.seed, 613, f]
    if cfg.eval_mode == "inductive":
        tr_mods = [m[:, train_idx] for m in ds.modalities]
        model, history = fit(
            ds.schema, tr_mods, ds.labels[train_idx], np.arange(train_idx.size),
            cfg, ds.n_classes, seed_key=seed_key,
            meta=meta[:, train_idx] if meta is not None else None,
        )
        probs_test = predict_inductive_batch(model, [m[:, test_idx] for m in ds.modalities])
        acc = accuracy(probs_test, ds.labels[test_idx])
        auc_v = auc(probs_test, ds.labels[test_idx])
    else:
        model, history = fit(
            ds.schema, ds.modalities, ds.labels, train_idx, cfg, ds.n_classes,
            seed_key=seed_key, meta=meta,
        )
        acc, auc_v = evaluate(model, ds.labels, test_idx)
    return FoldResult(
        fold=f, acc=acc, auc=auc_v, losses=history[-1], history=history,
        model=model if collect_models else None,
    )


def run_cv(dataset, cfg, k=10, collect_models=False, threads=1):
    """Stratified K-fold cross-validation; deterministic under cfg.seed.

    Folds are independent, so `threads` > 1 runs them concurrently; results
    are reduced in fold order either way.
    """
    split = stratified_kfold(dataset.labels, k, cfg.seed)
    clean = None if cfg.per_fold_stats else _preprocess(dataset)
    jobs = [
        (f, train_idx, test_idx) for f, (train_idx, test_idx) in enumerate(split.folds)
    ]
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            folds = list(pool.map(
                lambda job: _run_fold(dataset, clean, cfg, *job, collect_models), jobs
            ))
    else:
        folds = [_run_fold(dataset, clean, cfg, *job, collect_models) for job in jobs]
    metrics = Metrics([fr.acc for fr in folds], [fr.auc for fr in folds])
    return CvResult(metrics, folds, split, cfg)


def fallback_meta(ds):
    """Derive discrete meta rows when the schema designates none: the first
    feature of each modality, binned into terciles."""
    rows = []
    for x in ds.modalities:
        v = x[0]
        qs = np.quantile(v, [1 / 3, 2 / 3])
        rows.append(np.digitize(v, qs).astype(np.float64))
    return np.array(rows)


def run_ablation(dataset, cfg, fusions=("maff", "mlp", "concat"),
                 graphs=("learned", "knn", "meta"), k=10, threads=1):
    """Fusion x graph-construction grid of cross-validated metrics."""
    rows = []
    for fusion in fusions:
        for graph in graphs:
            cell_cfg = replace(cfg, fusion=fusion, graph=graph)
            res = run_cv(dataset, cell_cfg, k=k, threads=threads)
            rows.append({"fusion": fusion, "graph": graph, "result": res})
    return rows


def _fmt(x):
    return repr(float(x))


def write_metrics_csv(res, path):
    """Per-fold metrics plus aggregate rows; byte-stable for a fixed seed."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["fold", "acc", "auc", "loss_task", "loss_smooth", "loss_con", "loss_reg"])
        for fr in res.folds:
            w.writerow([fr.fold, _fmt(fr.acc), _fmt(fr.auc),
                        _fmt(fr.losses["task"]), _fmt(fr.losses["smooth"]),
                        _fmt(fr.losses["con"]), _fmt(fr.losses["reg"])])
        m = res.metrics
        w.writerow(["mean", _fmt(m.mean_acc), _fmt(m.mean_auc), "", "", "", ""])
        w.writerow(["std", _fmt(m.std_acc), _fmt(m.std_auc), "", "", "", ""])
        w.writerow(["stderr", _fmt(m.se_acc), _fmt(m.se_auc), "", "", "", ""])


def write_history_csv(history, path):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["epoch", "total", "task", "smooth", "con", "reg"])
        for e, row in enumerate(history):
            w.writerow([e] + [_fmt(row[k]) for k in ("total", "task", "smooth", "con", "reg")])


def write_ablation_csv(rows, path):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["fusion", "graph", "mean_acc", "std_acc", "mean_auc", "std_auc"])
        for row in rows:
            m = row["result"].metrics
            w.writerow([row["fusion"], row["graph"], _fmt(m.mean_acc), _fmt(m.std_acc),
                        _fmt(m.mean_auc), _fmt(m.std_auc)])
