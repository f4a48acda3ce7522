"""Joint objective, the two-phase iterative training schedule, cross-validated
evaluation, the ablation grid, and metrics (accuracy, rank-based AUC).

A training phase records the fusion, the learned graph's projection and one
block.graph_block node on a tape that trains only the phase's optimizer's
Params, so a frozen group gets no gradient. `total_loss` composes the same
objective from the dense primitives and is the block's reference."""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import agl, block, gcn, maff, numcore as nc
# impute_mean and zscore are unused here; bench/selftest.py checks that train binds them
from .data import (  # noqa: F401
    Preprocessor, check_field_types, impute_mean, read_json, stratified_kfold, write_csv, zscore,
)
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

    def fixed_adjacency(self, h):
        """The (N, N) adjacency of a kNN, meta or identity graph over fused
        features h (d, N)."""
        if self.cfg.graph == "knn":
            return agl.knn_graph_rbf(h, self.cfg.knn_k, self.cfg.rbf_sigma).a
        if self.cfg.graph == "meta":
            if self.meta_adj is None:
                raise ParameterError("graph='meta' needs a meta feature matrix")
            return self.meta_adj
        return np.eye(h.shape[1])

    def forward(self, tape, mods, labels=None, mask=None, dropout=False):
        """Fusion, then the graph block (block.graph_block), on `tape`.

        The tape's trainable Params decide which gradients backward forms.
        With labels, "terms" is the block's loss node [task, smooth, con,
        reg]; without, it is None and only the logits are computed. "A" is
        the fixed adjacency, or None for a learned graph, whose A is never
        formed here.
        """
        h, maps = self.fuse(tape, mods)
        a = None
        if self.cfg.graph == "learned":
            source = {"zn": agl.cosine_normalize(tape.leaf(self.agl.w_a).T @ h)}
        else:
            a = self.fixed_adjacency(h.value)
            source = {"adj": a}
        keep = None
        if dropout and self.cfg.dropout > 0.0:
            p = self.cfg.dropout
            keep = (self._drop_rng.random((h.value.shape[1], self.cfg.d_h)) >= p) / (1.0 - p)
        terms, logits = block.graph_block(
            tape, h, tape.leaf(self.gcn.w0), tape.leaf(self.gcn.w1), labels, mask,
            add_self_loops=self.cfg.add_self_loops, keep=keep, **source)
        return {"H": h.value, "A": a, "terms": terms, "logits": logits, "maps": maps}

    def refresh_cache(self, mods):
        """Inference forward pass; caches H/A/logits/maps for eval and export.
        A learned graph's A is formed here, as one dense product."""
        out = self.forward(nc.Tape(trainable=()), mods)
        a = out["A"]
        if a is None:
            tape = nc.Tape()
            a = agl.learned_adjacency(tape, tape.const(out["H"]), self.agl)[0].value
        self.cache = {"H": out["H"], "A": a, "logits": out["logits"], "maps": out["maps"]}
        return self.cache


def total_loss(tape, logits, labels, mask, h, a, lam, alpha, beta):
    """Cross-entropy on masked nodes + lam * graph regularisation.

    Returns (total, parts) with parts holding each term as a Node, and the
    weighted graph loss under "graph".
    """
    task = nc.cross_entropy_masked(logits, labels, mask)
    g_total, smooth, con, reg = agl.graph_loss(tape, h, a, alpha, beta)
    total = task + lam * g_total
    return total, {"task": task, "smooth": smooth, "con": con, "reg": reg, "graph": g_total}


def _check_finite(values, epoch):
    for term, v in values.items():
        if not np.isfinite(v):
            raise TrainingDiverged(term, epoch)


def train_epoch(model, mods, labels, mask, opt_a, opt_b, epoch):
    """One modular-iterative epoch: phase A updates fusion+AGL with the GCN
    frozen, phase B re-runs the forward pass and updates AGL+GCN with the
    fusion frozen. A phase's trainable Params are its optimizer's; no other
    gradient is formed. Returns the loss breakdown after phase B."""
    cfg = model.cfg
    lam, alpha, beta = cfg.lam, cfg.alpha, cfg.beta
    # d(objective)/d[task, smooth, con, reg]
    weights = {"total": np.array([1.0, lam, lam * alpha, lam * beta]),
               "graph-only": np.array([0.0, 1.0, alpha, beta])}

    def run_phase(opt, loss_kind):
        for p in model.all_params():
            p.zero_grad()
        tape = nc.Tape(trainable=opt.params)
        terms = model.forward(tape, mods, labels, mask, dropout=True)["terms"]
        task, smooth, con, reg = (float(v) for v in terms.value)
        values = {"task": task, "smooth": smooth, "con": con, "reg": reg,
                  "total": task + lam * (smooth + alpha * con + beta * reg)}
        _check_finite(values, epoch)
        tape.backward(nc.sum_axis(terms * weights[loss_kind], axis=0, keepdims=False))
        opt.step()
        return values

    run_phase(opt_a, cfg.phase_a_loss)
    return run_phase(opt_b, "total")


def fit(schema, mods, labels, train_idx, cfg, n_classes, seed_key=None, meta=None):
    """Train a Model; returns (model, per-epoch history)."""
    model = Model(schema, n_classes, cfg, seed_key=seed_key, meta=meta)
    opt_a = nc.Adam(model.fusion_params() + model.agl_params(), cfg.lr)
    opt_b = nc.Adam(model.agl_params() + model.gcn_params(), cfg.lr)
    history = []
    best_acc, best_epoch = -1.0, -1
    for epoch in range(cfg.epochs):
        values = train_epoch(model, mods, labels, train_idx, opt_a, opt_b, epoch)
        history.append(values)
        if cfg.patience > 0:
            # the logits alone: no dense A is formed before the last epoch
            logits = model.forward(nc.Tape(trainable=()), mods)["logits"]
            acc = accuracy(logits[train_idx], labels[train_idx])
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

    # A fold whose test patients are all of one class has a NaN AUC. The
    # NaN results are returned without nanmean/nanstd, which warn on them.
    @property
    def mean_auc(self):
        if np.isnan(self.auc_folds).all():
            return float("nan")
        return float(np.nanmean(self.auc_folds))

    @property
    def std_auc(self):
        if len(self.auc_folds) < 2:
            return 0.0
        if np.count_nonzero(~np.isnan(self.auc_folds)) < 2:
            return float("nan")
        return float(np.nanstd(self.auc_folds, ddof=1))

    @property
    def se_auc(self):
        # over the folds that have an AUC; NaN with fewer than two of them
        return self.std_auc / np.sqrt(max(np.count_nonzero(~np.isnan(self.auc_folds)), 1))


def evaluate(model, labels, test_idx):
    """Transductive accuracy and AUC on the held-out indices."""
    probs = nc.softmax_rows_values(model.cache["logits"])
    test_idx = np.asarray(test_idx)
    p = probs[test_idx]
    return accuracy(p, labels[test_idx]), auc(p, np.asarray(labels)[test_idx])


# Unseen patients are scored in blocks of this many; it bounds the
# (N, block, d_h) layer-1 buffers.
PREDICT_BLOCK = 32


def predict_inductive(model, x_cols):
    """Class distribution for one unseen patient via single-node graph extension."""
    xs = [np.asarray(x, dtype=np.float64).reshape(-1, 1) for x in x_cols]
    return predict_inductive_batch(model, xs)[0]


def _edge_weights(model):
    """Function from B fused patients (d, B) to their (N, B) edge weights to
    the N training nodes, through the graph kind's kernel in `agl`; the
    training side is computed once."""
    cfg, h_train = model.cfg, model.cache["H"]
    if cfg.graph == "learned":
        w_a = model.agl.w_a.value

        def unit(h):  # the learned graph's column normalisation, off the tape
            return agl.cosine_normalize(nc.Tape().const(w_a.T @ h)).value

        z_train = unit(h_train)
        return lambda h: np.maximum(z_train.T @ unit(h), 0.0)
    if cfg.graph == "knn":
        k = min(cfg.knn_k, h_train.shape[1])
        return lambda h: agl.top_k(agl.rbf_kernel(h_train, h, cfg.rbf_sigma), k, axis=0)
    if cfg.graph == "identity":
        return lambda h: np.zeros((h_train.shape[1], h.shape[1]))
    raise ParameterError("inductive prediction is not supported for meta graphs")


def predict_inductive_batch(model, mods):
    """Class distributions (B, C) for unseen patients given as (d_m, B) blocks.

    Each patient is scored as if it alone were attached to the trained graph
    (gcn.extend_adjacency): its edge weights w, a unit self-weight, training
    edges untouched. With A~ = A (+ I), s = (deg + w)^-1/2 on the training
    nodes and s_n = (sum w + a~_nn)^-1/2 on the patient, layer 1 of every
    training node is s (A~ (s o P) + w s_n p_n), P = H^T W0, which is one GEMM
    for a whole block of patients; the rest is elementwise and axis-0 sums.

    Patients sit on the column axis of every product, fusion included, and
    the last block is padded with copies of the last patient. So each
    product has the same shape whatever the patients: BLAS rounds a column
    differently depending on the product's width, and with fixed shapes a
    patient's row does not depend on which patients it is scored with.
    """
    if not model.cache:
        raise ParameterError("model has no cached training state; call fit first")
    edge_weights = _edge_weights(model)
    n = mods[0].shape[1]
    pad = -n % PREDICT_BLOCK
    mods = [np.pad(np.asarray(m, dtype=np.float64), ((0, 0), (0, pad)), mode="edge")
            for m in mods]
    a = model.cache["A"]
    n_train = a.shape[0]
    self_w = 1.0  # the patient's own diagonal entry in A~
    if model.cfg.add_self_loops:
        a = a + np.eye(n_train)
        self_w = 2.0
    deg = a.sum(axis=1)
    w0, w1 = model.gcn.w0.value, model.gcn.w1.value
    p_train = model.cache["H"].T @ w0  # (N, d_h)
    probs = np.empty((n + pad, model.n_classes))
    for lo in range(0, n, PREDICT_BLOCK):
        h = model.fuse(nc.Tape(), [m[:, lo:lo + PREDICT_BLOCK] for m in mods])[0].value
        w = edge_weights(h)  # (N, block)
        s = 1.0 / np.sqrt(np.maximum(deg[:, None] + w, 1e-12))
        s_n = 1.0 / np.sqrt(np.maximum(w.sum(axis=0) + self_w, 1e-12))  # (block,)
        p_n = w0.T @ h  # (d_h, block)
        ws = w * s
        y = (s[:, :, None] * p_train[:, None, :]).reshape(n_train, -1)
        u = (a @ y).reshape(n_train, PREDICT_BLOCK, -1)  # A~ (s o P) for every patient
        u += (w * s_n)[:, :, None] * p_n.T
        u *= s[:, :, None]
        np.maximum(u, 0.0, out=u)  # hidden rows of the training nodes
        hid_n = np.maximum(s_n * (p_train.T @ ws + self_w * s_n * p_n), 0.0)  # (d_h, block)
        # the patient's logits: s_n (sum_j w_j s_j hidden_j + a~_nn s_n hidden_n) W1
        g = (ws[:, :, None] * u).sum(axis=0).T + self_w * s_n * hid_n
        logits = s_n * (w1.T @ g)  # (C, block)
        probs[lo:lo + PREDICT_BLOCK] = nc.softmax_rows_values(np.ascontiguousarray(logits.T))
    return probs[:n]


@dataclass
class FoldResult:
    fold: int
    acc: float
    auc: float
    losses: dict  # final-epoch loss breakdown
    history: list


@dataclass
class CvResult:
    metrics: Metrics
    folds: list  # FoldResult
    split: object
    config: TrainConfig


def _run_fold(dataset, clean, cfg, f, train_idx, test_idx):
    ds = Preprocessor.fit(dataset, train_idx).transform(dataset) if cfg.per_fold_stats else clean
    meta = meta_rows(ds, cfg)
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
    return FoldResult(fold=f, acc=acc, auc=auc_v, losses=history[-1], history=history)


def run_cv(dataset, cfg, k=10, threads=1):
    """Stratified K-fold cross-validation; deterministic under cfg.seed.

    Folds are independent, so `threads` > 1 runs them concurrently; results
    are reduced in fold order either way.
    """
    split = stratified_kfold(dataset.labels, k, cfg.seed)
    clean = None if cfg.per_fold_stats else Preprocessor.fit(dataset).transform(dataset)
    jobs = [
        (f, train_idx, test_idx) for f, (train_idx, test_idx) in enumerate(split.folds)
    ]
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            folds = list(pool.map(lambda job: _run_fold(dataset, clean, cfg, *job), jobs))
    else:
        folds = [_run_fold(dataset, clean, cfg, *job) for job in jobs]
    metrics = Metrics([fr.acc for fr in folds], [fr.auc for fr in folds])
    return CvResult(metrics, folds, split, cfg)


def meta_rows(ds, cfg):
    """Discrete rows for the meta graph: the schema's meta columns, else
    fallback_meta; None for every other graph kind."""
    if cfg.graph != "meta":
        return None
    meta = ds.meta_matrix()
    return fallback_meta(ds) if meta is None else meta


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
    losses = ("task", "smooth", "con", "reg")
    rows = [[fr.fold, _fmt(fr.acc), _fmt(fr.auc)] + [_fmt(fr.losses[k]) for k in losses]
            for fr in res.folds]
    m = res.metrics
    rows.append(["mean", _fmt(m.mean_acc), _fmt(m.mean_auc), "", "", "", ""])
    rows.append(["std", _fmt(m.std_acc), _fmt(m.std_auc), "", "", "", ""])
    rows.append(["stderr", _fmt(m.se_acc), _fmt(m.se_auc), "", "", "", ""])
    write_csv(path, ["fold", "acc", "auc"] + [f"loss_{k}" for k in losses], rows)


def write_history_csv(history, path):
    cols = ("total", "task", "smooth", "con", "reg")
    write_csv(path, ["epoch", *cols],
              ([e] + [_fmt(row[k]) for k in cols] for e, row in enumerate(history)))


def write_ablation_csv(rows, path):
    stats = ("mean_acc", "std_acc", "mean_auc", "std_auc")
    out = ([row["fusion"], row["graph"]] + [_fmt(getattr(row["result"].metrics, k)) for k in stats]
           for row in rows)
    write_csv(path, ["fusion", "graph", *stats], out)
