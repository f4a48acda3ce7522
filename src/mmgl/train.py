"""Joint objective, the two-phase iterative training schedule, cross-validated
evaluation, the ablation grid, and metrics (accuracy, rank-based AUC).

A training phase records the fusion, the learned graph's projection and one
block.graph_block node on a tape that trains only the phase's optimizer's
Params; that tape alone decides which gradients reach a Param, so a frozen
group gets none. A MAFF fusion, and a fixed graph's edge rule built from it,
are computed once per fusion-weight state: phase B's, made with the fusion
frozen, are handed on to the next phase A, which differentiates the fusion,
and to the cache forward, whose logits early stopping reads (`fit`); phase A
drops its hand-off once differentiated, so a fit holds one fusion at a time.
Forwards that nothing differentiates (the cache, the graph projection,
inductive fusion) run on a no-grad tape (`numcore.Tape(trainable=())`), which
keeps no nodes. The fitted model keeps its last forward's edge rule
(`Model.edge_rule`) and, for maff, the (M, M) fusion map, not the per-patient
attention maps. `total_loss` composes the block's objective from the dense
primitives; it runs only in the tests, as the block's reference."""
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
    #   in transductive cv; inductive cv always fits them per fold

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
        if self.eval_mode == "inductive" and self.graph == "meta":
            raise ConfigError("eval_mode='inductive' is not supported for graph='meta'")
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
        try:
            if cfg.fusion == "maff":
                self.maff = maff.init_maff(schema, cfg.d_f, d, cfg.heads, rng, cfg.attention_axis)
            elif cfg.fusion == "mlp":
                self.mlp_w1 = nc.glorot(rng, schema.d_in, cfg.d_f, "mlp.w1")
                self.mlp_w2 = nc.glorot(rng, cfg.d_f, d, "mlp.w2")
            else:  # concat
                self.concat_w = nc.glorot(rng, schema.d_in, d, "concat.w")
            self.agl = agl.init_agl(d, d_a, rng) if cfg.graph == "learned" else None
            self.gcn = gcn.init_gcn(d, cfg.d_h, n_classes, rng)
        # numpy raises ValueError or OverflowError for a dimension past its index range
        except (MemoryError, ValueError, OverflowError) as exc:
            raise ConfigError(f"config asks for weights numpy cannot allocate: modality widths "
                              f"{schema.dims}, d_f={cfg.d_f}, d={d}, d_a={d_a}, d_h={cfg.d_h}, "
                              f"{n_classes} classes") from exc
        self.meta = None if cfg.graph != "meta" or meta is None else np.asarray(meta, float)
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

    def fuse(self, tape, mods, fusion=None):
        """The fused features (d, N) on `tape`, and for maff the maff.Fusion
        (else None). `mods` are constant arrays, so a maff node's parents are
        the fusion weights alone. A maff `fusion` of these `mods`, made with
        the current fusion weights, is recorded again instead of computed; mlp
        and concat fusion, one or two GEMMs, always compute."""
        if self.cfg.fusion == "maff":
            if fusion is not None:
                return fusion.record(tape), fusion
            return maff.fuse_batch(tape, mods, self.maff)
        x = tape.const(np.concatenate([np.asarray(m) for m in mods], axis=0))
        if self.cfg.fusion == "mlp":
            return tape.leaf(self.mlp_w2).T @ nc.relu(tape.leaf(self.mlp_w1).T @ x), None
        return tape.leaf(self.concat_w).T @ x, None

    def graph_projection(self, h):
        """The learned graph's unit-norm projection Zn (d_a, N) of fused
        features h (d, N), off the tape; the same values as on it."""
        tape = nc.Tape(trainable=())
        return agl.cosine_normalize(tape.const(self.agl.w_a.value.T @ h)).value

    def edge_rule(self, h, zn=None):
        """The graph's edge rule (agl) over fused features h (d, N); a learned
        graph's reads Zn, `zn` if given, else graph_projection(h)."""
        if self.cfg.graph == "learned":
            zn = self.graph_projection(h) if zn is None else zn
            return lambda rows, cols: agl.cosine_edges(zn[:, rows], zn[:, cols])
        if self.cfg.graph == "knn":
            return agl.knn_edges(h, self.cfg.knn_k, self.cfg.rbf_sigma)
        if self.cfg.graph == "meta":
            if self.meta is None:
                raise ParameterError("graph='meta' needs a meta feature matrix")
            return agl.meta_edges(self.meta, self.cfg.meta_threshold)
        return agl.no_edges(h.shape[1])

    def forward(self, tape, mods, labels=None, mask=None, dropout=False, hand_off=None):
        """Fusion (`fuse`), then the graph block (block.graph_block), on `tape`.

        `hand_off`: {"fusion", "edges"} of an earlier forward on these `mods`,
        made with the current fusion weights (`train_epoch`), or None. Its
        maff.Fusion is recorded again instead of computed, and a fixed graph's
        edge rule, which reads only H, is read again instead of built; a
        learned graph's reads W_a and is always built.

        The tape's trainable Params decide which gradients backward forms.
        With labels, "terms" is the block's loss node [task, smooth, con,
        reg]; without, it is None and only the logits are computed. "fusion"
        is the maff.Fusion, or None, and "edges" the edge rule the block read.
        """
        h, fusion = self.fuse(tape, mods, None if hand_off is None else hand_off["fusion"])
        zn = None if self.agl is None else agl.cosine_normalize(tape.leaf(self.agl.w_a).T @ h)
        if hand_off is not None and zn is None:
            edges = hand_off["edges"]
        else:
            edges = self.edge_rule(h.value, None if zn is None else zn.value)
        keep = None
        if dropout and self.cfg.dropout > 0.0:
            p = self.cfg.dropout
            keep = (self._drop_rng.random((h.value.shape[1], self.cfg.d_h)) >= p) / (1.0 - p)
        terms, logits = block.graph_block(
            tape, h, tape.leaf(self.gcn.w0), tape.leaf(self.gcn.w1), labels, mask,
            edges=edges, zn=zn, add_self_loops=self.cfg.add_self_loops, keep=keep)
        return {"H": h.value, "terms": terms, "logits": logits, "fusion": fusion, "edges": edges}

    def refresh_cache(self, mods, hand_off=None):
        """Inference forward pass; caches H, the edge rule and the logits for
        eval, export and inductive scoring, and "fuse_map": for maff the
        (M, M) map averaged over heads and patients (maff.Fusion.global_map),
        which `save_model` writes, else None. `hand_off` as in `forward`."""
        out = self.forward(nc.Tape(trainable=()), mods, hand_off=hand_off)
        self.cache = {k: out[k] for k in ("H", "edges", "logits")}
        self.cache["fuse_map"] = None if out["fusion"] is None else out["fusion"].global_map()
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


def train_epoch(model, mods, labels, mask, opt_a, opt_b, epoch, hand_off=None):
    """One modular-iterative epoch: phase A updates fusion+AGL with the GCN
    frozen, phase B re-runs the forward pass and updates AGL+GCN with the
    fusion frozen. A phase's tape trains its optimizer's Params, and backward
    gives no other Param a gradient.

    Returns (the loss breakdown after phase B, phase B's hand-off or None):
    {"fusion", "edges"} of phase B's forward, returned only when opt_b trains no
    fusion Param, so that the fusion weights are still the ones phase B fused
    with; the next forward on `mods` may then take it (`Model.forward`).
    Phase A records a given hand-off's fusion and differentiates through it;
    without one it fuses. The given hand-off is emptied once phase A's
    backward has run, so that its fusion is freed before phase B fuses."""
    cfg = model.cfg
    lam, alpha, beta = cfg.lam, cfg.alpha, cfg.beta
    # d(objective)/d[task, smooth, con, reg]
    weights = {"total": np.array([1.0, lam, lam * alpha, lam * beta]),
               "graph-only": np.array([0.0, 1.0, alpha, beta])}

    def run_phase(opt, loss_kind, hand_off):
        for p in model.all_params():
            p.zero_grad()
        tape = nc.Tape(trainable=opt.params)
        out = model.forward(tape, mods, labels, mask, dropout=True, hand_off=hand_off)
        terms = out["terms"]
        task, smooth, con, reg = (float(v) for v in terms.value)
        values = {"task": task, "smooth": smooth, "con": con, "reg": reg,
                  "total": task + lam * (smooth + alpha * con + beta * reg)}
        _check_finite(values, epoch)
        # the fusion's VJP reads W_m and W_h by reference: backward runs before the step
        tape.backward(nc.sum_axis(terms * weights[loss_kind], axis=0, keepdims=False))
        opt.step()
        return values, {"fusion": out["fusion"], "edges": out["edges"]}

    run_phase(opt_a, cfg.phase_a_loss, hand_off)
    if hand_off is not None:
        hand_off.clear()
    values, hand_off = run_phase(opt_b, "total", None)
    frozen = set(model.fusion_params()).isdisjoint(opt_b.params)
    return values, hand_off if frozen else None


def fit(schema, mods, labels, train_idx, cfg, n_classes, seed_key=None, meta=None):
    """Train a Model; returns (model, per-epoch history).

    Phase B's fusion and fixed-graph edge rule of each epoch are handed to the
    next epoch's phase A and to the cache, so a maff fit fuses E+1 times in E
    epochs and a knn fit builds E+1 neighbour lists. Early stopping reads the
    cache, refreshed after every epoch. The hand-off is local to this call."""
    model = Model(schema, n_classes, cfg, seed_key=seed_key, meta=meta)
    opt_a = nc.Adam(model.fusion_params() + model.agl_params(), cfg.lr)
    opt_b = nc.Adam(model.agl_params() + model.gcn_params(), cfg.lr)
    history = []
    best_acc, best_epoch = -1.0, -1
    hand_off = None
    for epoch in range(cfg.epochs):
        values, hand_off = train_epoch(model, mods, labels, train_idx, opt_a, opt_b, epoch,
                                       hand_off)
        history.append(values)
        if cfg.patience > 0:
            logits = model.refresh_cache(mods, hand_off)["logits"]
            acc = accuracy(logits[train_idx], labels[train_idx])
            if acc > best_acc:
                best_acc, best_epoch = acc, epoch
            elif epoch - best_epoch >= cfg.patience:
                break
    if cfg.patience == 0:
        model.refresh_cache(mods, hand_off)
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


def fold_summary(folds):
    """(mean, sample std, standard error) over the folds with a score (a fold
    of one test class has a NaN AUC). The guards keep nanmean and nanstd off
    the empty slices they warn on: one fold has std 0.0, one score NaN."""
    x = np.asarray(folds, dtype=np.float64)
    k = np.count_nonzero(~np.isnan(x))
    mean = float(np.nanmean(x)) if k else float("nan")
    std = 0.0 if x.size < 2 else float(np.nanstd(x, ddof=1)) if k > 1 else float("nan")
    return mean, std, std / np.sqrt(max(k, 1))


@dataclass
class Metrics:
    acc_folds: list
    auc_folds: list

    def __post_init__(self):
        self.mean_acc, self.std_acc, self.se_acc = fold_summary(self.acc_folds)
        self.mean_auc, self.std_auc, self.se_auc = fold_summary(self.auc_folds)


def evaluate(model, labels, test_idx):
    """Transductive accuracy and AUC on the held-out indices."""
    probs = nc.softmax_rows_values(model.cache["logits"])
    test_idx = np.asarray(test_idx)
    p = probs[test_idx]
    return accuracy(p, labels[test_idx]), auc(p, np.asarray(labels)[test_idx])


# Unseen patients are fused, and their (N, block) edge weights formed, in
# blocks of this many; the width is fixed so that a patient's values do not
# depend on the patients it shares a block with.
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
        z_train = model.graph_projection(h_train)
        return lambda h: agl.cosine_edges(z_train, model.graph_projection(h))
    if cfg.graph == "knn":
        return lambda h: agl.top_k(agl.rbf_kernel(h_train, h, cfg.rbf_sigma), cfg.knn_k, axis=0)
    if cfg.graph == "identity":
        return lambda h: np.zeros((h_train.shape[1], h.shape[1]))
    raise ParameterError("inductive prediction is not supported for meta graphs")


def predict_inductive_batch(model, mods):
    """Class distributions (B, C) for unseen patients given as (d_m, B) blocks.

    Each patient is scored as if it alone were attached to the trained graph
    (gcn.extend_adjacency): its edge weights w, a unit self-weight, training
    edges untouched. With A~ = A (+ I), P = H^T W0, s0 = deg^-1/2 of A~ and
    s = (deg + w)^-1/2 once the patient is attached, layer 1 of a training
    node j is s_j ((A~ (s o P))_j + w_j s_n p_n), where s_n^-2 = sum w + a~_nn.
    Only the patient's support S = {j : w_j > 0} reaches its logits, and s
    differs from s0 only on S, so the rows it needs are
    Q[S] + A~[S, S] ((s - s0)_S o P_S), with Q = A~ (s0 o P) formed once per
    call. A~[S, S] is read in row tiles over S (block.row_tiles with `nodes`);
    a call makes one tile pass over A~, for deg and Q together, as the
    training block's first pass does (block.normalized_product).

    Patients sit on the column axis of the fusion and edge-weight products,
    and the last block is padded with copies of the last patient. So each
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
    h_train, edges = model.cache["H"], model.cache["edges"]
    n_train = h_train.shape[1]
    self_w = 2.0 if model.cfg.add_self_loops else 1.0  # a node's own diagonal entry in A~
    w0, w1 = model.gcn.w0.value, model.gcn.w1.value
    p_train = h_train.T @ w0  # (N, d_h)
    deg, s0, _, q = block.normalized_product(n_train, edges, self_w, p_train,
                                             np.empty((n_train, 0)))  # q = A~ (s0 o P)
    probs = np.empty((n, model.n_classes))
    for lo in range(0, n, PREDICT_BLOCK):
        block_mods = [m[:, lo:lo + PREDICT_BLOCK] for m in mods]
        h = model.fuse(nc.Tape(trainable=()), block_mods)[0].value
        w = edge_weights(h)  # (N, block)
        s = 1.0 / np.sqrt(np.maximum(deg[:, None] + w, gcn.DEGREE_FLOOR))
        s_n = 1.0 / np.sqrt(np.maximum(w.sum(axis=0) + self_w, gcn.DEGREE_FLOOR))  # (block,)
        p_n = w0.T @ h  # (d_h, block)
        ws = w * s
        hid_n = np.maximum(s_n * (p_train.T @ ws + self_w * s_n * p_n), 0.0)  # (d_h, block)
        g = np.zeros_like(hid_n)
        for b in range(min(PREDICT_BLOCK, n - lo)):
            sup = np.flatnonzero(w[:, b])
            s_sup = s[sup, b]
            rhs = (s_sup - s0[sup])[:, None] * p_train[sup]
            u = np.empty_like(rhs)
            for r0, r1, a in block.row_tiles(n_train, edges, self_w, nodes=sup):
                u[r0:r1] = a @ rhs
                del a
            u += q[sup]
            u += (w[sup, b] * s_n[b])[:, None] * p_n[:, b]
            u *= s_sup[:, None]
            np.maximum(u, 0.0, out=u)  # hidden rows of the patient's neighbours
            # s_n (sum_j w_j s_j hidden_j + a~_nn s_n hidden_n), times W1 below
            g[:, b] = ws[sup, b] @ u + self_w * s_n[b] * hid_n[:, b]
        logits = s_n * (w1.T @ g)  # (C, block)
        probs[lo:lo + PREDICT_BLOCK] = nc.softmax_rows_values(
            np.ascontiguousarray(logits.T))[:n - lo]
    return probs


@dataclass
class FoldResult:
    fold: int
    acc: float
    auc: float
    history: list


@dataclass
class CvResult:
    metrics: Metrics
    folds: list  # FoldResult


def _run_fold(dataset, clean, cfg, f, train_idx, test_idx):
    ds = Preprocessor.fit(dataset, train_idx).transform(dataset) if clean is None else clean
    seed_key = [cfg.seed, 613, f]
    if cfg.eval_mode == "inductive":
        tr_mods = [m[:, train_idx] for m in ds.modalities]
        model, history = fit(ds.schema, tr_mods, ds.labels[train_idx], np.arange(train_idx.size),
                             cfg, ds.n_classes, seed_key=seed_key)
        probs_test = predict_inductive_batch(model, [m[:, test_idx] for m in ds.modalities])
        acc = accuracy(probs_test, ds.labels[test_idx])
        auc_v = auc(probs_test, ds.labels[test_idx])
    else:
        model, history = fit(ds.schema, ds.modalities, ds.labels, train_idx, cfg, ds.n_classes,
                             seed_key=seed_key, meta=meta_rows(ds, cfg))
        acc, auc_v = evaluate(model, ds.labels, test_idx)
    return FoldResult(fold=f, acc=acc, auc=auc_v, history=history)


def run_cv(dataset, cfg, k=10, threads=1):
    """Stratified K-fold cross-validation; deterministic under cfg.seed.

    Imputation and z-score statistics are fitted on each fold's training
    patients when the held-out fold is unseen (inductive) or
    `cfg.per_fold_stats` is set, else once on the cohort. Folds are
    independent, so `threads` > 1 runs them concurrently; results are reduced
    in fold order either way.
    """
    split = stratified_kfold(dataset.labels, k, cfg.seed)
    per_fold = cfg.per_fold_stats or cfg.eval_mode == "inductive"
    clean = None if per_fold else Preprocessor.fit(dataset).transform(dataset)
    jobs = [(f, train_idx, test_idx) for f, (train_idx, test_idx) in enumerate(split)]
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            folds = list(pool.map(lambda job: _run_fold(dataset, clean, cfg, *job), jobs))
    else:
        folds = [_run_fold(dataset, clean, cfg, *job) for job in jobs]
    metrics = Metrics([fr.acc for fr in folds], [fr.auc for fr in folds])
    return CvResult(metrics, folds)


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
    """Fusion x graph-construction grid of cross-validated metrics. Every
    cell's config is checked before the first cell trains."""
    cells = [replace(cfg, fusion=fusion, graph=graph) for fusion in fusions for graph in graphs]
    return [{"fusion": c.fusion, "graph": c.graph,
             "result": run_cv(dataset, c, k=k, threads=threads)} for c in cells]


def _fmt(x):
    return repr(float(x))


def write_metrics_csv(res, path):
    """Per-fold metrics plus aggregate rows; byte-stable for a fixed seed."""
    losses = ("task", "smooth", "con", "reg")
    rows = [[fr.fold, _fmt(fr.acc), _fmt(fr.auc)] + [_fmt(fr.history[-1][k]) for k in losses]
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
