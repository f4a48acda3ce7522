"""Multi-modal dataset model: CSV ingestion, imputation, normalisation,
stratified splitting, and synthetic data generation."""
from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field, replace
from numbers import Integral, Real

import numpy as np

from .errors import ConfigError, DataError, ParameterError, ParseError, SchemaError

_FIELD_TYPES = {"float": Real, "int": Integral, "str": str, "bool": bool}


def _is_int(x):
    return isinstance(x, Integral) and not isinstance(x, bool)


def _finite(x):
    try:
        return math.isfinite(x)
    except OverflowError:  # an int too large for a float
        return False


def check_field_types(cfg):
    """Raise ConfigError unless each dataclass field annotated float, int, str
    or bool holds that type (a bool is not a number here) and is finite."""
    for name, f in cfg.__dataclass_fields__.items():
        kind = _FIELD_TYPES.get(f.type)
        if kind is None:
            continue
        v = getattr(cfg, name)
        if not isinstance(v, kind) or (kind is not bool and isinstance(v, bool)):
            raise ConfigError(f"{name} must be of type {f.type}, got {v!r}")
        if kind is Real and not _finite(v):
            raise ConfigError(f"{name} must be finite, got {v!r}")


@dataclass(frozen=True)
class ModalitySchema:
    """Ordered modality layout of a flat feature table."""

    modalities: tuple  # ((name, dim), ...)
    label_column: str = "label"
    class_names: tuple = ()
    meta_columns: tuple = ()  # feature columns usable for meta-graph construction

    def __post_init__(self):
        if len(self.modalities) < 1:
            raise SchemaError("schema needs at least one modality")
        names = [n for n, _ in self.modalities]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate modality names: {names}")
        for n, d in self.modalities:
            if d < 1:
                raise SchemaError(f"modality {n!r} has non-positive dimension {d}")

    @property
    def n_modalities(self):
        return len(self.modalities)

    @property
    def dims(self):
        return [d for _, d in self.modalities]

    @property
    def names(self):
        return [n for n, _ in self.modalities]

    @property
    def d_in(self):
        return sum(self.dims)

    def split(self, flat):
        """Per-modality row blocks of a flat (d_in, ...) table or list."""
        ends = np.cumsum(self.dims)
        return [flat[end - d:end] for d, end in zip(self.dims, ends)]

    def to_dict(self):
        return {
            "modalities": [{"name": n, "dim": d} for n, d in self.modalities],
            "label_column": self.label_column,
            "class_names": list(self.class_names),
            "meta_columns": list(self.meta_columns),
        }

    @classmethod
    def from_dict(cls, obj):
        """Schema from parsed JSON; a field of the wrong type raises SchemaError."""
        if not isinstance(obj, dict) or not isinstance(obj.get("modalities"), list):
            raise SchemaError("malformed schema: needs an object with a 'modalities' list")
        mods = []
        for m in obj["modalities"]:
            if not isinstance(m, dict) or not isinstance(m.get("name"), str):
                raise SchemaError(f"malformed schema: modality {m!r} needs a string 'name'")
            dim = m.get("dim")
            if not isinstance(dim, int) or isinstance(dim, bool):
                raise SchemaError(f"malformed schema: modality {m['name']!r} needs an integer "
                                  f"'dim', got {dim!r}")
            mods.append((m["name"], dim))
        label_column = obj.get("label_column", "label")
        if not isinstance(label_column, str):
            raise SchemaError(f"malformed schema: 'label_column' must be a string, "
                              f"got {label_column!r}")
        names = {}
        for key in ("class_names", "meta_columns"):
            names[key] = obj.get(key, [])
            if not isinstance(names[key], list) or not all(isinstance(v, str)
                                                           for v in names[key]):
                raise SchemaError(f"malformed schema: {key!r} must be a list of strings, "
                                  f"got {names[key]!r}")
        return cls(tuple(mods), label_column, tuple(names["class_names"]),
                   tuple(names["meta_columns"]))

    def save(self, path):
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=2)
            f.write("\n")

    @classmethod
    def load(cls, path):
        return cls.from_dict(read_json(path, SchemaError))


def read_json(path, error):
    """Parsed JSON from `path`; an unreadable or malformed file raises `error`."""
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as exc:  # ValueError covers JSON and UTF-8 decoding
        raise error(f"cannot read {path}: {exc}") from exc


@dataclass
class MultiModalDataset:
    """Per-modality feature matrices (d_m x N) with labels and missing mask."""

    schema: ModalitySchema
    modalities: list  # list of float64 arrays, each (d_m, N)
    labels: np.ndarray  # (N,) int
    missing: list = None  # list of bool arrays, same shapes; None = fully observed
    feature_names: list = None  # per modality, list of column names

    def __post_init__(self):
        ns = {x.shape[1] for x in self.modalities}
        if len(ns) != 1:
            raise DataError(f"modalities disagree on sample count: {sorted(ns)}")
        for (name, d), x in zip(self.schema.modalities, self.modalities):
            if x.shape[0] != d:
                raise SchemaError(f"modality {name!r}: schema dim {d} != data dim {x.shape[0]}")
        if self.labels.shape != (self.n,):
            raise DataError(f"labels shape {self.labels.shape} != ({self.n},)")
        if self.feature_names is None:
            self.feature_names = [
                [f"{name}_{i}" for i in range(d)] for name, d in self.schema.modalities
            ]

    @property
    def n(self):
        return self.modalities[0].shape[1]

    @property
    def n_classes(self):
        if self.schema.class_names:
            return len(self.schema.class_names)
        return int(self.labels.max()) + 1

    @property
    def has_missing(self):
        return self.missing is not None and any(m.any() for m in self.missing)

    def stacked(self):
        """All features as one (d_in, N) matrix, modalities in schema order."""
        return np.concatenate(self.modalities, axis=0)

    def missing_mask(self):
        """The missing mask as one (d_in, N) matrix; all False if complete."""
        if self.missing is None:
            return np.zeros((self.schema.d_in, self.n), dtype=bool)
        return np.concatenate(self.missing, axis=0)

    def with_features(self, flat):
        """This dataset with its features taken from a complete (d_in, N) table."""
        return replace(self, modalities=self.schema.split(flat), missing=None)

    def flat_feature_names(self):
        return [c for cols in self.feature_names for c in cols]

    def meta_matrix(self):
        """Rows of the designated meta columns, or None if the schema has none."""
        if not self.schema.meta_columns:
            return None
        flat = self.stacked()
        names = self.flat_feature_names()
        rows = []
        for col in self.schema.meta_columns:
            if col not in names:
                raise SchemaError(f"meta column {col!r} not among features")
            rows.append(flat[names.index(col)])
        return np.array(rows)


def read_table(path, schema, require_label=True):
    """Parse a feature CSV against `schema`; empty cells become missing entries.

    Returns (values (d_in, N), missing mask, raw label strings, feature column
    names). The raw labels are None when the label column is absent, which is
    an error unless `require_label` is false.
    """
    try:
        with open(path, newline="") as f:
            reader = csv.reader(f)
            header = next(reader, None)
            rows = list(reader)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if header is None:
        raise DataError(f"empty features file: {path}")
    has_label = schema.label_column in header
    if require_label and not has_label:
        raise SchemaError(f"label column {schema.label_column!r} missing from {path}")
    label_idx = header.index(schema.label_column) if has_label else None
    feat_cols = [i for i in range(len(header)) if i != label_idx]
    if len(feat_cols) != schema.d_in:
        raise SchemaError(
            f"schema dimensions sum to {schema.d_in} but file has {len(feat_cols)} feature columns"
        )
    n = len(rows)
    if n == 0:
        raise DataError(f"no data rows in {path}")
    values = np.zeros((schema.d_in, n))
    missing = np.zeros((schema.d_in, n), dtype=bool)
    raw_labels = []
    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise ParseError(f"row {r + 2}: expected {len(header)} cells, got {len(row)}")
        if has_label:
            raw_labels.append(row[label_idx].strip())
        for j, c in enumerate(feat_cols):
            cell = row[c].strip()
            if cell == "":
                missing[j, r] = True
            else:
                try:
                    values[j, r] = float(cell)
                except ValueError:
                    raise ParseError(
                        f"row {r + 2}, column {header[c]!r}: non-numeric cell {cell!r}"
                    )
    bad = np.argwhere(~np.isfinite(values.T))  # float() accepts nan and inf
    if bad.size:
        r, j = bad[0]
        raise ParseError(f"row {r + 2}, column {header[feat_cols[j]]!r}: "
                         f"non-finite cell {rows[r][feat_cols[j]].strip()!r}")
    return values, missing, raw_labels if has_label else None, [header[c] for c in feat_cols]


def write_csv(path, header, rows):
    """Write a header row, then `rows`, to a CSV file."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def load_csv(features_path, schema_path):
    """Load a labelled feature table and its schema into a dataset."""
    schema = ModalitySchema.load(schema_path)
    values, missing, raw_labels, fnames = read_table(features_path, schema)
    labels = _encode_labels(raw_labels, schema)
    split = schema.split
    return MultiModalDataset(schema, split(values), labels, split(missing), split(fnames))


def _encode_labels(raw, schema):
    if schema.class_names:
        lut = {name: i for i, name in enumerate(schema.class_names)}
        out = np.empty(len(raw), dtype=np.int64)
        for i, v in enumerate(raw):
            if v in lut:
                out[i] = lut[v]
            else:
                try:
                    out[i] = int(v)
                except ValueError:
                    raise DataError(f"unknown class label {v!r}; classes: {schema.class_names}")
        if out.min() < 0 or out.max() >= len(schema.class_names):
            raise DataError(f"label index outside [0, {len(schema.class_names)})")
        return out
    try:
        return np.array([int(v) for v in raw], dtype=np.int64)
    except ValueError:
        names = sorted(set(raw))
        lut = {v: i for i, v in enumerate(names)}
        return np.array([lut[v] for v in raw], dtype=np.int64)


def _impute(ds, rows=None):
    """(means, imputed (d_in, N) table): each feature's mean over its observed
    cells among `rows` (all rows if None) fills its missing cells."""
    x, missing = ds.stacked(), ds.missing_mask()
    ref = np.ones(ds.n, dtype=bool) if rows is None else np.isin(np.arange(ds.n), rows)
    # one 1-D mean per row: a 2-D mean(axis=1) sums in another order
    means = np.array([row.mean() for row in (x if rows is None else x[:, ref])])
    for j in np.flatnonzero(missing.any(axis=1)):
        observed = ref & ~missing[j]
        if not observed.any():
            name = ds.flat_feature_names()[j]
            raise DataError(f"feature {name!r} has no observed values to impute from")
        means[j] = x[j, observed].mean()
    return means, np.where(missing, means[:, None], x)


@dataclass(frozen=True, eq=False)
class Preprocessor:
    """Mean imputation then z-scoring, with per-feature (d_in,) statistics
    fitted on training rows; the one transform for training, CV folds and
    unseen patients. Features with near-zero spread map to zero."""

    impute_means: np.ndarray
    z_mu: np.ndarray
    z_sd: np.ndarray

    @classmethod
    def fit(cls, ds, rows=None):
        """Imputation means from the observed cells among `rows` (all rows if
        None), then z-score statistics of the imputed `rows`."""
        means, x = _impute(ds, rows)
        ref = x if rows is None else x[:, np.asarray(rows)]
        return cls(means, ref.mean(axis=1), ref.std(axis=1))

    def apply(self, x, missing):
        """Transformed copy of a raw (d_in, N) table with its missing mask."""
        x = np.where(missing, self.impute_means[:, None], x)
        const = self.z_sd < 1e-12
        x -= self.z_mu[:, None]
        x /= np.where(const, 1.0, self.z_sd)[:, None]
        x[const] = 0.0
        return x

    def transform(self, ds):
        return ds.with_features(self.apply(ds.stacked(), ds.missing_mask()))


def impute_mean(ds, train_idx=None):
    """Replace every missing entry by its feature's observed mean; the means
    come from the `train_idx` columns if given."""
    if not ds.has_missing:
        return replace(ds, missing=None)
    return ds.with_features(_impute(ds, train_idx)[1])


def zscore(ds, train_idx=None):
    """Standardise each feature; statistics from `train_idx` columns if given.

    Features with near-zero spread are zeroed out.
    """
    if ds.has_missing:
        raise DataError("zscore requires an imputed dataset (missing values remain)")
    return Preprocessor.fit(ds, train_idx).transform(ds)


@dataclass(frozen=True)
class SplitPlan:
    """K disjoint (train, test) index pairs covering [0, N)."""

    folds: tuple  # ((train, test), ...)
    k: int
    seed: int


def stratified_kfold(labels, k, seed):
    """Deterministic stratified K-fold; per-fold class counts within +-1."""
    labels = np.asarray(labels)
    n = labels.size
    if k < 2:
        raise ParameterError(f"need at least 2 folds, got {k}")
    if k > n:
        raise ParameterError(f"k={k} exceeds sample count {n}")
    rng = np.random.default_rng(seed)
    test_buckets = [[] for _ in range(k)]
    offset = 0
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        if idx.size < k:
            warnings.warn(
                f"class {cls} has {idx.size} < {k} members; stratification is best-effort"
            )
        idx = rng.permutation(idx)
        for i, sample in enumerate(idx):
            test_buckets[(offset + i) % k].append(int(sample))
        offset = (offset + idx.size) % k
    folds = []
    everything = np.arange(n)
    for bucket in test_buckets:
        test = np.array(sorted(bucket), dtype=np.int64)
        train = np.setdiff1d(everything, test)
        folds.append((train, test))
    return SplitPlan(tuple(folds), k, seed)


@dataclass(frozen=True)
class SynthConfig:
    """Synthetic multi-modal generator settings.

    pattern:
      "all"            every modality carries class centers
      "none"           no class signal anywhere
      [names...]       only the listed modalities carry class centers
      "complementary"  each modality has a single offset direction shared by
                       its two assigned classes, so one modality alone can at
                       best split one class from the rest; additionally every
                       patient has one randomly chosen modality swamped by
                       heavy noise.  Classes are only identifiable jointly.
    """

    n: int = 200
    classes: int = 3
    modality_dims: tuple = (8, 8, 8)
    separation: float = 4.0
    noise: float = 1.0
    pattern: object = "all"
    missing_rate: float = 0.0
    corruption: float = 6.0  # noise multiplier for the per-patient corrupted modality
    meta_dims: int = 0  # extra discrete meta columns appended as a "meta" modality
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        dims = self.modality_dims
        if not isinstance(dims, (tuple, list)) or not dims or \
                not all(_is_int(d) and d >= 1 for d in dims):
            raise ConfigError(f"modality_dims must be a non-empty list of ints >= 1, got {dims!r}")
        if isinstance(self.pattern, str):
            if self.pattern not in ("all", "none", "complementary"):
                raise ConfigError(f"unknown pattern {self.pattern!r}")
        elif not isinstance(self.pattern, (tuple, list)) or \
                not all(isinstance(p, str) or _is_int(p) for p in self.pattern):
            raise ConfigError(
                f"pattern must be a keyword or a list of modality names/indices, got {self.pattern!r}")
        if self.separation < 0:
            raise ConfigError(f"separation must be >= 0, got {self.separation}")
        if self.noise <= 0:
            raise ConfigError(f"noise must be > 0, got {self.noise}")
        if self.classes < 2:
            raise ConfigError(f"need >= 2 classes, got {self.classes}")
        if self.n < self.classes:
            raise ConfigError(f"n={self.n} smaller than class count {self.classes}")
        if not 0.0 <= self.missing_rate < 1.0:
            raise ConfigError(f"missing_rate must be in [0, 1), got {self.missing_rate}")
        if self.corruption < 0:
            raise ConfigError(f"corruption must be >= 0, got {self.corruption}")
        for name in ("meta_dims", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.pattern == "complementary" and len(dims) < 2:
            raise ConfigError("complementary pattern needs at least 2 modalities")

    @classmethod
    def from_dict(cls, obj):
        if not isinstance(obj, dict):
            raise ConfigError(f"synthetic config must be a JSON object, got {type(obj).__name__}")
        obj = {k: tuple(v) if isinstance(v, list) else v for k, v in obj.items()}
        try:
            return cls(**obj)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad synthetic config: {exc}") from exc

    @classmethod
    def load(cls, path):
        return cls.from_dict(read_json(path, ConfigError))


def _synth_schema(cfg):
    mods = [(f"mod{m + 1}", d) for m, d in enumerate(cfg.modality_dims)]
    meta_cols = ()
    if cfg.meta_dims > 0:
        mods.append(("meta", cfg.meta_dims))
        meta_cols = tuple(f"meta_{i}" for i in range(cfg.meta_dims))
    classes = tuple(f"c{c}" for c in range(cfg.classes))
    return ModalitySchema(tuple(mods), "label", classes, meta_cols)


def _carriers(classes, n_mods):
    """Boolean (classes, n_mods) table: which modalities carry which class.

    Each class gets exactly two carrier modalities (cyclically assigned), so
    no modality sees class centers for every class once C >= n_mods >= 3.
    """
    table = np.zeros((classes, n_mods), dtype=bool)
    for c in range(classes):
        table[c, c % n_mods] = True
        table[c, (c + 1) % n_mods] = True
    return table


def synth_centers(cfg):
    """Class-conditional mean per (class, modality) for blob generation.

    Uninformative modalities share one center across classes.  Complementary
    mode gives each modality one direction of norm `separation`, used as the
    center for its carrier classes; all other classes sit at the origin.
    """
    centers = []
    complementary = cfg.pattern == "complementary"
    carriers = _carriers(cfg.classes, len(cfg.modality_dims)) if complementary else None
    for m, d in enumerate(cfg.modality_dims):
        rng = np.random.default_rng([cfg.seed, 17, m])
        per_class = rng.normal(size=(cfg.classes, d))
        shared = rng.normal(size=d)
        if complementary:
            delta = shared / max(np.linalg.norm(shared), 1e-12) * cfg.separation
            centers.append(np.outer(carriers[:, m].astype(float), delta))
        elif _is_informative(cfg.pattern, m, len(cfg.modality_dims)):
            centers.append(per_class * cfg.separation)
        else:
            centers.append(np.tile(shared, (cfg.classes, 1)))
    return centers


def _is_informative(pattern, m, n_mods):
    if pattern == "all":
        return True
    if pattern in ("none", "complementary"):
        return False
    return f"mod{m + 1}" in pattern or m in pattern


@np.errstate(over="ignore", invalid="ignore")  # non-finite features are refused below
def synth_generate(cfg):
    """Draw a MultiModalDataset per the generator config; deterministic in seed."""
    schema = _synth_schema(cfg)
    n_mods = len(cfg.modality_dims)
    rng = np.random.default_rng([cfg.seed, 29])
    labels = np.resize(np.arange(cfg.classes), cfg.n)
    labels = rng.permutation(labels).astype(np.int64)

    mods = []
    centers = synth_centers(cfg)
    for m, d in enumerate(cfg.modality_dims):
        mu = centers[m][labels].T  # (d, n)
        mods.append(mu + cfg.noise * rng.normal(size=(d, cfg.n)))
    if cfg.pattern == "complementary":
        # one modality per patient is unreliable: its features are swamped by
        # heavy zero-mean noise, so classifiers must weigh modalities per patient
        bad_rng = np.random.default_rng([cfg.seed, 31])
        bad = bad_rng.integers(0, n_mods, size=cfg.n)
        for m in range(n_mods):
            hit = bad == m
            if hit.any():
                extra = bad_rng.normal(size=(cfg.modality_dims[m], int(hit.sum())))
                mods[m][:, hit] += cfg.corruption * cfg.noise * extra
    if not all(np.isfinite(x).all() for x in mods):
        raise ConfigError("synthetic config gives non-finite features; "
                          "lower separation, noise or corruption")

    if cfg.meta_dims > 0:
        meta_rng = np.random.default_rng([cfg.seed, 37])
        # discrete, weakly label-correlated columns (popGCN-style meta features)
        meta = np.where(
            meta_rng.random((cfg.meta_dims, cfg.n)) < 0.7,
            labels[None, :] % 3,
            meta_rng.integers(0, 3, size=(cfg.meta_dims, cfg.n)),
        ).astype(np.float64)
        mods.append(meta)

    missing = None
    if cfg.missing_rate > 0:
        miss_rng = np.random.default_rng([cfg.seed, 41])
        missing = [miss_rng.random(x.shape) < cfg.missing_rate for x in mods]
    return MultiModalDataset(schema, mods, labels, missing)


def save_dataset(ds, features_path, schema_path):
    """Write features CSV (empty cell = missing) and the schema JSON."""
    ds.schema.save(schema_path)
    flat, mask = ds.stacked(), ds.missing_mask()
    classes = ds.schema.class_names
    labels = [classes[y] if classes else str(int(y)) for y in ds.labels]
    # csv writes a Python float as its repr, the shortest round-trip form
    write_csv(features_path, ds.flat_feature_names() + [ds.schema.label_column],
              (["" if m else v for v, m in zip(values, missed)] + [y]
               for values, missed, y in zip(flat.T.tolist(), mask.T.tolist(), labels)))
