"""Multi-modal dataset model: CSV ingestion, imputation, normalisation,
stratified splitting, and synthetic data generation."""
from __future__ import annotations

import csv
import io
import json
import math
import re
import warnings
from array import array
from dataclasses import dataclass, replace
from itertools import chain
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
    """One (d_in, N) feature table, modalities in schema order, with labels
    and its column names; a NaN cell is missing. `modalities` views the table
    as the schema's per-modality (d_m, N) row blocks, without copying."""

    schema: ModalitySchema
    x: np.ndarray  # (d_in, N) float64, NaN where a cell is missing
    labels: np.ndarray  # (N,) int
    feature_names: list = None  # d_in column names

    def __post_init__(self):
        if self.x.ndim != 2 or len(self.x) != self.schema.d_in:
            raise SchemaError(f"schema dimensions sum to {self.schema.d_in} but the feature "
                              f"table has shape {self.x.shape}")
        if self.labels.shape != (self.n,):
            raise DataError(f"labels shape {self.labels.shape} != ({self.n},)")
        if self.feature_names is None:
            self.feature_names = [f"{name}_{i}" for name, d in self.schema.modalities
                                  for i in range(d)]

    @property
    def n(self):
        return self.x.shape[1]

    @property
    def modalities(self):
        return self.schema.split(self.x)

    @property
    def n_classes(self):
        if self.schema.class_names:
            return len(self.schema.class_names)
        return int(self.labels.max()) + 1

    def meta_matrix(self):
        """Rows of the designated meta columns, or None if the schema has none."""
        if not self.schema.meta_columns:
            return None
        for col in self.schema.meta_columns:
            if col not in self.feature_names:
                raise SchemaError(f"meta column {col!r} not among features")
        return self.x[[self.feature_names.index(col) for col in self.schema.meta_columns]]


def read_table(path, schema, require_label=True):
    """Parse a feature CSV against `schema`; a blank cell is read as NaN.

    Returns (values (d_in, N), raw label strings, feature column names). A
    literal non-finite cell is refused, so a NaN value is a blank cell. The
    raw labels are None when the label column is absent, which is an error
    unless `require_label` is false. A regular table, blank cells included,
    is read by numpy in one pass (`_read_regular`); any other, and input that
    cannot rewind, is walked one cell at a time (`_walk_cells`), where a short
    or long row or a non-numeric cell stops the parse, and a non-finite cell
    is reported once every row has parsed.
    """
    try:
        with open(path, newline="") as f:
            reader = csv.reader(f)
            header = next(reader, None)
            if header is None:
                raise DataError(f"empty features file: {path}")
            if header:  # a UTF-8 byte-order mark is not part of the first name
                header[0] = header[0].removeprefix("\ufeff")
            has_label = schema.label_column in header
            if require_label and not has_label:
                raise SchemaError(f"label column {schema.label_column!r} missing from {path}")
            label_idx = header.index(schema.label_column) if has_label else None
            feat_cols = [i for i in range(len(header)) if i != label_idx]
            if len(feat_cols) != schema.d_in:
                raise SchemaError(f"schema dimensions sum to {schema.d_in} but file has "
                                  f"{len(feat_cols)} feature columns")
            names = [header[c] for c in feat_cols]
            if f.seekable():  # a pipe cannot rewind for the walk, so it takes the walk alone
                if (regular := _read_regular(f, len(header), label_idx, schema.d_in)) is not None:
                    return (*regular, names)
                f.seek(0)
                next(reader)
            values, labels = _walk_cells(reader, header, label_idx, feat_cols)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not values.shape[1]:
        raise DataError(f"no data rows in {path}")
    return values, labels, names


def _read_regular(f, n_cells, k, d_in):
    """(values, stripped labels of column k or None) of the rest of `f` in one
    streaming np.loadtxt pass, with column k cut from each line; None if the
    table needs the walk: if a line is blank, holds a quote or is longer than
    csv's field limit, a row has other than `n_cells` cells, or a feature cell
    is whitespace only, non-finite or a number only float() reads ("1_0",
    non-ASCII digits). A cell numpy's parser reads, float() reads to the same
    bits. A blank cell is fed to numpy as "nan". Every spelling of nan or inf
    holds an "n" or "N", and no finite number's does, so a line holding either
    outside its label goes to the walk; "1e400" overflows to inf and does too."""
    first, labels, limit = next(f, None), [], csv.field_size_limit()
    if first is None:
        return None

    def lines():
        for line in chain([first], f):
            if '"' in line or line.isspace() or len(line) > limit:
                raise ValueError("irregular line")
            if k is not None:  # cut out the label, splitting from the nearer end
                if 2 * k < n_cells:
                    *head, label, tail = line.split(",", k + 1)
                    line = ",".join([*head, tail])
                else:
                    head, label, *tail = line.rsplit(",", n_cells - k)
                    line = ",".join([head, *tail])
                labels.append(label.strip())
            if "n" in line or "N" in line:
                raise ValueError("non-finite cell")
            # a blank cell: a line of nothing but its end, or a comma first, last
            # or next to another (re finds ",," in about 2/3 of the time `in` takes)
            if line[:1] in ",\r\n" or line.endswith((",", ",\n", ",\r", ",\r\n")) \
                    or re.search(",,", line):
                line = line.rstrip("\r\n")
                line = f",{line},".replace(",,", ",nan,").replace(",,", ",nan,")[1:-1]
            yield line

    try:
        values = np.ascontiguousarray(np.loadtxt(lines(), np.float64, comments=None,
                                                 delimiter=",", ndmin=2).T)
    except ValueError:  # also a UTF-8 decoding error, which the walk reports
        return None
    # np.loadtxt has checked that all rows are as long
    if len(values) != d_in or np.isinf(values).any():
        return None
    return values, labels if k is not None else None


def _walk_cells(reader, header, label_idx, feat_cols):
    """(values, stripped labels or None) of the rows of `reader`, parsed cell
    by cell in file order with one row's strings held at a time, a blank cell
    as NaN; raises ParseError at the first short or long row or non-numeric
    cell, and at the first non-finite cell once every row has parsed."""
    values, labels, non_finite = array("d"), [], None
    for r, row in enumerate(reader, 2):
        if len(row) != len(header):
            raise ParseError(f"row {r}: expected {len(header)} cells, got {len(row)}")
        for c in feat_cols:
            cell = row[c].strip()
            try:
                values.append(float(cell or "nan"))
            except ValueError:
                raise ParseError(f"row {r}, column {header[c]!r}: "
                                 f"non-numeric cell {cell!r}") from None
            if non_finite is None and cell and not math.isfinite(values[-1]):
                non_finite = f"row {r}, column {header[c]!r}: non-finite cell {cell!r}"
        if label_idx is not None:
            labels.append(row[label_idx].strip())
    if non_finite is not None:
        raise ParseError(non_finite)
    values = np.frombuffer(values).reshape(-1, len(feat_cols)).T.copy()
    return values, labels if label_idx is not None else None


def write_csv(path, header, rows):
    """Write a header row, then `rows`, to a CSV file."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def load_csv(features_path, schema_path):
    """Load a labelled feature table and its schema into a dataset, whose
    table and names are `read_table`'s, not copies."""
    schema = ModalitySchema.load(schema_path)
    values, raw_labels, names = read_table(features_path, schema)
    return MultiModalDataset(schema, values, _encode_labels(raw_labels, schema), names)


def _encode_labels(raw, schema):
    """Class indices: a label's place in `class_names`, or an integer index;
    without `class_names`, integer labels must cover 0..K-1, and other labels
    are classes in sorted order."""
    col = schema.label_column
    if "" in raw:  # the header is row 1
        raise DataError(f"row {raw.index('') + 2}: blank label in column {col!r}")
    if schema.class_names:
        lut = {name: i for i, name in enumerate(schema.class_names)}
        out = np.empty(len(raw), dtype=np.int64)
        for i, v in enumerate(raw):
            try:
                out[i] = lut[v] if v in lut else int(v)
            except (ValueError, OverflowError):
                raise DataError(f"row {i + 2}: unknown class label {v!r}; "
                                f"classes: {schema.class_names}")
        k = len(schema.class_names)
        bad = np.flatnonzero((out < 0) | (out >= k))
        if bad.size:
            raise DataError(f"row {bad[0] + 2}: label index {raw[bad[0]]!r} outside [0, {k})")
        return out
    try:  # clipped to [-1, N]: an index of N or more is refused below as unused anyway
        out = np.array([min(max(int(v), -1), len(raw)) for v in raw], dtype=np.int64)
    except ValueError:
        lut = {v: i for i, v in enumerate(sorted(set(raw)))}
        return np.array([lut[v] for v in raw], dtype=np.int64)
    neg = np.flatnonzero(out < 0)
    if neg.size:
        raise DataError(f"row {neg[0] + 2}: negative class index {raw[neg[0]]!r} in column {col!r}")
    present = np.unique(out)  # not max+1 slots: a label of 10**12 allocates nothing
    unused = np.flatnonzero(present != np.arange(present.size))
    if unused.size:
        raise DataError(f"class index {unused[0]} is unused in column {col!r}: integer labels "
                        f"must cover 0..K-1, or the schema must name them in 'class_names'")
    return out


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
        """Statistics of the patients `rows` (all if None): imputation means over
        each feature's observed cells among the distinct patients in index order,
        then z-score statistics of the imputed cells of `rows` as given."""
        ref = ds.x if rows is None else ds.x[:, np.isin(np.arange(ds.n), rows)]
        holes = np.isnan(ref)
        if (empty := np.flatnonzero(holes.all(axis=1))).size:
            among = "" if rows is None else " among the patients the statistics are fitted on"
            raise DataError(f"feature {ds.feature_names[empty[0]]!r} has no observed values "
                            f"to impute from{among}")
        # one 1-D mean per row: a 2-D mean(axis=1) sums in another order
        means = np.array([row[~np.isnan(row)].mean() if gap else row.mean()
                          for row, gap in zip(ref, holes.any(axis=1))])
        x = ref if rows is None else ds.x[:, np.asarray(rows)]
        x = np.where(holes if x is ref else np.isnan(x), means[:, None], x)
        return cls(means, x.mean(axis=1), x.std(axis=1))

    def apply(self, x):
        """Transformed copy of a raw (d_in, N) table; NaN cells are imputed."""
        x = np.where(np.isnan(x), self.impute_means[:, None], x)
        const = self.z_sd < 1e-12
        x -= self.z_mu[:, None]
        x /= np.where(const, 1.0, self.z_sd)[:, None]
        x[const] = 0.0
        return x

    def transform(self, ds):
        """`ds` with its table transformed and no cell missing."""
        return replace(ds, x=self.apply(ds.x))


def impute_mean(ds, train_idx=None):
    """`ds` with each NaN cell filled by `Preprocessor.fit(ds, train_idx)`'s mean."""
    means = Preprocessor.fit(ds, train_idx).impute_means[:, None]
    return replace(ds, x=np.where(np.isnan(ds.x), means, ds.x))


def zscore(ds, train_idx=None):
    """Standardise each feature; statistics from `train_idx` columns if given.

    Features with near-zero spread are zeroed out.
    """
    if np.isnan(ds.x).any():
        raise DataError("zscore requires an imputed dataset (missing values remain)")
    return Preprocessor.fit(ds, train_idx).transform(ds)


def stratified_kfold(labels, k, seed):
    """Deterministic stratified K-fold: k (train, test) index pairs covering
    [0, N). Each class, shuffled, is dealt round the folds from where the class
    before stopped, so per-fold class counts are within +-1."""
    labels = np.asarray(labels)
    n = labels.size
    if k < 2:
        raise ParameterError(f"need at least 2 folds, got {k}")
    if k > n:
        raise ParameterError(f"k={k} exceeds sample count {n}")
    rng = np.random.default_rng(seed)
    fold = np.full(n, -1)
    offset = 0
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        if idx.size < k:
            warnings.warn(
                f"class {cls} has {idx.size} < {k} members; stratification is best-effort"
            )
        fold[rng.permutation(idx)] = (offset + np.arange(idx.size)) % k
        offset = (offset + idx.size) % k
    return tuple((np.flatnonzero(fold != f), np.flatnonzero(fold == f)) for f in range(k))


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
        elif not isinstance(self.pattern, (tuple, list)):
            raise ConfigError(f"pattern must be a keyword or a list, got {self.pattern!r}")
        elif unknown := [p for p in self.pattern if not (_is_int(p) and 0 <= p < len(dims))
                         and p not in [f"mod{m + 1}" for m in range(len(dims))]]:
            raise ConfigError(f"pattern entry {unknown[0]!r} names no modality: use mod1 to "
                              f"mod{len(dims)} or 0 to {len(dims) - 1}")
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
    """Draw a MultiModalDataset per the generator config; deterministic in seed.
    Each modality, and the meta columns, are drawn into their rows of one table."""
    d_in = sum(cfg.modality_dims) + cfg.meta_dims
    n_mods = len(cfg.modality_dims)
    rng = np.random.default_rng([cfg.seed, 29])
    try:
        labels = np.resize(np.arange(cfg.classes), cfg.n)
        x = np.empty((d_in, cfg.n))
    # numpy raises ValueError or OverflowError for a dimension past its index range
    except (MemoryError, ValueError, OverflowError) as exc:
        raise ConfigError(f"synthetic config asks for a table of {d_in} features x "
                          f"{cfg.n} patients, more than numpy can allocate") from exc
    schema = _synth_schema(cfg)  # one name per class and meta column: after the size check
    labels = rng.permutation(labels).astype(np.int64)

    mods = schema.split(x)
    centers = synth_centers(cfg)
    for m, d in enumerate(cfg.modality_dims):
        mods[m][:] = centers[m][labels].T + cfg.noise * rng.normal(size=(d, cfg.n))
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
    if cfg.meta_dims > 0:
        meta_rng = np.random.default_rng([cfg.seed, 37])
        # discrete, weakly label-correlated columns (popGCN-style meta features)
        mods[-1][:] = np.where(
            meta_rng.random((cfg.meta_dims, cfg.n)) < 0.7,
            labels[None, :] % 3,
            meta_rng.integers(0, 3, size=(cfg.meta_dims, cfg.n)),
        )
    if not np.isfinite(x).all():
        raise ConfigError("synthetic config gives non-finite features; "
                          "lower separation, noise or corruption")
    if cfg.missing_rate > 0:
        x[np.random.default_rng([cfg.seed, 41]).random(x.shape) < cfg.missing_rate] = np.nan
    return MultiModalDataset(schema, x, labels)


def save_dataset(ds, features_path, schema_path):
    """Write features CSV (empty cell = NaN) and the schema JSON.

    The table is written one patient at a time, each feature cell as its
    value's repr. That is what the csv module writes for a Python float, and
    its minimal quoting never quotes one, so the bytes are those of a
    csv.writer; only a label cell can need quoting, which csv works out once
    per class."""
    ds.schema.save(schema_path)
    classes = ds.schema.class_names
    ends = {y: _line_end(classes[y] if classes else str(y)) for y in set(ds.labels.tolist())}
    with open(features_path, "w", newline="") as f:
        csv.writer(f).writerow(ds.feature_names + [ds.schema.label_column])
        for values, y in zip(ds.x.T, ds.labels.tolist()):
            # no other float's repr holds "nan"
            f.write(",".join(map(repr, values.tolist())).replace("nan", "") + ends[y])


def _line_end(label):
    """A delimiter, `label` as csv writes it after another cell, and csv's
    line terminator."""
    buf = io.StringIO()
    csv.writer(buf).writerow(["", label])
    return buf.getvalue()
