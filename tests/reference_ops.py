"""Reference implementations that only the tests use. Differentiable ops:
reference constructions (per-head attention loops, term-by-term graph losses,
loss reductions) built from these and the `numcore` primitives serve as
oracles for the tape layers in `mmgl`. Loops: the per-Param Adam step, the
cell-by-cell CSV parse and the patient-by-patient fold buckets are oracles
for their whole-array versions. CSV
writing: the csv module's writer is the oracle for the streaming table and
graph writers. Dense graphs: the kNN and meta graphs built whole are oracles for
their edge rules' row tiles, and `dense_graph` stacks those tiles for the
tests to inspect."""
import csv
import warnings

import numpy as np

from mmgl.agl import rbf_kernel, top_k
from mmgl.block import row_tiles
from mmgl.errors import DataError, DimensionError, ParameterError, ParseError, SchemaError
from mmgl.numcore import _tape_of, _wrap


def dense_graph(n, edges):
    """The (N, N) adjacency whose edge rule is `edges`, stacked from its row
    tiles."""
    return np.concatenate([a for _, _, a in row_tiles(n, edges)])


def knn_graph_rbf(h, k, sigma):
    """The RBF-kernel kNN graph (N, N) on features (d, N), symmetrised by
    max, from one (N, N) kernel product."""
    h = np.asarray(h, dtype=np.float64)
    n = h.shape[1]
    if not 1 <= k < n:
        raise ParameterError(f"k must be in [1, N), got k={k}, N={n}")
    if sigma <= 0:
        raise ParameterError(f"sigma must be positive, got {sigma}")
    w = rbf_kernel(h, h, sigma)
    np.fill_diagonal(w, -np.inf)  # self excluded from the neighbour ranking
    a = top_k(w, k, axis=1)
    a = np.maximum(a, a.T)
    np.fill_diagonal(a, 1.0)
    return a


def meta_graph(meta, threshold):
    """Agreement graph (N, N) over discrete meta feature rows (n_meta, N): the
    fraction of meta columns two patients agree on, kept only when the
    agreement count reaches `threshold`."""
    meta = np.asarray(meta)
    n_meta, n = meta.shape
    if not 1 <= threshold <= n_meta:
        raise ParameterError(f"threshold must be in [1, {n_meta}], got {threshold}")
    agree = np.zeros((n, n))
    for r in range(n_meta):
        agree += meta[r][:, None] == meta[r][None, :]
    a = np.where(agree >= threshold, agree / n_meta, 0.0)
    np.fill_diagonal(a, 1.0)
    return a


def log(a):
    tape = _tape_of(a)
    av = a.value

    def vjp(g):
        return (g / av,)

    return tape._record(np.log(av), (a,), vjp)


def sum_all(a):
    tape = _tape_of(a)
    shape = a.value.shape

    def vjp(g):
        return (np.broadcast_to(g, shape),)

    return tape._record(a.value.sum(), (a,), vjp)


def concat_rows(parts):
    """Stack 2-D blocks vertically (all must share the column count)."""
    parts = list(parts)
    tape = _tape_of(*parts)
    parts = [_wrap(p, tape) for p in parts]
    cols = {p.value.shape[1] for p in parts}
    if len(cols) != 1:
        raise DimensionError(f"concat_rows: mismatched column counts {sorted(cols)}")
    sizes = [p.value.shape[0] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        return tuple(g[offsets[i]:offsets[i + 1]] for i in range(len(parts)))

    return tape._record(np.concatenate([p.value for p in parts], axis=0), tuple(parts), vjp)


def slice_rows(a, start, stop):
    tape = _tape_of(a)
    shape = a.value.shape

    def vjp(g):
        out = np.zeros(shape)
        out[start:stop] = g
        return (out,)

    return tape._record(a.value[start:stop], (a,), vjp)


def take(a, i):
    """Block i of a stacked node, a[i], as a node."""
    tape = _tape_of(a)
    shape = a.value.shape

    def vjp(g):
        out = np.zeros(shape)
        out[i] = g
        return (out,)

    return tape._record(a.value[i], (a,), vjp)


def read_table_walk(path, schema, require_label=True):
    """Cell-by-cell CSV parse (`strip` and `float` per cell, in file order):
    the oracle for `mmgl.data.read_table`, which returns the same values
    (NaN where a cell is blank), labels and names and raises the same first
    error."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        rows = list(reader)
    if header is None:
        raise DataError(f"empty features file: {path}")
    has_label = schema.label_column in header
    if require_label and not has_label:
        raise SchemaError(f"label column {schema.label_column!r} missing from {path}")
    label_idx = header.index(schema.label_column) if has_label else None
    feat_cols = [i for i in range(len(header)) if i != label_idx]
    if len(feat_cols) != schema.d_in:
        raise SchemaError(f"schema dimensions sum to {schema.d_in} but file has "
                          f"{len(feat_cols)} feature columns")
    n = len(rows)
    if n == 0:
        raise DataError(f"no data rows in {path}")
    values = np.zeros((schema.d_in, n))
    blank = np.zeros((schema.d_in, n), dtype=bool)
    raw_labels = []
    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise ParseError(f"row {r + 2}: expected {len(header)} cells, got {len(row)}")
        if has_label:
            raw_labels.append(row[label_idx].strip())
        for j, c in enumerate(feat_cols):
            cell = row[c].strip()
            if cell == "":
                blank[j, r] = True
            else:
                try:
                    values[j, r] = float(cell)
                except ValueError:
                    raise ParseError(
                        f"row {r + 2}, column {header[c]!r}: non-numeric cell {cell!r}"
                    )
    bad = np.argwhere(~np.isfinite(values.T))
    if bad.size:
        r, j = bad[0]
        raise ParseError(f"row {r + 2}, column {header[feat_cols[j]]!r}: "
                         f"non-finite cell {rows[r][feat_cols[j]].strip()!r}")
    values[blank] = np.nan
    return values, raw_labels if has_label else None, [header[c] for c in feat_cols]


def kfold_buckets(labels, k, seed):
    """Stratified K-fold dealt patient by patient into k test buckets, each
    sorted, with the rest of [0, N) as its training set: the oracle for
    `mmgl.data.stratified_kfold`, which returns the same index arrays, dtypes
    included, and raises and warns the same."""
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
    return tuple(folds)


def write_features_csv(ds, path):
    """The dataset's feature table written by csv.writer from whole-table
    lists: the oracle for `mmgl.data.save_dataset`, which must write the same
    bytes."""
    classes = ds.schema.class_names
    labels = [classes[y] if classes else str(int(y)) for y in ds.labels]
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(ds.feature_names + [ds.schema.label_column])
        w.writerows(["" if np.isnan(v) else v for v in values] + [y]
                    for values, y in zip(ds.x.T.tolist(), labels))


def write_graph_csv(n, edges, path):
    """The graph whose edge rule is `edges` as csv.writer writes it from
    whole-graph rows: a self-loop of weight 1 per node, then each edge above
    the diagonal of the stacked graph. The oracle for `mmgl export --what
    graph`, which must write the same bytes."""
    a = dense_graph(n, edges)
    i, j = np.nonzero(np.triu(a, 1))
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["src", "dst", "weight"])
        w.writerows([v, v, 1.0] for v in range(n))
        w.writerows(zip(i.tolist(), j.tolist(), a[i, j].tolist()))


class AdamLoop:
    """Adam stepping one Param at a time: the oracle for the flat
    `mmgl.numcore.Adam`, which must match it bit for bit."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            mhat = m / (1 - b1 ** self.t)
            vhat = v / (1 - b2 ** self.t)
            p.value -= self.lr * mhat / (np.sqrt(vhat) + self.eps)
