"""Reference implementations that only the tests use. Differentiable ops:
reference constructions (per-head attention loops, term-by-term graph losses,
loss reductions) built from these and the `numcore` primitives serve as
oracles for the fused tape nodes in `mmgl`. Loops: the per-Param Adam step and
the cell-by-cell CSV parse are oracles for their whole-array versions."""
import csv

import numpy as np

from mmgl.errors import DimensionError, ParseError, SchemaError
from mmgl.numcore import _tape_of, _wrap


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


def read_table_walk(path, schema, require_label=True):
    """Cell-by-cell CSV parse (`strip` and `float` per cell, in file order):
    the oracle for `mmgl.data.read_table`, which returns the same values,
    mask and labels and raises the same first error."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        rows = list(reader)
    has_label = schema.label_column in header
    if require_label and not has_label:
        raise SchemaError(f"label column {schema.label_column!r} missing from {path}")
    label_idx = header.index(schema.label_column) if has_label else None
    feat_cols = [i for i in range(len(header)) if i != label_idx]
    n = len(rows)
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
    bad = np.argwhere(~np.isfinite(values.T))
    if bad.size:
        r, j = bad[0]
        raise ParseError(f"row {r + 2}, column {header[feat_cols[j]]!r}: "
                         f"non-finite cell {rows[r][feat_cols[j]].strip()!r}")
    return values, missing, raw_labels if has_label else None, [header[c] for c in feat_cols]


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
