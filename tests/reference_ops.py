"""Differentiable ops that only the tests compose: reference constructions
(per-head attention loops, term-by-term graph losses, loss reductions) built
from these and the `numcore` primitives serve as oracles for the fused tape
nodes in `mmgl`."""
import numpy as np

from mmgl.errors import DimensionError
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
