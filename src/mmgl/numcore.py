"""Dense float64 matrix ops with reverse-mode differentiation.

A `Tape` records every primitive applied during a forward pass; `Tape.backward`
replays the records in reverse and accumulates gradients into the participating
`Param`s. A tape can be given the set of Params it trains: a node that no
trainable Param feeds gets no gradient and its VJP never runs. All values are
numpy float64 arrays; broadcasting follows numpy rules and is undone in the
adjoints.
"""
from __future__ import annotations

import numpy as np

from .errors import DataError, DimensionError, MmglError, ParameterError


class Param:
    """Trainable weight: value plus a same-shaped gradient accumulator."""

    def __init__(self, value, name=""):
        self.value = np.array(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        self.name = name

    def zero_grad(self):
        self.grad[...] = 0.0

    def __repr__(self):
        return f"Param({self.name!r}, shape={self.value.shape})"


def glorot(rng, rows, cols, name=""):
    """Uniform(-sqrt(6/(rows+cols)), +...) initialisation."""
    limit = np.sqrt(6.0 / (rows + cols))
    return Param(rng.uniform(-limit, limit, size=(rows, cols)), name=name)


class Node:
    """One recorded value in a forward pass."""

    __slots__ = ("value", "tape", "grad", "needs_grad", "_parents", "_vjp", "_param")

    def __init__(self, value, tape, parents=(), vjp=None, param=None, needs_grad=False):
        self.value = value
        self.tape = tape
        self.grad = None
        self.needs_grad = needs_grad  # a trainable Param feeds this node
        self._parents = parents
        self._vjp = vjp
        self._param = param

    @property
    def shape(self):
        return self.value.shape

    @property
    def T(self):
        return transpose(self)

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


class Tape:
    """Ordered record of primitives; one backward pass per forward pass.

    `trainable`: the Params whose gradients backward forms; None trains every
    Param entered with `leaf`. A VJP may skip the parents whose `needs_grad`
    is False: backward discards what it returns for them.
    """

    def __init__(self, trainable=None):
        self.nodes = []
        self.trainable = None if trainable is None else set(trainable)
        self._done = False

    def _record(self, value, parents=(), vjp=None, param=None):
        if param is not None:
            needs_grad = self.trainable is None or param in self.trainable
        else:
            needs_grad = any(p.needs_grad for p in parents)
        node = Node(np.asarray(value, dtype=np.float64), self, parents, vjp, param, needs_grad)
        self.nodes.append(node)
        return node

    def leaf(self, param):
        """Enter a Param into the graph; its grad receives the adjoint."""
        return self._record(param.value, param=param)

    def const(self, value):
        """Non-differentiable input."""
        return self._record(value)

    def backward(self, loss):
        """Accumulate d(loss)/d(param) into every participating Param.grad."""
        if self._done:
            raise MmglError("backward already ran on this tape; build a new forward pass")
        if not isinstance(loss, Node) or loss.tape is not self:
            raise ParameterError("loss must be a Node recorded on this tape")
        if loss.value.size != 1:
            raise ParameterError(f"loss must be scalar, got shape {loss.value.shape}")
        self._done = True
        if not loss.needs_grad:
            return
        loss.grad = np.ones_like(loss.value)
        for node in reversed(self.nodes):
            g = node.grad
            if g is None:
                continue
            if node._param is not None:
                node._param.grad += g
            if node._vjp is not None:
                for parent, pg in zip(node._parents, node._vjp(g)):
                    if pg is None or not parent.needs_grad:
                        continue
                    # node grads are never mutated in place, so aliasing is safe
                    parent.grad = pg if parent.grad is None else parent.grad + pg


def _wrap(x, tape):
    if isinstance(x, Node):
        return x
    return tape.const(x)


def _tape_of(*xs):
    for x in xs:
        if isinstance(x, Node):
            return x.tape
    raise ParameterError("at least one operand must be a Node")


def _unbroadcast(g, shape):
    """Sum g down to `shape` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, (gs, ss) in enumerate(zip(g.shape, shape)):
        if ss == 1 and gs != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


def add(a, b):
    tape = _tape_of(a, b)
    a, b = _wrap(a, tape), _wrap(b, tape)

    def vjp(g):
        return _unbroadcast(g, a.value.shape), _unbroadcast(g, b.value.shape)

    return tape._record(a.value + b.value, (a, b), vjp)


def sub(a, b):
    tape = _tape_of(a, b)
    a, b = _wrap(a, tape), _wrap(b, tape)

    def vjp(g):
        return _unbroadcast(g, a.value.shape), _unbroadcast(-g, b.value.shape)

    return tape._record(a.value - b.value, (a, b), vjp)


def mul(a, b):
    tape = _tape_of(a, b)
    a, b = _wrap(a, tape), _wrap(b, tape)
    av, bv = a.value, b.value

    def vjp(g):
        return _unbroadcast(g * bv, av.shape), _unbroadcast(g * av, bv.shape)

    return tape._record(av * bv, (a, b), vjp)


def div(a, b):
    tape = _tape_of(a, b)
    a, b = _wrap(a, tape), _wrap(b, tape)
    av, bv = a.value, b.value

    def vjp(g):
        return (_unbroadcast(g / bv, av.shape),
                _unbroadcast(-g * av / (bv * bv), bv.shape))

    return tape._record(av / bv, (a, b), vjp)


def matmul(a, b):
    tape = _tape_of(a, b)
    a, b = _wrap(a, tape), _wrap(b, tape)
    av, bv = a.value, b.value
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise DimensionError(f"matmul shapes incompatible: {av.shape} x {bv.shape}")

    def vjp(g):
        return g @ bv.T, av.T @ g

    return tape._record(av @ bv, (a, b), vjp)


def transpose(a):
    tape = _tape_of(a)

    def vjp(g):
        return (g.T,)

    return tape._record(a.value.T, (a,), vjp)


def relu(a):
    tape = _tape_of(a)
    mask = a.value > 0  # subgradient at 0 is 0

    def vjp(g):
        return (g * mask,)

    return tape._record(np.where(mask, a.value, 0.0), (a,), vjp)


def maximum(a, floor):
    """Elementwise max with a constant floor (used as a norm guard)."""
    tape = _tape_of(a)
    mask = a.value > floor

    def vjp(g):
        return (g * mask,)

    return tape._record(np.maximum(a.value, floor), (a,), vjp)


def sqrt(a):
    tape = _tape_of(a)
    out = np.sqrt(a.value)

    def vjp(g):
        return (g * 0.5 / out,)

    return tape._record(out, (a,), vjp)


def sum_axis(a, axis, keepdims=True):
    tape = _tape_of(a)
    shape = a.value.shape

    def vjp(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape),)

    return tape._record(a.value.sum(axis=axis, keepdims=keepdims), (a,), vjp)


def softmax_columns(s, tau=1.0):
    """Column-wise softmax of s/tau, stabilised by the per-column max."""
    if tau <= 0:
        raise ParameterError(f"softmax temperature must be positive, got {tau}")
    tape = _tape_of(s)
    sv = s.value
    if sv.ndim != 2:
        raise DimensionError(f"softmax_columns expects a 2-D input, got shape {sv.shape}")
    z = sv / tau
    z = z - z.max(axis=0, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=0, keepdims=True)

    def vjp(g):
        return (y * (g - (y * g).sum(axis=0, keepdims=True)) / tau,)

    return tape._record(y, (s,), vjp)


def masked_labels(labels, mask, n_classes):
    """(row indices, their labels) of a loss mask (indices or booleans); the
    mask must be non-empty and every label in it in [0, n_classes)."""
    mask = np.asarray(mask)
    if mask.dtype == bool:
        mask = np.flatnonzero(mask)
    if mask.size == 0:
        raise ParameterError("cross_entropy_masked: empty mask")
    lab = np.asarray(labels, dtype=np.int64)[mask]
    if lab.min() < 0 or lab.max() >= n_classes:
        raise DataError(f"label out of range [0, {n_classes}): {lab.min()}..{lab.max()}")
    return mask, lab


def cross_entropy_masked(logits, labels, mask):
    """Mean negative log-softmax of the true class over `mask` rows.

    logits: Node of shape (N, C); labels: int array of length N;
    mask: index array selecting the rows that contribute to the loss.
    """
    tape = _tape_of(logits)
    lv = logits.value
    mask, lab = masked_labels(labels, mask, lv.shape[1])
    sel = lv[mask]
    m = sel.max(axis=1, keepdims=True)
    e = np.exp(sel - m)
    lse = m[:, 0] + np.log(e.sum(axis=1))
    loss = (lse - sel[np.arange(mask.size), lab]).mean()
    p = e / e.sum(axis=1, keepdims=True)

    def vjp(g):
        gl = np.zeros_like(lv)
        gp = p.copy()
        gp[np.arange(mask.size), lab] -= 1.0
        gl[mask] = gp * (float(g) / mask.size)
        return (gl,)

    return tape._record(loss, (logits,), vjp)


def softmax_rows_values(logits):
    """Plain numpy row softmax (no gradient); for turning logits into probabilities."""
    logits = np.asarray(logits, dtype=np.float64)
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


class Adam:
    """Adam with bias correction over a fixed set of Params."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        if lr <= 0:
            raise ParameterError(f"learning rate must be positive, got {lr}")
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
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


def grad_check(build, params, h=1e-5, rng=None, max_coords=24):
    """Compare tape gradients against central finite differences.

    `build(tape)` must construct the loss from scratch on the given tape.
    Returns the worst relative error over (sampled) coordinates of `params`.
    """
    if h <= 0:
        raise ParameterError(f"finite-difference step must be positive, got {h}")
    if rng is None:
        rng = np.random.default_rng(0)
    params = list(params)
    for p in params:
        p.zero_grad()
    tape = Tape()
    tape.backward(build(tape))
    analytic = [p.grad.copy() for p in params]
    scale = max((float(np.abs(a).max()) for a in analytic), default=0.0)

    def loss_value():
        return float(np.asarray(build(Tape()).value))

    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.value.reshape(-1)
        n = flat.size
        coords = np.arange(n) if n <= max_coords else rng.choice(n, size=max_coords, replace=False)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + h
            f_plus = loss_value()
            flat[i] = orig - h
            f_minus = loss_value()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2 * h)
            ai = a.reshape(-1)[i]
            denom = max(abs(ai), abs(numeric), scale, 1e-8)
            worst = max(worst, abs(ai - numeric) / denom)
    return worst
