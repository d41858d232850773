"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every value in the system (parameters, activations, losses) is a Tensor
wrapping a numpy float64 array of rank 0, 1 or 2.  Operations executed
while a Tape is active are recorded in execution order; Tape.backward
replays their adjoints in exact reverse order.  With no active tape the
same operations run forward-only, which is how generation and finite
differencing avoid bookkeeping costs.

Gradients accumulate: callers zero .grad explicitly before a backward
pass (see Tensor.zero_grad).
"""

import threading

import numpy as np

from .errors import ContractError, DimensionError, DomainError


class Tensor:
    """A dense float64 value, optionally carrying an accumulated gradient."""

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        # np.zeros, unlike zeros_like, leaves large buffers unmapped until
        # first written, so a model that never trains holds no gradient pages.
        self.grad = np.zeros(self.data.shape) if requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def zero_grad(self):
        if self.requires_grad:
            self.grad = np.zeros(self.data.shape)

    def __repr__(self):
        return "Tensor(shape=%s, requires_grad=%s)" % (self.shape,
                                                       self.requires_grad)


_local = threading.local()


def _tape_stack():
    if not hasattr(_local, "stack"):
        _local.stack = []
    return _local.stack


def _active_tape():
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tape:
    """Ordered record of executed operations, confined to one thread.

    Used as a context manager around the forward pass; backward() then
    replays adjoints over the records in reverse execution order.
    """

    def __init__(self):
        self._records = []  # (output, inputs, backward_fn)

    def __enter__(self):
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        stack = _tape_stack()
        if not stack or stack[-1] is not self:
            raise ContractError("tape exited out of order")
        stack.pop()
        return False

    def record(self, output, inputs, backward_fn):
        self._records.append((output, inputs, backward_fn))

    def gradients(self, loss):
        """Adjoints of loss w.r.t. every reachable requires_grad tensor.

        Returns {tensor: ndarray} without touching any .grad field, so
        per-sample tapes can be reduced in a caller-chosen order.
        """
        if loss.data.shape != ():
            raise ContractError(
                "backward requires a scalar loss, got shape %s"
                % (loss.data.shape,))
        adjoint = {id(loss): np.ones(())}
        leaves = {}
        for output, inputs, backward_fn in reversed(self._records):
            out_grad = adjoint.pop(id(output), None)
            if out_grad is None:
                continue
            for tensor, grad in zip(inputs, backward_fn(out_grad)):
                if grad is None:
                    continue
                key = id(tensor)
                if key in adjoint:
                    adjoint[key] = adjoint[key] + grad
                else:
                    adjoint[key] = grad
                if tensor.requires_grad:
                    leaves[key] = tensor
        return {t: adjoint[key] for key, t in leaves.items() if key in adjoint}

    def backward(self, loss):
        """Accumulate dloss/dtensor into .grad for every reachable leaf."""
        for tensor, grad in self.gradients(loss).items():
            tensor.grad += grad


def _emit(data, inputs, backward_fn):
    out = Tensor(data)
    tape = _active_tape()
    if tape is not None:
        tape.record(out, inputs, backward_fn)
    return out


def _require_same_shape(op, a, b):
    if a.data.shape != b.data.shape:
        raise DimensionError("%s: shapes %s and %s differ"
                             % (op, a.data.shape, b.data.shape))


def matmul(a, b):
    """Matrix/vector product: 2d@2d, 2d@1d, 1d@2d, or 1d@1d (dot)."""
    ad, bd = a.data, b.data
    if ad.ndim == 0 or bd.ndim == 0 or ad.shape[-1] != bd.shape[0]:
        raise DimensionError("matmul: shapes %s and %s are incompatible"
                             % (ad.shape, bd.shape))
    out = ad @ bd

    def backward(g):
        if ad.ndim == 2 and bd.ndim == 2:
            return g @ bd.T, ad.T @ g
        if ad.ndim == 2 and bd.ndim == 1:
            return np.outer(g, bd), ad.T @ g
        if ad.ndim == 1 and bd.ndim == 2:
            return bd @ g, np.outer(ad, g)
        return g * bd, g * ad

    return _emit(out, (a, b), backward)


def add(a, b):
    _require_same_shape("add", a, b)
    return _emit(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a, b):
    _require_same_shape("sub", a, b)
    return _emit(a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a, b):
    _require_same_shape("mul", a, b)
    ad, bd = a.data, b.data
    return _emit(ad * bd, (a, b), lambda g: (g * bd, g * ad))


def scale(a, factor):
    """Multiply by a plain float constant."""
    factor = float(factor)
    return _emit(a.data * factor, (a,), lambda g: (g * factor,))


def add_rowvec(m, v):
    """Add a length-c vector to every row of an (r, c) matrix."""
    if m.data.ndim != 2 or v.data.ndim != 1 or m.data.shape[1] != v.data.shape[0]:
        raise DimensionError("add_rowvec: shapes %s and %s are incompatible"
                             % (m.data.shape, v.data.shape))
    return _emit(m.data + v.data, (m, v), lambda g: (g, g.sum(axis=0)))


def tanh(a):
    out = np.tanh(a.data)
    return _emit(out, (a,), lambda g: (g * (1.0 - out * out),))


def sigmoid(a):
    x = a.data
    out = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                   np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    return _emit(out, (a,), lambda g: (g * out * (1.0 - out),))


def log(a):
    if np.any(a.data <= 0.0):
        raise DomainError("log of a non-positive value")
    return _emit(np.log(a.data), (a,), lambda g: (g / a.data,))


def softmax(v):
    """Stabilized softmax over a 1-d tensor."""
    if v.data.ndim != 1 or v.data.size == 0:
        raise DomainError("softmax expects a nonempty vector, got shape %s"
                          % (v.data.shape,))
    shifted = v.data - v.data.max()
    e = np.exp(shifted)
    out = e / e.sum()

    def backward(g):
        return (out * (g - np.dot(g, out)),)

    return _emit(out, (v,), backward)


def concat(parts, axis=0):
    """Juxtapose tensors along one axis."""
    parts = list(parts)
    if not parts:
        raise DomainError("concat of zero tensors")
    try:
        out = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError:
        raise DimensionError("concat: incompatible shapes %s along axis %d"
                             % ([p.data.shape for p in parts], axis))
    offsets = np.cumsum([p.data.shape[axis] for p in parts])[:-1]

    def backward(g):
        return tuple(np.ascontiguousarray(piece)
                     for piece in np.split(g, offsets, axis=axis))

    return _emit(out, tuple(parts), backward)


def stack(parts):
    """Stack equal-length 1-d tensors into the rows of a matrix."""
    parts = list(parts)
    if not parts:
        raise DomainError("stack of zero tensors")
    shapes = {p.data.shape for p in parts}
    if len(shapes) != 1 or parts[0].data.ndim != 1:
        raise DimensionError("stack expects equal 1-d shapes, got %s"
                             % ([p.data.shape for p in parts],))
    out = np.stack([p.data for p in parts])

    def backward(g):
        return tuple(g[i] for i in range(len(parts)))

    return _emit(out, tuple(parts), backward)


def sum_all(a):
    """Sum of all elements, as a scalar tensor."""
    def backward(g):
        return (np.full_like(a.data, float(g)),)

    return _emit(np.asarray(a.data.sum()), (a,), backward)


def pick(v, index):
    """Scalar element v[index] of a 1-d tensor."""
    index = int(index)
    if v.data.ndim != 1 or not 0 <= index < v.data.shape[0]:
        raise DimensionError("pick: index %d out of range for shape %s"
                             % (index, v.data.shape))

    def backward(g):
        out = np.zeros_like(v.data)
        out[index] = float(g)
        return (out,)

    return _emit(np.asarray(v.data[index]), (v,), backward)


def take_row(m, index):
    """Row m[index] of a 2-d tensor."""
    index = int(index)
    if m.data.ndim != 2 or not 0 <= index < m.data.shape[0]:
        raise DimensionError("take_row: index %d out of range for shape %s"
                             % (index, m.data.shape))

    def backward(g):
        out = np.zeros_like(m.data)
        out[index] = g
        return (out,)

    return _emit(m.data[index].copy(), (m,), backward)


def gather(v, indices):
    """Elements of a 1-d tensor at the given indices."""
    idx = np.asarray(indices, dtype=np.intp)
    if v.data.ndim != 1:
        raise DimensionError("gather expects a vector, got shape %s"
                             % (v.data.shape,))
    if idx.size and (idx.min() < 0 or idx.max() >= v.data.shape[0]):
        raise DimensionError("gather: indices out of range for shape %s"
                             % (v.data.shape,))

    def backward(g):
        out = np.zeros_like(v.data)
        np.add.at(out, idx, g)
        return (out,)

    return _emit(v.data[idx].copy(), (v,), backward)


def scatter(values, indices, size):
    """Length-size vector that is zero except values placed at indices."""
    idx = np.asarray(indices, dtype=np.intp)
    if values.data.ndim != 1 or idx.shape != values.data.shape:
        raise DimensionError("scatter: %d values vs %d indices"
                             % (values.data.size, idx.size))
    if idx.size and (idx.min() < 0 or idx.max() >= size):
        raise DimensionError("scatter: indices out of range for size %d" % size)
    out = np.zeros(size, dtype=np.float64)
    out[idx] = values.data

    def backward(g):
        return (g[idx].copy(),)

    return _emit(out, (values,), backward)


def neg(a):
    return scale(a, -1.0)


def mean_of(parts):
    """Mean of a list of same-shape 1-d tensors."""
    weights = Tensor(np.full(len(parts), 1.0 / len(parts)))
    return matmul(weights, stack(parts))


def grad_check(f, x, h=1e-5):
    """Max relative error between analytic and central-difference gradients.

    f maps the tensor x (mutated in place for differencing) to a scalar
    Tensor.  Relative error per coordinate is
    |analytic - numeric| / max(1, |numeric|).
    """
    x.zero_grad()
    with Tape() as tape:
        y = f(x)
    tape.backward(y)
    analytic = x.grad.reshape(-1).copy()
    flat = x.data.reshape(-1)
    worst = 0.0
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + h
        f_plus = float(f(x).data)
        flat[i] = saved - h
        f_minus = float(f(x).data)
        flat[i] = saved
        numeric = (f_plus - f_minus) / (2.0 * h)
        err = abs(analytic[i] - numeric) / max(1.0, abs(numeric))
        if err > worst:
            worst = err
    return worst
