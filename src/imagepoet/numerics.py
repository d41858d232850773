"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every value in the system (parameters, activations, losses) is a Tensor
wrapping a numpy float64 array of rank 0, 1 or 2.  Operations executed
while a Tape is active are recorded in execution order; Tape.backward
replays their adjoints in exact reverse order.  With no active tape the
same operations run forward-only, which is how generation and finite
differencing avoid bookkeeping costs.  An op is recorded only when one of
its inputs needs a gradient, so work on constants (feature grids, say)
never reaches the tape.

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
        # True when a gradient can flow from this tensor to a leaf; ops set
        # it on their outputs while a tape is active.
        self.needs_grad = self.requires_grad
        # The gradient buffer is made on first use, so a model that never
        # trains holds none.  np.zeros alone does not ensure that: when the
        # allocator hands back recycled heap memory, calloc writes its zeros
        # and every page of the buffer becomes resident.
        self._grad = None

    @property
    def grad(self):
        """Accumulated gradient, zeros until written; None without
        requires_grad."""
        if self._grad is None and self.requires_grad:
            self._grad = np.zeros(self.data.shape)
        return self._grad

    @grad.setter
    def grad(self, value):
        self._grad = value

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def zero_grad(self):
        # Eager, unlike construction: a training step allocates its
        # gradients before the forward pass, not among the tape's buffers.
        if self.requires_grad:
            self._grad = np.zeros(self.data.shape)

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

        A tensor's first dense contribution is kept as it is; the second
        is summed into a new buffer that later ones are added into in
        place.  Arrays a backward_fn returned are never written to, since
        one array may be the contribution to several inputs (add returns
        the same g for both).  A RowGrad is added into that buffer, which
        it starts from zeros when it comes first.
        """
        if loss.data.shape != ():
            raise ContractError(
                "backward requires a scalar loss, got shape %s"
                % (loss.data.shape,))
        adjoint = {id(loss): np.ones(())}
        owned = set()   # ids whose adjoint is a buffer this pass allocated
        leaves = {}
        for output, inputs, backward_fn in reversed(self._records):
            out_grad = adjoint.pop(id(output), None)
            if out_grad is None:
                continue
            owned.discard(id(output))
            for tensor, grad in zip(inputs, backward_fn(out_grad)):
                if grad is None:
                    continue
                key = id(tensor)
                acc = adjoint.get(key)
                if isinstance(grad, RowGrad):
                    if key not in owned:
                        acc = (np.zeros(tensor.data.shape) if acc is None
                               else acc.copy())
                        adjoint[key] = acc
                        owned.add(key)
                    grad.add_to(acc)
                elif key in owned:
                    acc += grad
                elif acc is None:
                    adjoint[key] = grad
                else:
                    adjoint[key] = acc + grad
                    owned.add(key)
                if tensor.requires_grad:
                    leaves[key] = tensor
        return {t: adjoint[key] for key, t in leaves.items() if key in adjoint}

    def backward(self, loss):
        """Accumulate dloss/dtensor into .grad for every reachable leaf."""
        for tensor, grad in self.gradients(loss).items():
            tensor.grad += grad


class RowGrad:
    """Adjoint that is zero outside some rows: values[i] belongs at rows[i].

    take_row, take_rows and gather return one, so a lookup into a large
    table costs the rows it read, not a dense zero copy of the table.
    Repeated rows add up.
    """

    __slots__ = ("rows", "values")

    def __init__(self, rows, values):
        self.rows = rows
        self.values = values

    def add_to(self, out):
        np.add.at(out, self.rows, self.values)


def _emit(data, inputs, backward_fn):
    out = Tensor(data)
    tape = _active_tape()
    if tape is not None and any(t.needs_grad for t in inputs):
        out.needs_grad = True
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
        if ad.ndim == 1 and bd.ndim == 1:
            return g * bd, g * ad
        # Only an operand that a gradient can flow through gets one.
        ga = gb = None
        if a.needs_grad:
            ga = (bd @ g if ad.ndim == 1 else
                  g @ bd.T if bd.ndim == 2 else np.outer(g, bd))
        if b.needs_grad:
            gb = np.outer(ad, g) if ad.ndim == 1 else ad.T @ g
        return ga, gb

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

    return _emit(m.data[index].copy(), (m,),
                 lambda g: (RowGrad(index, g),))


def take_rows(m, indices):
    """Rows m[indices] of a 2-d tensor, as a matrix."""
    idx = np.asarray(indices, dtype=np.intp)
    if m.data.ndim != 2 or idx.ndim != 1:
        raise DimensionError("take_rows: %s indices into shape %s"
                             % (idx.shape, m.data.shape))
    if idx.size and (idx.min() < 0 or idx.max() >= m.data.shape[0]):
        raise DimensionError("take_rows: indices out of range for shape %s"
                             % (m.data.shape,))
    return _emit(m.data[idx], (m,), lambda g: (RowGrad(idx, g),))


def gather(v, indices):
    """Elements of a 1-d tensor at the given indices."""
    idx = np.asarray(indices, dtype=np.intp)
    if v.data.ndim != 1:
        raise DimensionError("gather expects a vector, got shape %s"
                             % (v.data.shape,))
    if idx.size and (idx.min() < 0 or idx.max() >= v.data.shape[0]):
        raise DimensionError("gather: indices out of range for shape %s"
                             % (v.data.shape,))

    return _emit(v.data[idx], (v,), lambda g: (RowGrad(idx, g),))


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
