"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every value in the system (parameters, activations, losses) is a Tensor
wrapping a numpy float64 array of rank 0, 1 or 2.  Operations executed
while a Tape is active are recorded in execution order; Tape.backward
replays their adjoints in exact reverse order.  With no active tape the
same operations run forward-only, which is how generation and finite
differencing avoid bookkeeping costs.  An op is recorded only when one of
its inputs needs a gradient, so work on constants (feature grids, say)
never reaches the tape.

Gradients accumulate: Tape.backward adds into .grad, and a leaf without a
buffer adopts the array the pass made for it.  Callers drop .grad before
a fresh pass (see Tensor.zero_grad).
"""

import threading

import numpy as np

from .errors import ContractError, DimensionError, DomainError

# Elements per block when a pass sweeps whole parameters (seeded draws,
# the AdaDelta step): 256 KiB of float64, so each block's temporaries stay
# in L2 between ufuncs instead of streaming parameter-sized arrays.
SWEEP_BLOCK = 32768


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
        # Dropped, not zeroed: the next Tape.backward adopts the array its
        # pass made, and reading .grad first makes zeros.
        self._grad = None

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

    def gradients(self, loss, accumulate=False):
        """Adjoints of loss w.r.t. every reachable requires_grad tensor.

        Returns {tensor: ndarray}.  No other tensor's adjoint or record
        shares a returned array's memory, so the caller may keep it or
        write it in place.  No .grad field is touched unless accumulate is
        set; then a leaf already holding a .grad buffer has its
        contributions added into that buffer, which is the array returned
        for it, so no second leaf-sized array is kept beside it.

        A tensor's first dense contribution is kept as it is; the second
        is summed into a new buffer that later ones are added into in
        place.  Arrays a backward_fn returned are never written to, since
        one array may be the contribution to several inputs (add returns
        the same g for both); a leaf whose adjoint is still such an array
        gets a copy.  A RowGrad is added into that buffer, which it starts
        from zeros when it comes first.  A leaf's OuterGrads wait until
        the sweep ends and are then summed by one GEMM, to which its other
        contributions are added; no record reads a leaf's adjoint, since
        a leaf is never a record's output.
        """
        if loss.data.shape != ():
            raise ContractError(
                "backward requires a scalar loss, got shape %s"
                % (loss.data.shape,))
        adjoint = {id(loss): np.ones(())}
        owned = set()   # ids whose adjoint is a buffer this pass may write
        leaves = {}
        outers = {}     # leaf id -> ([u...], [v...]) of its OuterGrads
        for output, inputs, backward_fn in reversed(self._records):
            out_grad = adjoint.pop(id(output), None)
            if out_grad is None:
                continue
            owned.discard(id(output))
            for tensor, grad in zip(inputs, backward_fn(out_grad)):
                if grad is None:
                    continue
                key = id(tensor)
                if (accumulate and tensor.requires_grad
                        and key not in adjoint and tensor._grad is not None):
                    adjoint[key] = tensor._grad
                    owned.add(key)
                acc = adjoint.get(key)
                if isinstance(grad, OuterGrad):
                    us, vs = outers.setdefault(key, ([], []))
                    us.append(grad.u)
                    vs.append(grad.v)
                elif isinstance(grad, RowGrad):
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
                    # out= keeps a rank-0 sum an array that += can update.
                    adjoint[key] = np.add(acc, grad,
                                          out=np.empty(tensor.data.shape))
                    owned.add(key)
                if tensor.requires_grad:
                    leaves[key] = tensor
        for key, (us, vs) in outers.items():
            total = np.stack(us, axis=1) @ np.stack(vs)
            if key in owned:
                adjoint[key] += total
                continue
            if key in adjoint:
                total += adjoint[key]
            adjoint[key] = total
            owned.add(key)
        return {t: adjoint[key] if key in owned else np.array(adjoint[key])
                for key, t in leaves.items()}

    def backward(self, loss):
        """Accumulate dloss/dtensor into .grad for every reachable leaf.

        A leaf holding a gradient buffer has its gradient added into it;
        a leaf holding none adopts the returned array.
        """
        for tensor, grad in self.gradients(loss, accumulate=True).items():
            tensor._grad = grad


class RowGrad:
    """Adjoint that is zero outside some rows: values[i] belongs at rows[i].

    take returns one, so a lookup into a large table costs the rows it
    read, not a dense zero copy of the table.  Repeated rows add up.
    """

    __slots__ = ("rows", "values")

    def __init__(self, rows, values):
        self.rows = rows
        self.values = values

    def add_to(self, out):
        np.add.at(out, self.rows, self.values)


class OuterGrad:
    """Adjoint outer(u, v) of a leaf matrix, which matmul returns.

    Tape.gradients sums all of a leaf's OuterGrads at the end of its
    sweep, so a weight reused at every step costs one GEMM, not one
    weight-sized outer product and add per step.
    """

    __slots__ = ("u", "v")

    def __init__(self, u, v):
        self.u = u
        self.v = v


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
        # Outer products reach only leaves: the adjoint of a record's
        # output must be complete before its backward_fn runs.
        ga = gb = None
        if a.needs_grad:
            ga = (bd @ g if ad.ndim == 1 else
                  g @ bd.T if bd.ndim == 2 else
                  OuterGrad(g, bd) if a.requires_grad else np.outer(g, bd))
        if b.needs_grad:
            gb = (ad.T @ g if ad.ndim == 2 else
                  OuterGrad(ad, g) if b.requires_grad else np.outer(ad, g))
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
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
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


def take(t, index):
    """t[index] along axis 0, for an int index or a 1-d list of them.

    The result is a copy, never a view of t.
    """
    idx = np.asarray(index, dtype=np.intp)
    if t.data.ndim == 0 or idx.ndim > 1:
        raise DimensionError("take: %s index into shape %s"
                             % (idx.shape, t.data.shape))
    if idx.size and (idx.min() < 0 or idx.max() >= t.data.shape[0]):
        raise DimensionError("take: index %s out of range for shape %s"
                             % (index, t.data.shape))
    return _emit(np.take(t.data, idx, axis=0), (t,),
                 lambda g: (RowGrad(idx, g),))


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
