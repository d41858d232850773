"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every value in the system (parameters, activations, losses) is a Tensor
wrapping a numpy float64 array of rank 0, 1 or 2.  Operations executed
while a Tape is active are recorded in execution order; Tape.backward
replays their adjoints in exact reverse order.  With no active tape the
same operations run forward-only, which is how generation and finite
differencing avoid bookkeeping costs.  An op is recorded only when one of
its inputs needs a gradient, so work on constants (feature grids, say)
never reaches the tape.

Every parameter matrix but the attention key projections is applied by
linear, the one op whose adjoint for a leaf weight is deferred to the
end of the backward sweep (OuterGrad).

In the backward pass a leaf (requires_grad) sums its contributions into
one buffer of its own; any other adjoint is a fresh sum.  Tape.backward
adds into .grad, and a leaf without one adopts its pass's buffer.
Callers drop .grad before a fresh pass (see Tensor.zero_grad).
"""

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


_tapes = []  # entered and not yet exited, innermost last


class Tape:
    """Ordered record of executed operations.

    Used as a context manager around the forward pass; backward() then
    replays adjoints over the records in reverse execution order.  Tapes
    nest; ops record on the innermost one.
    """

    def __init__(self):
        self._records = []  # (output, inputs, backward_fn)

    def __enter__(self):
        _tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        if not _tapes or _tapes[-1] is not self:
            raise ContractError("tape exited out of order")
        _tapes.pop()
        return False

    def record(self, output, inputs, backward_fn):
        """Append a record.  output is one tensor, or a tuple of tensors
        whose adjoints backward_fn receives as one list (None for each
        that received none)."""
        self._records.append((output, inputs, backward_fn))

    def gradients(self, loss, accumulate=False):
        """Adjoints of loss w.r.t. every reachable requires_grad tensor.

        Returns {tensor: ndarray}.  Each returned array belongs to its leaf
        alone: no other adjoint or record shares its memory, so the caller
        may keep it or write it in place.  No .grad field is touched unless
        accumulate is set; then a leaf already holding a .grad buffer has
        its contributions added into that buffer, which is the array
        returned for it.

        A leaf sums every contribution into one buffer of its own: a copy
        of its first dense contribution, zeros for a first RowGrad, or its
        held .grad.  Its OuterGrads wait until the sweep ends; their row
        blocks are then joined and summed by one GEMM, which becomes the
        buffer or is added into it.  Any other tensor's adjoint is a fresh
        sum, never written in place, since a backward_fn may hand one array
        to several inputs (add returns the same g for both).
        """
        if loss.data.shape != ():
            raise ContractError(
                "backward requires a scalar loss, got shape %s"
                % (loss.data.shape,))
        adjoint = {loss: np.ones(())}
        grads = {}      # leaf -> the buffer its contributions sum into
        outers = {}     # leaf -> ([u...], [v...]) row blocks of OuterGrads
        for output, inputs, backward_fn in reversed(self._records):
            if type(output) is tuple:
                out_grad = [adjoint.pop(t, None) for t in output]
                if all(g is None for g in out_grad):
                    continue
            else:
                out_grad = adjoint.pop(output, None)
                if out_grad is None:
                    continue
            for tensor, grad in zip(inputs, backward_fn(out_grad)):
                if grad is None:
                    continue
                if not tensor.requires_grad:
                    acc = adjoint.get(tensor)
                    adjoint[tensor] = grad if acc is None else acc + grad
                    continue
                buf = grads.get(tensor)
                if buf is None and accumulate:
                    buf = tensor._grad
                if isinstance(grad, OuterGrad):
                    us, vs = outers.setdefault(tensor, ([], []))
                    us.append(grad.u)
                    vs.append(grad.v)
                elif isinstance(grad, RowGrad):
                    if buf is None:
                        buf = np.zeros(tensor.data.shape)
                    np.add.at(buf, grad.rows, grad.values)
                elif buf is None:
                    buf = np.array(grad)
                else:
                    buf += grad
                if buf is not None:
                    grads[tensor] = buf
        for tensor, (us, vs) in outers.items():
            total = np.concatenate(us).T @ np.concatenate(vs)
            if tensor in grads:
                grads[tensor] += total
            else:
                grads[tensor] = total
        return grads

    def backward(self, loss):
        """Accumulate dloss/dtensor into .grad for every reachable leaf.

        A leaf holding a gradient buffer has its gradient added into it;
        a leaf holding none adopts the returned array.
        """
        for tensor, grad in self.gradients(loss, accumulate=True).items():
            tensor._grad = grad


class RowGrad:
    """Adjoint that is zero outside some rows: values[i] belongs at rows[i].

    take returns one for a leaf table, so a lookup into a large table
    costs the rows it read, not a dense zero copy of the table.  Only a
    leaf receives one.  Repeated rows add up.
    """

    __slots__ = ("rows", "values")

    def __init__(self, rows, values):
        self.rows = rows
        self.values = values


class OuterGrad:
    """Adjoint u.T @ v of a leaf matrix: the sum of outer(u[i], v[i]).

    u and v hold one row per term, so a rank-1 pair is one term.  Only
    linear returns one, with a term per input row, and only a leaf
    receives one.  Tape.gradients sums all of a leaf's OuterGrads at the
    end of its sweep, so a weight reused at every step costs one GEMM,
    not one weight-sized outer product and add per step.
    """

    __slots__ = ("u", "v")

    def __init__(self, u, v):
        self.u = np.atleast_2d(u)
        self.v = np.atleast_2d(v)


def _emit(data, inputs, backward_fn):
    """The tensor of one array, or the tuple of tensors of a tuple of
    arrays, recorded as one op when an input needs a gradient.

    For a tuple, backward_fn receives the outputs' adjoints as one list
    (see Tape.record).  Every op of this module creates its outputs here.
    """
    outs = tuple(map(Tensor, data)) if type(data) is tuple else Tensor(data)
    if _tapes and any(t.needs_grad for t in inputs):
        for out in outs if type(outs) is tuple else (outs,):
            out.needs_grad = True
        _tapes[-1].record(outs, inputs, backward_fn)
    return outs


def _require_same_shape(op, a, b):
    if a.data.shape != b.data.shape:
        raise DimensionError("%s: shapes %s and %s differ"
                             % (op, a.data.shape, b.data.shape))


def matmul(a, b):
    """Matrix/vector product: 2d@2d, 2d@1d, 1d@2d, or 1d@1d (dot).

    For products of activations and for keys @ key_proj, whose weight is
    stored transposed; other parameter matrices are applied by linear.
    """
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
            gb = ad.T @ g if ad.ndim == 2 else np.outer(ad, g)
        return ga, gb

    return _emit(out, (a, b), backward)


def linear(x, w, b=None):
    """x @ w.T, plus b when given, for one row x or a (T, n) matrix of rows.

    w is (m, n) and b length m.  A matrix of rows reads w once where T
    separate rows would read it T times; a leaf w gets one OuterGrad
    carrying every row.
    """
    xd, wd = x.data, w.data
    if (xd.ndim not in (1, 2) or wd.ndim != 2 or xd.shape[-1] != wd.shape[1]
            or (b is not None and b.data.shape != wd.shape[:1])):
        bias = None if b is None else b.data.shape
        raise DimensionError("linear: input %s, weight %s and bias %s are "
                             "incompatible" % (xd.shape, wd.shape, bias))
    out = xd @ wd.T
    if b is not None:
        out += b.data

    def backward(g):
        # A leaf w's outer products wait for the end of the sweep; a
        # non-leaf w's adjoint must be complete before its own record's
        # backward_fn runs, so it gets a dense array now.
        gx = g @ wd if x.needs_grad else None
        gw = None
        if w.needs_grad:
            gw = (OuterGrad(g, xd) if w.requires_grad else
                  np.outer(g, xd) if xd.ndim == 1 else g.T @ xd)
        gb = None
        if b is not None and b.needs_grad:
            gb = g if g.ndim == 1 else g.sum(axis=0)
        return gx, gw, gb

    return _emit(out, (x, w) if b is None else (x, w, b), backward)


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
    """Stabilized softmax of a vector, or of each row of a matrix."""
    if v.data.ndim not in (1, 2) or v.data.size == 0:
        raise DomainError("softmax expects a nonempty vector or matrix, "
                          "got shape %s" % (v.data.shape,))
    # One new array: the max is subtracted into it, and the exponential
    # and the division are taken in place, with the bits of
    # e / e.sum() for e = exp(v - max).
    out = v.data - v.data.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)

    def backward(g):
        return (out * (g - np.sum(g * out, axis=-1, keepdims=True)),)

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


def rows(m):
    """The rows of a matrix as a list of vectors, recorded as one op.

    Its backward stacks the rows' adjoints into m's, with zeros for a row
    that received none: n rows cost one record and one matrix-sized
    adjoint, where n takes would cost n records and n dense adjoints.
    """
    md = m.data
    if md.ndim != 2:
        raise DimensionError("rows of shape %s" % (md.shape,))

    def backward(grads):
        dense = np.zeros(md.shape)
        for i, g in enumerate(grads):
            if g is not None:
                dense[i] = g
        return (dense,)

    return list(_emit(tuple(md), (m,), backward))


def blocks(m, sizes):
    """Consecutive row blocks of a matrix, of sizes[i] rows each, recorded
    as one op.

    Each block is a view of m.  Its backward writes the blocks' adjoints
    into one matrix-sized adjoint of m, with zeros for a block that
    received none.
    """
    md = m.data
    if md.ndim != 2 or min(sizes, default=-1) < 0 or sum(sizes) != len(md):
        raise DimensionError("blocks of %s rows from shape %s"
                             % (list(sizes), md.shape))
    bounds = np.cumsum(sizes)[:-1]

    def backward(grads):
        dense = np.zeros(md.shape)
        for piece, g in zip(np.split(dense, bounds), grads):
            if g is not None:
                piece[...] = g
        return (dense,)

    return list(_emit(tuple(np.split(md, bounds)), (m,), backward))


def sum_all(a):
    """Sum of all elements, as a scalar tensor."""
    def backward(g):
        return (np.full_like(a.data, float(g)),)

    return _emit(np.asarray(a.data.sum()), (a,), backward)


def take(t, index):
    """t[index] along axis 0, for an int index or a 1-d list of them.

    The result is a copy, never a view of t.  A leaf t's adjoint is a
    RowGrad; any other t gets a dense one, since only leaves hold buffers.
    """
    idx = np.asarray(index, dtype=np.intp)
    if t.data.ndim == 0 or idx.ndim > 1:
        raise DimensionError("take: %s index into shape %s"
                             % (idx.shape, t.data.shape))
    if idx.size and (idx.min() < 0 or idx.max() >= t.data.shape[0]):
        raise DimensionError("take: index %s out of range for shape %s"
                             % (index, t.data.shape))

    def backward(g):
        if t.requires_grad:
            return (RowGrad(idx, g),)
        dense = np.zeros(t.data.shape)
        np.add.at(dense, idx, g)
        return (dense,)

    return _emit(np.take(t.data, idx, axis=0), (t,), backward)


def scatter(values, indices, size):
    """Zero except values placed at indices along the last axis.

    A vector of values gives a length-size vector; a (T, k) matrix gives
    (T, size), each row placed at the same k indices.
    """
    idx = np.asarray(indices, dtype=np.intp)
    vd = values.data
    if vd.ndim not in (1, 2) or idx.shape != vd.shape[-1:]:
        raise DimensionError("scatter: values %s vs %d indices"
                             % (vd.shape, idx.size))
    if idx.size and (idx.min() < 0 or idx.max() >= size):
        raise DimensionError("scatter: indices out of range for size %d" % size)
    out = np.zeros(vd.shape[:-1] + (size,))
    out[..., idx] = vd

    def backward(g):
        return (g[..., idx],)

    return _emit(out, (values,), backward)


def pick(m, columns):
    """Vector of m[i, columns[i]], one entry from each row of m."""
    cols = np.asarray(columns, dtype=np.intp)
    if m.data.ndim != 2 or cols.shape != m.data.shape[:1]:
        raise DimensionError("pick: %s columns from shape %s"
                             % (cols.shape, m.data.shape))
    if cols.size and (cols.min() < 0 or cols.max() >= m.data.shape[1]):
        raise DimensionError("pick: columns %s out of range for shape %s"
                             % (list(cols), m.data.shape))
    rows = np.arange(cols.size)

    def backward(g):
        dense = np.zeros(m.data.shape)
        dense[rows, cols] = g
        return (dense,)

    return _emit(m.data[rows, cols], (m,), backward)


def difference_error(f, x, analytic, h=1e-5):
    """Max relative error of analytic against central differences of f.

    f() evaluates a scalar Tensor from the current values of x, whose data
    is moved one coordinate at a time by +-h and restored; analytic holds
    x.size gradient values.  Relative error per coordinate is
    |analytic - numeric| / max(1, |numeric|).  A NaN error makes the
    result NaN, which no tolerance accepts.
    """
    flat = x.data.reshape(-1)
    numeric = np.empty(flat.size)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + h
        f_plus = f().item()
        flat[i] = saved - h
        f_minus = f().item()
        flat[i] = saved
        numeric[i] = (f_plus - f_minus) / (2.0 * h)
    errors = (np.abs(np.reshape(analytic, -1) - numeric)
              / np.maximum(1.0, np.abs(numeric)))
    return float(errors.max()) if errors.size else 0.0


def grad_check(f, x, h=1e-5):
    """difference_error of x's tape gradient through f, a map from x to a
    scalar Tensor."""
    x.zero_grad()
    with Tape() as tape:
        y = f(x)
    tape.backward(y)
    return difference_error(lambda: f(x), x, x.grad, h)
