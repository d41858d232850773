"""Neural building blocks: embeddings, GRU cells, Bi-GRU, attention, heads.

Conventions pinned here (and relied on by the oracles in the test suite):

* GRU update: z = sigmoid(Wz x + Uz h + bz), r = sigmoid(Wr x + Ur h + br),
  cand = tanh(Wh x + Uh (r * h) + bh), h' = (1 - z) * h + z * cand,
  with z the update gate.
* Additive attention score for key k against query q:
  score = u . tanh(W q + U k); weights are the softmax over scores and the
  context is the weight-sum of the keys.  Keys are always the rows of one
  (n, key_dim) matrix, stacked once when the sequence is built.  The key
  projection is stored transposed, shape (key_dim, proj_dim), so the key
  matrix projects in one matmul, and U k does not depend on the query: a
  decoder projects its keys once (project_keys) and reuses them at every
  step.
"""

import numpy as np

from . import numerics as nm
from .errors import DimensionError, DomainError, VocabularyError
from .numerics import Tensor


def param(rng, *shape):
    """Trainable tensor drawn uniform on [-0.08, 0.08]; zeros if rng is None."""
    if rng is None:
        return Tensor(np.zeros(shape), requires_grad=True)
    n = int(np.prod(shape))
    return Tensor(rng.uniform_array(n, -0.08, 0.08).reshape(shape),
                  requires_grad=True)


class ParamGroup:
    """Trainable tensors named by _FIELDS, taken and listed in that order."""

    _FIELDS = ()

    def __init__(self, *tensors):
        for name, tensor in zip(self._FIELDS, tensors, strict=True):
            setattr(self, name, tensor)

    def parameters(self):
        return [(name, getattr(self, name)) for name in self._FIELDS]


class EmbeddingTable(ParamGroup):
    """Maps character ids in [0, vocab_size) to learned rows."""

    _FIELDS = ("weights",)

    @classmethod
    def create(cls, vocab_size, dim, rng=None):
        return cls(param(rng, vocab_size, dim))

    @property
    def vocab_size(self):
        return self.weights.shape[0]

    def lookup(self, char_ids):
        """The row of one character id, or the (n, dim) matrix of the rows
        of a sequence of ids."""
        one = np.ndim(char_ids) == 0
        ids = [int(c) for c in ([char_ids] if one else char_ids)]
        for char_id in ids:
            if not 0 <= char_id < self.vocab_size:
                raise VocabularyError("character id %d outside vocabulary "
                                      "of %d" % (char_id, self.vocab_size))
        return nm.take(self.weights, ids[0] if one else ids)


class GRUCell(ParamGroup):
    """Single GRU cell with separate input, recurrent and bias parameters."""

    _FIELDS = ("w_z", "u_z", "b_z", "w_r", "u_r", "b_r", "w_h", "u_h", "b_h")

    @classmethod
    def create(cls, input_dim, hidden_dim, rng=None):
        params = []
        for gate in ("z", "r", "h"):
            params += [param(rng, hidden_dim, input_dim),
                       param(rng, hidden_dim, hidden_dim),
                       param(rng, hidden_dim)]
        return cls(*params)

    @property
    def input_dim(self):
        return self.w_z.shape[1]

    @property
    def hidden_dim(self):
        return self.w_z.shape[0]

    def zero_state(self):
        return Tensor(np.zeros(self.hidden_dim))


def gru_step(cell, h_prev, x):
    """One GRU transition; h' = (1 - z) * h_prev + z * cand.

    x is the input vector, or the triple (W_z x, W_r x, W_h x) of its
    input products when the caller computed them ahead, as gru_run does
    for a whole sequence.
    """
    precomputed = isinstance(x, tuple)
    shapes = [t.shape for t in x] if precomputed else [x.shape]
    want = [(cell.hidden_dim,)] * 3 if precomputed else [(cell.input_dim,)]
    if h_prev.shape != (cell.hidden_dim,) or shapes != want:
        raise DimensionError(
            "gru_step: state %s / input %s vs cell dims (%d, %d)"
            % (h_prev.shape, shapes, cell.hidden_dim, cell.input_dim))
    wz_x, wr_x, wh_x = x if precomputed else (
        nm.linear(x, w) for w in (cell.w_z, cell.w_r, cell.w_h))
    z = nm.sigmoid(nm.add(nm.add(wz_x, nm.linear(h_prev, cell.u_z)),
                          cell.b_z))
    r = nm.sigmoid(nm.add(nm.add(wr_x, nm.linear(h_prev, cell.u_r)),
                          cell.b_r))
    cand = nm.tanh(nm.add(nm.add(wh_x,
                                 nm.linear(nm.mul(r, h_prev), cell.u_h)),
                          cell.b_h))
    keep = nm.sub(Tensor(np.ones(cell.hidden_dim)), z)
    return nm.add(nm.mul(keep, h_prev), nm.mul(z, cand))


def gru_run(cell, xs, prefix=(), reverse=False):
    """States of a GRU pass over the rows of the matrix xs, in step order.

    The pass reads the rows first to last, or last to first when reverse
    is set, from the zero state.  The input products W_z X, W_r X and
    W_h X are one linear each for the whole sequence, split into step rows
    by one nm.rows record apiece; only the recurrent products U h run per
    step.  prefix holds the states of the first steps of an earlier pass
    whose inputs began as these do: they start the result as they are,
    and the pass goes on from the last of them.
    """
    if xs.data.ndim != 2 or xs.shape[1] != cell.input_dim:
        raise DimensionError("gru_run: inputs %s vs cell input dim %d"
                             % (xs.shape, cell.input_dim))
    n = xs.shape[0]
    if len(prefix) > n:
        raise DimensionError("gru_run: %d prefix states for %d inputs"
                             % (len(prefix), n))
    steps = range(n - 1, -1, -1) if reverse else range(n)
    states = list(prefix)
    if len(states) < n:
        gates = list(zip(*(nm.rows(nm.linear(xs, w))
                           for w in (cell.w_z, cell.w_r, cell.w_h))))
        h = states[-1] if states else cell.zero_state()
        for t in steps[len(states):]:
            h = gru_step(cell, h, gates[t])
            states.append(h)
    return states


def bigru_encode(cell_fw, cell_bw, xs, forward=()):
    """(n, 2h) matrix of Bi-GRU states, and the list of forward states.

    xs is an (n, input_dim) matrix, one input per row.  Both passes start
    from the zero state; row j is [forward_j ; backward_j].  forward holds
    the forward states of an earlier encoding whose inputs began as these
    do (gru_run's prefix): the forward pass then runs over the remaining
    rows only.  The backward pass always runs in full.
    """
    if xs.data.ndim != 2 or xs.shape[0] == 0:
        raise DomainError("bigru_encode needs at least one input row, got "
                          "shape %s" % (xs.shape,))
    states = gru_run(cell_fw, xs, prefix=forward)
    backward = gru_run(cell_bw, xs, reverse=True)[::-1]
    return nm.concat([nm.stack(states), nm.stack(backward)], axis=1), states


class AttentionParams(ParamGroup):
    """Additive-attention parameters for one stream.

    score: projection-width vector u.
    query_proj: (proj_dim, query_dim), applied as linear(query, query_proj).
    key_proj: (key_dim, proj_dim), applied as keys @ key_proj.
    """

    _FIELDS = ("score", "query_proj", "key_proj")

    @classmethod
    def create(cls, query_dim, key_dim, proj_dim, rng=None):
        return cls(param(rng, proj_dim),
                   param(rng, proj_dim, query_dim),
                   param(rng, key_dim, proj_dim))


def project_keys(params, keys):
    """(keys, keys @ key_proj) for a key matrix queried many times."""
    return keys, nm.matmul(keys, params.key_proj)


def attend(params, query, keys, projected=None):
    """Attention context and weights for a query over the rows of keys.

    projected, when given, is the keys' projection from project_keys.
    """
    if projected is None:
        projected = nm.matmul(keys, params.key_proj)
    scores = nm.matmul(
        nm.tanh(nm.add_rowvec(projected, nm.linear(query, params.query_proj))),
        params.score)
    weights = nm.softmax(scores)
    context = nm.matmul(weights, keys)
    return context, weights


class OutputHead(ParamGroup):
    """Two-layer perceptron producing logits: W2 tanh(W1 f + b1) + b2."""

    _FIELDS = ("w_hidden", "b_hidden", "w_out", "b_out")

    @classmethod
    def create(cls, input_dim, hidden_dim, output_dim, rng=None):
        return cls(param(rng, hidden_dim, input_dim),
                   param(rng, hidden_dim),
                   param(rng, output_dim, hidden_dim),
                   param(rng, output_dim))

    def logits(self, features, rows=None):
        """Logits of every output, or of the outputs listed in rows only.

        features is one head input or a (T, input_dim) matrix of them,
        which gets one row of logits each.
        """
        hidden = nm.tanh(nm.linear(features, self.w_hidden, self.b_hidden))
        if rows is None:
            return nm.linear(hidden, self.w_out, self.b_out)
        return nm.linear(hidden, nm.take(self.w_out, rows),
                         nm.take(self.b_out, rows))
