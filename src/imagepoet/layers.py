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

    def lookup(self, char_id):
        char_id = int(char_id)
        if not 0 <= char_id < self.vocab_size:
            raise VocabularyError("character id %d outside vocabulary of %d"
                                  % (char_id, self.vocab_size))
        return nm.take(self.weights, char_id)


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
    """One GRU transition; h' = (1 - z) * h_prev + z * cand."""
    if h_prev.shape != (cell.hidden_dim,) or x.shape != (cell.input_dim,):
        raise DimensionError(
            "gru_step: state %s / input %s vs cell dims (%d, %d)"
            % (h_prev.shape, x.shape, cell.hidden_dim, cell.input_dim))
    z = nm.sigmoid(nm.add(nm.add(nm.linear(x, cell.w_z),
                                 nm.linear(h_prev, cell.u_z)), cell.b_z))
    r = nm.sigmoid(nm.add(nm.add(nm.linear(x, cell.w_r),
                                 nm.linear(h_prev, cell.u_r)), cell.b_r))
    cand = nm.tanh(nm.add(nm.add(nm.linear(x, cell.w_h),
                                 nm.linear(nm.mul(r, h_prev), cell.u_h)),
                          cell.b_h))
    keep = nm.sub(Tensor(np.ones(cell.hidden_dim)), z)
    return nm.add(nm.mul(keep, h_prev), nm.mul(z, cand))


def gru_run(cell, xs):
    """States after each step of a left-to-right GRU pass from zero."""
    h = cell.zero_state()
    states = []
    for x in xs:
        h = gru_step(cell, h, x)
        states.append(h)
    return states


def bigru_encode(cell_fw, cell_bw, xs):
    """Forward/backward GRU states as an (n, 2h) matrix, one row per input.

    Both passes start from the zero state; row j is
    [forward_j ; backward_j].
    """
    xs = list(xs)
    if not xs:
        raise DomainError("bigru_encode needs at least one input")
    forward = nm.stack(gru_run(cell_fw, xs))
    backward = nm.stack(list(reversed(gru_run(cell_bw, list(reversed(xs))))))
    return nm.concat([forward, backward], axis=1)


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
