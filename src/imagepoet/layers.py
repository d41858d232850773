"""Neural building blocks: embeddings, GRU cells, Bi-GRU, attention, heads.

Conventions pinned here (and relied on by the oracles in the test suite):

* GRU update: z = sigmoid(Wz x + Uz h + bz), r = sigmoid(Wr x + Ur h + br),
  cand = tanh(Wh x + Uh (r * h) + bh), h' = (1 - z) * h + z * cand,
  with z the update gate.
* Additive attention score for key k against query q:
  score = u . tanh(W q + U k); weights are the softmax over scores and the
  context is the weight-sum of the keys.  The key projection is stored
  transposed, shape (key_dim, proj_dim), so a stack of keys projects in
  one matmul, and U k does not depend on the query: a decoder projects
  its keys once (project_keys) and reuses them at every step.
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


class EmbeddingTable:
    """Maps character ids in [0, vocab_size) to learned rows."""

    def __init__(self, vocab_size, dim, weights):
        self.vocab_size = vocab_size
        self.dim = dim
        self.weights = weights

    @classmethod
    def create(cls, vocab_size, dim, rng=None):
        return cls(vocab_size, dim, param(rng, vocab_size, dim))

    def lookup(self, char_id):
        char_id = int(char_id)
        if not 0 <= char_id < self.vocab_size:
            raise VocabularyError("character id %d outside vocabulary of %d"
                                  % (char_id, self.vocab_size))
        return nm.take_row(self.weights, char_id)

    def parameters(self):
        return [("weights", self.weights)]


class GRUCell:
    """Single GRU cell with separate input, recurrent and bias parameters."""

    _FIELDS = ("w_z", "u_z", "b_z", "w_r", "u_r", "b_r", "w_h", "u_h", "b_h")

    def __init__(self, input_dim, hidden_dim, params):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        for name, tensor in zip(self._FIELDS, params):
            setattr(self, name, tensor)

    @classmethod
    def create(cls, input_dim, hidden_dim, rng=None):
        params = []
        for gate in ("z", "r", "h"):
            params += [param(rng, hidden_dim, input_dim),
                       param(rng, hidden_dim, hidden_dim),
                       param(rng, hidden_dim)]
        return cls(input_dim, hidden_dim, params)

    def zero_state(self):
        return Tensor(np.zeros(self.hidden_dim))

    def parameters(self):
        return [(name, getattr(self, name)) for name in self._FIELDS]


def gru_step(cell, h_prev, x):
    """One GRU transition; h' = (1 - z) * h_prev + z * cand."""
    if h_prev.shape != (cell.hidden_dim,) or x.shape != (cell.input_dim,):
        raise DimensionError(
            "gru_step: state %s / input %s vs cell dims (%d, %d)"
            % (h_prev.shape, x.shape, cell.hidden_dim, cell.input_dim))
    z = nm.sigmoid(nm.add(nm.add(nm.matmul(cell.w_z, x),
                                 nm.matmul(cell.u_z, h_prev)), cell.b_z))
    r = nm.sigmoid(nm.add(nm.add(nm.matmul(cell.w_r, x),
                                 nm.matmul(cell.u_r, h_prev)), cell.b_r))
    cand = nm.tanh(nm.add(nm.add(nm.matmul(cell.w_h, x),
                                 nm.matmul(cell.u_h, nm.mul(r, h_prev))),
                          cell.b_h))
    keep = nm.sub(Tensor(np.ones(cell.hidden_dim)), z)
    return nm.add(nm.mul(keep, h_prev), nm.mul(z, cand))


def gru_run(cell, xs, h0=None):
    """States after each step of a left-to-right GRU pass."""
    h = cell.zero_state() if h0 is None else h0
    states = []
    for x in xs:
        h = gru_step(cell, h, x)
        states.append(h)
    return states


def bigru_encode(cell_fw, cell_bw, xs):
    """Concatenated forward/backward GRU states, one per input position.

    Both passes start from the zero state; position j yields
    [forward_j ; backward_j].
    """
    xs = list(xs)
    if not xs:
        raise DomainError("bigru_encode needs at least one input")
    forward = gru_run(cell_fw, xs)
    backward = list(reversed(gru_run(cell_bw, list(reversed(xs)))))
    return [nm.concat([f, b]) for f, b in zip(forward, backward)]


class AttentionParams:
    """Additive-attention parameters for one stream.

    score: projection-width vector u.
    query_proj: (proj_dim, query_dim), applied as query_proj @ query.
    key_proj: (key_dim, proj_dim), applied as keys @ key_proj.
    """

    def __init__(self, score, query_proj, key_proj):
        self.score = score
        self.query_proj = query_proj
        self.key_proj = key_proj

    @classmethod
    def create(cls, query_dim, key_dim, proj_dim, rng=None):
        return cls(param(rng, proj_dim),
                   param(rng, proj_dim, query_dim),
                   param(rng, key_dim, proj_dim))

    def parameters(self):
        return [("score", self.score), ("query_proj", self.query_proj),
                ("key_proj", self.key_proj)]


def _key_matrix(keys):
    if isinstance(keys, Tensor):
        return keys
    keys = list(keys)
    if not keys:
        raise DomainError("attend needs at least one key")
    return nm.stack(keys)


def project_keys(params, keys):
    """(key matrix, key matrix @ key_proj) for keys queried many times.

    keys is a list of 1-d key tensors or a 2-d tensor of key rows.
    """
    key_matrix = _key_matrix(keys)
    return key_matrix, nm.matmul(key_matrix, params.key_proj)


def attend(params, query, keys, projected=None):
    """Attention context and weights for a query over keys.

    keys is a list of 1-d key tensors or a 2-d tensor of key rows;
    projected, when given, is their projection from project_keys.
    """
    key_matrix = _key_matrix(keys)
    if projected is None:
        projected = nm.matmul(key_matrix, params.key_proj)
    scores = nm.matmul(
        nm.tanh(nm.add_rowvec(projected, nm.matmul(params.query_proj, query))),
        params.score)
    weights = nm.softmax(scores)
    context = nm.matmul(weights, key_matrix)
    return context, weights


class OutputHead:
    """Two-layer perceptron producing logits: W2 tanh(W1 f + b1) + b2."""

    def __init__(self, w_hidden, b_hidden, w_out, b_out):
        self.w_hidden = w_hidden
        self.b_hidden = b_hidden
        self.w_out = w_out
        self.b_out = b_out

    @classmethod
    def create(cls, input_dim, hidden_dim, output_dim, rng=None):
        return cls(param(rng, hidden_dim, input_dim),
                   param(rng, hidden_dim),
                   param(rng, output_dim, hidden_dim),
                   param(rng, output_dim))

    def logits(self, features, rows=None):
        """Logits of every output, or of the outputs listed in rows only."""
        hidden = nm.tanh(nm.add(nm.matmul(self.w_hidden, features),
                                self.b_hidden))
        if rows is None:
            return nm.add(nm.matmul(self.w_out, hidden), self.b_out)
        return nm.add(nm.matmul(nm.take_rows(self.w_out, rows), hidden),
                      nm.gather(self.b_out, rows))

    def parameters(self):
        return [("w_hidden", self.w_hidden), ("b_hidden", self.b_hidden),
                ("w_out", self.w_out), ("b_out", self.b_out)]
