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
  step.  W q does not depend on the keys either, so attend takes it
  projected: a caller holding many queries projects them in one GEMM.
"""

import collections
import math

import numpy as np

from . import numerics as nm
from .errors import DimensionError, DomainError, VocabularyError
from .numerics import Tensor


class FlatWeights:
    """One C-contiguous float64 array, handed out in order as the views of
    the parameters that param makes from it.

    The array is drawn uniform on [-0.08, 0.08] from rng in one sweep
    (SeededRng.fill_uniform), or is zeros if rng is None.  The stream is
    counter-based, so each view holds the values that drawing its
    parameter alone, in the same order, would give.
    """

    def __init__(self, size, rng=None):
        self.array = (np.zeros(size) if rng is None
                      else rng.fill_uniform(np.empty(size), -0.08, 0.08))
        self.used = 0

    def take(self, shape):
        """The next prod(shape) values, as a view of that shape."""
        start = self.used
        self.used += math.prod(shape)
        return self.array[start:self.used].reshape(shape)


def param(source, *shape):
    """Trainable tensor of the given shape whose data is the next view of
    source, a FlatWeights.  A SeededRng or None as source gives the
    tensor a FlatWeights of its own, drawn from that rng or zeros."""
    if not isinstance(source, FlatWeights):
        source = FlatWeights(math.prod(shape), source)
    return Tensor(source.take(shape), requires_grad=True)


def int_ids(values, what):
    """values as a tuple of ints.  Python and numpy integers are ids; a
    float or a bool is not, and is a DomainError naming what, where int()
    would truncate it."""
    ids = tuple(values)
    for c in ids:
        if isinstance(c, bool) or not isinstance(c, (int, np.integer)):
            raise DomainError("%s id %r is not an integer" % (what, c))
    return tuple(int(c) for c in ids)


def check_ids(ids, vocab_size, what):
    """ids as a tuple of ints (int_ids), unless one lies outside
    [0, vocab_size); what names them in the error."""
    ids = int_ids(ids, what)
    for c in ids:
        if not 0 <= c < vocab_size:
            raise VocabularyError("%s character id %d outside vocabulary "
                                  "of %d" % (what, c, vocab_size))
    return ids


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
    def create(cls, vocab_size, dim, source=None):
        return cls(param(source, vocab_size, dim))

    @property
    def vocab_size(self):
        return self.weights.shape[0]

    def lookup(self, char_ids):
        """The row of one character id, or the (n, dim) matrix of the rows
        of a sequence of ids."""
        one = np.ndim(char_ids) == 0
        ids = check_ids([char_ids] if one else char_ids, self.vocab_size,
                        "embedded")
        return nm.take(self.weights, ids[0] if one else ids)


class GRUCell(ParamGroup):
    """Single GRU cell with separate input, recurrent and bias parameters."""

    _FIELDS = ("w_z", "u_z", "b_z", "w_r", "u_r", "b_r", "w_h", "u_h", "b_h")

    @classmethod
    def create(cls, input_dim, hidden_dim, source=None):
        params = []
        for gate in ("z", "r", "h"):
            params += [param(source, hidden_dim, input_dim),
                       param(source, hidden_dim, hidden_dim),
                       param(source, hidden_dim)]
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
    """One GRU transition of a (B, h) matrix of B states that step
    together; h' = (1 - z) * h_prev + z * cand.

    Each gate's products are one linear over the B rows, and its bias is
    added to every row.  x is the (B, input_dim) matrix of inputs, or the
    triple (W_z x, W_r x, W_h x) of its input products when the caller
    computed them ahead, as gru_run does for many steps at once.
    """
    precomputed = isinstance(x, tuple)
    shapes = [t.shape for t in x] if precomputed else [x.shape]
    widths = [cell.hidden_dim] * 3 if precomputed else [cell.input_dim]
    if (h_prev.shape[1:] != (cell.hidden_dim,)
            or shapes != [(h_prev.shape[0], w) for w in widths]):
        raise DimensionError(
            "gru_step: state %s / input %s vs cell dims (%d, %d)"
            % (h_prev.shape, shapes, cell.hidden_dim, cell.input_dim))
    wz_x, wr_x, wh_x = x if precomputed else (
        nm.linear(x, w) for w in (cell.w_z, cell.w_r, cell.w_h))
    z = nm.sigmoid(nm.add_rowvec(nm.add(wz_x, nm.linear(h_prev, cell.u_z)),
                                 cell.b_z))
    r = nm.sigmoid(nm.add_rowvec(nm.add(wr_x, nm.linear(h_prev, cell.u_r)),
                                 cell.b_r))
    cand = nm.tanh(nm.add_rowvec(
        nm.add(wh_x, nm.linear(nm.mul(r, h_prev), cell.u_h)), cell.b_h))
    keep = nm.sub(Tensor(np.ones(h_prev.shape)), z)
    return nm.add(nm.mul(keep, h_prev), nm.mul(z, cand))


def gru_run(cell, embedding, sequences, states):
    """Extend states, a map from id prefix to GRU state, with the state of
    every prefix of the id sequences.

    A state depends only on the ids read so far from the zero state, so
    each distinct prefix is stepped once, and one already in states is
    not stepped again.  The new prefixes step depth by depth: the input
    products W_z x, W_r x and W_h x of all of them are one linear each,
    split into depths by one nm.blocks record apiece, and each depth is
    one gru_step of the (n_d, h) matrix of its parents' states, gathered
    by one nm.stack and split back into states by one nm.rows.  One
    sequence alone is the single-sequence pass to the bit: BLAS rounds a
    one-row product as it rounds a vector one.
    """
    new = list(dict.fromkeys(
        seq[:d] for seq in sequences for d in range(1, len(seq) + 1)
        if seq[:d] not in states))
    if not new:
        return
    new.sort(key=len)
    depths = list(collections.Counter(map(len, new)).values())
    xs = embedding.lookup([prefix[-1] for prefix in new])
    gates = zip(*(nm.blocks(nm.linear(xs, w), depths)
                  for w in (cell.w_z, cell.w_r, cell.w_h)))
    zero = cell.zero_state()
    start = 0
    for size, inputs in zip(depths, gates):
        nodes = new[start:start + size]
        start += size
        parents = nm.stack([states[p[:-1]] if len(p) > 1 else zero
                            for p in nodes])
        states.update(zip(nodes, nm.rows(gru_step(cell, parents, inputs))))


def bigru_encode(cell_fw, cell_bw, embedding, sequences, forward):
    """The (n, 2h) matrix of Bi-GRU states of each id sequence.

    Row j of a sequence's matrix is [forward_j ; backward_j]: the forward
    state after its ids up to j, and the backward state after its ids
    from the last down to j, both from the zero state.  Each direction is
    one gru_run over all the sequences, the backward one over them
    reversed, so a shared prefix, or in the backward direction a shared
    suffix, is stepped once.  forward maps id prefixes to forward states:
    an earlier encoding's prefixes are read from it, and this call's are
    added to it.
    """
    sequences = [tuple(seq) for seq in sequences]
    if not sequences or not all(sequences):
        raise DomainError("bigru_encode needs sequences of at least one id")
    backward = {}
    gru_run(cell_fw, embedding, sequences, forward)
    gru_run(cell_bw, embedding, [seq[::-1] for seq in sequences], backward)
    return [nm.concat([nm.stack([forward[seq[:j + 1]]
                                 for j in range(len(seq))]),
                       nm.stack([backward[seq[j:][::-1]]
                                 for j in range(len(seq))])], axis=1)
            for seq in sequences]


class AttentionParams(ParamGroup):
    """Additive-attention parameters for one stream.

    score: projection-width vector u.
    query_proj: (proj_dim, query_dim), applied as linear(query, query_proj).
    key_proj: (key_dim, proj_dim), applied as keys @ key_proj.
    """

    _FIELDS = ("score", "query_proj", "key_proj")

    @classmethod
    def create(cls, query_dim, key_dim, proj_dim, source=None):
        return cls(param(source, proj_dim),
                   param(source, proj_dim, query_dim),
                   param(source, key_dim, proj_dim))


def project_keys(params, keys):
    """(keys, keys @ key_proj) for a key matrix queried many times."""
    return keys, nm.matmul(keys, params.key_proj)


def attend(params, query, keys, projected=None):
    """Attention context and weights for a query over the rows of keys.

    query is the projected query W q, linear(q, params.query_proj).
    projected, when given, is the keys' projection from project_keys.
    """
    if projected is None:
        projected = nm.matmul(keys, params.key_proj)
    scores = nm.matmul(nm.tanh(nm.add_rowvec(projected, query)),
                       params.score)
    weights = nm.softmax(scores)
    context = nm.matmul(weights, keys)
    return context, weights


class OutputHead(ParamGroup):
    """Two-layer perceptron producing logits: W2 tanh(W1 f + b1) + b2."""

    _FIELDS = ("w_hidden", "b_hidden", "w_out", "b_out")

    @classmethod
    def create(cls, input_dim, hidden_dim, output_dim, source=None):
        return cls(param(source, hidden_dim, input_dim),
                   param(source, hidden_dim),
                   param(source, output_dim, hidden_dim),
                   param(source, output_dim))

    def hidden(self, features):
        """The hidden layer tanh(W1 f + b1) of each row of a
        (T, input_dim) matrix of head inputs."""
        return nm.tanh(nm.linear(features, self.w_hidden, self.b_hidden))

    def logits(self, hidden, rows=None):
        """Logits of every output, or of the outputs listed in rows only,
        one row of them for each row of a (T, hidden_dim) matrix of
        hidden layers."""
        if rows is None:
            return nm.linear(hidden, self.w_out, self.b_out)
        return nm.linear(hidden, nm.take(self.w_out, rows),
                         nm.take(self.b_out, rows))
