"""Keyword topic memory: key and content matrices, addressing, read.

Each keyword contributes a row to two matrices: an addressing key (last
forward state and first backward state of a dedicated Bi-GRU over its
characters, concatenated) and a content vector (the mean of its character
embeddings).  Both are stacked once, when the bank is built.  Addressing
softmaxes the key matrix times the decoder state; the read is the
resulting convex combination of content rows, added onto the state to
make it topic-aware.
"""

import numpy as np

from . import numerics as nm
from .errors import DimensionError, DomainError
from .layers import gru_run
from .numerics import Tensor


class MemoryBank:
    """Per-sample keyword memories: a key matrix and a content matrix.

    Row i of keys and of contents belong to keyword i.
    """

    def __init__(self, keys, contents):
        if keys.shape[0] != contents.shape[0]:
            raise DimensionError("memory bank: %d keys vs %d contents"
                                 % (keys.shape[0], contents.shape[0]))
        self.keys = keys
        self.contents = contents

    @property
    def size(self):
        return self.keys.shape[0]

    @classmethod
    def empty(cls):
        return cls(Tensor(np.zeros((0, 0))), Tensor(np.zeros((0, 0))))

    def zeroed(self):
        """Same-shape bank with every memory row forced to zero."""
        return MemoryBank(Tensor(np.zeros(self.keys.shape)),
                          Tensor(np.zeros(self.contents.shape)))


def encode_keywords(embedding, cell_fw, cell_bw, keywords):
    """Build a MemoryBank from keyword character-id sequences.

    Keys come from a keyword Bi-GRU (its own parameters, half the state
    width per direction); contents are mean character embeddings.
    """
    keys, contents = [], []
    for keyword in keywords:
        chars = list(keyword)
        if not chars:
            raise DomainError("keyword with zero characters")
        embs = [embedding.lookup(c) for c in chars]
        fw_last = gru_run(cell_fw, embs)[-1]
        bw_first = gru_run(cell_bw, list(reversed(embs)))[-1]
        keys.append(nm.concat([fw_last, bw_first]))
        total = embs[0]
        for e in embs[1:]:
            total = nm.add(total, e)
        contents.append(nm.scale(total, 1.0 / len(chars)))
    if not keys:
        return MemoryBank.empty()
    return MemoryBank(nm.stack(keys), nm.stack(contents))


def address(bank, state):
    """Keyword importance distribution: softmax of state-key dot products.

    A (T, h) matrix of states gets one distribution per row.
    """
    if bank.size == 0:
        raise DomainError("address on an empty memory bank")
    return nm.softmax(nm.linear(state, bank.keys))


def read(bank, weights):
    """Weighted sum of the content rows, per row of a matrix of weights."""
    if weights.data.ndim not in (1, 2) or weights.shape[-1] != bank.size:
        raise DimensionError("read: weights %s for a bank of %d"
                             % (weights.shape, bank.size))
    return nm.matmul(weights, bank.contents)


def fuse(topic, state):
    """Topic-aware state: elementwise sum of read vector and state."""
    return nm.add(topic, state)
