import numpy as np
import pytest

from imagepoet.errors import DimensionError, DomainError
from imagepoet.layers import EmbeddingTable, GRUCell
from imagepoet.numerics import Tensor
from imagepoet.topic_memory import (MemoryBank, address, encode_keywords,
                                    fuse, read)

from oracles import address_ref, read_ref


@pytest.fixture
def parts(rng):
    embedding = EmbeddingTable.create(12, 6, rng)
    fw = GRUCell.create(6, 3, rng)
    bw = GRUCell.create(6, 3, rng)
    return embedding, fw, bw


def vec(rng, n):
    return rng.uniform_array(n, -1.0, 1.0)


class TestEncodeKeywords:
    def test_single_char_content_is_its_embedding(self, parts):
        embedding, fw, bw = parts
        bank = encode_keywords(embedding, fw, bw, [(4,)])
        assert np.array_equal(bank.contents.data[0],
                              embedding.weights.data[4])

    def test_two_char_content_is_the_mean(self, parts):
        embedding, fw, bw = parts
        bank = encode_keywords(embedding, fw, bw, [(2, 9)])
        expected = (embedding.weights.data[2] + embedding.weights.data[9]) / 2
        assert np.max(np.abs(bank.contents.data[0] - expected)) < 1e-15

    def test_key_matches_manual_unroll(self, parts, rng):
        embedding, fw, bw = parts
        kw = (1, 7, 3)
        bank = encode_keywords(embedding, fw, bw, [kw])
        from oracles import gru_step_ref
        embs = [embedding.weights.data[c] for c in kw]
        h = np.zeros(3)
        for e in embs:
            h = gru_step_ref(fw, h, e)
        fw_last = h
        h = np.zeros(3)
        for e in reversed(embs):
            h = gru_step_ref(bw, h, e)
        bw_first = h
        expected = np.concatenate([fw_last, bw_first])
        assert np.max(np.abs(bank.keys.data[0] - expected)) < 1e-12

    def test_key_width_equals_state_width(self, parts):
        embedding, fw, bw = parts
        bank = encode_keywords(embedding, fw, bw, [(1, 2), (3,)])
        assert bank.keys.shape == (2, 6)
        assert bank.contents.shape == (2, 6)

    def test_empty_keyword_rejected(self, parts):
        embedding, fw, bw = parts
        with pytest.raises(DomainError):
            encode_keywords(embedding, fw, bw, [()])

    def test_empty_keyword_set_gives_empty_bank(self, parts):
        embedding, fw, bw = parts
        bank = encode_keywords(embedding, fw, bw, [])
        assert bank.size == 0


class TestAddress:
    def test_single_entry(self, rng):
        bank = MemoryBank(Tensor([vec(rng, 4)]), Tensor([vec(rng, 4)]))
        z = address(bank, Tensor(vec(rng, 4)[None]))
        assert np.array_equal(z.data, [[1.0]])

    def test_identical_keys_split_evenly(self, rng):
        q = vec(rng, 4)
        bank = MemoryBank(Tensor([q, q.copy()]),
                          Tensor([vec(rng, 4), vec(rng, 4)]))
        z = address(bank, Tensor(vec(rng, 4)[None]))
        assert np.max(np.abs(z.data - 0.5)) < 1e-15

    def test_matches_explicit_dot_products(self, rng):
        for _ in range(20):
            keys = [vec(rng, 4) for _ in range(5)]
            bank = MemoryBank(Tensor(keys),
                              Tensor([vec(rng, 4) for _ in range(5)]))
            state = vec(rng, 4)
            z = address(bank, Tensor(state[None]))
            assert np.max(np.abs(z.data[0] - address_ref(keys, state))) < 1e-12

    def test_is_probability_vector(self, rng):
        for n in (1, 2, 5, 9):
            bank = MemoryBank(Tensor([vec(rng, 4) for _ in range(n)]),
                              Tensor([vec(rng, 4) for _ in range(n)]))
            z = address(bank, Tensor(vec(rng, 4)[None] * 10))
            assert np.all(z.data >= 0.0)
            assert abs(z.data.sum() - 1.0) < 1e-12

    def test_empty_bank_signals(self, rng):
        with pytest.raises(DomainError):
            address(MemoryBank.empty(), Tensor(vec(rng, 4)[None]))

    def test_vector_state_rejected(self, rng):
        bank = MemoryBank(Tensor([vec(rng, 4)]), Tensor([vec(rng, 4)]))
        with pytest.raises(DimensionError):
            address(bank, Tensor(vec(rng, 4)))


class TestRead:
    def test_single_entry(self, rng):
        m = vec(rng, 4)
        bank = MemoryBank(Tensor([vec(rng, 4)]), Tensor([m]))
        out = read(bank, Tensor([[1.0]]))
        assert np.array_equal(out.data, [m])

    def test_one_hot_selects_one_memory(self, rng):
        contents = [vec(rng, 4) for _ in range(3)]
        bank = MemoryBank(Tensor([vec(rng, 4) for _ in range(3)]),
                          Tensor(contents))
        out = read(bank, Tensor([[0.0, 1.0, 0.0]]))
        assert np.array_equal(out.data, [contents[1]])

    def test_matches_explicit_weighted_sum(self, rng):
        contents = [vec(rng, 4) for _ in range(4)]
        bank = MemoryBank(Tensor([vec(rng, 4) for _ in range(4)]),
                          Tensor(contents))
        z = np.abs(vec(rng, 4))
        z = z / z.sum()
        out = read(bank, Tensor(z[None]))
        assert np.max(np.abs(out.data[0] - read_ref(contents, z))) < 1e-12

    def test_convex_hull_for_scalar_memories(self, rng):
        for _ in range(30):
            contents = [vec(rng, 1) for _ in range(4)]
            bank = MemoryBank(Tensor([vec(rng, 3) for _ in range(4)]),
                              Tensor(contents))
            z = address(bank, Tensor(vec(rng, 3)[None]))
            # widths differ on purpose: address over 3-wide keys, scalar reads
            out = read(bank, z)
            values = [float(m[0]) for m in contents]
            got = float(out.data[0, 0])
            assert min(values) - 1e-12 <= got <= max(values) + 1e-12

    def test_length_mismatch(self, rng):
        bank = MemoryBank(Tensor([vec(rng, 4)]), Tensor([vec(rng, 4)]))
        with pytest.raises(DimensionError):
            read(bank, Tensor([[0.5, 0.5]]))

    def test_vector_weights_rejected(self):
        bank = MemoryBank(Tensor(np.eye(2)), Tensor(np.eye(2)))
        with pytest.raises(DimensionError):
            read(bank, Tensor([0.5, 0.5]))


class TestFuse:
    def test_zero_topic_is_identity(self, rng):
        s = Tensor(vec(rng, 4))
        out = fuse(Tensor(np.zeros(4)), s)
        assert np.array_equal(out.data, s.data)

    def test_zero_state_returns_topic(self, rng):
        d = Tensor(vec(rng, 4))
        out = fuse(d, Tensor(np.zeros(4)))
        assert np.array_equal(out.data, d.data)

    def test_difference_recovers_topic(self, rng):
        d = Tensor(vec(rng, 4))
        s = Tensor(vec(rng, 4))
        out = fuse(d, s)
        assert np.max(np.abs((out.data - s.data) - d.data)) < 1e-15

    def test_width_mismatch(self, rng):
        with pytest.raises(DimensionError):
            fuse(Tensor(vec(rng, 3)), Tensor(vec(rng, 4)))


class TestBankProperties:
    def test_keyword_order_invariance(self, parts, rng):
        embedding, fw, bw = parts
        keywords = [(1, 2), (5,), (9, 0, 3)]
        state = vec(rng, 6)
        outputs = []
        for perm in ([0, 1, 2], [2, 0, 1], [1, 2, 0]):
            bank = encode_keywords(embedding, fw, bw,
                                   [keywords[i] for i in perm])
            z = address(bank, Tensor(state[None]))
            o = fuse(read(bank, z), Tensor(state[None]))
            outputs.append(o.data)
        for other in outputs[1:]:
            assert np.max(np.abs(other - outputs[0])) < 1e-12

    def test_zeroed_bank_makes_fuse_an_identity(self, parts, rng):
        embedding, fw, bw = parts
        bank = encode_keywords(embedding, fw, bw, [(1, 2), (5,)]).zeroed()
        state = Tensor(vec(rng, 6)[None])
        z = address(bank, state)
        assert np.max(np.abs(z.data - 0.5)) < 1e-15   # zero keys: uniform
        o = fuse(read(bank, z), state)
        assert np.array_equal(o.data, state.data)     # bitwise

    def test_mismatched_bank_rejected(self, rng):
        with pytest.raises(DimensionError):
            MemoryBank(Tensor([vec(rng, 4)]), Tensor(np.zeros((0, 4))))
