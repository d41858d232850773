import numpy as np
import pytest

from imagepoet import numerics as nm
from imagepoet.errors import DimensionError, DomainError, VocabularyError
from imagepoet.layers import (AttentionParams, EmbeddingTable, GRUCell,
                              OutputHead, attend, bigru_encode, gru_run,
                              gru_step)
from imagepoet.numerics import Tensor, grad_check
from imagepoet.rng import SeededRng

from oracles import attend_ref, bigru_ref, gru_step_ref


def vec(rng, n):
    return rng.uniform_array(n, -1.0, 1.0)


class TestEmbedding:
    def test_lookup_returns_the_row(self, rng):
        table = EmbeddingTable.create(6, 4, rng)
        for i in range(6):
            assert np.array_equal(table.lookup(i).data, table.weights.data[i])

    def test_out_of_range_rejected(self, rng):
        table = EmbeddingTable.create(6, 4, rng)
        for bad in (-1, 6, 100):
            with pytest.raises(VocabularyError):
                table.lookup(bad)
            with pytest.raises(VocabularyError):
                table.lookup([0, bad])

    def test_a_sequence_looks_up_a_matrix_of_rows(self, rng):
        table = EmbeddingTable.create(6, 4, rng)
        ids = [5, 0, 5, 2]
        assert np.array_equal(table.lookup(ids).data,
                              table.weights.data[ids])


class TestGruStep:
    def test_zero_parameters_halve_the_state(self, rng):
        cell = GRUCell.create(3, 4)  # all-zero parameters
        h = Tensor(vec(rng, 4))
        x = Tensor(vec(rng, 3))
        out = gru_step(cell, h, x)
        assert np.max(np.abs(out.data - 0.5 * h.data)) < 1e-15

    def test_zero_state_zero_params_stay_zero(self, rng):
        cell = GRUCell.create(3, 4)
        out = gru_step(cell, cell.zero_state(), Tensor(vec(rng, 3)))
        assert np.array_equal(out.data, np.zeros(4))

    def test_matches_scalar_loop_oracle(self, rng):
        for _ in range(20):
            cell = GRUCell.create(5, 4, rng)
            h, x = vec(rng, 4), vec(rng, 5)
            out = gru_step(cell, Tensor(h), Tensor(x))
            assert np.max(np.abs(out.data - gru_step_ref(cell, h, x))) < 1e-12

    def test_output_bounded(self, rng):
        cell = GRUCell.create(4, 4, rng)
        h = Tensor(np.tanh(vec(rng, 4)))  # state in (-1, 1)
        for _ in range(30):
            h = gru_step(cell, h, Tensor(vec(rng, 4) * 10.0))
            assert np.all(np.abs(h.data) < 1.0)

    def test_shape_mismatch(self, rng):
        cell = GRUCell.create(3, 4, rng)
        with pytest.raises(DimensionError):
            gru_step(cell, Tensor(vec(rng, 5)), Tensor(vec(rng, 3)))


class TestGruRun:
    def test_precomputed_input_rows_match_the_vector_step(self, rng):
        cell = GRUCell.create(3, 4, rng)
        xs = Tensor(np.stack([vec(rng, 3) for _ in range(5)]))
        h = cell.zero_state()
        for got, x in zip(gru_run(cell, xs), xs.data):
            h = gru_step(cell, h, Tensor(x))
            assert np.max(np.abs(got.data - h.data)) < 1e-15

    def test_reverse_pass_reads_the_last_row_first(self, rng):
        cell = GRUCell.create(3, 4, rng)
        xs = np.stack([vec(rng, 3) for _ in range(4)])
        got = gru_run(cell, Tensor(xs), reverse=True)
        want = gru_run(cell, Tensor(xs[::-1].copy()))
        for a, b in zip(got, want):
            assert np.max(np.abs(a.data - b.data)) < 1e-15

    def test_one_input_product_per_gate_for_the_whole_sequence(
            self, rng, monkeypatch):
        cell = GRUCell.create(3, 4, rng)
        inputs = []
        linear = nm.linear

        def recording(x, w, b=None):
            if w in (cell.w_z, cell.w_r, cell.w_h):
                inputs.append(x.shape)
            return linear(x, w, b)

        monkeypatch.setattr(nm, "linear", recording)
        gru_run(cell, Tensor(np.stack([vec(rng, 3) for _ in range(6)])))
        assert inputs == [(6, 3)] * 3

    def test_precomputed_rows_of_the_wrong_width_rejected(self, rng):
        cell = GRUCell.create(3, 4, rng)
        rows = (Tensor(vec(rng, 4)), Tensor(vec(rng, 4)), Tensor(vec(rng, 3)))
        with pytest.raises(DimensionError):
            gru_step(cell, cell.zero_state(), rows)

    def test_more_prefix_states_than_inputs_rejected(self, rng):
        cell = GRUCell.create(3, 4, rng)
        states = gru_run(cell, Tensor(np.stack([vec(rng, 3)] * 3)))
        with pytest.raises(DimensionError):
            gru_run(cell, Tensor(np.stack([vec(rng, 3)] * 2)), prefix=states)


class TestBigru:
    @pytest.mark.parametrize("hidden", [8, 512])
    def test_extended_forward_states_are_a_fresh_pass_bitwise(self, hidden):
        # Contexts of 7, 14 and 21 rows, as a poem's lines give them: each
        # extends the forward states of the one before.  The result is
        # bitwise the encoding of the 21 rows from scratch.
        rng = SeededRng(9)
        fw = GRUCell.create(hidden, hidden, rng)
        bw = GRUCell.create(hidden, hidden, rng)
        xs = rng.uniform_array(21 * hidden, -1.0, 1.0).reshape(21, hidden)
        fresh, fresh_forward = bigru_encode(fw, bw, Tensor(xs))
        forward = ()
        for n in (7, 14, 21):
            out, extended = bigru_encode(fw, bw, Tensor(xs[:n]), forward)
            assert extended[:len(forward)] == list(forward)
            forward = extended
        assert out.data.tobytes() == fresh.data.tobytes()
        assert [s.data.tobytes() for s in forward] == [
            s.data.tobytes() for s in fresh_forward]

    def test_single_step_composition(self, rng):
        fw = GRUCell.create(3, 2, rng)
        bw = GRUCell.create(3, 2, rng)
        x = Tensor(vec(rng, 3))
        out, _ = bigru_encode(fw, bw, nm.stack([x]))
        expected = np.concatenate([
            gru_step(fw, fw.zero_state(), x).data,
            gru_step(bw, bw.zero_state(), x).data])
        assert np.array_equal(out.data[0], expected)

    @pytest.mark.parametrize("length", [1, 2, 7, 14])
    def test_output_count_matches_input_count(self, length, rng):
        fw = GRUCell.create(3, 2, rng)
        bw = GRUCell.create(3, 2, rng)
        xs = nm.stack([Tensor(vec(rng, 3)) for _ in range(length)])
        out, _ = bigru_encode(fw, bw, xs)
        assert out.shape == (length, 4)

    def test_matches_unrolled_oracle(self, rng):
        fw = GRUCell.create(3, 4, rng)
        bw = GRUCell.create(3, 4, rng)
        xs = [vec(rng, 3) for _ in range(3)]
        out, _ = bigru_encode(fw, bw, Tensor(xs))
        ref = bigru_ref(fw, bw, xs)
        for got, want in zip(out.data, ref):
            assert np.max(np.abs(got - want)) < 1e-12

    def test_empty_sequence_rejected(self, rng):
        fw = GRUCell.create(3, 2, rng)
        bw = GRUCell.create(3, 2, rng)
        with pytest.raises(DomainError):
            bigru_encode(fw, bw, Tensor(np.zeros((0, 3))))


class TestAttend:
    def test_single_key(self, rng):
        params = AttentionParams.create(4, 3, 4, rng)
        key = vec(rng, 3)
        context, weights = attend(params, Tensor(vec(rng, 4)), Tensor([key]))
        assert np.array_equal(weights.data, [1.0])
        assert np.array_equal(context.data, key)

    def test_identical_keys_share_weight(self, rng):
        params = AttentionParams.create(4, 3, 4, rng)
        key = vec(rng, 3)
        context, weights = attend(params, Tensor(vec(rng, 4)),
                                  Tensor([key, key.copy()]))
        assert np.max(np.abs(weights.data - 0.5)) < 1e-15
        assert np.max(np.abs(context.data - key)) < 1e-15

    def test_matches_direct_formula(self, rng):
        for _ in range(20):
            params = AttentionParams.create(4, 3, 5, rng)
            query = vec(rng, 4)
            keys = [vec(rng, 3) for _ in range(4)]
            context, weights = attend(params, Tensor(query), Tensor(keys))
            ref_ctx, ref_w = attend_ref(params, query, keys)
            assert np.max(np.abs(weights.data - ref_w)) < 1e-12
            assert np.max(np.abs(context.data - ref_ctx)) < 1e-12

    def test_weights_are_probability_vector(self, rng):
        for _ in range(50):
            params = AttentionParams.create(4, 3, 4, rng)
            n = 1 + rng.below(6)
            _, weights = attend(params, Tensor(vec(rng, 4)),
                                Tensor([vec(rng, 3) for _ in range(n)]))
            assert np.all(weights.data >= 0.0)
            assert abs(weights.data.sum() - 1.0) < 1e-12

    def test_permutation_equivariance(self, rng):
        params = AttentionParams.create(4, 3, 4, rng)
        query = Tensor(vec(rng, 4))
        keys = np.array([vec(rng, 3) for _ in range(5)])
        context, weights = attend(params, query, Tensor(keys))
        perm = [3, 0, 4, 1, 2]
        ctx_p, weights_p = attend(params, query, Tensor(keys[perm]))
        assert np.max(np.abs(weights_p.data - weights.data[perm])) < 1e-12
        assert np.max(np.abs(ctx_p.data - context.data)) < 1e-12

    def test_zero_keys_rejected(self, rng):
        params = AttentionParams.create(4, 3, 4, rng)
        with pytest.raises(DomainError):
            attend(params, Tensor(vec(rng, 4)), Tensor(np.zeros((0, 3))))


class TestLayerGradients:
    def test_gru_cell_parameters_pass_grad_check(self, rng):
        cell = GRUCell.create(3, 4, rng)
        h = Tensor(vec(rng, 4))
        x = Tensor(vec(rng, 3))

        def loss():
            return nm.sum_all(nm.tanh(gru_step(cell, h, x)))

        for name, p in cell.parameters():
            err = grad_check(lambda _: loss(), p, h=1e-5)
            assert err < 1e-5, "%s gradient off by %.3e" % (name, err)

    def test_attention_parameters_pass_grad_check(self, rng):
        params = AttentionParams.create(4, 3, 4, rng)
        query = Tensor(vec(rng, 4))
        keys = Tensor([vec(rng, 3) for _ in range(3)])

        def loss():
            context, _ = attend(params, query, keys)
            return nm.sum_all(nm.mul(context, context))

        for name, p in params.parameters():
            err = grad_check(lambda _: loss(), p, h=1e-5)
            assert err < 1e-5, "%s gradient off by %.3e" % (name, err)

    def test_output_head_parameters_pass_grad_check(self, rng):
        head = OutputHead.create(5, 4, 6, rng)
        features = Tensor(vec(rng, 5))

        def loss():
            return nm.sum_all(nm.softmax(head.logits(features)))

        for name, p in head.parameters():
            err = grad_check(lambda _: loss(), p, h=1e-5)
            assert err < 1e-5, "%s gradient off by %.3e" % (name, err)


def test_init_draws_within_range():
    rng = SeededRng(77)
    cell = GRUCell.create(6, 6, rng)
    for _, p in cell.parameters():
        assert np.all(p.data >= -0.08)
        assert np.all(p.data <= 0.08)
