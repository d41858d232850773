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
        h = Tensor(vec(rng, 4)[None])
        x = Tensor(vec(rng, 3)[None])
        out = gru_step(cell, h, x)
        assert np.max(np.abs(out.data - 0.5 * h.data)) < 1e-15

    def test_zero_state_zero_params_stay_zero(self, rng):
        cell = GRUCell.create(3, 4)
        out = gru_step(cell, nm.stack([cell.zero_state()]),
                       Tensor(vec(rng, 3)[None]))
        assert np.array_equal(out.data, np.zeros((1, 4)))

    def test_matches_scalar_loop_oracle(self, rng):
        for _ in range(20):
            cell = GRUCell.create(5, 4, rng)
            h, x = vec(rng, 4), vec(rng, 5)
            out = gru_step(cell, Tensor(h[None]), Tensor(x[None]))
            assert np.max(np.abs(out.data[0] - gru_step_ref(cell, h, x))) < 1e-12

    def test_output_bounded(self, rng):
        cell = GRUCell.create(4, 4, rng)
        h = Tensor(np.tanh(vec(rng, 4))[None])  # state in (-1, 1)
        for _ in range(30):
            h = gru_step(cell, h, Tensor(vec(rng, 4)[None] * 10.0))
            assert np.all(np.abs(h.data) < 1.0)

    def test_shape_mismatch(self, rng):
        cell = GRUCell.create(3, 4, rng)
        with pytest.raises(DimensionError):
            gru_step(cell, Tensor(vec(rng, 5)), Tensor(vec(rng, 3)))

    @pytest.mark.parametrize("precomputed", [False, True])
    def test_a_matrix_of_states_steps_as_its_rows(self, rng, precomputed):
        cell = GRUCell.create(5, 4, rng)
        hs = np.stack([vec(rng, 4) for _ in range(6)])
        xs = np.stack([vec(rng, 5) for _ in range(6)])

        def inputs(x):
            x = Tensor(x)
            return (tuple(nm.linear(x, w) for w in (cell.w_z, cell.w_r,
                                                   cell.w_h))
                    if precomputed else x)

        got = gru_step(cell, Tensor(hs), inputs(xs)).data
        assert got.shape == (6, 4)
        for row, h, x in zip(got, hs, xs):
            want = gru_step(cell, Tensor(h[None]), inputs(x[None])).data[0]
            assert np.max(np.abs(row - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("h_shape, x_shape", [
        ((2, 4), (3,)), ((2, 4), (3, 3)), ((4,), (2, 3)), ((1, 2, 4), (3,)),
        ((), (3,))])
    def test_state_and_input_rows_must_agree(self, rng, h_shape, x_shape):
        cell = GRUCell.create(3, 4, rng)
        with pytest.raises(DimensionError):
            gru_step(cell, Tensor(np.zeros(h_shape)), Tensor(np.zeros(x_shape)))


def table_of(rows):
    """An embedding table whose rows are the given input vectors, so that
    the id sequence 0, 1, ... reads them in order."""
    return EmbeddingTable(Tensor(np.asarray(rows, dtype=np.float64)))


def single_pass(cell, xs):
    """The states of one GRU pass over the rows of xs: the input products
    one linear per gate over the whole sequence, then one one-row step
    per row."""
    gates = list(zip(*(nm.blocks(nm.linear(xs, w), [1] * xs.shape[0])
                       for w in (cell.w_z, cell.w_r, cell.w_h))))
    h = nm.stack([cell.zero_state()])
    states = []
    for inputs in gates:
        h = gru_step(cell, h, inputs)
        states.append(nm.take(h, 0))
    return states


class TestGruRun:
    def test_precomputed_input_rows_match_the_vector_step(self, rng):
        cell = GRUCell.create(3, 4, rng)
        xs = np.stack([vec(rng, 3) for _ in range(5)])
        states = {}
        gru_run(cell, table_of(xs), [tuple(range(5))], states)
        h = nm.stack([cell.zero_state()])
        for n, x in enumerate(xs, start=1):
            h = gru_step(cell, h, Tensor(x[None]))
            got = states[tuple(range(n))]
            assert np.max(np.abs(got.data - h.data[0])) < 1e-15

    def test_reverse_pass_reads_the_last_row_first(self, rng):
        # The backward half of a Bi-GRU row j is the pass over the
        # sequence reversed, after it read the ids from the last down to j.
        fw = GRUCell.create(3, 4, rng)
        bw = GRUCell.create(3, 4, rng)
        table = table_of([vec(rng, 3) for _ in range(4)])
        out, = bigru_encode(fw, bw, table, [(0, 1, 2, 3)], {})
        states = {}
        gru_run(bw, table, [(3, 2, 1, 0)], states)
        for j, prefix in enumerate([(3, 2, 1, 0), (3, 2, 1), (3, 2), (3,)]):
            assert np.array_equal(out.data[j, 4:], states[prefix].data)

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
        table = table_of([vec(rng, 3) for _ in range(8)])
        gru_run(cell, table, [tuple(range(6))], {})
        assert inputs == [(6, 3)] * 3
        # A set of sequences: one product per gate for all their distinct
        # prefixes; the known ones are not read again.
        inputs.clear()
        states = {}
        gru_run(cell, table, [(0, 1, 2), (0, 1, 7, 6), (5,)], states)
        assert inputs == [(6, 3)] * 3
        inputs.clear()
        gru_run(cell, table, [(0, 1, 2, 3), (5,)], states)
        assert inputs == [(1, 3)] * 3

    def test_precomputed_rows_of_the_wrong_width_rejected(self, rng):
        cell = GRUCell.create(3, 4, rng)
        rows = (Tensor(vec(rng, 4)), Tensor(vec(rng, 4)), Tensor(vec(rng, 3)))
        with pytest.raises(DimensionError):
            gru_step(cell, cell.zero_state(), rows)

    def test_each_depth_is_one_step_of_its_distinct_prefixes(
            self, rng, monkeypatch):
        cell = GRUCell.create(3, 4, rng)
        table = table_of([vec(rng, 3) for _ in range(6)])
        alone = {}
        for seq in [(0, 1, 2, 3), (0, 1, 4), (5, 1)]:
            gru_run(cell, table, [seq], alone)
        rows = []
        gru = gru_step

        def counting(cell, h, x):
            rows.append(h.shape[0])
            return gru(cell, h, x)

        monkeypatch.setattr("imagepoet.layers.gru_step", counting)
        together = {}
        gru_run(cell, table, [(0, 1, 2, 3), (0, 1, 4), (5, 1)], together)
        # Depth 1: (0,) and (5,); depth 2: (0, 1) and (5, 1); depth 3:
        # (0, 1, 2) and (0, 1, 4); depth 4: (0, 1, 2, 3).
        assert rows == [2, 2, 2, 1]
        assert together.keys() == alone.keys()
        for prefix, state in alone.items():
            assert np.max(np.abs(together[prefix].data - state.data)) < 1e-15


class TestBigru:
    @pytest.mark.parametrize("hidden", [8, 512])
    def test_extended_forward_states_are_a_fresh_pass_bitwise(self, hidden):
        # Contexts of 7, 14 and 21 rows, as a poem's lines give them: each
        # extends the forward states of the one before.  The result is
        # bitwise the encoding of the 21 rows from scratch.
        rng = SeededRng(9)
        fw = GRUCell.create(hidden, hidden, rng)
        bw = GRUCell.create(hidden, hidden, rng)
        table = table_of(rng.uniform_array(21 * hidden, -1.0,
                                           1.0).reshape(21, hidden))
        ids = tuple(range(21))
        fresh_forward = {}
        fresh, = bigru_encode(fw, bw, table, [ids], fresh_forward)
        forward = {}
        for n in (7, 14, 21):
            earlier = dict(forward)
            out, = bigru_encode(fw, bw, table, [ids[:n]], forward)
            assert all(forward[p] is s for p, s in earlier.items())
            assert len(forward) == n
        assert out.data.tobytes() == fresh.data.tobytes()
        assert [forward[p].data.tobytes() for p in forward] == [
            fresh_forward[p].data.tobytes() for p in forward]

    @pytest.mark.parametrize("hidden", [8, 512])
    def test_one_sequence_alone_is_the_single_pass_bitwise(self, hidden):
        rng = SeededRng(10)
        fw = GRUCell.create(hidden, hidden, rng)
        bw = GRUCell.create(hidden, hidden, rng)
        xs = rng.uniform_array(21 * hidden, -1.0, 1.0).reshape(21, hidden)
        out, = bigru_encode(fw, bw, table_of(xs), [tuple(range(21))], {})
        forward = single_pass(fw, Tensor(xs))
        backward = single_pass(bw, Tensor(xs[::-1].copy()))[::-1]
        want = np.stack([np.concatenate([f.data, b.data])
                         for f, b in zip(forward, backward)])
        assert out.data.tobytes() == want.tobytes()

    def test_single_step_composition(self, rng):
        fw = GRUCell.create(3, 2, rng)
        bw = GRUCell.create(3, 2, rng)
        x = Tensor(vec(rng, 3))
        out, = bigru_encode(fw, bw, table_of([x.data]), [(0,)], {})
        expected = np.concatenate([
            gru_step(fw, nm.stack([fw.zero_state()]), nm.stack([x])).data[0],
            gru_step(bw, nm.stack([bw.zero_state()]), nm.stack([x])).data[0]])
        assert np.array_equal(out.data[0], expected)

    @pytest.mark.parametrize("length", [1, 2, 7, 14])
    def test_output_count_matches_input_count(self, length, rng):
        fw = GRUCell.create(3, 2, rng)
        bw = GRUCell.create(3, 2, rng)
        table = table_of([vec(rng, 3) for _ in range(length)])
        out, = bigru_encode(fw, bw, table, [tuple(range(length))], {})
        assert out.shape == (length, 4)

    def test_matches_unrolled_oracle(self, rng):
        fw = GRUCell.create(3, 4, rng)
        bw = GRUCell.create(3, 4, rng)
        xs = [vec(rng, 3) for _ in range(3)]
        out, = bigru_encode(fw, bw, table_of(xs), [(0, 1, 2)], {})
        ref = bigru_ref(fw, bw, xs)
        for got, want in zip(out.data, ref):
            assert np.max(np.abs(got - want)) < 1e-12

    def test_a_set_of_sequences_matches_each_encoded_alone(self, rng,
                                                          monkeypatch):
        fw = GRUCell.create(3, 4, rng)
        bw = GRUCell.create(3, 4, rng)
        table = table_of([vec(rng, 3) for _ in range(5)])
        # Nested contexts, and one that ends as another does.
        sequences = [(1,), (2, 3, 0), (2, 3, 0, 4, 1), (4, 1)]
        alone = [bigru_encode(fw, bw, table, [seq], {})[0]
                 for seq in sequences]
        steps = []
        gru = gru_step

        def counting(cell, h, x):
            steps.append((cell, h.shape[0]))
            return gru(cell, h, x)

        monkeypatch.setattr("imagepoet.layers.gru_step", counting)
        together = bigru_encode(fw, bw, table, sequences, {})
        for got, want in zip(together, alone):
            assert np.max(np.abs(got.data - want.data)) < 1e-15
        # Forward depths: (1,) (2,) (4,); (2, 3) (4, 1); then one prefix
        # of (2, 3, 0, 4, 1) each.
        assert [n for c, n in steps if c is fw] == [3, 2, 1, 1, 1]
        # Backward, over the reversals: (1,) begins three of them and
        # (1, 4) two, so depths 1 to 3 hold (1,) (0,); (1, 4) (0, 3);
        # (1, 4, 0) (0, 3, 2).
        assert [n for c, n in steps if c is bw] == [2, 2, 2, 1, 1]

    def test_empty_sequence_rejected(self, rng):
        fw = GRUCell.create(3, 2, rng)
        bw = GRUCell.create(3, 2, rng)
        table = table_of([vec(rng, 3)])
        for sequences in ([()], [(0,), ()], []):
            with pytest.raises(DomainError):
                bigru_encode(fw, bw, table, sequences, {})


class TestAttend:
    def test_single_key(self, rng):
        params = AttentionParams.create(4, 3, 4, rng)
        key = vec(rng, 3)
        context, weights = attend(
            params, nm.linear(Tensor(vec(rng, 4)), params.query_proj),
            Tensor([key]))
        assert np.array_equal(weights.data, [1.0])
        assert np.array_equal(context.data, key)

    def test_identical_keys_share_weight(self, rng):
        params = AttentionParams.create(4, 3, 4, rng)
        key = vec(rng, 3)
        context, weights = attend(
            params, nm.linear(Tensor(vec(rng, 4)), params.query_proj),
            Tensor([key, key.copy()]))
        assert np.max(np.abs(weights.data - 0.5)) < 1e-15
        assert np.max(np.abs(context.data - key)) < 1e-15

    def test_matches_direct_formula(self, rng):
        for _ in range(20):
            params = AttentionParams.create(4, 3, 5, rng)
            query = vec(rng, 4)
            keys = [vec(rng, 3) for _ in range(4)]
            context, weights = attend(
                params, nm.linear(Tensor(query), params.query_proj),
                Tensor(keys))
            ref_ctx, ref_w = attend_ref(params, query, keys)
            assert np.max(np.abs(weights.data - ref_w)) < 1e-12
            assert np.max(np.abs(context.data - ref_ctx)) < 1e-12

    def test_weights_are_probability_vector(self, rng):
        for _ in range(50):
            params = AttentionParams.create(4, 3, 4, rng)
            n = 1 + rng.below(6)
            _, weights = attend(
                params, nm.linear(Tensor(vec(rng, 4)), params.query_proj),
                Tensor([vec(rng, 3) for _ in range(n)]))
            assert np.all(weights.data >= 0.0)
            assert abs(weights.data.sum() - 1.0) < 1e-12

    def test_permutation_equivariance(self, rng):
        params = AttentionParams.create(4, 3, 4, rng)
        query = nm.linear(Tensor(vec(rng, 4)), params.query_proj)
        keys = np.array([vec(rng, 3) for _ in range(5)])
        context, weights = attend(params, query, Tensor(keys))
        perm = [3, 0, 4, 1, 2]
        ctx_p, weights_p = attend(params, query, Tensor(keys[perm]))
        assert np.max(np.abs(weights_p.data - weights.data[perm])) < 1e-12
        assert np.max(np.abs(ctx_p.data - context.data)) < 1e-12

    def test_zero_keys_rejected(self, rng):
        params = AttentionParams.create(4, 3, 4, rng)
        with pytest.raises(DomainError):
            attend(params, nm.linear(Tensor(vec(rng, 4)), params.query_proj),
                   Tensor(np.zeros((0, 3))))


class TestLayerGradients:
    def test_gru_cell_parameters_pass_grad_check(self, rng):
        cell = GRUCell.create(3, 4, rng)
        h = Tensor(vec(rng, 4)[None])
        x = Tensor(vec(rng, 3)[None])

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
            context, _ = attend(params, nm.linear(query, params.query_proj),
                                keys)
            return nm.sum_all(nm.mul(context, context))

        for name, p in params.parameters():
            err = grad_check(lambda _: loss(), p, h=1e-5)
            assert err < 1e-5, "%s gradient off by %.3e" % (name, err)

    def test_output_head_parameters_pass_grad_check(self, rng):
        head = OutputHead.create(5, 4, 6, rng)
        features = Tensor(vec(rng, 5))

        def loss():
            return nm.sum_all(nm.softmax(head.logits(head.hidden(features))))

        for name, p in head.parameters():
            err = grad_check(lambda _: loss(), p, h=1e-5)
            assert err < 1e-5, "%s gradient off by %.3e" % (name, err)


def test_init_draws_within_range():
    rng = SeededRng(77)
    cell = GRUCell.create(6, 6, rng)
    for _, p in cell.parameters():
        assert np.all(p.data >= -0.08)
        assert np.all(p.data <= 0.08)
