import math
import os
import tracemalloc

import numpy as np
import pytest

from imagepoet import numerics as nm
from imagepoet.errors import ContractError, DimensionError, DomainError
from imagepoet.layers import GRUCell, gru_step
from imagepoet.numerics import SWEEP_BLOCK, Tape, Tensor, grad_check
from imagepoet.rng import SeededRng

from oracles import matmul_3loop


def arr(rng, *shape):
    n = int(np.prod(shape))
    return rng.uniform_array(n, -1.0, 1.0).reshape(shape)


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = nm.matmul(a, Tensor(np.eye(2)))
        assert np.array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_one_by_one(self):
        out = nm.matmul(Tensor([[2.0]]), Tensor([[3.0]]))
        assert out.data[0, 0] == 6.0

    def test_matches_triple_loop(self, rng):
        a, b = arr(rng, 5, 4), arr(rng, 4, 3)
        out = nm.matmul(Tensor(a), Tensor(b))
        assert np.max(np.abs(out.data - matmul_3loop(a, b))) < 1e-12

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError) as info:
            nm.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
        assert "(2, 3)" in str(info.value) and "(4, 2)" in str(info.value)


class TestElementwise:
    def test_tanh_zero(self):
        assert np.array_equal(nm.tanh(Tensor([0.0, 0.0])).data, [0.0, 0.0])

    def test_sigmoid_zero(self):
        assert nm.sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_add(self):
        out = nm.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
        assert np.array_equal(out.data, [4.0, 6.0])

    def test_binary_shape_mismatch(self):
        for op in (nm.add, nm.sub, nm.mul):
            with pytest.raises(DimensionError):
                op(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))

    def test_sigmoid_extreme_inputs_finite(self):
        out = nm.sigmoid(Tensor([-1e4, -50.0, 50.0, 1e4]))
        assert np.all(np.isfinite(out.data))
        assert np.all((out.data >= 0.0) & (out.data <= 1.0))


class TestSoftmax:
    def test_symmetry(self):
        for c in (-3.0, 0.0, 7.5):
            out = nm.softmax(Tensor([c, c, c])).data
            assert np.max(np.abs(out - 1.0 / 3.0)) < 1e-15

    def test_closed_form(self):
        out = nm.softmax(Tensor([math.log(2.0), 0.0])).data
        assert abs(out[0] - 2.0 / 3.0) < 1e-12
        assert abs(out[1] - 1.0 / 3.0) < 1e-12

    def test_shift_invariance(self, rng):
        v = arr(rng, 6)
        a = nm.softmax(Tensor(v)).data
        b = nm.softmax(Tensor(v + 1000.0)).data
        assert np.max(np.abs(a - b)) < 1e-9

    def test_probability_vector_for_large_logits(self, rng):
        for _ in range(50):
            v = rng.uniform_array(8, -1e4, 1e4)
            out = nm.softmax(Tensor(v)).data
            assert np.all(out >= 0.0)
            assert abs(out.sum() - 1.0) < 1e-9

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            nm.softmax(Tensor(np.zeros(0)))

    def test_head_sized_rows_equal_the_formula_bitwise(self):
        # The generic head's distribution of a twelve-sample wave.
        m = SeededRng(3).uniform_array(84 * 6000, -30.0, 30.0).reshape(
            84, 6000)
        e = np.exp(m - m.max(axis=-1, keepdims=True))
        want = e / e.sum(axis=-1, keepdims=True)
        assert nm.softmax(Tensor(m)).data.tobytes() == want.tobytes()

    def test_allocates_at_most_two_matrices(self):
        m = SeededRng(4).uniform_array(84 * 6000, -30.0, 30.0).reshape(
            84, 6000)
        x = Tensor(m)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            out = nm.softmax(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.data.shape == m.shape
        assert peak - before <= 2 * m.nbytes, (peak - before) / m.nbytes


class TestConcat:
    def test_basic(self):
        out = nm.concat([Tensor([1.0, 2.0]), Tensor([3.0])])
        assert np.array_equal(out.data, [1.0, 2.0, 3.0])

    def test_single_part_identity(self):
        x = Tensor([4.0, 5.0])
        assert np.array_equal(nm.concat([x]).data, x.data)

    def test_split_then_concat_roundtrip(self, rng):
        v = arr(rng, 9)
        parts = [Tensor(v[:2]), Tensor(v[2:5]), Tensor(v[5:])]
        assert np.array_equal(nm.concat(parts).data, v)

    def test_incompatible_extents(self):
        with pytest.raises(DimensionError):
            nm.concat([Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4)))],
                      axis=0)


class TestTake:
    @pytest.mark.parametrize("index", [1, [2, 0, 2]])
    def test_rows_are_copies(self, rng, index):
        m = Tensor(arr(rng, 3, 4), requires_grad=True)
        out = nm.take(m, index)
        assert np.array_equal(out.data, m.data[index])
        assert not np.shares_memory(out.data, m.data)

    def test_elements_of_a_vector(self):
        out = nm.take(Tensor([5.0, 6.0, 7.0]), [2, 2, 0])
        assert np.array_equal(out.data, [7.0, 7.0, 5.0])

    @pytest.mark.parametrize("index", [-1, 3, [0, 3], [-1, 0], [[0]]])
    def test_bad_index_rejected(self, index):
        with pytest.raises(DimensionError):
            nm.take(Tensor(np.zeros((3, 2))), index)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        with Tape() as tape:
            loss = nm.sum_all(x)
        tape.backward(loss)
        assert np.array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_square_gradient(self):
        x = Tensor([2.0], requires_grad=True)
        with Tape() as tape:
            loss = nm.sum_all(nm.mul(x, x))
        tape.backward(loss)
        assert np.array_equal(x.grad, [4.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = nm.scale(x, 2.0)
        with pytest.raises(ContractError):
            tape.backward(y)

    def test_backward_accumulates_across_calls(self):
        x = Tensor([3.0], requires_grad=True)
        with Tape() as tape:
            loss = nm.sum_all(nm.mul(x, x))
        tape.backward(loss)
        tape.backward(loss)
        assert np.array_equal(x.grad, [12.0])
        x.grad = None
        tape.backward(loss)
        assert np.array_equal(x.grad, [6.0])

    def test_populates_every_reachable_leaf(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        c = Tensor([5.0, 6.0], requires_grad=True)  # unreachable
        with Tape() as tape:
            loss = nm.sum_all(nm.mul(a, b))
        tape.backward(loss)
        assert np.array_equal(a.grad, [3.0, 4.0])
        assert np.array_equal(b.grad, [1.0, 2.0])
        assert c.grad is None


class TestGradCheck:
    def test_tanh_sum(self, rng):
        x = Tensor(arr(rng, 5), requires_grad=True)
        err = grad_check(lambda t: nm.sum_all(nm.tanh(t)), x, h=1e-5)
        assert err < 1e-7

    def test_linear_is_nearly_exact(self, rng):
        w = arr(rng, 5)
        x = Tensor(arr(rng, 5, 1), requires_grad=True)
        err = grad_check(lambda t: nm.sum_all(nm.matmul(Tensor(w), t)), x,
                         h=1e-5)
        assert err < 1e-10

    def test_nan_gradient_fails_the_check(self, rng):
        nan = Tensor(np.full(3, np.nan))
        x = Tensor(arr(rng, 3), requires_grad=True)
        err = grad_check(lambda t: nm.sum_all(nm.mul(t, nan)), x, h=1e-5)
        assert math.isnan(err)
        assert not err < 1e-7

    @pytest.mark.parametrize("case", [
        "matmul", "add", "sub", "mul", "scale", "add_rowvec", "tanh",
        "sigmoid", "log", "softmax", "concat", "stack", "pick", "take_row",
        "take_rows", "gather", "softmax_rows", "scatter_rows",
        "pick_per_row", "rows", "blocks", "gru_step_rows",
    ])
    def test_every_op_matches_central_differences(self, case, rng):
        probe = Tensor(arr(rng, 3, 4), requires_grad=True)
        cell = GRUCell.create(4, 4, rng)
        other_v = Tensor(arr(rng, 4))
        other_m = Tensor(arr(rng, 3, 4))

        def vec(t):
            return nm.concat([nm.take(t, i) for i in range(3)])

        funcs = {
            "matmul": lambda t: nm.sum_all(nm.tanh(nm.matmul(t, other_v))),
            "add": lambda t: nm.sum_all(nm.mul(nm.add(t, other_m),
                                               nm.add(t, other_m))),
            "sub": lambda t: nm.sum_all(nm.tanh(nm.sub(t, other_m))),
            "mul": lambda t: nm.sum_all(nm.mul(t, other_m)),
            "scale": lambda t: nm.sum_all(nm.scale(t, -2.5)),
            "add_rowvec": lambda t: nm.sum_all(
                nm.tanh(nm.add_rowvec(t, other_v))),
            "tanh": lambda t: nm.sum_all(nm.tanh(t)),
            "sigmoid": lambda t: nm.sum_all(nm.sigmoid(t)),
            "log": lambda t: nm.sum_all(
                nm.log(nm.scale(nm.sigmoid(t), 0.5))),
            "softmax": lambda t: nm.sum_all(
                nm.mul(nm.softmax(vec(t)), nm.softmax(vec(t)))),
            "concat": lambda t: nm.sum_all(nm.tanh(vec(t))),
            "stack": lambda t: nm.sum_all(nm.tanh(nm.stack(
                [nm.take(t, i) for i in range(3)]))),
            "pick": lambda t: nm.take(nm.tanh(vec(t)), 7),
            "take_row": lambda t: nm.sum_all(nm.tanh(nm.take(t, 1))),
            "take_rows": lambda t: nm.sum_all(nm.tanh(nm.matmul(
                nm.take(t, [2, 0, 2]), other_v))),
            "gather": lambda t: nm.sum_all(
                nm.tanh(nm.take(vec(t), [0, 3, 3, 11]))),
            "softmax_rows": lambda t: nm.sum_all(
                nm.mul(nm.softmax(t), other_m)),
            "scatter_rows": lambda t: nm.sum_all(nm.tanh(nm.scatter(
                t, [1, 6, 0, 3], 8))),
            "pick_per_row": lambda t: nm.sum_all(nm.log(nm.pick(
                nm.softmax(t), [2, 0, 3]))),
            # Row 1 is never read, so its adjoint is zero.
            "rows": lambda t: nm.sum_all(nm.tanh(nm.concat(
                [row for i, row in enumerate(nm.rows(nm.tanh(t)))
                 if i != 1]))),
            # The middle block is never read, so its adjoint is zero.
            "blocks": lambda t: nm.sum_all(nm.tanh(nm.concat(
                [b for i, b in enumerate(nm.blocks(nm.tanh(t), [1, 0, 2]))
                 if i != 2]))),
            # Three states of width 4 step together, each reading its row.
            "gru_step_rows": lambda t: nm.sum_all(nm.tanh(gru_step(
                cell, nm.tanh(t), nm.scale(t, 0.5)))),
        }
        err = grad_check(funcs[case], probe, h=1e-5)
        assert err < 1e-5, "%s gradient off by %.3e" % (case, err)


class TestRowOps:
    def test_rows_are_one_record_whose_backward_stacks_the_adjoints(
            self, rng):
        m = Tensor(arr(rng, 3, 4), requires_grad=True)
        with Tape() as tape:
            inner = nm.tanh(m)
            parts = nm.rows(inner)
            loss = nm.sum_all(nm.mul(parts[2], parts[0]))
        assert [np.array_equal(p.data, row)
                for p, row in zip(parts, inner.data)] == [True] * 3
        assert len(tape._records) == 4
        grads = tape.gradients(loss)
        want = (1.0 - inner.data ** 2) * np.stack(
            [inner.data[2], np.zeros(4), inner.data[0]])
        assert np.array_equal(grads[m], want)

    def test_rows_are_one_emitted_op(self, rng, monkeypatch):
        # Every op reaches the tape through _emit, where op counters look.
        emitted = []
        emit = nm._emit

        def counting(data, inputs, backward_fn):
            emitted.append(type(data))
            return emit(data, inputs, backward_fn)

        monkeypatch.setattr(nm, "_emit", counting)
        m = Tensor(arr(rng, 3, 4), requires_grad=True)
        with Tape() as tape:
            parts = nm.rows(m)
        assert emitted == [tuple]
        assert [record[0] for record in tape._records] == [tuple(parts)]
        assert all(p.needs_grad for p in parts)

    def test_blocks_are_views_recorded_as_one_op(self, rng):
        m = Tensor(arr(rng, 5, 3), requires_grad=True)
        with Tape() as tape:
            inner = nm.tanh(m)
            parts = nm.blocks(inner, [2, 0, 3])
            loss = nm.sum_all(nm.mul(parts[2], parts[2]))
        assert [p.shape for p in parts] == [(2, 3), (0, 3), (3, 3)]
        assert all(np.shares_memory(p.data, inner.data) for p in parts
                   if p.size)
        assert np.array_equal(parts[2].data, inner.data[2:])
        assert len(tape._records) == 4
        grads = tape.gradients(loss)
        want = (1.0 - inner.data ** 2) * 2.0 * np.concatenate(
            [np.zeros((2, 3)), inner.data[2:]])
        assert np.array_equal(grads[m], want)

    @pytest.mark.parametrize("sizes", [[2, 2], [3, 3], [6, -1], []])
    def test_blocks_must_cover_the_rows(self, rng, sizes):
        with pytest.raises(DimensionError):
            nm.blocks(Tensor(arr(rng, 5, 3)), sizes)

    def test_rows_of_a_constant_record_nothing(self, rng):
        with Tape() as tape:
            nm.rows(Tensor(arr(rng, 2, 3)))
        assert tape._records == []

    def test_softmax_rows_are_each_rows_softmax(self, rng):
        m = arr(rng, 3, 4)
        out = nm.softmax(Tensor(m)).data
        for row, want in zip(out, m):
            assert np.array_equal(row, nm.softmax(Tensor(want)).data)

    def test_scatter_rows_place_every_row_at_the_indices(self, rng):
        values = arr(rng, 2, 3)
        out = nm.scatter(Tensor(values), [4, 0, 2], 5).data
        want = np.zeros((2, 5))
        want[:, [4, 0, 2]] = values
        assert np.array_equal(out, want)

    def test_pick_takes_one_column_per_row(self, rng):
        m = arr(rng, 3, 4)
        assert np.array_equal(nm.pick(Tensor(m), [3, 3, 0]).data,
                              [m[0, 3], m[1, 3], m[2, 0]])

    @pytest.mark.parametrize("columns", [[0, 1], [0, 1, 4], [0, -1, 1]])
    def test_pick_rejects_bad_columns(self, columns):
        with pytest.raises(DimensionError):
            nm.pick(Tensor(np.zeros((3, 4))), columns)


LINEAR_CASES = [(rows, wrt, bias) for rows in (1, 2)
                for wrt in ("x", "leaf_w", "nonleaf_w", "b")
                for bias in (False, True) if wrt != "b" or bias]


class TestLinear:
    @pytest.mark.parametrize("rows, wrt, bias", LINEAR_CASES)
    def test_matches_central_differences(self, rows, wrt, bias, rng):
        shapes = {"x": (rows, 4), "w": (3, 4), "b": (3,)}
        given = {name: Tensor(arr(rng, *shape))
                 for name, shape in shapes.items()}
        probe_name = "w" if wrt.endswith("_w") else wrt
        given[probe_name] = Tensor(given[probe_name].data,
                                   requires_grad=True)
        x, w, b = given["x"], given["w"], given["b"] if bias else None

        def f(_):
            weight = nm.tanh(w) if wrt == "nonleaf_w" else w
            return nm.sum_all(nm.tanh(nm.linear(x, weight, b)))

        want = x.data @ w.data.T + (b.data if bias else 0.0)
        assert np.max(np.abs(nm.linear(x, w, b).data - want)) < 1e-15
        err = grad_check(f, given[probe_name], h=1e-5)
        assert err < 1e-7, "%s gradient off by %.3e" % (wrt, err)

    def test_one_row_equals_the_matrix_vector_product_bitwise(self, rng):
        w, x, b = arr(rng, 7, 5), arr(rng, 5), arr(rng, 7)
        out = nm.linear(Tensor(x[None]), Tensor(w), Tensor(b)).data
        assert out.shape == (1, 7)
        assert out[0].tobytes() == (w @ x + b).tobytes()

    @pytest.mark.parametrize("x_shape, b_shape", [
        ((3,), None), ((2, 3), None), ((4,), (2,)), ((2, 2, 4), None),
        ((4,), (3,))])
    def test_bad_shapes_rejected(self, x_shape, b_shape):
        b = None if b_shape is None else Tensor(np.zeros(b_shape))
        with pytest.raises(DimensionError):
            nm.linear(Tensor(np.zeros(x_shape)), Tensor(np.zeros((3, 4))), b)

    def test_leaf_reached_by_a_row_and_a_matrix_sums_in_one_product(
            self, rng, monkeypatch):
        x_row, x_mat, bias = arr(rng, 4), arr(rng, 6, 4), arr(rng, 5)

        def f(w):
            h = nm.tanh(nm.linear(Tensor(x_row[None]), w, Tensor(bias)))
            m = nm.tanh(nm.linear(Tensor(x_mat), w))
            return nm.add(nm.sum_all(h), nm.sum_all(m))

        w = Tensor(arr(rng, 5, 4), requires_grad=True)
        assert grad_check(f, w, h=1e-5) < 1e-7
        wd = w.data
        want = (np.outer(1.0 - np.tanh(wd @ x_row + bias) ** 2, x_row)
                + (1.0 - np.tanh(x_mat @ wd.T) ** 2).T @ x_mat)
        assert np.max(np.abs(w.grad - want)) <= 1e-12 * np.max(np.abs(want))

        shapes = []
        outer = np.outer

        def counting(a, b, *args, **kwargs):
            out = outer(a, b, *args, **kwargs)
            shapes.append(out.shape)
            return out

        with Tape() as tape:
            loss = f(w)
        monkeypatch.setattr(np, "outer", counting)
        tape.gradients(loss)
        assert (5, 4) not in shapes


class TestAccumulation:
    def test_one_array_for_two_inputs_is_never_written_to(self, rng):
        # add's backward returns one array for both a and b; each then
        # gets a further contribution, which must not reach the other.
        w = Tensor(arr(rng, 4, 4))

        def f(t):
            a = nm.tanh(t)
            b = nm.sigmoid(t)
            u = nm.mul(a, a)
            v = nm.matmul(w, b)
            s = nm.add(a, b)
            return nm.sum_all(nm.add(nm.mul(s, s), nm.add(u, v)))

        x = Tensor(arr(rng, 4), requires_grad=True)
        assert grad_check(f, x, h=1e-5) < 1e-7
        a_val, b_val = np.tanh(x.data), 1.0 / (1.0 + np.exp(-x.data))
        s_val = a_val + b_val
        dense = ((2.0 * s_val + 2.0 * a_val) * (1.0 - a_val ** 2)
                 + (2.0 * s_val + w.data.sum(axis=0)) * b_val * (1.0 - b_val))
        assert np.max(np.abs(x.grad - dense)) < 1e-12

    def test_leaves_sharing_one_adjoint_get_arrays_of_their_own(self, rng):
        # add's backward hands the same g to both inputs: to the leaves a
        # and b, and to the leaf c and the non-leaf n, which then gets a
        # second contribution from sum_all.
        a, b, c, d = (Tensor(arr(rng, 3), requires_grad=True)
                      for _ in range(4))
        with Tape() as tape:
            n = nm.scale(d, 2.0)
            dense = nm.sum_all(n)
            loss = nm.add(nm.sum_all(nm.add(a, b)),
                          nm.add(nm.sum_all(nm.add(c, n)), dense))
        grads = tape.gradients(loss)
        assert grads[a] is not grads[b]
        assert not np.shares_memory(grads[a], grads[b])
        assert not np.shares_memory(grads[c], grads[d])
        grads[a] *= 2.0
        assert np.array_equal(grads[a], [2.0, 2.0, 2.0])
        assert np.array_equal(grads[b], [1.0, 1.0, 1.0])
        assert np.array_equal(grads[c], [1.0, 1.0, 1.0])
        assert np.array_equal(grads[d], [4.0, 4.0, 4.0])

    def test_rank_zero_leaf_sums_every_contribution(self):
        x = Tensor(2.0, requires_grad=True)
        with Tape() as tape:
            loss = nm.add(nm.add(x, x), nm.add(x, x))
        grads = tape.gradients(loss)
        assert type(grads[x]) is np.ndarray
        assert grads[x] == 4.0

    def test_accumulate_adds_into_the_buffer_a_leaf_holds(self, rng):
        # w is reached through an outer product, a row lookup and a dense
        # 2-d matmul; x holds no buffer.
        w = Tensor(arr(rng, 4, 4), requires_grad=True)
        x = Tensor(arr(rng, 4), requires_grad=True)
        with Tape() as tape:
            h = nm.tanh(nm.matmul(w, x))
            h = nm.tanh(nm.add(nm.matmul(w, h), nm.take(w, 2)))
            m = nm.matmul(Tensor(arr(rng, 3, 4)), w)
            loss = nm.add(nm.sum_all(h), nm.sum_all(nm.tanh(m)))
        fresh = tape.gradients(loss)
        start = arr(rng, 4, 4)
        held = start.copy()
        w.grad = held
        grads = tape.gradients(loss, accumulate=True)
        assert grads[w] is held
        assert np.max(np.abs(held - (start + fresh[w]))) < 1e-12
        assert x.grad is None and np.array_equal(grads[x], fresh[x])

    def test_repeated_row_lookups_add_up(self, rng):
        m = Tensor(arr(rng, 5, 3), requires_grad=True)
        v = Tensor(arr(rng, 5), requires_grad=True)
        u = Tensor(arr(rng, 4, 3), requires_grad=True)
        with Tape() as tape:
            rows = nm.add(nm.add(nm.take(m, 2),
                                 nm.scale(nm.take(m, 2), 3.0)),
                          nm.take(m, 4))
            picked = nm.sum_all(nm.take(m, [4, 1, 4]))
            gathered = nm.sum_all(nm.take(v, [3, 3, 0]))
            # n is no leaf, so take gives it a dense adjoint; add hands
            # one array to n and k before that adjoint arrives.
            n = nm.scale(u, 2.0)
            k = nm.scale(u, 3.0)
            looked = nm.sum_all(nm.take(n, [1, 1, 3]))
            shared = nm.sum_all(nm.add(n, k))
            loss = nm.add(nm.add(nm.sum_all(rows), picked),
                          nm.add(gathered, nm.add(looked, shared)))
        grads = tape.gradients(loss)
        want_u = np.full((4, 3), 5.0)
        want_u[1] += 4.0
        want_u[3] += 2.0
        assert np.array_equal(grads[u], want_u)
        want_m = np.zeros((5, 3))
        want_m[2] = 4.0
        want_m[4] = 3.0
        want_m[1] = 1.0
        want_v = np.array([1.0, 0.0, 0.0, 2.0, 0.0])
        assert np.array_equal(grads[m], want_m)
        assert np.array_equal(grads[v], want_v)

    def test_gradients_are_dense_arrays_of_the_leaf_shape(self, rng):
        m = Tensor(arr(rng, 6, 4), requires_grad=True)
        v = Tensor(arr(rng, 6), requires_grad=True)
        u = Tensor(arr(rng, 4), requires_grad=True)
        with Tape() as tape:
            logits = nm.add(nm.matmul(nm.take(m, [0, 5]), u),
                            nm.take(v, [0, 5]))
            loss = nm.add(nm.sum_all(logits),
                          nm.sum_all(nm.take(m, 3)))
        grads = tape.gradients(loss)
        assert set(grads) == {m, v, u}
        for t in (m, v, u):
            assert type(grads[t]) is np.ndarray
            assert grads[t].shape == t.shape

    def test_ops_on_constants_need_no_gradient(self, rng):
        c = Tensor(arr(rng, 3, 4))
        p = Tensor(arr(rng, 4), requires_grad=True)
        with Tape() as tape:
            constant = nm.tanh(c)
            tracked = nm.matmul(constant, p)
            loss = nm.sum_all(tracked)
        assert not constant.needs_grad
        assert tracked.needs_grad
        assert not nm.matmul(c, p).needs_grad   # no tape active
        assert np.array_equal(tape.gradients(loss)[p],
                              np.tanh(c.data).sum(axis=0))


class TestDeferredOuterProducts:
    def test_leaf_reached_by_every_contribution_kind(self, rng):
        # W (5, 4) gets outer products from W @ x_t and a_t @ W at each of
        # four steps, a row from take and a dense X.T @ G from X @ W.
        xs = [arr(rng, 4) for _ in range(4)]
        as_ = [arr(rng, 5) for _ in range(4)]
        x_mat = arr(rng, 3, 5)

        def f(w):
            terms = [nm.sum_all(nm.tanh(nm.take(w, 2))),
                     nm.sum_all(nm.tanh(nm.matmul(Tensor(x_mat), w)))]
            for x, a in zip(xs, as_):
                terms.append(nm.sum_all(nm.tanh(nm.matmul(w, Tensor(x)))))
                terms.append(nm.sum_all(nm.tanh(nm.matmul(Tensor(a), w))))
            total = terms[0]
            for term in terms[1:]:
                total = nm.add(total, term)
            return total

        w = Tensor(arr(rng, 5, 4), requires_grad=True)
        assert grad_check(f, w, h=1e-5) < 1e-7
        wd = w.data
        want = np.zeros((5, 4))
        for x, a in zip(xs, as_):
            want += np.outer(1.0 - np.tanh(wd @ x) ** 2, x)
            want += np.outer(a, 1.0 - np.tanh(a @ wd) ** 2)
        want[2] += 1.0 - np.tanh(wd[2]) ** 2
        want += x_mat.T @ (1.0 - np.tanh(x_mat @ wd) ** 2)
        assert (np.max(np.abs(w.grad - want))
                <= 1e-12 * np.max(np.abs(want)))

    def test_recurrence_builds_no_per_step_weight_outer_product(
            self, rng, monkeypatch):
        w = Tensor(arr(rng, 6, 6), requires_grad=True)
        u = Tensor(arr(rng, 6, 4), requires_grad=True)
        v = Tensor(arr(rng, 6, 3), requires_grad=True)
        with Tape() as tape:
            h = Tensor(np.zeros((1, 6)))
            for _ in range(5):
                x = Tensor(arr(rng, 1, 4))
                pre = nm.add(nm.linear(h, w), nm.linear(x, u))
                h = nm.tanh(nm.add(pre, nm.linear(Tensor(arr(rng, 1, 3)), v)))
            loss = nm.sum_all(h)
        shapes = []
        outer = np.outer

        def counting(a, b, *args, **kwargs):
            out = outer(a, b, *args, **kwargs)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(np, "outer", counting)
        grads = tape.gradients(loss)
        assert set(grads) == {w, u, v}
        assert [s for s in shapes if s in {(6, 6), (6, 4), (6, 3)}] == []


class TestDeterminism:
    def test_same_seed_bitwise_identical(self):
        def run():
            rng = SeededRng(99)
            a = Tensor(arr(rng, 4, 4), requires_grad=True)
            b = Tensor(arr(rng, 4), requires_grad=True)
            with Tape() as tape:
                y = nm.sum_all(nm.softmax(nm.tanh(nm.matmul(a, b))))
            tape.backward(y)
            return y.item(), a.grad.copy(), b.grad.copy()

        y1, ga1, gb1 = run()
        y2, ga2, gb2 = run()
        assert y1 == y2
        assert np.array_equal(ga1, ga2)
        assert np.array_equal(gb1, gb2)


class TestTensorInvariants:
    @pytest.mark.parametrize("requires_grad", [True, False])
    def test_a_fresh_tensor_holds_no_gradient(self, requires_grad):
        t = Tensor(np.zeros((3, 2)), requires_grad=requires_grad)
        assert t.grad is None

    def test_grad_shape_matches_data(self):
        t = Tensor(np.zeros((3, 2)), requires_grad=True)
        with Tape() as tape:
            loss = nm.sum_all(nm.mul(t, t))
        tape.backward(loss)
        assert t.grad.shape == t.data.shape

    def test_gradient_buffer_stays_unmapped_until_written(self):
        def resident_bytes():
            with open("/proc/self/statm") as fh:
                return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

        before = resident_bytes()
        t = Tensor(np.zeros((2048, 2048)), requires_grad=True)
        grown = resident_bytes() - before
        assert t.grad is None
        assert grown < 8 << 20, grown

    def test_gradient_buffer_is_made_on_first_use(self):
        # A model that never trains (a loaded checkpoint used to generate)
        # must not allocate its gradients: the first backward pass that
        # reaches a parameter makes its buffer.
        data = np.zeros((512, 512))
        tracemalloc.start()
        try:
            t = Tensor(data, requires_grad=True)
            made, _ = tracemalloc.get_traced_memory()
            with Tape() as tape:
                loss = nm.sum_all(t)
            tape.backward(loss)
            used, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert made < data.nbytes // 2, made
        assert used - made >= data.nbytes
        assert np.array_equal(t.grad, np.ones(data.shape))
        t.grad = None
        tape.backward(loss)
        assert np.array_equal(t.grad, np.ones(data.shape))

    def test_values_finite_after_chained_ops(self, rng):
        x = Tensor(arr(rng, 6))
        out = nm.softmax(nm.tanh(nm.sigmoid(nm.scale(x, 100.0))))
        assert np.all(np.isfinite(out.data))


class TestSweep:
    def test_a_split_fill_is_the_one_thread_fill_and_the_scalar_stream(
            self, monkeypatch):
        # Past two blocks the fill splits between two threads; chunks of
        # at most two blocks fill on the calling thread alone.  Three
        # scalar draws first put the counter off a block boundary.
        n = 3 * SWEEP_BLOCK + 11
        split, chunked, scalar = SeededRng(8), SeededRng(8), SeededRng(8)
        for r in (split, chunked, scalar):
            r.uniform()
            r.uniform()
            r.uniform()
        threads = []

        class Recording(nm.threading.Thread):
            def start(self):
                threads.append(self)
                super().start()

        monkeypatch.setattr(nm.threading, "Thread", Recording)
        whole = split.fill_uniform(np.empty(n), -0.08, 0.08)
        assert len(threads) == 1
        pieces = np.empty(n)
        for start in range(0, n, SWEEP_BLOCK + 7):
            chunked.fill_uniform(pieces[start:start + SWEEP_BLOCK + 7],
                                 -0.08, 0.08)
        assert len(threads) == 1
        draws = np.array([scalar.uniform(-0.08, 0.08) for _ in range(n)])
        assert whole.tobytes() == pieces.tobytes() == draws.tobytes()
        # The counter continues after all n draws on every path.
        assert split.uniform() == chunked.uniform() == scalar.uniform()
