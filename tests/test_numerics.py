import math
import os

import numpy as np
import pytest

from imagepoet import numerics as nm
from imagepoet.errors import ContractError, DimensionError, DomainError
from imagepoet.numerics import Tape, Tensor, grad_check
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
        x.zero_grad()
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
        assert np.array_equal(c.grad, [0.0, 0.0])


class TestGradCheck:
    def test_tanh_sum(self, rng):
        x = Tensor(arr(rng, 5), requires_grad=True)
        err = grad_check(lambda t: nm.sum_all(nm.tanh(t)), x, h=1e-5)
        assert err < 1e-7

    def test_linear_is_nearly_exact(self, rng):
        w = arr(rng, 5)
        x = Tensor(arr(rng, 5), requires_grad=True)
        err = grad_check(lambda t: nm.matmul(Tensor(w), t), x, h=1e-5)
        assert err < 1e-10

    @pytest.mark.parametrize("case", [
        "matmul", "add", "sub", "mul", "scale", "add_rowvec", "tanh",
        "sigmoid", "log", "softmax", "concat", "stack", "pick", "take_row",
        "gather", "scatter",
    ])
    def test_every_op_matches_central_differences(self, case, rng):
        probe = Tensor(arr(rng, 3, 4), requires_grad=True)
        other_v = Tensor(arr(rng, 4))
        other_m = Tensor(arr(rng, 3, 4))

        def vec(t):
            return nm.concat([nm.take_row(t, i) for i in range(3)])

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
                [nm.take_row(t, i) for i in range(3)]))),
            "pick": lambda t: nm.pick(nm.tanh(vec(t)), 7),
            "take_row": lambda t: nm.sum_all(nm.tanh(nm.take_row(t, 1))),
            "gather": lambda t: nm.sum_all(
                nm.tanh(nm.gather(vec(t), [0, 3, 3, 11]))),
            "scatter": lambda t: nm.sum_all(nm.tanh(nm.scatter(
                nm.gather(vec(t), [2, 5]), [1, 8], 10))),
        }
        err = grad_check(funcs[case], probe, h=1e-5)
        assert err < 1e-5, "%s gradient off by %.3e" % (case, err)


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
    def test_grad_shape_matches_data(self):
        t = Tensor(np.zeros((3, 2)), requires_grad=True)
        assert t.grad.shape == t.data.shape

    def test_gradient_buffer_stays_unmapped_until_written(self):
        def resident_bytes():
            with open("/proc/self/statm") as fh:
                return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

        before = resident_bytes()
        t = Tensor(np.zeros((2048, 2048)), requires_grad=True)
        grown = resident_bytes() - before
        assert t.grad.shape == (2048, 2048)
        assert grown < 8 << 20, grown

    def test_values_finite_after_chained_ops(self, rng):
        x = Tensor(arr(rng, 6))
        out = nm.softmax(nm.tanh(nm.sigmoid(nm.scale(x, 100.0))))
        assert np.all(np.isfinite(out.data))
