import numpy as np
import pytest

from imagepoet.numerics import SWEEP_BLOCK
from imagepoet.rng import SeededRng


def test_same_seed_same_sequence():
    a = SeededRng(2024)
    b = SeededRng(2024)
    assert [a.next_uint64() for _ in range(100)] == \
           [b.next_uint64() for _ in range(100)]


def test_different_seeds_differ():
    a = SeededRng(1)
    b = SeededRng(2)
    assert [a.next_uint64() for _ in range(10)] != \
           [b.next_uint64() for _ in range(10)]


def test_scalar_and_vector_draws_share_one_stream():
    a = SeededRng(7)
    b = SeededRng(7)
    scalar = np.array([a.uniform(-0.08, 0.08) for _ in range(64)])
    vector = b.uniform_array(64, -0.08, 0.08)
    assert np.array_equal(scalar, vector)
    # continuing after a vector draw stays aligned with the scalar stream
    assert a.uniform() == b.uniform()


def test_blocked_vector_draw_matches_the_scalar_stream():
    # 2 blocks + 5: covers both block boundaries and a short last block.
    n = 2 * SWEEP_BLOCK + 5
    vector = SeededRng(7).uniform_array(n, -0.08, 0.08)
    scalar = SeededRng(7)
    draws = np.array([scalar.uniform(-0.08, 0.08) for _ in range(n)])
    for i in (SWEEP_BLOCK - 1, SWEEP_BLOCK, n - 1):
        assert vector[i] == draws[i], i
    assert np.array_equal(vector, draws)
    blocked = SeededRng(7)
    blocked.uniform_array(n)
    # the counter moved past all n draws, not past the last block's
    assert blocked.uniform() == scalar.uniform()


def test_uniform_bounds():
    draws = SeededRng(5).uniform_array(10000, -0.08, 0.08)
    assert draws.min() >= -0.08
    assert draws.max() < 0.08


def test_mean_of_large_sample_near_zero():
    draws = SeededRng(11).uniform_array(100000, -0.08, 0.08)
    assert abs(draws.mean()) < 0.002


def test_shuffle_deterministic_permutation():
    items1 = list(range(10))
    items2 = list(range(10))
    SeededRng(3).shuffle(items1)
    SeededRng(3).shuffle(items2)
    assert items1 == items2
    assert sorted(items1) == list(range(10))
    items3 = list(range(10))
    SeededRng(4).shuffle(items3)
    assert items3 != items1


def test_below_range_and_determinism():
    rng = SeededRng(9)
    draws = [rng.below(7) for _ in range(500)]
    assert all(0 <= d < 7 for d in draws)
    assert set(draws) == set(range(7))


def test_below_rejects_nonpositive():
    with pytest.raises(ValueError):
        SeededRng(1).below(0)
