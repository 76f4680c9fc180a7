"""The seeded stream of gpdkit.draws: reproducible, in range, normal."""

import numpy as np
import pytest

from gpdkit.draws import draws


def _sample(seed):
    s = draws(seed)
    return (s.random(7), s.standard_normal((3, 2, 5)),
            s.integers(9, size=11), s.integers(np.array([1, 4, 1000])))


def test_one_seed_gives_identical_arrays():
    for a, b in zip(_sample(3), _sample(3)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_two_seeds_give_different_arrays():
    for a, b in zip(_sample(3), _sample(4)):
        assert a.shape == b.shape and not np.array_equal(a, b)


def test_shapes_and_dtypes_follow_numpy():
    s = draws(0)
    assert s.standard_normal((4, 2)).view(complex).shape == (4, 1)
    assert s.standard_normal(0).shape == (0,)
    assert s.random((2, 3)).dtype == np.float64
    assert np.ndim(s.standard_normal()) == 0 and np.ndim(s.integers(5)) == 0
    u = s.random(10 ** 4)
    assert u.min() >= 0.0 and u.max() < 1.0


@pytest.mark.parametrize("high, size", [
    (1, 50), (7, 1000), (2 ** 40, 100), (0, 0), (5, 0),
    (np.array([1, 2, 3, 10 ** 6] * 50), None),
    (np.zeros(0, np.int64), None)])
def test_integers_stay_below_their_bound(high, size):
    k = draws(11).integers(high, size=size)
    assert k.dtype == np.int64
    assert k.shape == (np.shape(high) if size is None else (size,))
    assert np.all((0 <= k) & (k < high))


def test_integers_reach_every_value():
    assert set(draws(2).integers(5, size=500).tolist()) == set(range(5))


def test_normals_have_mean_0_and_variance_1():
    z = draws(5).standard_normal(10 ** 5)
    # standard errors: 0.0032 for the mean, 0.0045 for the variance
    assert abs(z.mean()) < 0.02 and abs(z.var() - 1.0) < 0.03


def test_a_negative_seed_is_rejected():
    with pytest.raises(ValueError):
        draws(-1)


def test_a_generator_seed_is_drawn_from_as_it_is():
    rng = np.random.default_rng(3)
    assert draws(rng) is rng
    s = draws(8)
    assert draws(s) is s
