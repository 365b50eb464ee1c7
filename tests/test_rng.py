"""Deterministic stream behavior: same seed same draws, purposes and
children independent, and the draw counter reflecting consumption."""

import numpy as np
import pytest

from conftest import assert_drew

from signa.diffcore import RngStream
from signa.errors import ConfigError


def test_same_seed_same_purpose_reproduces():
    a = RngStream(123, "init").uniform(size=1000)
    b = RngStream(123, "init").uniform(size=1000)
    np.testing.assert_array_equal(a, b)


def test_different_seeds_differ():
    a = RngStream(1, "init").uniform(size=100)
    b = RngStream(2, "init").uniform(size=100)
    assert not np.array_equal(a, b)


def test_purposes_are_independent_streams():
    draws = {p: RngStream(7, p).uniform(size=64) for p in ("init", "dropout", "mask", "split")}
    keys = list(draws)
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            assert not np.array_equal(draws[keys[i]], draws[keys[j]])


def test_children_differ_from_parent_and_each_other():
    parent = RngStream(5, "split")
    base = parent.uniform(size=32)
    c0 = parent.child(0).uniform(size=32)
    c1 = parent.child(1).uniform(size=32)
    assert not np.array_equal(base, c0)
    assert not np.array_equal(c0, c1)
    np.testing.assert_array_equal(c0, RngStream(5, "split").child(0).uniform(size=32))


def test_consuming_one_purpose_leaves_others_untouched():
    s = RngStream(9, "mask")
    _ = RngStream(9, "dropout").uniform(size=500)
    first = s.uniform(size=10)
    np.testing.assert_array_equal(first, RngStream(9, "mask").uniform(size=10))


def test_generator_state_tells_the_draws_made_apart():
    # the tests' "draws nothing" and "draws exactly these" checks rest on this
    s = RngStream(0, "init")
    assert_drew(s)
    s.uniform()
    assert_drew(s, lambda r: r.uniform())
    with pytest.raises(AssertionError):
        assert_drew(s)
    s.integers(0, 5, size=(3, 4))
    assert_drew(s, lambda r: (r.uniform(), r.integers(0, 5, size=(3, 4))))
    with pytest.raises(AssertionError):
        assert_drew(s, lambda r: (r.uniform(), r.integers(0, 5, size=(3, 3))))
    s.permutation(5)
    assert_drew(s, lambda r: (r.uniform(), r.integers(0, 5, size=(3, 4)), r.permutation(5)))
    with pytest.raises(AssertionError):
        assert_drew(s, lambda r: (r.uniform(), r.integers(0, 5, size=(3, 4)), r.permutation(4)))
    assert_drew(s.child(0))


def test_unknown_purpose_rejected():
    with pytest.raises(ConfigError):
        RngStream(0, "shuffle")


def test_integers_range():
    vals = RngStream(3, "kmeans").integers(0, 5, size=1000)
    assert vals.min() >= 0 and vals.max() < 5
