import numpy as np
import pytest

from qpignn.errors import ParameterError
from qpignn.rng import derive_seed, keyed_rng


def test_derive_seed_is_stable_and_tag_sensitive():
    assert derive_seed(0, "a") == derive_seed(0, "a")
    assert derive_seed(0, "a") != derive_seed(0, "b")
    assert derive_seed(0, "a", 1) != derive_seed(0, "a", 2)
    assert derive_seed(1, "a") != derive_seed(2, "a")


def test_keyed_rng_streams_are_independent():
    a = keyed_rng(7, "x").standard_normal(32)
    b = keyed_rng(7, "y").standard_normal(32)
    a2 = keyed_rng(7, "x").standard_normal(32)
    assert np.array_equal(a, a2)
    assert not np.array_equal(a, b)


def test_derive_seed_is_a_nonnegative_64_bit_int():
    for s in (0, 1, 2**31, 12345):
        d = derive_seed(s, "tag", 3)
        assert 0 <= d < 2**64


@pytest.mark.parametrize("bad", [0.5, 2.0, np.float64(3.0), True],
                         ids=["0.5", "2.0", "float64_3.0", "True"])
def test_keyed_streams_refuse_a_key_that_is_not_an_integer(bad):
    """Keyed by its integer part, seed 0.5 would replay seed 0; a bool
    counts as an integer in Python but is no seed a caller means."""
    for keyed in (keyed_rng, derive_seed):
        with pytest.raises(ParameterError, match="seed must be an integer"):
            keyed(bad, "t")
        with pytest.raises(ParameterError, match="index must be an integer"):
            keyed(3, "t", bad)


def test_numpy_integers_key_the_same_words():
    words = keyed_rng(3, "t", 2).integers(0, 1 << 64, 16, np.uint64)
    same = keyed_rng(np.int64(3), "t", np.int64(2)).integers(
        0, 1 << 64, 16, np.uint64)
    assert np.array_equal(words, same)
    assert derive_seed(np.int64(3), "t", np.int64(2)) == derive_seed(3, "t", 2)
