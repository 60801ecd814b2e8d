import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialmasa.floatrepr import repr_texts

# the kernel's domain; every other value is spelled by repr itself
LOW, HIGH = 2.0**-27, 2.0**51


def assert_repr(values):
    values = np.asarray(values, dtype=np.float64)
    texts = repr_texts(values)
    assert isinstance(texts, list)
    wrong = [(value, text) for value, text in zip(values.tolist(), texts) if text != repr(value)]
    assert len(texts) == len(values) and not wrong, wrong[:5]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                max_size=40))
def test_any_floats(values):
    # nan, +-inf, +-0 and subnormals included: the values outside the domain go to repr
    assert_repr(values)


def test_random_bit_patterns():
    rng = np.random.default_rng(20240611)
    assert_repr(rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64))


def test_random_bit_patterns_in_the_domain():
    rng = np.random.default_rng(20240612)
    low, high = np.array([LOW, HIGH]).view(np.int64)
    values = rng.integers(low, high, 200_000, dtype=np.int64).view(np.float64)
    signs = rng.choice(np.array([-1.0, 1.0]), len(values))
    assert_repr(values * signs)
    assert (np.abs(values) >= LOW).all() and (np.abs(values) < HIGH).all()


def test_powers_of_two_and_their_neighbours():
    # a power of two has the narrower gap below it; the domain's edges are 2^-27 and 2^51
    powers = 2.0 ** np.arange(-30, 54)
    values = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    assert_repr(np.concatenate([values, -values]))


def test_short_decimals():
    # i 10^j read from its decimal: the shortest digits are i's, with a long cut
    assert_repr([float(f"{i}e{j}") for j in range(-9, 17) for i in range(2000)])


@pytest.mark.parametrize("value", [
    1e-05, 1.5e-07, 9.999999999999999e-05, 0.0001, 123.0, 1e15, 1e16, 2.0**51 - 1.0,
    math.nextafter(LOW, 0.0), LOW, math.nextafter(HIGH, 0.0), HIGH,
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2250738585072014e-308,
    1.7976931348623157e308])
def test_layouts_and_edges(value):
    # positional down to 1e-04 and up to 1e15, d.ddde-XX past them, repr's names elsewhere
    assert_repr([value, -value])


def test_empty_array():
    assert repr_texts(np.array([])) == []
