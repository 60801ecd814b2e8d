import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialmasa import floatrepr
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


def interval_check(values):
    """Check, for positive ``values`` in the kernel's domain, that neither end
    of the round-trip interval is a multiple of 2^(s+2) in units of
    2^-(s+2), and that ``_interval`` gives the least and the greatest integer
    in it whether or not its ends are included."""
    bits = np.asarray(values, dtype=np.float64).view(np.uint64)
    e2 = (bits >> np.uint64(52)).astype(np.int64) - np.int64(1023)
    m = (bits & np.uint64((1 << 52) - 1)) | np.uint64(1 << 52)
    k = np.int64(16) - ((e2 * np.int64(78913)) >> np.int64(18))
    s = np.int64(52) - e2 - k
    c = floatrepr._POW5[k]
    d, r = floatrepr._scaled(m, c, s)
    # the ends: 4r + 2c, and 4r - 2c, or 4r - c below a power of two
    s2, gap = s + np.int64(2), c.astype(np.int64) * np.int64(2)
    top = r * np.int64(4) + gap
    bottom = r * np.int64(4) - np.where(m == np.uint64(1 << 52), gap // np.int64(2), gap)
    unit = (np.int64(1) << s2) - np.int64(1)
    assert (top & unit != 0).all() and (bottom & unit != 0).all()
    least, most = floatrepr._interval(m, c, s, d, r)
    for excluded in (True, False):
        assert np.array_equal(least, d + (bottom >> s2) + ((bottom & unit != 0) | excluded))
        assert np.array_equal(most, d + (top >> s2) - ((top & unit == 0) & excluded))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(int(np.float64(LOW).view(np.int64)),
                            int(np.float64(HIGH).view(np.int64)) - 1), min_size=1, max_size=40))
def test_no_interval_end_is_an_integer(patterns):
    interval_check(np.array(patterns, dtype=np.int64).view(np.float64))


def test_no_interval_end_is_an_integer_next_to_a_power_of_two():
    powers = 2.0 ** np.arange(-27, 51)
    values = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    interval_check(values[(values >= LOW) & (values < HIGH)])


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
