"""The numpy cell text of the slice writer: every float is ``repr`` of it and
every integer ``str`` of it, character for character."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hawkmal._numtext import column_text


def cell_texts(col):
    """Each cell's text as the slice writer reads it out of `column_text`."""
    chars = column_text(col)
    assert chars.dtype == np.uint8 and chars.shape[1] == col.size
    return [bytes(chars[:, i]).replace(b"\0", b"").decode("ascii") for i in range(col.size)]


def assert_repr(values):
    x = np.asarray(values, dtype=np.float64)
    assert cell_texts(x) == [repr(v) for v in x.tolist()]


def _pinned_floats():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    decimals = np.array([1e-4, 1e-5, 1e15, 1e16])
    return np.concatenate([
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        [5e-324, 2.2250738585072014e-308, np.nextafter(2.2250738585072014e-308, 0.0),
         1.7976931348623157e308, 9007199254740993.0, 0.1, 0.3, 1 / 3],
        decimals, np.nextafter(decimals, 0.0), np.nextafter(decimals, np.inf),
        [0.0, -0.0, np.inf, -np.inf, np.nan],
    ])


def test_pinned_floats_are_repr():
    # every power of two with both neighbours (the subnormal, normal and
    # closer-lower-bound boundaries), the extremes, both sides of each
    # switch between fixed and exponent notation, and the specials, with
    # either sign
    x = _pinned_floats()
    assert_repr(x)
    assert_repr(-x)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
@example([0x0000000000000001, 0x000FFFFFFFFFFFFF, 0x0010000000000000, 0x7FEFFFFFFFFFFFFF,
          0x7FF8000000000001, 0xFFF0000000000000, 0x8000000000000000])
def test_float_bit_patterns_are_repr(bits):
    assert_repr(np.array(bits, dtype=np.uint64).view(np.float64))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_floats_are_repr(values):
    assert_repr(values)


@settings(max_examples=100, deadline=None)
@given(
    signed=st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=32),
    unsigned=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=32),
)
@example(
    signed=[-2**63, 2**63 - 1, -1, 0, 9, 10, -10],
    unsigned=[0, 2**63, 2**64 - 1, 10**19 - 1, 10**19],
)
def test_integers_are_str(signed, unsigned):
    for col in (np.array(signed, dtype=np.int64), np.array(unsigned, dtype=np.uint64)):
        assert cell_texts(col) == [str(v) for v in col.tolist()]

