"""Float64 arrays spelled as ``repr`` spells each value, computed on whole arrays.

``repr_texts(values)`` equals ``list(map(repr, values.tolist()))`` for any
float64 array.  ``repr`` gives the shortest decimal that reads back as the
same float, the nearest such decimal when there are several, with ties to
the even last digit (Steele and White, 1990; Adams, Ryu, 2018).  Here those
digits come from integer arithmetic on numpy int64 and uint64 arrays, so
no float enters the digit computation.

Write |x| = m 2^q with m the 53-bit significand.  With k = 16 - floor(log10
2^(q+52)) and s = -(q + k), the value scaled by 10^k is m 5^k / 2^s, which
has 17 or 18 digits before the point.  The product m 5^k is formed as two
uint64 words from 32-bit limb products, and shifting it right by s gives
D = floor(m 5^k / 2^s) and the remainder r, so the scaled value is
v = D + r / 2^s.  Its neighbours lie a gap c / 2^s away, c = 5^k, or half
that below a power of two, so the floats that read back as x are those of
the round-trip interval from v - c / 2^(s+1) (v - c / 2^(s+2) below a
power of two) to v + c / 2^(s+1), its ends included only for even m, since
a decimal half way between two floats reads as the one with the even
significand.  The shortest digits are those of a multiple of 10^j in the
interval for the largest such j; of the two multiples of 10^j next to v
the nearer one in the interval is kept, a tie going to the even last
digit.  The digits are laid out as ``repr`` lays them out: positionally
for decimal exponents -4 to 15 and as ``d.ddde-XX`` otherwise, after a
``-`` for a negative value.

The kernel decides 2^-27 <= |x| < 2^51, where k runs from 1 to 25 and s
from 1 to 54: at 2^51 the shift s would reach 0, and below 2^-27 it would
pass 54 and 5^k would pass 5^25.  In that domain every int64 quantity
stays below 2^61: r in quarter units below 2^56, 2 c below 2^60, D below
10^18.  Every other value (+-0, subnormals, nan, +-inf and the magnitudes
outside the domain) is spelled by ``repr`` itself, one value at a time.

In units of 2^-(s+2) the ends of the interval are 4r + 2c and 4r - 2c (or
4r - c), none a multiple of 4 as c is odd, so neither end is ever an
integer: whether an end is included decides no value, and the kernel takes
the integers strictly inside.  The tests (``tests/test_floatrepr.py``,
against ``repr``) pin that, the nearer multiple, the tie to the even digit
and the narrower gap below a power of two: without that gap 2^-25 and
2^-24 come out one digit short.
"""

from __future__ import annotations

import numpy as np

# Typed scalars throughout: numpy before 2.0 turns a mix of uint64 and int64
# into float64, so the uint64 product and the int64 comparisons never meet.
_POW5 = 5 ** np.arange(26, dtype=np.uint64)
_POW10 = 10 ** np.arange(19, dtype=np.int64)

_U32, _U52 = np.uint64(32), np.uint64(52)
_LOW32, _LOW52 = np.uint64(0xFFFFFFFF), np.uint64((1 << 52) - 1)
_HIDDEN = np.uint64(1 << 52)
_ONE, _TWO, _ZERO = np.int64(1), np.int64(2), np.int64(0)
_CHAR = {text: np.uint64(ord(text)) for text in "0.-+e\n"}
_ALL, _BYTE = ~np.uint64(0), np.uint64(8)
_SPREAD = np.uint64(0x0101010101010101)  # times a char: that char in every byte

# the byte of a text's first significant digit: the bytes before it hold up
# to three zeros after the point, the zero before it and a sign
_LEAD = 7


def repr_texts(values) -> list[str]:
    """``repr`` of each value of ``values``, as float64, flattened."""
    x = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    bits = x.view(np.uint64)
    e2 = ((bits >> _U52).astype(np.int64) & np.int64(0x7FF)) - np.int64(1023)
    fast = (e2 >= -27) & (e2 <= 50)
    if fast.all():
        return _kernel_texts(bits, e2)
    texts = np.empty(len(x), dtype=object)
    texts[fast] = _kernel_texts(bits[fast], e2[fast])
    texts[~fast] = list(map(repr, x[~fast].tolist()))
    return texts.tolist()


def _kernel_texts(bits: np.ndarray, e2: np.ndarray) -> list[str]:
    """The texts of the values with IEEE ``bits`` and binary exponents ``e2``,
    all in the kernel's domain."""
    q, nd, e = _shortest(bits, e2)
    return _layout(q, nd, e, bits >> np.uint64(63) != np.uint64(0))


def _shortest(bits: np.ndarray, e2: np.ndarray):
    """The shortest round-trip digits of each value as an integer ``q`` with
    ``nd`` digits, and its decimal exponent ``e``: |x| reads back from
    q 10^(e - nd + 1)."""
    m = (bits & _LOW52) | _HIDDEN
    k = np.int64(16) - ((e2 * np.int64(78913)) >> np.int64(18))  # floor(e2 log10 2)
    s = np.int64(52) - e2 - k
    d, r = _scaled(m, _POW5[k], s)
    least, most = _interval(m, _POW5[k], s, d, r)

    # j: the largest cut with a multiple of 10^j in [least, most]
    j = np.zeros(len(d), dtype=np.int64)
    below = least - _ONE
    live = np.arange(len(d))
    for p in _POW10[1:]:
        live = live[most[live] // p > below[live] // p]
        if not len(live):
            break
        j[live] += _ONE

    # the nearer multiple of 10^j next to v, by floor(2v) and a sticky bit
    p = _POW10[j]
    floor = d // p
    half = (d - floor * p) * _TWO + (r >> (s - _ONE))
    sticky = r & ((_ONE << (s - _ONE)) - _ONE) != _ZERO
    nearer_up = (half > p) | ((half == p) & (sticky | (floor & _ONE == _ONE)))
    up = ((floor + _ONE) * p <= most) & (nearer_up | (floor * p < least))
    q = floor + up
    # q 10^j lies in the interval, so it has 17 to 19 digits, as D has 17 or 18
    chosen = q * p
    nd = np.int64(17) + (chosen >= _POW10[17]) + (chosen >= _POW10[18]) - j
    return q, nd, nd - _ONE + j - k


def _scaled(m: np.ndarray, c: np.ndarray, s: np.ndarray):
    """D = floor(m c / 2^s) and the remainder r, as int64."""
    # m c = hi 2^64 + lo from 32-bit limbs: each partial product fits 64 bits
    m_hi, m_lo, c_hi, c_lo = m >> _U32, m & _LOW32, c >> _U32, c & _LOW32
    low = m_lo * c_lo
    mid = m_hi * c_lo + m_lo * c_hi
    lo = low + (mid << _U32)
    hi = m_hi * c_hi + (mid >> _U32) + (lo < low)
    us = s.astype(np.uint64)
    d = ((hi << (np.uint64(64) - us)) | (lo >> us)).astype(np.int64)
    r = (lo & ((np.uint64(1) << us) - np.uint64(1))).astype(np.int64)
    return d, r


def _interval(m: np.ndarray, c: np.ndarray, s: np.ndarray, d: np.ndarray, r: np.ndarray):
    """The least and the greatest integer in the round-trip interval of
    v = d + r / 2^s, worked in units of 2^-(s+2), where no end is one."""
    s2 = s + _TWO
    quarters = r << _TWO
    hi4 = c.astype(np.int64) << _ONE
    lo4 = hi4 >> (m == _HIDDEN).astype(np.int64)
    return d + ((quarters - lo4) >> s2) + _ONE, d + ((quarters + hi4) >> s2)


def _layout(q: np.ndarray, nd: np.ndarray, e: np.ndarray, negative: np.ndarray) -> list[str]:
    """The texts of ``q`` with ``nd`` digits at decimal exponent ``e``, as repr
    lays them out, with a ``-`` for each ``negative``.

    Each text is cut from 32 bytes, held as four uint64 words so that a step
    is one array operation on four words a row: the digits of q 10^(17 - nd)
    from byte 7 on, after bytes that give up to three zeros after the point,
    the zero before it and a sign.  Only the bytes the text shows are made
    ASCII digits, the point goes in before the digit it precedes, shifting
    the later bytes up by one, and the marks are written in; every other
    byte is zero, and the zero bytes are dropped from the joined rows.

    Laid out one value at a time in Python instead, from ``str`` of each q,
    the 255k values a rank 3, grid 512 density export spells took 81 ms
    against 42 ms (2-core x86-64), and the export's benchmark wall time
    read 0.466 s against 0.358 s.
    """
    n = len(q)
    positional = (e >= -4) & (e <= 15)
    # digits before the point: e + 1 positionally, one in d.ddde-XX
    point = np.where(positional, e + _ONE, _ONE)
    whole = np.maximum(point, _ONE)
    fraction = np.where(positional, np.maximum(nd - point, _ONE), nd - _ONE)
    # the text's digits are bytes first to last - 1, before the point goes in
    first = np.int64(_LEAD) + point - whole
    last = np.int64(_LEAD) + point + fraction
    dot = np.int64(_LEAD) + point

    words = np.zeros((4, n), dtype=np.uint64)
    words[:3] = _digit_words(q * _POW10[np.int64(17) - nd])
    words |= ~_bytes_from(last) & (_SPREAD * _CHAR["0"])
    words[0] &= _ALL << (first.astype(np.uint64) << np.uint64(3))
    shifted = words << _BYTE
    shifted[1:] |= words[:-1] >> np.uint64(56)
    after = _bytes_from(dot)
    words &= ~after
    words |= shifted & after
    del shifted, after

    chars = np.ascontiguousarray(words.T).astype("<u8", copy=False).view(np.uint8)
    del words
    rows = np.arange(n)
    chars[rows, dot] = _CHAR["."]
    chars[negative, first[negative] - _ONE] = _CHAR["-"]
    end = last + (fraction > 0)
    if not positional.all():
        sci = np.flatnonzero(~positional)
        at, exponent = end[sci], e[sci]
        chars[sci, at] = _CHAR["e"]
        chars[sci, at + _ONE] = np.where(exponent < 0, _CHAR["-"], _CHAR["+"])
        tens, ones = np.divmod(np.abs(exponent), np.int64(10))
        chars[sci, at + _TWO] = tens.astype(np.uint8) | _CHAR["0"]
        chars[sci, at + np.int64(3)] = ones.astype(np.uint8) | _CHAR["0"]
        end[sci] += np.int64(4)
    chars[rows, end] = _CHAR["\n"]
    texts = chars[chars != 0].tobytes().decode("ascii").split("\n")
    texts.pop()
    return texts


def _bytes_from(at: np.ndarray) -> np.ndarray:
    """Per row, the mask of the bytes from byte ``at`` on of its four words."""
    word_bytes = np.arange(0, 32, 8, dtype=np.int64)[:, None]
    count = np.clip(at - word_bytes, _ZERO, np.int64(8)).astype(np.uint64)
    # two shifts of at most 32 bits: C leaves a shift by the whole 64 undefined
    half = count * np.uint64(4)
    return _ALL << half << half


def _digit_words(values: np.ndarray) -> np.ndarray:
    """The 17 decimal digits of each of ``values`` (below 10^17), one a byte,
    in bytes 7 to 23 of three little-endian uint64 words, most significant
    first.

    The last 16 digits are two halves of 8, each spread over the bytes of
    one word in three steps: a pair of 4-digit halves in its 32-bit lanes,
    then 2-digit quarters in 16-bit lanes, then digits in bytes.  The
    quotients by 100 and 10 are exact multiply-shifts on lanes below 10^4
    and 10^2, and each lane keeps its quotient in its low half.
    """
    words = np.empty((3, len(values)), dtype=np.uint64)
    top, rest = np.divmod(values, np.int64(10**16))
    words[0] = top.astype(np.uint64) << np.uint64(56)
    words[1], words[2] = np.divmod(rest, np.int64(10**8))
    halves = words[1:]
    high, low = np.divmod(halves, np.uint64(10**4))
    lanes = high | (low << _U32)
    quotient = ((lanes * np.uint64(10486)) >> np.uint64(20)) & np.uint64(0x0000007F0000007F)
    lanes = quotient | ((lanes - quotient * np.uint64(100)) << np.uint64(16))
    quotient = ((lanes * np.uint64(103)) >> np.uint64(10)) & np.uint64(0x000F000F000F000F)
    halves[...] = quotient | ((lanes - quotient * np.uint64(10)) << _BYTE)
    return words
