"""The CSV text of a column slice, formed in numpy.

`column_text` gives each cell of an int, uint, float64 or ASCII string column
the characters `cli._cell` writes for it: ``str(int(v))``, ``repr(float(v))``
or the string itself.

A float's digits are its shortest round-trip ones, found by Schubfach
(R. Giulietti, "The Schubfach way to render doubles", 2020): the value's
significand and the two bounds of its rounding interval, each times a
128-bit power of ten and rounded to odd into 64 bits, pick the digits, so no
bigint arithmetic runs and every step is a numpy operation on 64-bit words.
The digits are then laid out as `repr` lays them out: fixed notation when
the decimal point falls within -4 < decpt <= 16, otherwise ``d.ddde±XX``,
with at least two exponent digits; an integral value ends in ``.0``.
"""

from __future__ import annotations

import functools

import numpy as np

_M32 = np.uint64(0xFFFFFFFF)
_POW10 = np.array([10**i for i in range(20)], dtype=np.uint64)
# the powers of ten 10^-k that Schubfach reads, k = floor(q log10 2) over
# every binary exponent q of a double (subnormal, inf and nan included)
_K_LO, _K_HI = -292, 326
_NO_DOT = 1 << 10  # a dot position past any cell
# the exponent of a float in exponent notation: "e-05", "e+308"
_EXPONENTS = np.array([b"e%+03d" % e for e in range(-324, 309)], dtype="S5")


@functools.cache
def _powers_of_ten():
    """32-bit limbs (high to low) of g(k) = ceil(10^k 2^(127 - floor(log2
    10^k))) for k in [_K_LO, _K_HI]: each power of ten normalised to 128
    bits and rounded up.  Built on first use."""
    table = []
    for k in range(_K_LO, _K_HI + 1):
        if k >= 0:
            shift = 127 - (10**k).bit_length() + 1
            g = 10**k << shift if shift >= 0 else -(-(10**k) >> -shift)
        else:  # 10^-k is no power of two, so floor(log2 10^k) = -bitlength(10^-k)
            g = -(-(1 << (127 + (10**-k).bit_length())) // 10**-k)
        table.append([(g >> s) & 0xFFFFFFFF for s in (96, 64, 32, 0)])
    limbs = np.array(table, dtype=np.uint64).T.copy()
    limbs.flags.writeable = False
    return limbs


def _mul_hi_lo(a1, a0, c1, c0):
    """The high and low 64-bit words of (a1 2^32 + a0)(c1 2^32 + c0), all
    four factors below 2^32."""
    p00, p01, p10 = a0 * c0, a0 * c1, a1 * c0
    mid = (p00 >> 32) + (p01 & _M32) + (p10 & _M32)
    return a1 * c1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32), (mid << 32) | (p00 & _M32)


def _round_to_odd(g, cp):
    """floor(g cp / 2^128), its last bit set when bits 64..127 of the
    product exceed 1, which g's rounding up alone cannot make them; cp <
    2^64.  Bits 0..63 are not read."""
    c1, c0 = cp >> 32, cp & _M32
    y1, y0 = _mul_hi_lo(g[0], g[1], c1, c0)
    x1, _ = _mul_hi_lo(g[2], g[3], c1, c0)
    z = y0 + x1
    return (y1 + (z < y0)) | (z > 1)


def _shortest(bits):
    """(digits, k): the shortest decimal digits 10^k that rounds to each
    finite nonzero double of `bits` (a uint64 view); of two shortest, the
    nearer, a tie going to the even one."""
    e = (bits >> 52).astype(np.int64) & 0x7FF
    f = bits & np.uint64((1 << 52) - 1)
    c = np.where(e > 0, f | np.uint64(1 << 52), f)
    q = np.maximum(e, 1) - 1075
    closer = (f == 0) & (e > 1)  # the lower neighbour is half as far
    k = (q * 1262611 - closer * 524031) >> 22  # floor(q log10 2), or of 3/4 2^q
    h = (q + ((-k * 1741647) >> 19) + 1).astype(np.uint64)  # 1..4
    g = _powers_of_ten()[:, -k - _K_LO]
    cb = c << np.uint64(2)
    vb = _round_to_odd(g, cb << h)
    odd = c & np.uint64(1)  # an odd significand's interval excludes its bounds
    lower = _round_to_odd(g, (cb - np.uint64(2) + closer) << h) + odd
    upper = _round_to_odd(g, (cb + np.uint64(2)) << h) - odd
    s = vb >> np.uint64(2)
    # one digit fewer: at most one multiple of 10^(k+1) lies in the interval
    sp = s // np.uint64(10)
    up_in = lower <= sp * np.uint64(40)
    wp_in = sp * np.uint64(40) + np.uint64(40) <= upper
    fewer = (s >= 10) & (up_in != wp_in)
    # else s or s + 1: the one inside, or the nearer, a tie to the even one
    u_in = lower <= s << np.uint64(2)
    w_in = (s << np.uint64(2)) + np.uint64(4) <= upper
    mid = (s << np.uint64(2)) + np.uint64(2)
    up = np.where(u_in != w_in, w_in, (vb > mid) | ((vb == mid) & (s & np.uint64(1) == 1)))
    digits = np.where(fewer, sp + wp_in, s + up)
    k += fewer
    # strip trailing zeros: one, then up to 8 + 4 + 2 + 1 more
    z = np.flatnonzero(digits % np.uint64(10) == 0)
    if z.size:
        d, kz = digits[z] // np.uint64(10), k[z] + 1
        for n in (8, 4, 2, 1):
            strip = d % _POW10[n] == 0
            d = np.where(strip, d // _POW10[n], d)
            kz += strip * n
        digits[z], k[z] = d, kz
    return digits, k


def _count_digits(values):
    """The number of decimal digits of each uint64, 1 for 0."""
    return np.maximum(np.searchsorted(_POW10, values, side="right"), 1)


def _write_digits(values, source, last):
    """Write the decimal digits of the uint64 `values` as ASCII into rows
    `last`, `last` - 1, ... of `source`, units first, as many as the largest
    value has."""
    for row in range(last, last - int(_count_digits(values.max(initial=0))), -1):
        q = values // np.uint64(10)
        source[row] = (values - q * np.uint64(10)).astype(np.uint8) + np.uint8(ord("0"))
        values = q


def _layout(source, at, neg, shift, dot, end, width):
    """(width, rows) characters, position by position, of cells that read
    '-' when `neg`, then source[at + p - shift - (p > dot)] at each position
    p before `end`, but '.' at position `dot`; NUL after (int16 arrays,
    `dot` None for no dot)."""
    p = np.arange(width, dtype=np.int16)[:, None]
    digit = (p >= neg) & (p < end)
    gap = shift + np.zeros_like(p)
    if dot is not None:
        gap += p > dot
        digit &= p != dot
    out = np.zeros((width, neg.size), dtype=np.uint8)
    for g in range(int(gap.min(initial=0)), int(gap.max(initial=0)) + 1):
        out += ((gap == g) & digit) * source[at - g:at - g + width]  # one slice a shift
    if dot is not None:
        out += (p == dot) * np.uint8(ord("."))
    out[:1] += neg * np.uint8(ord("-"))
    return out


def _int_text(col):
    if col.dtype.kind == "u":
        mag, neg = col.astype(np.uint64), np.zeros(col.size, dtype=bool)
    else:
        v = col.astype(np.int64)
        neg = v < 0
        mag = np.where(neg, np.uint64(0) - v.view(np.uint64), v.view(np.uint64))
    end = _count_digits(mag).astype(np.int16) + neg
    width = int(end.max(initial=1))
    # the digits right-aligned in rows 0..19: position p of an n-digit cell
    # reads row 20 - n + p - neg, that is 19 + p - shift
    source = np.zeros((19 + width, col.size), dtype=np.uint8)
    _write_digits(mag, source, 19)
    return _layout(source, 19, neg, end - 1, None, end, width)


def _float_text(col):
    x = np.ascontiguousarray(col, dtype=np.float64)
    bits = x.view(np.uint64)
    neg = bits >> np.uint64(63) == 1
    finite = np.isfinite(x)
    zero = x == 0.0
    digits, k = _shortest(np.where(finite & ~zero, bits, np.uint64(1)))
    digits[zero] = 0
    k[zero] = 0
    n = _count_digits(digits)
    decpt = k + n  # the value is 0.d1d2...dn 10^decpt
    sci = (decpt <= -4) | (decpt > 16)
    # Z(j), the digit j places past the first, '0' outside the n digits:
    # fixed notation writes Z(j) for j from min(0, decpt - 1) up to
    # max(n, decpt + 1), with '.' before Z(decpt); exponent notation Z(0),
    # then '.' and Z(1) to Z(n - 1) when n > 1
    j0 = np.where(sci, 0, np.minimum(0, decpt - 1))
    j1 = np.where(sci, n, np.maximum(n, decpt + 1))
    dot = np.where(sci, np.where(n > 1, 1, _NO_DOT), decpt - j0)
    end = neg + j1 - j0 + (dot != _NO_DOT)
    # the cells with a suffix: the exponent, or the whole of inf and nan
    tail = np.flatnonzero(sci | ~finite)
    nan = np.isnan(x[tail])
    suffix = np.where(finite[tail], _EXPONENTS[decpt[tail] + 323], np.where(nan, b"nan", b"inf"))
    special = tail[~finite[tail]]
    neg[tail[nan]] = False
    end[special] = neg[special]
    dot[special] = _NO_DOT
    chars = suffix.view(np.uint8).reshape(tail.size, suffix.itemsize)
    size = (chars != 0).sum(axis=1)
    width = int(max(end.max(initial=0), (end[tail] + size).max(initial=0)))
    # the significand scaled to 17 digits, Z(j) in row 6 + j, '0' around
    source = np.full((6 + max(width, 17), x.size), ord("0"), dtype=np.uint8)
    _write_digits(digits * _POW10[17 - n], source, 22)
    out = _layout(
        source, 6, neg, (neg - j0).astype(np.int16), (dot + neg).astype(np.int16),
        end.astype(np.int16), width,
    )
    for t in range(chars.shape[1]):
        some = size > t
        out[end[tail[some]] + t, tail[some]] = chars[some, t]
    return out


def column_text(col: np.ndarray) -> np.ndarray:
    """The text `cli._cell` gives each cell of the 1-D column `col`
    (``str(int(v))``, ``repr(float(v))``, or the ASCII string itself), as a
    (width, rows) uint8 matrix: cell i is column i, its characters from the
    top, NUL after its last."""
    kind = col.dtype.kind
    if kind in "iu":
        return _int_text(col)
    if kind == "f":
        return _float_text(col)
    chars = np.asarray(col, dtype="S")
    return chars.view(np.uint8).reshape(chars.size, -1).T
