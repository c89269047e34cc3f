"""Shortest round-trip decimals of whole float64 arrays, byte for byte ``repr(float)``.

``shortest_repr`` writes every value of an array as ``repr`` would: the
shortest decimal that reads back as the same double (the nearest one where
several have that length), laid out by Python's ``'r'`` rules.  It works on
the whole array at once, with no Python object per value:

1. |x| = M 2**e2 with a 53-bit integer M (``frexp``).  For e10 =
   floor(log10 |x|), y = |x| 10**(16 - e10) lies in [1e16, 1e17); it is M
   times 10**s 2**e2 (s = 16 - e10), formed as a double-double by Dekker's
   exact product from 10**s held as a double-double built from exact Python
   integers.  Written y = N + f with an integer N and f in [0, 1), it is off
   by less than 1e-14.
2. The decimals that read back as x are those within half an ulp h of it,
   h = 2**(e2 - 1) 10**s in units of y.  The shortest has 17 - k digits for
   the largest k such that a multiple of 10**k lies in (y - h, y + h); of
   several, the nearest to y.  That interval is under 23 wide, so k is 0
   or 1 unless it holds a multiple of 100, which is then its only one and k
   counts that multiple's trailing zeros.
3. The digits are laid out as ``repr`` lays them out: scientific iff the
   decimal point sits at or before -4 or after 16 digits, a ``.0`` after an
   integer, two exponent digits at least (``1e-05``).

Each decision compares y with an integer or a half-integer.  Where y is
within 1e-9 of one (a tie, an end of the interval), the value goes to
``repr`` itself, as do nan, inf, subnormals and powers of two (whose
interval is lopsided).  No preset's densities have such a value.  The method
is that of Errol (Andrysco, Jhala and Lerner, POPL 2016): a double-double
approximation of the scaled value, trusted only where it decides with a
margin.
"""

from __future__ import annotations

import functools
import sys

import numpy as np

WIDTH = 24   # '-2.2250738585072014e-308', the longest repr of a double
_MARGIN = 1e-9   # y is known to about 1e-14
_TINY, _HUGE = sys.float_info.min, sys.float_info.max   # the normal doubles
_Y0, _Y1 = 10 ** 16, 10 ** 17
_E10_MAX = 308   # normal doubles have e10 in [-308, 308]
_SPLIT = 134217729.0   # 2**27 + 1, Dekker's splitter


@functools.cache
def _powers_of_ten() -> np.ndarray:
    """Columns (hi, hh, hl, lo, q) of 10**s for s = 16 - e10, e10 = 308 down to -308.

    10**s = (hi + lo) 2**q with hi + lo in [1, 2), hi split into halves
    hh + hl of 26 bits.  The 121-bit integer (hi + lo) 2**120 is formed
    exactly from one running power of ten, 10**|s|.
    """
    fixed, q = [], []
    p = 10 ** (_E10_MAX - 16)
    for s in range(16 - _E10_MAX, 17 + _E10_MAX):
        if s < 0:
            q.append(-p.bit_length())   # 10**-s is no power of two
            fixed.append((1 << (120 - q[-1])) // p)
            p //= 10
        else:
            q.append(p.bit_length() - 1)
            fixed.append((p << 120) >> q[-1])
            p *= 10
    hi = np.array([float(f) for f in fixed])
    lo = np.array([float(f - int(h)) for f, h in zip(fixed, hi.tolist())]) * 2.0 ** -120
    hi *= 2.0 ** -120
    c = _SPLIT * hi
    hh = c - (c - hi)
    return np.array([hi, hh, hi - hh, lo, q])


def _scaled(m: np.ndarray, e: np.ndarray, e10: np.ndarray):
    """(N, f, h) for |x| = m 2**e: y = |x| 10**(16 - e10) = N + f, and half an ulp of x in units of y."""
    hi, hh, hl, lo, q = np.take(_powers_of_ten(), _E10_MAX - e10, axis=1)
    big = m * 2.0 ** 53   # M, exact
    c = _SPLIT * big
    bh = c - (c - big)
    bl = big - bh
    prod = big * hi
    err = ((bh * hh - prod) + bh * hl + bl * hh) + bl * hl   # big * hi - prod, exactly
    k = (e - 53 + q).astype(np.int32)   # small: y and prod are within a factor of 16
    rest = np.ldexp(err + big * lo, k)
    whole = np.floor(rest)
    n = np.ldexp(prod, k).astype(np.int64) + whole.astype(np.int64)
    return n, rest - whole, np.ldexp(hi, k - 1)


def _decide(x: np.ndarray):
    """Shortest digits of each |x| > 0: (digits, count, point, decided).

    ``digits`` is a 17-digit integer whose leading ``count`` digits are the
    decimal's, ``point`` the position of the decimal point after the first
    digit's place (x = 0.d1d2... 10**point), ``decided`` False where the
    value must go to ``repr`` instead.
    """
    decided = (x >= _TINY) & (x <= _HUGE)
    x = np.where(decided, x, 1.5)
    m, e = np.frexp(x)
    decided &= m != 0.5
    e10 = np.floor(np.log10(x)).astype(np.int64)
    n, f, h = _scaled(m, e, e10)
    off = (n >= _Y1).astype(np.int64) - (n < _Y0)   # log10 rounded across a power of ten
    if (i := np.flatnonzero(off)).size:
        e10[i] += off[i]
        n[i], f[i], h[i] = _scaled(m[i], e[i], e10[i])
    low, high = f - h, f + h
    decided &= (np.abs(low - np.rint(low)) > _MARGIN) & (np.abs(high - np.rint(high)) > _MARGIN)
    first = n + (np.ceil(low).astype(np.int64) - 1)   # the integers in (y - h, y + h) are
    last = n + np.floor(high).astype(np.int64)        # first + 1 ... last
    by10 = last // 10 > first // 10
    hundreds = last // 100
    by100 = hundreds > first // 100
    unit = np.where(by10, 10, 1)
    r = np.where(by10, n - n // 10 * 10, 0)
    twice = (2 * r - unit) + 2 * f   # twice y's excess over the middle of its unit
    decided &= by100 | (np.abs(twice) > 2 * _MARGIN)
    digits = n - r + (twice > 0) * unit
    k = by10.astype(np.int64) + by100
    if (i := np.flatnonzero(by100)).size:
        digits[i] = hundreds[i] * 100
        tens = hundreds[i].astype(float)[:, None] / 10.0 ** np.arange(1, 16)   # exact where whole
        k[i] += np.count_nonzero(np.floor(tens) == tens, axis=1)
    carry = digits == _Y1   # rounded up to 10**17: one digit, a place further left
    digits[carry] = _Y0
    return digits, 17 - np.minimum(k, 16), e10 + 1 + carry, decided


# columns of the per-value source row: '000' and the 17 digits, '0' and three
# exponent digits, then the constants '0.e-+' and NUL
_DIGIT, _EXPONENT, _ZERO, _DOT, _E, _MINUS, _PLUS, _NUL = 3, 21, 24, 25, 26, 27, 28, 29
_SOURCE = 32
_FIXED = 20   # layout classes 0..19: point -3..16 written out; 20..23 scientific


@functools.cache
def _quads() -> np.ndarray:
    """uint32 words of four ascii bytes: '0000'..'9999', then '0.e-' and '+' padded with NUL."""
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + np.uint8(ord("0"))
    tail = np.frombuffer(b"0.e-+\0\0\0", dtype=np.uint8).reshape(2, 4)
    return np.concatenate([digits, tail]).view(np.uint32).ravel()


@functools.cache
def _layouts() -> tuple[np.ndarray, np.ndarray]:
    """Source column of each output byte, and the length, per (sign, class, count).

    Fixed notation writes max(point, 1) places before the dot and
    max(count - point, 1) after it; place j holds digit point - 1 - e
    (j's decimal exponent e), or '0' where there is none.  Scientific
    notation writes the mantissa as point 1 with count - 1 places after the
    dot (no dot for one digit), then 'e', the exponent's sign and its two or
    three digits.  Count 0 is no layout.
    """
    cls = np.arange(_FIXED + 4)[:, None, None]
    count = np.arange(18)[:, None]
    j = np.arange(WIDTH)
    sci = cls >= _FIXED
    point = np.where(sci, 1, cls - 3)
    whole = np.maximum(point, 1)
    frac = np.where(sci, count - 1, np.maximum(count - point, 1))
    mantissa = np.where(frac > 0, whole + 1 + frac, whole)
    k = point - whole + j - (j > whole)
    body = np.where(j == whole, _DOT, np.where((k >= 0) & (k < count), _DIGIT + k, _ZERO))
    three = (cls - _FIXED) % 2
    t = j - mantissa
    sign = np.where(cls >= _FIXED + 2, _PLUS, _MINUS)
    exponent = np.where(t == 0, _E, np.where(t == 1, sign, _EXPONENT - 1 - three + t))
    body = np.where(sci & (t >= 0), exponent, body)
    length = np.where(sci, mantissa + 4 + three, mantissa) * (count > 0)
    table = np.empty((2,) + body.shape, dtype=np.intp)
    table[0] = np.where(j < length, body, _NUL)
    table[1, ..., 0] = np.where(count[:, 0] > 0, _MINUS, _NUL)
    table[1, ..., 1:] = table[0, ..., :-1]
    return table.reshape(-1, WIDTH), np.stack([length, length + (count > 0)]).ravel()


def _sources(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per value of ``a``: its source row (``_SOURCE`` ascii bytes), its layout key into ``_layouts``, and decided.

    The digit stage of ``shortest_repr``: numpy arithmetic only, with no
    Python object per value, so it can run on a thread of its own.  Its
    temporaries end with it, so only these are alive beside ``_gather``.
    """
    x = np.abs(a)
    digits, count, point, decided = _decide(x)
    zero = x == 0
    digits[zero], count[zero], point[zero] = 0, 1, 1
    decided |= zero
    exponent = point - 1
    words = np.empty((len(a), _SOURCE // 4), dtype=np.intp)
    for j in (4, 3, 2, 1):
        rest = digits // 10000
        words[:, j] = digits - rest * 10000
        digits = rest
    words[:, 0] = digits
    words[:, 5] = np.abs(exponent)
    words[:, 6:] = 10000, 10001
    source = _quads()[words].view(np.uint8)
    sci = (point <= -4) | (point > 16)
    cls = np.where(sci, _FIXED + 2 * (exponent > 0) + (np.abs(exponent) >= 100), np.clip(point + 3, 0, _FIXED - 1))
    return source, (np.signbit(a) * (_FIXED + 4) + cls) * 18 + count, decided


def _gather(a: np.ndarray, source: np.ndarray, key: np.ndarray, decided: np.ndarray) -> np.ndarray:
    """The layout stage of ``shortest_repr``: the rows of ``a`` from its ``_sources``, undecided values by ``repr``."""
    table, lengths = _layouts()
    index = np.take(table, key, axis=0)
    index += (np.arange(len(a)) * _SOURCE)[:, None]
    out = np.take(source.ravel(), index)
    width = int(lengths[key[decided]].max(initial=0))
    for i in np.flatnonzero(~decided).tolist():
        text = b"" if a[i] != a[i] else repr(float(a[i])).encode()
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
        width = max(width, len(text))
    return out[:, :width]


def shortest_repr(values) -> np.ndarray:
    """``repr`` of every value as one row of ascii bytes, NUL-padded on the right; nan as no bytes.

    The rows are as wide as the longest of them, at most ``WIDTH``.
    """
    a = np.asarray(values, dtype=float).ravel()
    return _gather(a, *_sources(a))
