"""CSV rows of float64 values as ``%.17g`` text, formatted by numpy a block at a time.

:func:`format_rows` returns, for a ``(rows, cols)`` block, the exact bytes of
``",".join("%.17g" % v for v in row) + "\\n"`` for each row, without a
per-value conversion for almost every value.

Digits. With k = floor(log10|v|), the 17 significant digits are the integer
N = round(|v| * 10^(16-k)) in [1e16, 1e17). The power of ten is a double-double
``hi + lo`` (exact up to 10^44, within 2^-106 relative beyond) and the product
is Dekker's exact two-product of ``|v| * hi`` plus ``|v| * lo``, so the
fraction of the scaled value is known to within about 1e-14. A k that
log10 rounded to the wrong side of a power of ten is corrected by one
rescaling, and N = 10^17 after rounding carries into the exponent.

Text. Each value gets a fixed row of 30 bytes: a sign, the ``0.000`` of
``%g``'s fixed form below 1, the 17 digits with the point at its place,
``e-XXX`` and the separator. The bytes a value does not use, trailing
zeros included, are set to 0, and one compress of the rest yields the text.

Zero. A zero gets N = 0 and k = 0, whose text is the single digit ``0``;
the sign is read from the sign bit, so -0.0 gives ``-0`` as ``%g`` does.

Fallback. ``"%.17g" % v`` itself formats inf, nan, every nonzero |v| below
1e-270 or from 1e16 up, and every value whose scaled fraction lies within
1e-9 of one half, where the error bound cannot tell the rounding direction.
"""
from __future__ import annotations

import numpy as np

#: rows formatted per call by a writer, bounding the working arrays of a file
BLOCK = 256

# |v| in [_FAST_MIN, _FAST_MAX) takes the numpy path; a scaled fraction
# within _TIE of one half takes the fallback
_FAST_MIN = 1e-270
_FAST_MAX = 1e16
_TIE = 1e-9

_S_MAX = 300  # largest power 10^s used: 16 - k for k down to about -272
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitting constant

_E16 = 10**16
_E17 = 10**17


def _pow10_table():
    # 10^s = hi + lo from the exact integer, and hi split in halves for Dekker's product
    hi, lo, power = [], [], 1
    for _ in range(_S_MAX + 1):
        hi.append(float(power))
        lo.append(float(power - int(hi[-1])))
        power *= 10
    hi, lo = np.array(hi), np.array(lo)
    t = _SPLIT * hi
    hh = t - (t - hi)
    return hi, lo, hh, hi - hh


_P10_HI, _P10_LO, _P10_HH, _P10_HL = _pow10_table()


def _digits4_table():
    # "0000".."9999": one little-endian word per number whose bytes are its four ASCII digits
    table = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    ascii_digits = np.arange(48, 58, dtype=np.uint8)
    for place in range(4):
        table[..., place] = ascii_digits.reshape((10,) + (1,) * (3 - place))
    return table.view("<u4").reshape(10000)


_DIGITS4 = _digits4_table()

# the 30 bytes of one value, one row each below: a sign, "0.000" of the fixed
# form below 1, 18 slots for 17 digits and the point, "e-" and three exponent
# digits, the separator
_TEMPLATE = np.frombuffer(b"-0.000" + b"0" * 18 + b"e-000,", dtype=np.uint8)[:, None]
_WIDTH = _TEMPLATE.size
# prefix row 1 + i ("0.000"[i]) is written when the decimal exponent is at most _PREFIX_MAX_EXP[i]
_PREFIX_MAX_EXP = np.array([-1, -1, -2, -3, -4])[:, None]
_SLOT = np.arange(18, dtype=np.int8)[:, None]
_DOT = np.uint8(ord("."))
_ZERO = np.uint8(ord("0"))


def _scaled(a, k):
    """floor(a * 10^(16-k)) as int64 and the fraction left over, for a > 0."""
    s = 16 - k
    p = a * _P10_HI[s]
    t = _SPLIT * a
    ah = t - (t - a)
    al = a - ah
    err = al * _P10_HL[s] - (((p - ah * _P10_HH[s]) - al * _P10_HH[s]) - ah * _P10_HL[s])
    e = err + a * _P10_LO[s]
    whole = np.floor(e)
    return p.astype(np.int64) + whole.astype(np.int64), e - whole


def _select(mask, a, b):
    """``np.where(mask, a, b)`` for uint8 operands, by wrapping arithmetic (np.where is far slower)."""
    return b + mask.view(np.uint8) * (a - b)


def _decimal(a):
    """For |v| = ``a``: (N, k, exact) with N the 17 significant digits as int64 and
    k the decimal exponent, exact where the digits are certain; ``a`` is overwritten.

    A zero gives N = 0 and k = 0, exact."""
    zero = a == 0.0
    exact = (a >= _FAST_MIN) & (a < _FAST_MAX)
    a[~exact] = 1.0
    k = np.floor(np.log10(a)).astype(np.int64)
    n17, frac = _scaled(a, k)
    off = np.flatnonzero((n17 < _E16) | (n17 >= _E17))
    if off.size:
        k[off] += np.where(n17[off] < _E16, -1, 1)
        n17[off], frac[off] = _scaled(a[off], k[off])
        exact[off[(n17[off] < _E16) | (n17[off] >= _E17)]] = False
    exact &= np.abs(frac - 0.5) > _TIE
    n17 += frac > 0.5
    carry = n17 == _E17
    n17[carry] = _E16
    k += carry
    # zeros by multiplication: a masked assignment's index arrays would move a writer's traced peak
    exact |= zero
    nonzero = np.logical_not(zero, out=zero)
    n17 *= nonzero
    k *= nonzero
    return n17, k, exact


def _digit_rows(n17):
    """The 17 digits of each N in ASCII, digit i in row i + 1 of 19.

    Rows 0 and 18 pad the shifted views of :func:`_text`, which never select their bytes.
    """
    n = n17.size
    digits = np.empty((19, n), dtype=np.uint8)
    head, tail = np.divmod(n17, 10**8)
    digits[1] = (head // 10**8).astype(np.uint8) + _ZERO
    words = np.empty((4, n), dtype="<u4")
    words[0] = _DIGITS4[head // 10**4 % 10**4]
    words[1] = _DIGITS4[head % 10**4]
    words[2] = _DIGITS4[tail // 10**4]
    words[3] = _DIGITS4[tail % 10**4]
    digits[2:18].reshape(4, 4, n)[...] = words.view(np.uint8).reshape(4, n, 4).transpose(0, 2, 1)
    return digits


def _text(n17, k, negative, cols):
    """The 30 bytes of each value, one row per byte position, with 0 for a byte not written."""
    digits = _digit_rows(n17)
    # nonzero[i + 1]: a digit other than 0 at index i or later
    nonzero = np.zeros(digits.shape, dtype=bool)
    np.not_equal(digits[1:18], _ZERO, out=nonzero[1:18])
    for i in range(16, 0, -1):
        nonzero[i] |= nonzero[i + 1]

    # %g: the exponent form below 1e-4; otherwise the fixed form, with the point after digit k
    expo = k < -4
    point = np.where(expo, 1, np.where(k < 0, 17, k + 1)).astype(np.int8)
    whole = np.where(k < 0, expo, point).astype(np.int8)  # digits before the point, zeros or not

    text = np.empty((_WIDTH, n17.size), dtype=np.uint8)
    text[:] = _TEMPLATE
    text[0] *= negative
    text[1:6] *= (k <= _PREFIX_MAX_EXP) & ~expo
    # the 18 digit slots: digit j before the point, the point, digit j - 1 after it
    slots = text[6:24]
    before = _SLOT < point
    slots[...] = _select(before, digits[1:19], digits[0:18])
    at = _SLOT == point
    slots[...] = _select(at, _DOT, slots)
    before |= at
    del at  # one (18, n) array fewer while the mask below is built: the block's peak memory
    slots *= (_SLOT < whole) | (nonzero[1:19] & before) | (nonzero[0:18] & ~before)
    text[25:29] = _DIGITS4[np.where(expo, -k, 0)].view(np.uint8).reshape(-1, 4).T
    text[25] = ord("-")
    text[24:29] *= expo
    text[26] *= k <= -100
    text[-1].reshape(-1, cols)[:] = np.frombuffer(b"," * (cols - 1) + b"\n", dtype=np.uint8)
    return text


def format_rows(block) -> bytes:
    """The ``%.17g`` CSV lines of a 2-D float block: values joined by ``,``, rows ended by ``\\n``."""
    v = np.ascontiguousarray(block, dtype=np.float64)
    flat = v.reshape(-1)
    if flat.size == 0:
        return b""
    n17, k, exact = _decimal(np.abs(flat))
    text = _text(n17, k, np.signbit(flat), v.shape[1]).T.copy()
    slow = np.flatnonzero(~exact)
    if slow.size:
        texts = ["%.17g" % x for x in flat[slow].tolist()]
        data = np.frombuffer("".join(texts).encode("ascii"), dtype=np.uint8)
        lengths = np.array([len(t) for t in texts])
        starts = np.cumsum(lengths) - lengths
        text[slow, :-1] = 0
        text[np.repeat(slow, lengths), np.arange(data.size) - np.repeat(starts, lengths)] = data
    return text[text != 0].tobytes()
