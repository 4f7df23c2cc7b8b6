"""CSV rows of timestamps and float64 values, each value written as repr
writes it: the shortest text that reads back as the same double.

Values in repr's fixed-notation range, 1e-4 <= |x| < 1e16, and +-0 get
their digits from Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020), the algorithm of Java's Double.toString, run over uint64
arrays; any other value is written by repr one by one. Every operand of
the integer kernel is an explicit uint64 or int64 array or scalar: numpy
1.x turns uint64 mixed with int64 or a Python int into float64, and numpy
scalars warn where a wrapping multiply is meant.
"""

from __future__ import annotations

import functools

import numpy as np

_U64 = np.uint64
_CHUNK = 8192  # values per pass of the kernel, so its temporaries stay in cache
_FIELD = 25  # bytes per value in a row: a comma and up to 24 bytes of text
# A value's source bytes: the 20 digits of its 17-digit significand, then these.
_MINUS, _POINT, _ZERO, _COMMA, _NUL = range(20, 25)
_FIRST = 3  # where the significand starts in its 20 digits
_KEYS = (2, 20, 17)  # a layout's key: minus sign, decimal exponent + 3, digits - 1

# g = floor(10^-k 2^(125 - r)) + 1 with r = floor(log2 10^-k), for the k
# of the range, -20 to 0, at k + 20: as g1 2^63 + g0, g1 and both halved.
_POW = [10 ** -k for k in range(-20, 1)]
_R = [p.bit_length() - 1 for p in _POW]
_G = [p * 2 ** (125 - r) + 1 for p, r in zip(_POW, _R)]
assert all(2 ** 125 <= g < 2 ** 126 for g in _G)
_G = [np.array([part(g) for g in _G], dtype=_U64) for part in (
    lambda g: g >> 63, lambda g: g >> 95, lambda g: g >> 63 & 0xFFFFFFFF,
    lambda g: g >> 32 & 0x7FFFFFFF, lambda g: g & 0xFFFFFFFF)]
_R = np.array(_R, dtype=np.int64)


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray]:
    """The ASCII text of 0000 to 9999 as uint32s, and the layouts: for each
    key, which source byte goes to each byte of the field; the last two
    are +0 and -0. Built on first use, as train and benchmark need neither."""
    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    groups = (digits + ord("0")).astype(np.uint8).view(np.uint32).ravel()
    # a value 0.d1...dn 10^point is written [-]W.F, W the digits before the
    # point (or 0) and F those after it (or 0), padded with zeros between
    neg, point, n = (a.reshape(-1, 1) for a in np.indices(_KEYS))
    point -= 3
    n += 1
    p = np.arange(_FIELD - 1) - neg  # place after the sign, which is at -1
    whole = np.maximum(point, 1)
    end = whole + 1 + np.maximum(n - point, 1)
    i = np.where(p < whole, np.where(point > 0, p + 1, 0), point + p - whole)  # digit d_i
    src = np.where((1 <= i) & (i <= n), _FIRST - 1 + i, _ZERO)
    src = np.where(p == whole, _POINT, src)
    src = np.where(p == -1, _MINUS, src)
    src = np.where(p >= end, _NUL, src)
    zeros = [[_ZERO, _POINT, _ZERO], [_MINUS, _ZERO, _POINT, _ZERO]]
    zeros = [z + [_NUL] * (_FIELD - 1 - len(z)) for z in zeros]
    layouts = np.column_stack([np.full(len(src) + 2, _COMMA), np.vstack([src, zeros])])
    return groups, layouts


def _mulhi(a_hi, a_lo, b_hi, b_lo):
    """The high 64 bits of the product of two uint64s given as 32-bit halves."""
    low = _U64(0xFFFFFFFF)
    cross1, cross2 = a_hi * b_lo, a_lo * b_hi
    mid = ((a_lo * b_lo) >> _U64(32)) + (cross1 & low) + (cross2 & low)
    return a_hi * b_hi + (cross1 >> _U64(32)) + (cross2 >> _U64(32)) + (mid >> _U64(32))


def _rop(g, cp):
    """floor(g cp 2^-127), its lowest bit set where that is inexact."""
    g1, g1_hi, g1_lo, g0_hi, g0_lo = g
    cp_hi, cp_lo = cp >> _U64(32), cp & _U64(0xFFFFFFFF)
    y1 = _mulhi(g1_hi, g1_lo, cp_hi, cp_lo)
    z = ((g1 * cp) >> _U64(1)) + _mulhi(g0_hi, g0_lo, cp_hi, cp_lo)
    mask = _U64(2 ** 63 - 1)
    return (y1 + (z >> _U64(63))) | (((z & mask) + mask) >> _U64(63))


def _significands(ax):
    """(f, k) with f 10^k the shortest text of each of ax, positive doubles
    of the range, nearest ax and even on a tie; f has 16 or 17 digits."""
    bits = ax.view(_U64)
    c = (bits & _U64(2 ** 52 - 1)) | _U64(2 ** 52)
    q = (bits >> _U64(52)).astype(np.int64) - 1075  # ax = c 2^q
    irregular = c == _U64(2 ** 52)  # the double below is nearer than the one above
    # k = floor(log10 2^q), or floor(log10 3/4 2^q) where irregular
    k = (q * 661971961083 - irregular * np.int64(274743187321)) >> 41
    at = k + 20
    g = [table.take(at) for table in _G]
    h = (q + _R.take(at) + 2).astype(_U64)
    # 4 ax 10^-k and the ends of the interval that reads back as ax
    cb = c << _U64(2)
    vb = _rop(g, cb << h)
    vbl = _rop(g, (cb - _U64(2) + irregular.astype(_U64)) << h)
    vbr = _rop(g, (cb + _U64(2)) << h)
    out = c & _U64(1)  # an odd c's interval leaves its ends out
    s = vb >> _U64(2)
    # a shorter text is the one multiple of 10^(k+1) inside, if there is one
    sp10 = s // _U64(10) * _U64(10)
    tp10 = sp10 + _U64(10)
    upin = vbl + out <= sp10 << _U64(2)
    wpin = (tp10 << _U64(2)) + out <= vbr
    # else s 10^k or t 10^k, whichever is inside or, both inside, nearer
    t = s + _U64(1)
    uin = vbl + out <= s << _U64(2)
    win = (t << _U64(2)) + out <= vbr
    mid = (s + t) << _U64(1)
    nearer_s = (vb < mid) | ((vb == mid) & ((s & _U64(1)) == _U64(0)))
    f = np.where(uin != win, np.where(uin, s, t), np.where(nearer_s, s, t))
    return np.where(upin != wpin, np.where(upin, sp10, tp10), f), k


def _fields(values, groups, layouts):
    """Each value's field: a comma and its text, padded with NUL bytes."""
    ax = np.abs(values)
    neg = np.signbit(values)
    zero = ax == 0.0
    fixed = (ax >= 1e-4) & (ax < 1e16)
    f, k = _significands(np.where(fixed, ax, 1.0))
    long = f >= _U64(10 ** 16)
    f = np.where(long, f, f * _U64(10))  # 17 digits
    high = f // _U64(10 ** 8)
    low = (f - high * _U64(10 ** 8)).astype(np.uint32)
    top = (high // _U64(10 ** 8)).astype(np.uint32)
    high = high.astype(np.uint32) - top * np.uint32(10 ** 8)
    parts = [top, high // np.uint32(10 ** 4), high % np.uint32(10 ** 4),
             low // np.uint32(10 ** 4), low % np.uint32(10 ** 4)]
    source = np.empty((len(values), _FIELD), dtype=np.uint8)
    source[:, :20] = groups.take(np.column_stack(parts)).view(np.uint8)
    source[:, 20:] = np.frombuffer(b"-.0,\0", dtype=np.uint8)
    n = 17 - np.argmax(source[:, 19:_FIRST - 1:-1] != ord("0"), axis=1)  # less trailing 0s
    point = k + 16 + long  # the value is 0.d1...dn 10^point
    key = (neg * _KEYS[1] + point + 3) * _KEYS[2] + n - 1
    key = np.where(zero, len(layouts) - 2 + neg, np.where(fixed, key, 0))
    index = layouts.take(key, axis=0)
    index += np.arange(0, source.size, _FIELD)[:, None]
    field = source.ravel().take(index)
    other = ~(fixed | zero)
    if other.any():
        text = [repr(v).encode() for v in values[other].tolist()]
        text = np.array(text, dtype=f"S{_FIELD - 1}").view(np.uint8)
        field[other, 1:] = text.reshape(-1, _FIELD - 1)
    return field


def csv_rows(stamps: np.ndarray, table: np.ndarray) -> str:
    """One CSV line per row of the (rows x columns) float64 table: the row's
    stamp, an ASCII bytes item, then each value as repr writes it."""
    rows, cols = table.shape
    stamps = np.ascontiguousarray(stamps)
    width = stamps.dtype.itemsize
    lines = np.empty((rows, width + cols * _FIELD + 1), dtype=np.uint8)
    lines[:, :width] = stamps.view(np.uint8).reshape(rows, width)
    lines[:, -1] = ord("\n")
    groups, layouts = _tables()
    values = np.ascontiguousarray(table, dtype=np.float64).ravel()
    step = max(1, _CHUNK // cols)
    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        fields = _fields(values[lo * cols:hi * cols], groups, layouts)
        lines[lo:hi, width:-1] = fields.reshape(hi - lo, cols * _FIELD)
    # the stamps and fields are padded with NUL bytes, which ASCII text lacks
    return lines.tobytes().translate(None, b"\0").decode("ascii")
