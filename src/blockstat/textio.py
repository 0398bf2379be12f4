"""CSV artifacts whose every float is Python's repr, byte for byte.

`write_csv` formats whole columns in numpy, with no Python call per value:
an integer is written as str(int(v)) and a float as repr(float(v)).

The digits of a float are its shortest decimal that rounds back to it;
when several are shortest, the closest to it, and on a tie the one with
an even last digit.  They come from Schubfach (R. Giulietti, "The
Schubfach way to render doubles", 2020) run on uint64 arrays: a 126-bit
power of ten per value from a table, three products with it rounded to
odd, and a choice among four candidates.

repr lays the digits out in fixed notation when 1e-4 <= |x| < 1e16
('0.000123', '12.5', '1500.0') and otherwise as d.ddde+XX, with at least
two exponent digits ('1e-05', '5e-324', '1.5e+16'); zeros, infinities and
NaN are '0.0', '-0.0', 'inf', '-inf' and 'nan'.  Each field gets one
NUL-padded slot of a uint8 matrix: a layout table, indexed by sign, digit
count and decimal-point position, gives the slot's fixed characters and
masks where its digits go.  The padding is dropped chunk by chunk as the
text is written.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

_CHUNK = 8192  # rows formatted and written at a time
_E_MIN, _E_MAX = -292, 324  # the table's powers of ten 10^-k, k = floor(q log10 2)
_C_MIN = np.uint64(1 << 52)
_T_MASK = np.uint64((1 << 52) - 1)
_EXP_MASK = np.uint64(0x7FF << 52)
_M32 = np.uint64(0xFFFFFFFF)
_M63 = np.uint64((1 << 63) - 1)
_POW10 = np.array([10**i for i in range(1, 20)], dtype=np.uint64)

# a float slot: '-', '0' of '0.000ddd', 17 digits before the point, '.',
# 3 zeros of '0.000ddd' (or 'inf', 'nan'), 17 digits after the point, '0'
# of '.0', 'e', the exponent's sign and its 3 digits.  An integer below
# 1e16 is laid out with all its digits, trailing zeros included.
_FLOAT_WIDTH, _INT_WIDTH = 46, 21
_INT, _FRAC, _EXP = slice(2, 19), slice(23, 40), slice(43, 46)
_FIXED, _SCI = 20 * 17, 4 * 17  # layouts: (digits, point in -3..16), (digits, exponent)
_LAYOUTS = _FIXED + _SCI + 2  # and inf, nan; all of them twice, unsigned then signed


def _float_layout(neg: bool, n: int, point: int, special: bytes = b"") -> bytes:
    """The slot of a float with n digits and the decimal point after the
    first `point` of them (point <= n in fixed notation): its fixed
    characters, and 0xff where a digit goes."""
    row = bytearray(_FLOAT_WIDTH)
    row[0] = ord("-") if neg else 0
    if special:
        row[20:23] = special
        return bytes(row)
    sci = not -4 < point <= 16
    lead = 1 if sci else min(max(point, 0), n)  # digits before the '.'
    row[_INT.stop - n:_INT.stop - n + lead] = b"\xff" * lead
    row[_FRAC.stop - n + lead:_FRAC.stop] = b"\xff" * (n - lead)
    row[19] = ord(".") if n > 1 or not sci else 0
    if sci:
        row[41:43] = b"e+" if point > 0 else b"e-"
        width = 3 if abs(point - 1) >= 100 else 2
        row[_EXP.stop - width:_EXP.stop] = b"\xff" * width
    else:
        row[1] = ord("0") if point <= 0 else 0
        row[20:20 + max(-point, 0)] = b"0" * max(-point, 0)
        row[40] = ord("0") if point >= n else 0
    return bytes(row)


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(limbs, quads, float layouts, int layouts), built on the first write.

    For e in -292..324, g = floor(10^e 2^-r) + 1 with r chosen so that
    2^125 <= g - 1 < 2^126; its upper and lower 63 bits g1 and g0 are
    stored as the 32-bit limbs (g1 >> 32, g1 & M32, g0 >> 32, g0 & M32)
    and g1.  quads[i] holds the four ASCII digits of i, zero padded, as
    one uint32.
    """
    g = []
    for e in range(_E_MIN, _E_MAX + 1):
        r = ((e * 913124641741) >> 38) - 125  # floor(e log2 10) - 125
        if e >= 0:
            beta = 10**e >> r if r >= 0 else 10**e << -r
        else:
            beta = (1 << -r) // 10**-e
        g.append(beta + 1)
    g1 = np.array([x >> 63 for x in g], dtype=np.uint64)
    g0 = np.array([x & ((1 << 63) - 1) for x in g], dtype=np.uint64)
    limbs = np.stack([g1 >> 32, g1 & _M32, g0 >> 32, g0 & _M32, g1])
    i = np.arange(10**4)
    quads = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1) + ord("0")
    quads = np.ascontiguousarray(quads.astype(np.uint8)).view(np.uint32).ravel()
    # sci points 17, -98, 117, -99: exponents +16, -99, +116, -100
    layouts = [
        _float_layout(neg, *args)
        for neg in (False, True)
        for args in [(n, p) for n in range(1, 18) for p in range(-3, 17)]
        + [(n, p) for n in range(1, 18) for p in (17, -98, 117, -99)]
        + [(0, 0, b"inf"), (0, 0, b"nan")]
    ]
    floats = np.frombuffer(b"".join(layouts), dtype=np.uint8).reshape(-1, _FLOAT_WIDTH)
    ints = np.zeros((2, 20, _INT_WIDTH), dtype=np.uint8)
    ints[1, :, 0] = ord("-")
    ints[:, :, 1:] = (np.arange(20) >= 19 - np.arange(20)[:, None]) * np.uint8(0xFF)
    tables = limbs, quads, floats, ints.reshape(40, _INT_WIDTH)
    for a in tables:
        a.setflags(write=False)
    return tables


def _mulhi(ah: np.ndarray, al: np.ndarray, bh: np.ndarray, bl: np.ndarray) -> np.ndarray:
    """Upper 64 bits of the 128-bit products a*b, from 32-bit limbs."""
    lh = al * bh
    hl = ah * bl
    mid = al * bl
    mid >>= 32
    t = lh & _M32
    mid += t
    np.bitwise_and(hl, _M32, out=t)
    mid += t
    mid >>= 32
    out = ah * bh
    lh >>= 32
    hl >>= 32
    out += lh
    out += hl
    out += mid
    return out


def _rop(g: list[np.ndarray], cp: np.ndarray) -> np.ndarray:
    """(g * cp) >> 127 rounded to odd, for 126-bit g and cp < 2^63."""
    g1h, g1l, g0h, g0l, g1 = g
    cph, cpl = cp >> 32, cp & _M32
    z = g1 * cp
    z >>= 1
    z += _mulhi(g0h, g0l, cph, cpl)
    vbp = _mulhi(g1h, g1l, cph, cpl)
    vbp += z >> 63
    z &= _M63
    z += _M63
    z >>= 63
    vbp |= z
    return vbp


def _shortest(bits: np.ndarray, limbs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Digits f (no trailing zero) and exponent e with f 10^e the shortest
    decimal of each finite nonzero double, given by its bit pattern."""
    bq = (bits >> 52) & np.uint64(0x7FF)
    t = bits & _T_MASK
    normal = bq != 0
    c = np.where(normal, t | _C_MIN, t)
    q = np.where(normal, bq.astype(np.int64) - 1075, -1074)
    # a power of two above the least normal has a closer lower neighbour
    irregular = (t == 0) & (bq > 1)
    k = (q * 661971961083 + np.where(irregular, -274743187321, 0)) >> 41
    h = (q + ((-k * 913124641741) >> 38) + 2).astype(np.uint64)
    g = [row[-k - _E_MIN] for row in limbs]
    out = c & np.uint64(1)  # an odd c's interval leaves its endpoints out
    cb = c << np.uint64(2)
    vb = _rop(g, cb << h)
    vbl = _rop(g, (cb - np.uint64(2) + irregular) << h) + out
    vbr = _rop(g, (cb + np.uint64(2)) << h) - out
    s = vb >> np.uint64(2)
    sp10 = s // np.uint64(10) * np.uint64(10)
    # of sp10 and sp10 + 10, of s and s + 1: is the lower, the upper in range?
    upin = vbl <= sp10 << np.uint64(2)
    wpin = (sp10 + np.uint64(10)) << np.uint64(2) <= vbr
    uin = vbl <= s << np.uint64(2)
    win = (s + np.uint64(1)) << np.uint64(2) <= vbr
    mid = (s << np.uint64(2)) + np.uint64(2)  # vb of the midpoint of s and s + 1
    t_closer = (vb > mid) | ((vb == mid) & (s & np.uint64(1) == 1))
    f = np.where(upin != wpin, sp10 + np.uint64(10) * wpin,
                 s + np.where(uin != win, win, t_closer))
    # an integer below 2^53 is its own shortest decimal
    mq = np.clip(-q, 0, 63).astype(np.uint64)
    small = (q < 0) & (q > -53) & ((c >> mq) << mq == c)
    f = np.where(small, c >> mq, f)
    e = np.where(small, 0, k)
    ten = np.uint64(10)  # x // ten * ten == x: numpy's % has no fast path for a scalar
    rows = np.flatnonzero(f // ten * ten == f)
    while rows.size:
        f[rows] //= ten
        e[rows] += 1
        rows = rows[f[rows] // ten * ten == f[rows]]
    return f, e


def _ascii(f: np.ndarray, quads: np.ndarray, width: int) -> np.ndarray:
    """The last `width` decimal digits of each uint64 f, zero padded, one row each."""
    groups = -(-width // 4)
    text = np.empty((f.size, groups), dtype=np.uint32)
    for i in range(groups - 1, -1, -1):
        q = f // np.uint64(10**4)  # not divmod or %: only // has a scalar fast path
        text[:, i] = quads[f - q * np.uint64(10**4)]
        f = q
    return text.view(np.uint8)[:, 4 * groups - width:]


def _float_fields(x: np.ndarray, tables) -> np.ndarray:
    """repr(float(v)) of each value of a float64 array, one NUL-padded row each."""
    limbs, quads, layouts, _ = tables
    bits = x.view(np.uint64)
    finite = (bits & _EXP_MASK) != _EXP_MASK
    nonzero = np.flatnonzero(finite & (bits << np.uint64(1) != 0))
    f = np.zeros(x.size, dtype=np.uint64)
    e = np.zeros(x.size, dtype=np.int64)
    f[nonzero], e[nonzero] = _shortest(bits[nonzero], limbs)
    n = np.searchsorted(_POW10, f, side="right") + 1
    point = n + e  # digits before the decimal point
    whole = (e > 0) & (point <= 16)  # an integer in fixed notation: all its digits
    f = np.where(whole, f * _POW10[np.clip(e, 1, 16) - 1], f)
    n = np.where(whole, point, n)
    text = _ascii(f, quads, 17)
    power = np.abs(point - 1)
    layout = np.where((point > -4) & (point <= 16), (n - 1) * 20 + point + 3,
                      _FIXED + (n - 1) * 4 + (power >= 100) * 2 + (point <= 0))
    nan = (bits & _T_MASK) != 0
    layout = np.where(finite, layout, _FIXED + _SCI + nan)
    layout += (((bits >> np.uint64(63)) != 0) & (finite | ~nan)) * _LAYOUTS
    out = layouts[layout]
    out[:, _INT] &= text
    out[:, _FRAC] &= text
    out[:, _EXP] &= quads[power].view(np.uint8).reshape(-1, 4)[:, 1:]
    return out


def _int_fields(v: np.ndarray, tables) -> np.ndarray:
    """str(int(v)) of each value of an int64 array, one NUL-padded row each
    as wide as the longest."""
    _, quads, _, layouts = tables
    neg = v < 0
    a = np.abs(v).astype(np.uint64)
    n = np.searchsorted(_POW10, a, side="right") + 1
    width = int(n.max())
    out = layouts[:, np.r_[0, _INT_WIDTH - width:_INT_WIDTH]][neg * 20 + n - 1]
    out[:, 1:] &= _ascii(a, quads, width)
    return out


def write_csv(path: str, header: Sequence[str], columns: Sequence) -> None:
    """Write columns of ints and floats as CSV under a header row.

    Each column is a 1-D array (or sequence) of integers or floats, all
    of one length.  An integer is written as str(int(v)) and a float as
    repr(float(v)); lines end in '\\n'.
    """
    cols = [np.asarray(c) for c in columns]
    if len(header) != len(cols) or any(c.ndim != 1 or c.size != cols[0].size for c in cols):
        raise ValueError("write_csv needs one name per column and 1-D columns of equal length")
    floats = [j for j, c in enumerate(cols) if c.dtype.kind == "f"]
    ints = [j for j, c in enumerate(cols) if c.dtype.kind != "f"]
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        if not cols or cols[0].size == 0:
            return
        tables = _tables()
        for start in range(0, cols[0].size, _CHUNK):
            rows = min(_CHUNK, cols[0].size - start)
            fields = [None] * len(cols)
            for group, fmt, dtype in ((floats, _float_fields, np.float64),
                                      (ints, _int_fields, np.int64)):
                if group:
                    block = [cols[j][start:start + rows] for j in group]
                    block = np.stack(block, axis=1, dtype=dtype).ravel()
                    text = fmt(block, tables).reshape(rows, len(group), -1)
                    for i, j in enumerate(group):
                        fields[j] = text[:, i]
            bounds = np.cumsum([0] + [t.shape[1] + 1 for t in fields])
            chunk = np.empty((rows, bounds[-1]), dtype=np.uint8)
            for j, t in enumerate(fields):
                chunk[:, bounds[j]:bounds[j + 1] - 1] = t
            chunk[:, bounds[1:-1] - 1] = ord(",")
            chunk[:, -1] = ord("\n")
            fh.write(chunk.tobytes().translate(None, b"\0"))
