"""CSV artifacts whose every float is Python's repr, byte for byte.

`write_csv` formats whole columns in numpy, with no Python call per value:
an integer is written as str(int(v)) and a float as repr(float(v)).

The digits of a float are its shortest decimal that rounds back to it;
when several are shortest, the closest to it, and on a tie the one with
an even last digit.  They come from Schubfach (R. Giulietti, "The
Schubfach way to render doubles", 2020) run on uint64 arrays: a 126-bit
power of ten g per value from a table, one pair of 64x128-bit products
g*cp, from which the products at the interval's two ends follow by
adding and subtracting g shifted, each rounded to odd, and a choice
among four candidates.

repr lays the digits out in fixed notation when 1e-4 <= |x| < 1e16
('0.000123', '12.5', '1500.0') and otherwise as d.ddde+XX, with at least
two exponent digits ('1e-05', '5e-324', '1.5e+16').  Each field is a slot
of little-endian uint64 words, NUL where no character goes, whose last
byte is left for the separator that follows it.  A finite nonzero float
has four words:

    word 0     the sign in byte 0, '0.' and its zeros right-aligned in
               bytes 1-5, the first digit in byte 6 and, when the point
               follows it, '.' in byte 7 (a table indexed by the point);
    words 1-2  the other 16 digits, eight per word from two 4-digit ASCII
               quads, those past the last one shown cleared by a word mask;
    word 3     byte 24 for a 17th digit that a point moved up, then '.0'
               or e+XX / e-XXX right-aligned in bytes 25-30.

A point after two or more digits goes in by a one-byte shift of words
1-3 above a per-row mask.  Zeros, infinities and NaN ('0.0', '-0.0',
'inf', '-inf', 'nan') come from a constant table.  An integer's slot has
as many words as the longest of its chunk needs, with a byte to spare,
its digits right-aligned and its sign in byte 0.  The NULs are dropped
chunk by chunk as the text is written.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

_CHUNK = 8192  # rows formatted and written at a time
_E_MIN, _E_MAX = -292, 324  # the table's powers of ten 10^-k, k = floor(q log10 2)
_P_MIN, _P_MAX = -323, 309  # digits before the decimal point, 5e-324 to the largest double
_T_MASK = np.uint64((1 << 52) - 1)
_M32 = np.uint64(0xFFFFFFFF)
_M63 = np.uint64((1 << 63) - 1)
_TWICE_INF = np.uint64(0xFFE << 52)  # the bits of inf, shifted left past the sign
_SCALE = np.array([10 ** (17 - n) for n in range(18)], dtype=np.uint64)  # n digits to 17
_E4, _E7, _E8 = np.uint64(10**4), np.uint64(10**7), np.uint64(10**8)
_SPECIALS = (b"0.0", b"-0.0", b"inf", b"-inf", b"nan", b"nan")


def _word(text: bytes, at: int = 0) -> int:
    """The uint64 whose bytes from byte `at` on are `text`."""
    return int.from_bytes(text, "little") << 8 * at


def _low(nbytes: int) -> int:
    return (1 << 8 * nbytes) - 1


_DOT0 = np.uint64(_word(b".0", 5))  # an integer's '.0' in word 3
_DOTS = np.uint64(_word(b"." * 8))
_MINUS = np.uint64(ord("-"))  # in byte 0 of a negative value's slot


@functools.cache
def _tables() -> dict[str, np.ndarray]:
    """The writer's read-only tables, built on the first write.

    For e in -292..324, g = floor(10^e 2^-r) + 1 with r chosen so that
    2^125 <= g - 1 < 2^126; its upper and lower 63 bits are g1 and g0.
    quads[i] holds the four ASCII digits of i, zero padded, in its low four
    bytes.  A float's point p (digits before the decimal point) indexes
    w0, fixed and suffix at p - _P_MIN; keep1 and keep2 keep the low j
    bytes of words 1-2, keep0 word 0 of a float with j digits shown.
    int_keep masks an int's word r from the right by its digit count.
    """
    g = []
    for e in range(_E_MIN, _E_MAX + 1):
        r = ((e * 913124641741) >> 38) - 125  # floor(e log2 10) - 125
        if e >= 0:
            beta = 10**e >> r if r >= 0 else 10**e << -r
        else:
            beta = (1 << -r) // 10**-e
        g.append(beta + 1)
    i = np.arange(10**4)
    quads = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1) + ord("0")
    quads = np.ascontiguousarray(quads.astype(np.uint8)).view(np.uint32).ravel()
    points = range(_P_MIN, _P_MAX + 1)
    w0, fixed, suffix = [], [], []
    for p in points:
        sci = not -4 < p <= 16
        prefix = b"0." + b"0" * -p if -4 < p <= 0 else b""
        dot = _word(b".", 7) if sci or p == 1 else 0
        w0.append(_word(prefix, 6 - len(prefix)) | dot)
        fixed.append(-1 if sci else p)
        exp = f"e{p - 1:+03d}".encode()
        suffix.append(_word(exp, 7 - len(exp)) if sci else 0)
    # v with float(v) in [2^b, 2^(b+1)) has d or d + 1 digits, d those of 2^b;
    # above 2^63 only v that round up to 2^64, all of 20 digits
    digits = np.zeros(1088, dtype=np.int64)
    tens = np.zeros(1088, dtype=np.uint64)
    digits[0], tens[0] = 1, 2**64 - 1  # v = 0
    for b in range(64):
        digits[1023 + b], tens[1023 + b] = len(str(2**b)), min(10 ** len(str(2**b)), 2**64 - 1)
    digits[1023 + 64], tens[1023 + 64] = 19, 10**19
    # an int's byte i of word r from the right holds the digit of 10^(8r + 6 - i)
    place = [[8 * r + 6 - i for i in range(8)] for r in range(3)]
    tables = {
        "g1": np.array([x >> 63 for x in g], dtype=np.uint64),
        "g0": np.array([x & ((1 << 63) - 1) for x in g], dtype=np.uint64),
        "quads": quads.astype(np.uint64),
        "digits": digits,
        "tens": tens,
        "w0": np.array(w0, dtype=np.uint64),
        "fixed": np.array(fixed, dtype=np.int64),  # p in fixed notation, else -1
        "suffix": np.array(suffix, dtype=np.uint64),
        "keep0": np.array([_low(7) if j == 1 else _low(8) for j in range(18)], dtype=np.uint64),
        "keep1": np.array([_low(min(j, 8)) for j in range(17)], dtype=np.uint64),
        "keep2": np.array([_low(max(j - 8, 0)) for j in range(17)], dtype=np.uint64),
        "specials": np.array([_word(s) for s in _SPECIALS], dtype=np.uint64),
        "int_keep": np.array([[sum(0xFF << 8 * i for i, d in enumerate(pl) if 0 <= d < n)
                               for n in range(21)] for pl in place], dtype=np.uint64),
    }
    for a in tables.values():
        a.setflags(write=False)
    return tables


def _digits(v: np.ndarray, t: dict) -> np.ndarray:
    """The number of decimal digits of each uint64 v (1 for 0)."""
    b = (v.astype(np.float64).view(np.uint64) >> 52).view(np.int64)
    n = t["digits"][b]
    n += v >= t["tens"][b]
    return n


def _mulhi(a: np.ndarray, bh: np.ndarray, bl: np.ndarray) -> np.ndarray:
    """Upper 64 bits of the products a*b, for a < 2^63 and b = bh 2^32 + bl
    < 2^60: the middle sum of 32-bit limb products then stays below 2^64."""
    ah, al = a >> 32, a & _M32
    t = al * bl
    t >>= 32
    mid = ah * bl
    mid += t
    al *= bh
    mid += al
    mid >>= 32
    ah *= bh
    ah += mid
    return ah


def _rop(x1: np.ndarray, y0: np.ndarray, y1: np.ndarray) -> np.ndarray:
    """(g * cp) >> 127 rounded to odd, from x1 = hi(g0 * cp) and the
    128-bit y1:y0 = g1 * cp, where g = g1 2^63 + g0."""
    z = y0 >> 1
    z += x1
    vbp = z >> 63
    vbp += y1
    z &= _M63
    z += _M63
    z >>= 63
    vbp |= z
    return vbp


def _moved(lo: np.ndarray, hi: np.ndarray, g: np.ndarray, s: np.ndarray, r: np.ndarray,
           up: bool) -> tuple[np.ndarray, np.ndarray]:
    """The 128-bit hi:lo plus (up) or minus g * 2^s, for g < 2^63, 0 < s < 64
    and r = 64 - s."""
    g_lo = g << s
    g_hi = g >> r
    if up:
        lo = lo + g_lo
        hi = hi + g_hi
        hi += lo < g_lo
    else:
        hi = hi - g_hi
        hi -= lo < g_lo
        lo = lo - g_lo
    return lo, hi


def _shortest(bits: np.ndarray, t: dict) -> tuple[np.ndarray, np.ndarray]:
    """Digits f (no trailing zero) and exponent e with f 10^e the shortest
    decimal of each finite nonzero double, given by its bit pattern."""
    bq = (bits >> 52) & np.uint64(0x7FF)
    frac = bits & _T_MASK
    c = frac | np.minimum(bq, 1) << 52
    q = np.maximum(bq, 1).view(np.int64) - 1075
    # a power of two above the least normal has a closer lower neighbour
    irregular = (frac == 0) & (bq > 1)
    k = (q * 661971961083 + irregular * -274743187321) >> 41
    h = q + ((k * -913124641741) >> 38) + 2  # 2..5
    at = -k - _E_MIN
    g1, g0 = t["g1"][at], t["g0"][at]
    cp = c << (h + 2).view(np.uint64)  # 4c 2^h < 2^60
    cph, cpl = cp >> 32, cp & _M32
    x0, x1 = g0 * cp, _mulhi(g0, cph, cpl)
    y0, y1 = g1 * cp, _mulhi(g1, cph, cpl)
    vb = _rop(x1, y0, y1)
    # the ends: cp + 2^(h+1), and cp - 2^(h+1) or, irregular, cp - 2^h
    s = (h + 1).view(np.uint64)
    r = np.uint64(64) - s
    vbr = _rop(_moved(x0, x1, g0, s, r, True)[1], *_moved(y0, y1, g1, s, r, True))
    s -= irregular
    r += irregular
    vbl = _rop(_moved(x0, x1, g0, s, r, False)[1], *_moved(y0, y1, g1, s, r, False))
    out = c & np.uint64(1)  # an odd c's interval leaves its endpoints out
    vbl += out
    vbr -= out
    ten = np.uint64(10)
    s = vb >> np.uint64(2)
    sp10 = s // ten * ten
    # of sp10 and sp10 + 10, of s and s + 1: is the lower, the upper in range?
    upin = vbl <= sp10 << np.uint64(2)
    wpin = (sp10 << np.uint64(2)) + np.uint64(40) <= vbr
    uin = vbl <= vb & ~np.uint64(3)
    win = vb | np.uint64(3) < vbr
    # s + 1 is closer when vb's two fraction bits are 11, or 10 with s odd
    t_closer = (np.uint64(0b11001000) >> (vb & np.uint64(7))) & np.uint64(1)
    f = np.where(upin != wpin, sp10 + ten * wpin, s + np.where(uin != win, win, t_closer))
    e = k
    rows = np.flatnonzero(f // ten * ten == f)  # not %: only // has a scalar fast path
    while rows.size:
        f[rows] //= ten
        e[rows] += 1
        rows = rows[f[rows] // ten * ten == f[rows]]
    return f, e


def _ascii8(v: np.ndarray, quads: np.ndarray) -> np.ndarray:
    """The eight decimal digits of each v < 10^8, zero padded, as one
    uint64 of ASCII, first digit in its lowest byte.  v is overwritten."""
    a = v // _E4
    v -= a * _E4
    w = quads[v.view(np.int64)]
    w <<= 32
    w |= quads[a.view(np.int64)]
    return w


def _float_fields(x: np.ndarray, t: dict) -> np.ndarray:
    """repr(float(v)) of each value of a float64 array: its slot's four
    words are out[:, i]."""
    bits = x.view(np.uint64)
    twice = bits << 1  # the sign dropped
    regular = twice - np.uint64(2) < _TWICE_INF - np.uint64(2)  # finite and nonzero
    rows = np.flatnonzero(regular)
    bits = bits[rows]
    f, e = _shortest(bits, t)
    n = _digits(f, t)
    at = n + e - _P_MIN  # the point's table index
    fixed = t["fixed"][at]  # the point in fixed notation, else -1
    shown = np.maximum(n, fixed)  # an integer's zeros are shown too
    digits = f * _SCALE[n]  # 17 digits, the first nonzero
    upper = digits // _E8
    digits -= upper * _E8
    first = upper // _E8
    upper -= first * _E8
    w0 = t["w0"][at]
    w0 |= (bits >> 63) * _MINUS
    w0 |= (first + np.uint64(ord("0"))) << 48
    w0 &= t["keep0"][shown]
    w1 = _ascii8(upper, t["quads"])
    w1 &= t["keep1"][shown - 1]
    w2 = _ascii8(digits, t["quads"])
    w2 &= t["keep2"][shown - 1]
    w3 = t["suffix"][at]
    w3 |= (fixed >= n) * _DOT0
    # a point after j + 1 >= 2 digits (fixed notation): bytes j.. of words 1-2
    # move up one byte, the last into word 3, and '.' takes byte j
    sel = np.flatnonzero((fixed >= 2) & (fixed < shown))
    if sel.size:
        j = fixed[sel] - 1
        u1, u2 = w1[sel], w2[sel]
        k1, k2 = t["keep1"][j], t["keep2"][j]
        m1, m2 = t["keep1"][j + 1], t["keep2"][j + 1]
        w1[sel] = (u1 & k1) | (u1 << 8 & ~m1) | ((m1 ^ k1) & _DOTS)
        w2[sel] = (u2 & k2) | ((u2 << 8 | u1 >> 56) & ~m2) | ((m2 ^ k2) & _DOTS)
        w3[sel] |= u2 >> 56
    words = np.stack((w0, w1, w2, w3))
    rest = np.flatnonzero(~regular)
    if rest.size == 0:
        return words
    out = np.zeros((4, x.size), dtype=np.uint64)
    out[:, rows] = words
    zero_inf_nan = (twice[rest] != 0) * 1 + (twice[rest] > _TWICE_INF)
    out[0, rest] = t["specials"][2 * zero_inf_nan + np.signbit(x[rest])]
    return out


def _int_fields(a: np.ndarray, neg: np.ndarray, t: dict) -> np.ndarray:
    """str(v) of each integer v, given as its uint64 two's complement a
    and v < 0 as neg: its slot's words are out[:, i], as few as the
    longest needs.  a is overwritten."""
    np.negative(a, out=a, where=neg)
    n = _digits(a, t)
    out = np.empty(((int(n.max()) + 9) // 8, a.size), dtype=np.uint64)
    rest = a // _E7
    a -= rest * _E7
    a *= np.uint64(10)  # seven digits and a '0' in the separator's byte
    for r in range(out.shape[0]):
        w = _ascii8(a, t["quads"])
        w &= t["int_keep"][r][n]
        out[-1 - r] = w
        a, rest = rest, rest // _E8  # the next eight digits
        a -= rest * _E8
    out[0] |= neg * _MINUS
    return out


def write_csv(path: str, header: Sequence[str], columns: Sequence) -> None:
    """Write columns of integers and floats as CSV under a header row.

    Each column is a 1-D array (or sequence) of integers (signed or
    unsigned, of at most 64 bits) or of floats, all of one length; any
    other column raises ValueError.  An integer is written as str(int(v))
    and a float as repr(float(v)); lines end in '\\n'.
    """
    cols = [np.asarray(c) for c in columns]
    if len(header) != len(cols) or any(c.ndim != 1 or c.size != cols[0].size for c in cols):
        raise ValueError("write_csv needs one name per column and 1-D columns of equal length")
    bad = sorted({str(c.dtype) for c in cols if c.dtype.kind not in "biuf"})
    if bad:
        raise ValueError(f"write_csv writes integer and real float columns, not {', '.join(bad)}")
    floats = [j for j, c in enumerate(cols) if c.dtype.kind == "f"]
    ints = [j for j, c in enumerate(cols) if c.dtype.kind != "f"]
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        if not cols or cols[0].size == 0:
            return
        tables = _tables()
        for start in range(0, cols[0].size, _CHUNK):
            rows = min(_CHUNK, cols[0].size - start)
            part = [c[start:start + rows] for c in cols]
            words = [None] * len(cols)
            if floats:
                text = _float_fields(np.concatenate([part[j] for j in floats], dtype=np.float64),
                                     tables)
                for i, j in enumerate(floats):
                    words[j] = text[:, i * rows:(i + 1) * rows]
            if ints:
                text = _int_fields(np.concatenate([part[j] for j in ints], dtype=np.uint64,
                                                  casting="unsafe"),
                                   np.concatenate([part[j] < 0 for j in ints]), tables)
                for i, j in enumerate(ints):
                    words[j] = text[:, i * rows:(i + 1) * rows]
            ends = np.cumsum([w.shape[0] for w in words])
            chunk = np.empty((rows, ends[-1]), dtype=np.uint64)
            for end, w in zip(ends, words):
                chunk[:, end - w.shape[0]:end] = w.T
            chunk = chunk.view(np.uint8)
            chunk[:, 8 * ends[:-1] - 1] = ord(",")
            chunk[:, -1] = ord("\n")
            fh.write(chunk.tobytes().translate(None, b"\0"))
