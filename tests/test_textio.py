"""write_csv: every float as its repr and every int as its str, byte for byte."""

from decimal import Decimal

import numpy as np
import pytest

from blockstat.textio import _CHUNK, write_csv


def _lines(tmp_path, columns):
    path = tmp_path / "out.csv"
    write_csv(str(path), [f"c{j}" for j in range(len(columns))], columns)
    return path.read_text().split("\n")


def _edge_values() -> np.ndarray:
    powers = [2.0**e for e in range(-1074, 1024)]
    values = powers + [float(np.nextafter(x, 0.0)) for x in powers]
    values += [float(f"1e{k}") for k in range(-323, 309)]
    values += [1e16, 9999999999999998.0, 1e-4, float(np.nextafter(1e-4, 0.0)), 5e-324,
               float(np.finfo(float).max), 0.0, -0.0, np.inf, -np.inf, np.nan]
    values += [float(i) for i in range(20_001)]
    return np.array(values)


def test_floats_are_written_as_repr(tmp_path):
    rng = np.random.default_rng(20_200_000)
    bits = rng.integers(0, 2**64, size=200_000, dtype=np.uint64)
    bits[:5000] &= np.uint64(0x800F_FFFF_FFFF_FFFF)  # exponent 0: subnormals
    bits[5000:10_000] |= np.uint64(0x7FF0_0000_0000_0000)  # exponent 2047: nan
    bits[10_000:10_002] = [0x7FF0_0000_0000_0000, 0xFFF0_0000_0000_0000]  # +-inf
    edges = _edge_values()
    x = np.concatenate([bits.view(np.float64), edges, -edges])
    want = ["c0", *(repr(float(v)) for v in x), ""]
    got = _lines(tmp_path, [x])
    assert len(got) == len(want)
    assert [(w, g) for w, g in zip(want, got) if w != g][:5] == []


def test_ints_are_written_as_str_beside_floats(tmp_path):
    rng = np.random.default_rng(5)
    ints = np.concatenate([
        rng.integers(-(2**63), 2**63 - 1, size=20_000, dtype=np.int64, endpoint=True),
        [0, -1, 9, -10, 2**63 - 1, -(2**63)],
        rng.integers(-3, 30, size=10_000),
    ])
    floats = rng.standard_normal(ints.size)
    small = rng.integers(0, 10, ints.size).tolist()
    rows = (f"{int(i)},{float(f)!r},{s}" for i, f, s in zip(ints, floats, small))
    want = ["c0,c1,c2", *rows, ""]
    assert _lines(tmp_path, [ints, floats, small]) == want


def test_empty_columns_write_the_header_and_ragged_ones_are_refused(tmp_path):
    assert _lines(tmp_path, [np.zeros(0, dtype=int), np.zeros(0)]) == ["c0,c1", ""]
    with pytest.raises(ValueError):
        write_csv(str(tmp_path / "ragged.csv"), ["a", "b"], [[1, 2], [1.0]])


def _shape(r: str) -> tuple[int, int]:
    """(digits, digits before the decimal point) of a finite nonzero repr."""
    t = Decimal(r).normalize().as_tuple()
    return len(t.digits), len(t.digits) + t.exponent


# points p of exponents p - 1 = 16, 21, 98, 99, 100, 308, -5, -10, -99, -100,
# -101, -251 and -308 (subnormal)
_SCI_POINTS = (17, 22, 99, 100, 101, 309, -4, -9, -98, -99, -100, -250, -307)


def _layout_grid() -> np.ndarray:
    """Values of every digit count 1..17 at every fixed-notation point -3..16,
    and at 2- and 3-digit exponents of both signs, subnormals among them."""
    pattern = "12345678912345678"
    values = []
    for n in range(1, 18):
        for p in [*range(-3, 17), *_SCI_POINTS]:
            x = float(f"{pattern[:n]}e{p - n}")
            while _shape(repr(x))[0] < n:  # 16 and 17 digits: the nearest double that needs them
                x = float(np.nextafter(x, np.inf))
            values.append(x)
    subnormals = [5e-324, 1e-323, 2.5e-320, 1.2345678e-310, 2.2250738585072e-308,
                  float(np.nextafter(2.2250738585072014e-308, 0.0))]
    return np.array(values + subnormals)


def test_layout_grid_is_written_as_repr(tmp_path):
    grid = _layout_grid()
    shapes = {_shape(repr(float(v))) for v in grid}
    assert {(n, p) for n in range(1, 18) for p in range(-3, 17)} <= shapes
    for p in _SCI_POINTS:
        assert {n for n, q in shapes if q == p} == set(range(1, 18))
    x = np.concatenate([grid, -grid])
    for rows in (_CHUNK - 1, _CHUNK, _CHUNK + 1):
        column = np.resize(x, rows)
        got = _lines(tmp_path, [np.arange(rows) - 5, column])
        want = ["c0,c1", *(f"{i - 5},{float(v)!r}" for i, v in enumerate(column)), ""]
        assert [(w, g) for w, g in zip(want, got) if w != g][:5] == []
        assert len(got) == len(want)


def test_unsigned_ints_are_written_exactly(tmp_path):
    u = np.array([2**64 - 1, 2**63, 2**63 - 1, 0, 10**19, 9], dtype=np.uint64)
    assert _lines(tmp_path, [u]) == ["c0", *(str(int(v)) for v in u), ""]
    assert _lines(tmp_path, [u[:3], np.array([-1, 0, 1], dtype=np.int8)]) == [
        "c0,c1", "18446744073709551615,-1", "9223372036854775808,0",
        "9223372036854775807,1", ""]


@pytest.mark.parametrize("column", [
    [2**64],  # a Python int beyond 64 bits: an object column
    [-(2**63) - 1],
    np.array([1 + 2j, 3.0]),
    np.array(["a", "b"]),
], ids=["int beyond uint64", "int below int64", "complex", "str"])
def test_columns_that_cannot_be_written_exactly_are_refused(tmp_path, column):
    with pytest.raises(ValueError):
        write_csv(str(tmp_path / "bad.csv"), ["a", "b"], [np.arange(len(column)), column])
