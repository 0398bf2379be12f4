"""write_csv: every float as its repr and every int as its str, byte for byte."""

import numpy as np
import pytest

from blockstat.textio import write_csv


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
