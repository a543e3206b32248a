"""The CSV kernel writes the bytes of ``'%.17g' %`` for every double.

Over 10^6 values are compared with ``%`` itself, family by family: random
bit patterns of both signs over the whole exponent range, the special
values and subnormals, every power of ten with both neighbours, the
``%g`` switch points, values that round up across a power of ten and exact
17-digit ties, which round half to even.
"""
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from pu6 import fmt17

_CHUNK = 1 << 16  # values per kernel call, to bound the index arrays


def _assert_exact(values) -> int:
    """Compare the kernel's lines with ``'%.17g' %`` on each value; return the count."""
    x = np.asarray(values, dtype=np.float64).ravel()
    for start in range(0, x.size, _CHUNK):
        part = x[start:start + _CHUNK]
        got = fmt17.text(fmt17.fields(part[:, None]))
        want = ("%.17g\n" * part.size) % tuple(part.tolist())
        if got != want:
            bad = next(i for i, (g, w) in enumerate(zip(got.split("\n"), want.split("\n"))) if g != w)
            pytest.fail(f"{part[bad]!r} ({part[bad:bad + 1].view(np.uint64)[0]:#x}) gives "
                        f"{got.split(chr(10))[bad]!r}, not {want.split(chr(10))[bad]!r}")
    return x.size


def _neighbours(x: np.ndarray, ulps: int) -> np.ndarray:
    """x and the ``ulps`` doubles on each side of each value of x (finite, positive x)."""
    bits = x.view(np.int64)[:, None] + np.arange(-ulps, ulps + 1)
    return bits.ravel().view(np.float64)


def test_random_bit_patterns():
    """300 000 uniform 64-bit patterns (both signs, every exponent, NaN payloads included),
    and 300 000 values of a data file's sizes, 1e-20..1e20."""
    rng = np.random.default_rng(30)
    _assert_exact(rng.integers(0, 2 ** 64, 300_000, dtype=np.uint64).view(np.float64))
    _assert_exact(rng.normal(size=300_000) * 10.0 ** rng.integers(-20, 20, 300_000))


def test_special_values_and_subnormals():
    rng = np.random.default_rng(31)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                        2.2250738585072014e-308, np.nextafter(2.2250738585072014e-308, 0.0),
                        1.7976931348623157e308, -1.7976931348623157e308])
    subnormal = rng.integers(1, 2 ** 52, 20_000, dtype=np.uint64).view(np.float64)
    mixed = np.concatenate([special, subnormal, -subnormal])
    _assert_exact(mixed)
    _assert_exact(np.tile(special, 100).reshape(-1, 12))  # templates in every position of a block


def test_powers_of_ten_and_their_neighbours():
    """Every power of ten from 1e-323 to 1e308, its float neighbours, and 3 ulps around each."""
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    normal = powers[powers >= 2.2250738585072014e-308]
    _assert_exact(np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]))
    _assert_exact(np.concatenate([_neighbours(normal, 3), -_neighbours(normal, 3)]))
    # the kernel's own range ends and the exponent layouts' widths
    edges = np.array([1e-280, 1e280, 1e-100, 1e-99, 1e99, 1e100])
    _assert_exact(_neighbours(edges, 50))


def test_g_layout_switch_points():
    """Dense runs around 1e-5, 1e-4, 1e16 and 1e17, where %g changes layout or length."""
    rng = np.random.default_rng(32)
    points = np.array([1e-5, 1e-4, 1e16, 1e17])
    dense = _neighbours(points, 20_000)
    spread = (points[:, None] * rng.uniform(0.5, 2.0, (4, 20_000))).ravel()
    _assert_exact(np.concatenate([dense, -dense, spread]))


def test_rounding_up_across_a_power_of_ten():
    """The largest double below each 10^k: 14 of them round up to 10^k at 17 digits.

    Only a double within 5e-18 relative of 10^k rounds up across it, so
    these are all the values whose layout the carry changes.
    """
    below = []
    for k in range(-307, 309):
        x = float(f"1e{k}")
        below.append(math.nextafter(x, 0.0) if Fraction(x) >= Fraction(10) ** k else x)
    carries = [k for k, x in enumerate(below, -307) if Decimal("%.17g" % x) == Decimal(10) ** k]
    assert len(carries) == 14
    _assert_exact(np.array(below + [-x for x in below]))


def _ties(rng, count: int) -> np.ndarray:
    """Doubles n + odd / 2^f whose exact decimal has 18 digits ending in 5, f = 2..15.

    n has 18 - f digits and n 2^f < 2^53, so each value is exact and its
    17-digit rounding is a true tie.
    """
    out = []
    for f in range(2, 16):
        lo, hi = 10 ** (17 - f), min(10 ** (18 - f), 2 ** (53 - f))
        n = rng.integers(lo, hi, count)
        odd = 2 * rng.integers(0, 2 ** (f - 1), count) + 1
        out.append((n * 2 ** f + odd) / 2.0 ** f)
    return np.concatenate(out)


def test_exact_seventeen_digit_ties():
    """Exact ties round half to even, like %; 2^54..2^60 with odd offsets sit beside them."""
    rng = np.random.default_rng(34)
    ties = _ties(rng, 3000)
    for v in ties[::997].tolist():
        digits = Decimal(v).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5, v
    quoted = np.array([800043207057026.375, 1e15 + 0.375, 1e14 + 0.125])
    big = (2.0 ** np.arange(54, 61))[:, None] * (1.0 + np.arange(1, 4001, 2) * 2.0 ** -52)
    _assert_exact(np.concatenate([ties, -ties, quoted, big.ravel()]))


def test_fields_join_columns_and_text():
    """Fields end in ',' or, in the last column, '\\n'; text fields join like numbers."""
    rng = np.random.default_rng(35)
    table = rng.normal(size=(50, 7)) * 10.0 ** rng.integers(-30, 30, (50, 7))
    table[3, 2], table[4, 6], table[5, 0] = np.nan, -np.inf, 1e-310
    want = "".join(",".join("%.17g" % v for v in row) + "\n" for row in table.tolist())
    assert fmt17.text(fmt17.fields(table)) == want
    labels = fmt17.text_fields(("a", "bc"))[[1, 0]]
    cells = np.insert(fmt17.fields(table[:2]), 1, labels, axis=1)
    assert fmt17.text(cells).splitlines()[1].split(",")[:3] == ["%.17g" % table[1, 0], "a",
                                                                 "%.17g" % table[1, 1]]
