"""The prediction CSV's formatter against repr, the text it must match
byte for byte."""

import numpy as np

from windcast._shortest import csv_rows

STAMP = b"2021-01-01T00:00:00"


def as_repr(stamps, table):
    """The lines csv_rows must give: the stamps' text, then each float's repr."""
    cells = [map(repr, column) for column in table.T.tolist()]
    return [",".join(row) for row in zip(stamps.astype(str).tolist(), *cells)]


def assert_as_repr(values, cols=7, stamps=None):
    values = np.asarray(values, dtype=np.float64)
    values = np.concatenate([values, np.zeros(-len(values) % cols)])
    table = values.reshape(-1, cols)
    if stamps is None:
        stamps = np.full(len(table), STAMP)
    text = csv_rows(stamps, table)
    assert text.endswith("\n")
    got, want = text[:-1].split("\n"), as_repr(stamps, table)
    bad = [(g, w) for g, w in zip(got, want) if g != w]
    assert not bad, bad[:3]
    assert len(got) == len(want)


def from_bits(exponents, mantissas):
    return ((exponents.astype(np.uint64) << np.uint64(52)) | mantissas).view(np.float64)


def test_every_binary_exponent_of_the_range():
    rng = np.random.default_rng(0)
    # biased exponents from 2^-14, below 1e-4, to 2^53, above 1e16
    exponents = np.repeat(np.arange(1023 - 14, 1023 + 54), 15000)
    mantissas = rng.integers(0, 2 ** 52, size=len(exponents), dtype=np.uint64)
    values = from_bits(exponents, mantissas)
    values[rng.random(len(values)) < 0.5] *= -1.0
    assert len(values) >= 10 ** 6
    assert_as_repr(rng.permutation(values))


def test_powers_of_two_and_their_neighbours():
    powers = 2.0 ** np.arange(-16, 56)
    assert_as_repr(np.concatenate(
        [powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf), -powers]))


def test_integers_and_short_decimals():
    rng = np.random.default_rng(1)
    integers = rng.integers(0, 2 ** 53, size=20000).astype(np.float64)
    small = np.arange(1.0, 20001.0)
    # decimals of 1 to 17 significant digits at every decimal exponent of the range
    digits = np.concatenate([rng.integers(10 ** (d - 1), 10 ** d, size=300)
                             for d in range(1, 18)])
    decimals = [float(f"{m}e{e}") for m in digits.tolist() for e in range(-21, 17, 3)]
    # halves to 32nds of 53-bit integers, where two 17-digit texts can be
    # equally near
    ties = rng.integers(2 ** 40, 2 ** 53, size=20000).astype(np.float64)
    ties = ties / 2.0 ** rng.integers(1, 6, size=len(ties))
    assert_as_repr(np.concatenate([integers, small, decimals, ties]))


def test_the_ends_of_the_range_zeros_and_values_outside_it():
    ends = np.array([1e-4, 1e16])
    near = np.concatenate([ends, np.nextafter(ends, 0.0), np.nextafter(ends, np.inf),
                           np.nextafter(np.nextafter(ends, 0.0), 0.0)])
    outside = [5e-324, 1e-5, 1e300, 2.2250738585072014e-308, 1.7976931348623157e308,
               1.2345678901234567e-100, 9.999999999999999e-05, 1e16 + 2]
    values = np.concatenate([near, -near, [0.0, -0.0], outside, np.negative(outside)])
    for cols in (1, 3):
        assert_as_repr(values, cols)


def test_a_block_that_mixes_the_range_with_values_outside_it():
    rng = np.random.default_rng(2)
    inside = rng.normal(0.0, 50.0, size=3000)
    outside = rng.choice([1e-7, -3.5e-5, 2e17, -1e300, 5e-324, 1e22], size=3000)
    values = np.where(rng.random(3000) < 0.1, outside, inside)
    assert_as_repr(values, cols=22)


def test_stamps_of_different_lengths():
    stamps = np.array([b"2021-01-01", b"2021-01-01T00:15:00.500000+01:00", STAMP, b"T"])
    assert_as_repr(np.arange(8) / 3.0, cols=2, stamps=stamps)
