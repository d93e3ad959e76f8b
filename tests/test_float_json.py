"""The columnar float writer (``negprob._float_json``) against ``json``.

``array_json`` must give the bytes of ``json.dumps(list(x),
separators=(",", ":"))`` for every float64 array: Schubfach's shortest
decimal on uint64 columns for the entries in [2**-1022, 1), ``json``'s own
text for every other entry. The cases below are the ones where a shortest
round-trip algorithm goes wrong: the ends of each binade (where the
interval below a power of two is half as wide), decimal powers and their
neighbours, the switch from ``0.0001`` to ``9.999999999999999e-05``,
three-digit exponents, one- and seventeen-digit significands, and ties.
"""

import math
import os
import struct
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import negprob
import negprob._float_json as float_json
from negprob._batch import TrialChunk, TrialPoint, pcg64_seeds
from negprob._float_json import _E_MAX, _E_MIN, _tables, array_json
from negprob.claims import COLUMNAR_POINT_MIN, _compact_json, _point_json
from negprob.simplex import RunPoint

LOW_BITS, ONE_BITS = 0x0010000000000000, 0x3FF0000000000000


def json_of(x):
    return _compact_json(np.asarray(x, dtype=np.float64).tolist())


def floats_of_bits(bits):
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


def with_neighbours(values):
    """Each double of values with the doubles just below and above it,
    kept to the window [2**-1022, 1)."""
    bits = np.asarray(values, dtype=np.float64).view(np.uint64)
    near = np.concatenate([bits - np.uint64(1), bits, bits + np.uint64(1)])
    return floats_of_bits(near[(near >= LOW_BITS) & (near < ONE_BITS)])


def test_every_power_of_two_in_the_window_and_its_neighbours():
    x = with_neighbours([2.0**-e for e in range(1, 1023)])
    assert len(x) == 3 * 1022 - 1  # the double below 2**-1022 is subnormal
    assert array_json(x) == json_of(x)


def test_powers_of_ten_and_their_neighbours():
    x = with_neighbours([float(f"1e-{e}") for e in range(1, 308)])
    assert len(x) == 3 * 307
    assert array_json(x) == json_of(x)


@pytest.mark.parametrize("values, texts", [
    # The switch from 0.000ddd to d.ddde-05.
    ([0.0001, 9.999999999999999e-05, 0.00011, 1e-05],
     ["0.0001", "9.999999999999999e-05", "0.00011", "1e-05"]),
    # Three-digit exponents, the window's bottom edge and one digit.
    ([2.2250738585072014e-308, 1e-100, 5e-300, 1.5e-200],
     ["2.2250738585072014e-308", "1e-100", "5e-300", "1.5e-200"]),
    # Seventeen significant digits, and one.
    ([0.12345678901234568, 0.1, 0.5, 0.25],
     ["0.12345678901234568", "0.1", "0.5", "0.25"]),
    # Significand 2**52 (the irregular spacing) away from a decimal power.
    ([2.0**-3, 2.0**-100, 2.0**-1000], [repr(2.0**-3), repr(2.0**-100), repr(2.0**-1000)]),
    # Decimal exponents with a leading zero, and the largest below 1.
    ([3e-09, 0.9999999999999999, 0.999], ["3e-09", "0.9999999999999999", "0.999"]),
])
def test_layouts(values, texts):
    assert array_json(np.array(values)) == "[" + ",".join(texts) + "]"


def tie_doubles():
    """Doubles c * 2**q of the window halfway between two decimals
    s * 10**k and (s + 1) * 10**k that both read back as them: c is an odd
    multiple of the power of two that makes c * 2**q / 10**k end in .5."""
    ties = []
    for q in range(-1073, -52):
        k = (q * 661971961083) >> 41
        t = k - q - 1
        for c in range(2**52 + 2**t, min(2**53, 2**52 + 2**(t + 5)), 2**(t + 1)):
            scaled = Fraction(c) * Fraction(2)**q / Fraction(10)**k
            s, x = math.floor(scaled), c * 2.0**q
            if scaled - s == Fraction(1, 2) and float(s * Fraction(10)**k) == x == float(
                    (s + 1) * Fraction(10)**k):
                ties.append(x)
    return ties


def test_ties_go_to_the_even_digit():
    x = np.array(tie_doubles())
    assert len(x) >= 20
    assert array_json(x) == json_of(x)


def test_a_seeded_sweep_of_the_window():
    rng = np.random.default_rng(20201)
    for _ in range(8):
        x = floats_of_bits(rng.integers(LOW_BITS, ONE_BITS, size=2**17, dtype=np.uint64))
        assert array_json(x) == json_of(x)


FALLBACKS = [0.0, -0.0, 1.0, 5e-324, 2.2250738585072009e-308, 1e-310, 1.5, 1e300,
             -0.25, -2.2250738585072014e-308, -1.7976931348623157e308, math.inf,
             -math.inf, math.nan, struct.unpack("<d", struct.pack("<Q", 0xFFF8000000000001))[0]]


@pytest.mark.parametrize("value", FALLBACKS, ids=repr)
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_entries_outside_the_window_take_jsons_text(value, where):
    x = np.random.default_rng(3).random(1000)
    i = {"first": 0, "middle": 500, "last": 999}[where]
    x[i] = value
    assert array_json(x) == json_of(x)


def test_a_point_of_entries_outside_the_window_only():
    x = np.array(FALLBACKS * 40)
    assert array_json(x) == json_of(x)


@pytest.mark.parametrize("value", [0.0, 1.0, 5e-324, math.nan], ids=repr)
@pytest.mark.parametrize("n", [1, 2047, 2048, 2049, 4097, 9000, 10_000])
def test_whole_points_with_other_entries_at_the_ends_and_at_multiples_of_2048(n, value):
    # Each step runs once over the whole point, which the writer once cut
    # into blocks at the multiples of 2,048.
    x = floats_of_bits(np.random.default_rng(n).integers(LOW_BITS, ONE_BITS, size=n,
                                                         dtype=np.uint64))
    assert array_json(x) == json_of(x)
    x[[0, n - 1, *[i for edge in range(2048, n, 2048) for i in (edge - 1, edge)]]] = value
    assert array_json(x) == json_of(x)


def doubles_of_each_layout(digits):
    """A double of the window for each layout, whose repr has the given
    number of significant digits: 0.ddd, 0.0ddd, 0.00ddd and 0.000ddd, and
    d.ddde-05, -10, -100 and -308. It is the double of the decimal made of
    the first digits of 12345678912345678, which has no zero digit, or
    the first double above it with that many digits."""
    significand = "12345678912345678"[:digits]
    mantissa = significand[0] + "." * (digits > 1) + significand[1:]
    texts = [f"0.{'0' * zeros}{significand}" for zeros in range(4)]
    texts += [f"{mantissa}e-{e:02d}" for e in (5, 10, 100, 308)]
    found = []
    for text in texts:
        x = float(text)
        while len(repr(x).split("e")[0].replace(".", "").lstrip("0")) != digits:
            x = math.nextafter(x, 1.0)
        head, e, exponent = text.partition("e")
        assert repr(x).startswith(head[:head.index("1") + 1]) and repr(x).endswith(e + exponent)
        found.append(x)
    return found


@pytest.mark.parametrize("digits", range(1, 18))
def test_every_significand_length_in_both_layouts(digits):
    x = np.array(doubles_of_each_layout(digits))
    assert array_json(x) == json_of(x)
    assert array_json(x[::-1].copy()) == json_of(x[::-1])


def test_decimal_exponents_of_the_window():
    # k = floor(log10(2**q)), and floor(log10(3/4 * 2**q)) at a significand
    # of 2**52, from the two multiply-shift forms, against exact rationals,
    # for every binary exponent q of the window.
    for q in range(-1074, -52):
        for irregular in {False, q > -1074}:
            k = (q * 661971961083 - irregular * 274743187321) >> 41
            scale = Fraction(3, 4) * Fraction(2)**q if irregular else Fraction(2)**q
            assert Fraction(10)**k <= scale < Fraction(10)**(k + 1)
            assert _E_MIN <= -k <= _E_MAX


def test_the_power_table_brackets_each_power_of_ten():
    g1, g1_hi, g1_lo, g0_hi, g0_lo, log2 = _tables()
    assert len(g1) == _E_MAX - _E_MIN + 1
    for i, e in enumerate(range(_E_MIN, _E_MAX + 1)):
        g = (int(g1[i]) << 63) + (int(g0_hi[i]) << 32) + int(g0_lo[i])
        assert int(g1[i]) == (int(g1_hi[i]) << 32) + int(g1_lo[i])
        r = int(log2[i]) - 125
        assert 2**125 <= g - 1 < 2**126
        assert (g - 1) * Fraction(2)**r <= 10**e < g * Fraction(2)**r


def test_every_scaled_bound_is_below_2_to_the_60():
    # The products of the round-to-odd step take the scaled bounds
    # (4c + 2) << h below 2**60, so that a sum of two 32-bit half products
    # and a carry stays below 2**64: h = q + floor(log2 10**-k) + 2 <= 5.
    *_, log2 = _tables()
    for q in range(-1074, -52):
        for irregular in {False, q > -1074}:
            k = (q * 661971961083 - irregular * 274743187321) >> 41
            h = q + int(log2[-k - _E_MIN]) + 2
            assert 2 <= h <= 5
            assert (4 * (2**53 - 1) + 2) << h < 2**60


class TestPointJsonPath:
    """``claims._point_json`` sends a trial point (``_batch.TrialPoint``) of
    at least ``COLUMNAR_POINT_MIN`` entries to ``array_json`` with its own
    float64 row, and every other point to ``json``; it gives json's text
    either way."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []

        def counted(x):
            seen.append(len(x))
            return array_json(x)

        monkeypatch.setattr(float_json, "array_json", counted)
        return seen

    @pytest.mark.parametrize("n", [COLUMNAR_POINT_MIN - 1, COLUMNAR_POINT_MIN])
    def test_the_cutoff(self, calls, n):
        p = TrialChunk(pcg64_seeds(n, [n], [0]), [n]).probs(0)
        assert _point_json(p) == _compact_json(list(p))
        assert calls == ([n] if n >= COLUMNAR_POINT_MIN else [])

    @pytest.mark.parametrize("other", [0.5, 1, True, 0])
    def test_a_long_point_without_a_row_goes_to_json(self, calls, other):
        # No engine point of this size lacks a row: the fixture has four
        # entries, and uniform(n) and the probes are held as runs.
        p = [0.25] * (COLUMNAR_POINT_MIN + 10)
        p[7] = 0.5
        p[COLUMNAR_POINT_MIN // 2] = other
        assert _point_json(tuple(p)) == _compact_json(p)
        assert calls == []

    def test_equal_entries_stay_one_formatted_value(self, calls):
        # A point held as one run formats its value once; a trial point of
        # the same entries takes the columnar writer, to the same bytes.
        p = RunPoint.of([(0.1, 3 * COLUMNAR_POINT_MIN)])
        assert _point_json(p) == _compact_json(list(p))
        assert calls == []
        trial = TrialPoint(p)
        trial.row = np.array(p)
        assert _point_json(trial) == _point_json(p)
        assert calls == [3 * COLUMNAR_POINT_MIN]


@pytest.mark.parametrize("module", ["negprob.claims", "negprob.cli"])
def test_importing_the_engine_loads_neither_numpy_nor_the_writer(module):
    src = str(Path(negprob.__file__).resolve().parent.parent)
    script = (
        "import sys\n"
        f"import {module}\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        "assert 'negprob._float_json' not in sys.modules, 'the writer was imported'\n"
    )
    result = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
