import json
import math
import random
import re
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from negprob import (
    TooFewOutcomes,
    entropy,
    extropy,
    gini_entropy,
    make_distribution,
    measure_all,
    negate,
    uniform,
    uniform_varextropy,
    varentropy,
    varextropy,
)
from negprob.measures import _measure_set, constant_measures, run_measures, run_sum


DATA = Path(__file__).parent / "data"

# Expected values frozen from a 40-digit evaluation of the defining sums
# (mpmath), rounded to the nearest double.
FOUR_OUTCOMES = [0.4, 0.3, 0.2, 0.1]
H_4 = 1.2798542258336674
J_4 = 0.8295071401601185
VH_4 = 0.18092168665391797
VJ_4 = -0.3926393038672733
H_4_NEG = 1.3751146687214826
VH_4_NEG = 0.022027364394601907
VJ_4_NEG = -0.48490984852103136

THREE_OUTCOMES = [0.6, 0.3, 0.1]
H_3 = 0.8979457248567798
VH_3 = 0.3153141310637578
VJ_3 = -0.07066164809553147

VJ_UNIFORM_3 = -0.32880390778633084
VJ_UNIFORM_4 = -0.4965658488609104


def random_two_outcome(seed, count):
    rng = np.random.default_rng(seed)
    return [make_distribution([p, 1.0 - p]) for p in rng.uniform(0.0, 1.0, count)]


def random_distributions(seed, count, n_lo=2, n_hi=10):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(n_lo, n_hi + 1))
        g = rng.exponential(size=n)
        out.append(make_distribution((g / g.sum()).tolist(), renormalize=True))
    return out


class TestEntropy:
    def test_four_outcome_value(self):
        assert entropy(make_distribution(FOUR_OUTCOMES)) == pytest.approx(H_4, abs=1e-12)

    def test_two_point_uniform_is_ln2(self):
        assert entropy(uniform(2)) == pytest.approx(math.log(2), abs=1e-15)

    def test_degenerate_is_zero(self):
        assert entropy(make_distribution([1.0, 0.0])) == 0.0

    def test_bounded_by_log_n(self):
        for d in random_distributions(seed=1, count=200):
            h = entropy(d)
            assert -1e-15 <= h <= math.log(d.n) + 1e-12

    def test_strictly_below_log_n_away_from_uniform(self):
        for d in random_distributions(seed=2, count=200):
            if d.max_deviation_from_uniform() >= 1e-2:
                assert entropy(d) < math.log(d.n) - 1e-7


class TestGiniEntropy:
    def test_uniform_value(self):
        for n in (2, 3, 7, 50):
            assert gini_entropy(uniform(n)) == pytest.approx(1.0 - 1.0 / n, abs=1e-14)

    def test_degenerate_is_zero(self):
        assert gini_entropy(make_distribution([1.0, 0.0])) == 0.0

    def test_four_outcome_hand_arithmetic(self):
        # 1 - (0.16 + 0.09 + 0.04 + 0.01)
        assert gini_entropy(make_distribution(FOUR_OUTCOMES)) == pytest.approx(0.70, abs=1e-14)


class TestExtropy:
    def test_four_outcome_value(self):
        assert extropy(make_distribution(FOUR_OUTCOMES)) == pytest.approx(J_4, abs=1e-12)

    def test_equals_entropy_for_two_outcomes(self):
        for d in random_two_outcome(seed=3, count=500):
            assert extropy(d) == pytest.approx(entropy(d), abs=1e-12)

    def test_degenerate_is_zero(self):
        assert extropy(make_distribution([1.0, 0.0])) == 0.0


class TestVarentropy:
    def test_four_outcome_value(self):
        assert varentropy(make_distribution(FOUR_OUTCOMES)) == pytest.approx(VH_4, abs=1e-12)

    def test_three_outcome_value(self):
        assert varentropy(make_distribution(THREE_OUTCOMES)) == pytest.approx(VH_3, abs=1e-12)

    def test_uniform_is_zero(self):
        for n in range(2, 101):
            v = varentropy(uniform(n))
            assert 0.0 <= v <= 1e-12

    def test_never_negative(self):
        for d in random_distributions(seed=4, count=500):
            assert varentropy(d) >= 0.0


class TestVarextropy:
    def test_four_outcome_value(self):
        assert varextropy(make_distribution(FOUR_OUTCOMES)) == pytest.approx(VJ_4, abs=1e-12)

    def test_three_outcome_value(self):
        assert varextropy(make_distribution(THREE_OUTCOMES)) == pytest.approx(VJ_3, abs=1e-12)

    def test_two_point_uniform_is_zero(self):
        assert varextropy(uniform(2)) == pytest.approx(0.0, abs=1e-15)

    def test_equals_varentropy_for_two_outcomes(self):
        for d in random_two_outcome(seed=5, count=500):
            assert varextropy(d) == pytest.approx(varentropy(d), abs=1e-12)

    def test_uniform_three_value(self):
        assert varextropy(uniform(3)) == pytest.approx(VJ_UNIFORM_3, abs=1e-12)


class TestMeasureAll:
    def test_matches_single_measures_bitwise(self):
        # uniform(n) and its negation have all entries equal, which
        # measure_all measures by constant_measures.
        constant_ns = [*range(2, 258), 997, 1000, 1024, 4093, 9973, 9999, 10_000]
        for d in random_distributions(seed=6, count=100) + [
            make_distribution(FOUR_OUTCOMES),
            make_distribution([1.0, 0.0]),
            *(uniform(n) for n in constant_ns),
            *(negate(uniform(n)) for n in constant_ns),
        ]:
            ms = measure_all(d)
            got = (ms.H, ms.H1, ms.J, ms.VH, ms.VJ)
            ref = (entropy(d), gini_entropy(d), extropy(d), varentropy(d), varextropy(d))
            assert [x.hex() for x in got] == [x.hex() for x in ref], d.n

    def test_n_copies_of_a_constant_term_round_to_n_times_it(self):
        # fsum rounds the exact sum of n copies of t, which is Fraction(t) * n,
        # once; the IEEE product n * t must be that float for every term of
        # uniform(n) and negate(uniform(n)), and for counts past 2**26: this
        # is what lets constant_measures stand for measure_all.
        for n in [*range(2, 10_001), 2**26 + 1, 2**40 - 1, 2**53 - 1, 2**53]:
            for p in (1.0 / n, (1.0 - 1.0 / n) / (n - 1)):
                q = 1.0 - p
                lp = math.log(p)
                lq = math.log(q)
                for t in (p * p, p * lp, p * (lp * lp), q * lq, q * (lq * lq)):
                    assert n * t == float(Fraction(t) * n), (n, p, t)

    def test_runs_that_cancel_leave_the_exact_remainder(self):
        # c copies of t less c - 1 copies of t: the exact total is t, and
        # the cancellation shows any split part fed to fsum that was
        # rounded. t reaches down into the subnormals, where a half of t
        # is one too. run_sum takes counts below 2**26.
        rng = random.Random(3)
        for c in [3, 10_000, 2**26 - 1]:
            t = [rng.random() * 2.0 ** rng.randint(-1080, 0) for _ in range(200)]
            assert [run_sum([(x, c), (-x, c - 1)]) for x in t] == t, c

    def test_one_run_measures_as_constant_measures_does(self):
        # run_measures of the run (v, n) is constant_measures(v, n) bit for
        # bit, for uniform(n) and its negation.
        for n in range(2, 10_001):
            for v in (1.0 / n, (1.0 - 1.0 / n) / (n - 1)):
                got = run_measures([(v, n)]).as_dict().values()
                want = constant_measures(v, n).as_dict().values()
                assert [x.hex() for x in got] == [x.hex() for x in want], n

    def test_constant_measures_equal_measure_all_entry_by_entry(self):
        for n in range(2, 65):
            for d in (uniform(n), negate(uniform(n))):
                got = constant_measures(d.probs[0], n).as_dict().values()
                want = _measure_set(d.probs, math.fsum).as_dict().values()
                assert [x.hex() for x in got] == [x.hex() for x in want], n

    def test_constant_measures_equal_the_exact_rational_sums(self):
        # Each sum of n copies of a term t taken as Fraction(t) * n, rounded
        # once, as fsum does.
        for n in [*range(2, 10_001), 2**26 - 1, 2**26 + 1, 2**53 - 1, 2**53]:
            for v in (1.0 / n, (1.0 - 1.0 / n) / (n - 1)):
                want = _measure_set([v], lambda terms: float(Fraction(next(terms)) * n))
                got = constant_measures(v, n)
                assert [x.hex() for x in got.as_dict().values()] == [
                    x.hex() for x in want.as_dict().values()], n

    def test_degenerate_all_zero(self):
        ms = measure_all(make_distribution([1.0, 0.0]))
        assert (ms.H, ms.H1, ms.J, ms.VH, ms.VJ) == (0.0, 0.0, 0.0, 0.0, 0.0)

    def test_uniform_three(self):
        ms = measure_all(uniform(3))
        assert ms.H == pytest.approx(math.log(3), abs=1e-12)
        assert 0.0 <= ms.VH <= 1e-12
        assert ms.VJ == pytest.approx(VJ_UNIFORM_3, abs=1e-12)

    def test_json_key_order(self):
        text = measure_all(uniform(2)).to_json()
        positions = [text.index(f'"{k}"') for k in ("H", "H1", "J", "VH", "VJ")]
        assert positions == sorted(positions)

    def test_permutation_invariance_is_exact(self):
        rng = np.random.default_rng(7)
        for d in random_distributions(seed=8, count=100):
            perm = rng.permutation(d.n)
            shuffled = make_distribution([d.probs[i] for i in perm])
            assert measure_all(shuffled) == measure_all(d)


def golden_grid_ns():
    """Every n of the limit grids that the golden reports hold."""
    ns = set()
    for path in DATA.glob("check_*.jsonl"):
        for line in path.read_text().splitlines():
            report = json.loads(line)
            if report["claim"] in ("C4", "C5", "C6"):
                ns.update(report["observed"]["n_grid"])
    return sorted(ns)


class TestUniformOracle:
    """H, VH and VJ of uniform(n), by ``constant_measures``, against their
    closed forms ln n, 0 and -(n-1)(n-2) ln(1-1/n)^2 evaluated in 60-digit
    decimal arithmetic (``Decimal.ln`` is correctly rounded).

    The ulp budgets: H within 4 ulp of ln n and VH within 8 ulp of
    (ln n)^2, the size of the two sums it subtracts. VJ within n ulp of 1:
    1 - 1/n is rounded once before its logarithm is taken, and ln(1 - x)
    turns that rounding into a relative error n times as large. Over
    n = 2..10^4 the worst cases are 2.35, 4.0 and 0.503 n. Even n ulp of 1
    at n = 10^4 is 2.2e-12, far inside the default tolerance of 1e-9.
    """

    NS = sorted({*range(2, 65), *golden_grid_ns()})

    def test_the_golden_grids_are_read(self):
        assert {999, 9_998, 10_000} <= set(self.NS)

    @pytest.mark.parametrize("n", NS)
    def test_within_the_ulp_budget(self, n):
        ms = constant_measures(1.0 / n, n)
        with localcontext() as ctx:
            ctx.prec = 60
            big_n = Decimal(n)
            ln_n = big_n.ln()
            ln_t = (1 - 1 / big_n).ln()
            vj = -(big_n - 1) * (big_n - 2) * ln_t * ln_t
            assert abs(Decimal(ms.H) - ln_n) <= 4 * Decimal(math.ulp(math.log(n)))
            assert abs(Decimal(ms.VH)) <= 8 * Decimal(math.ulp(math.log(n) ** 2))
            assert abs(Decimal(ms.VJ) - vj) <= n * Decimal(math.ulp(1.0))


class TestUniformVarextropy:
    def test_two_outcomes_exactly_zero(self):
        assert uniform_varextropy(2) == 0.0

    def test_three_outcome_value(self):
        assert uniform_varextropy(3) == pytest.approx(VJ_UNIFORM_3, abs=1e-12)

    def test_four_outcome_value(self):
        assert uniform_varextropy(4) == pytest.approx(VJ_UNIFORM_4, abs=1e-12)

    def test_matches_summed_varextropy_to_1e12_relative(self):
        ns = list(range(2, 65)) + [100, 128, 333, 1000, 2048, 5000, 9973, 10_000]
        for n in ns:
            a = uniform_varextropy(n)
            b = varextropy(uniform(n))
            if a == b == 0.0:
                continue
            assert abs(a - b) <= 1e-12 * max(abs(a), abs(b))

    def test_the_closed_form_is_within_8_ulp_of_the_summed_value(self):
        # sweep-n prints the closed form; measure_all and claim C6 report
        # varextropy(uniform(n)), which constant_measures gives bit for bit.
        # They round one number in two ways: over n = 2..10^4 they differ
        # for 4,048 n, by at most 4 ulp.
        for n in (2, 3, 64, 1000, 9973):
            assert constant_measures(1.0 / n, n).VJ == varextropy(uniform(n))
        for n in range(2, 10_001):
            closed = uniform_varextropy(n)
            assert abs(closed - constant_measures(1.0 / n, n).VJ) <= 8 * math.ulp(closed), n

    def test_factored_form_oracle(self):
        # Algebraic identity: n(1-1/n) = n-1 exactly, so the closed form
        # factors as -(n-1)(n-2) ln(1-1/n)^2.
        for n in (2, 3, 4, 10, 100, 4096):
            ln_t = math.log(1.0 - 1.0 / n)
            expected = -(n - 1.0) * (n - 2.0) * ln_t * ln_t
            assert uniform_varextropy(n) == pytest.approx(expected, abs=1e-12)

    def test_magnitude_grows_toward_one(self):
        # -(n-1)(n-2) ln(1-1/n)^2 = -1 + 2/n + O(1/n^2): the magnitude is
        # increasing in n and its limit is 1, not 0.
        values = [abs(uniform_varextropy(n)) for n in (3, 4, 8, 16, 128, 1024, 10**6)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert abs(uniform_varextropy(10**6) + 1.0) < 3e-6

    def test_rejects_one_outcome(self):
        with pytest.raises(TooFewOutcomes):
            uniform_varextropy(1)

    @pytest.mark.parametrize("n", [2.5, 3.0, "3", True])
    def test_rejects_a_count_that_is_not_an_int(self, n):
        with pytest.raises(ValueError, match=f"^n = {re.escape(repr(n))} must be an integer$"):
            uniform_varextropy(n)


class TestNegatedMeasures:
    def test_four_outcome_negation_values(self):
        nd = negate(make_distribution(FOUR_OUTCOMES))
        assert entropy(nd) == pytest.approx(H_4_NEG, abs=1e-12)
        assert varentropy(nd) == pytest.approx(VH_4_NEG, abs=1e-12)
        assert varextropy(nd) == pytest.approx(VJ_4_NEG, abs=1e-12)
