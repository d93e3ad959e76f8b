import json
import math

import numpy as np
import pytest

from negprob import (
    make_distribution,
    measure_all,
    negate,
    negate_k,
    trace_negation,
    uniform,
)


def random_distributions(seed, count, n_lo=2, n_hi=12):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(n_lo, n_hi + 1))
        g = rng.exponential(size=n)
        out.append(make_distribution((g / g.sum()).tolist(), renormalize=True))
    return out


def sup_distance(a, b):
    return max(abs(x - y) for x, y in zip(a.probs, b.probs))


class TestNegate:
    def test_four_outcome_fixture(self):
        d = make_distribution([0.4, 0.3, 0.2, 0.1])
        expected = (0.2, 0.7 / 3, 0.8 / 3, 0.3)
        nd = negate(d)
        assert max(abs(a - b) for a, b in zip(nd.probs, expected)) <= 1e-15

    def test_entries_bounded_by_one_over_n_minus_one(self):
        for d in random_distributions(seed=1, count=200):
            bound = 1.0 / (d.n - 1)
            for p in negate(d).probs:
                assert 0.0 <= p <= bound + 1e-15

    def test_uniform_is_a_fixed_point(self):
        for n in (2, 3, 5, 17, 100):
            u = uniform(n)
            assert sup_distance(negate(u), u) <= 1e-15

    def test_two_outcomes_swap(self):
        d = make_distribution([0.3, 0.7])
        assert sup_distance(negate(d), make_distribution([0.7, 0.3])) <= 1e-15

    def test_two_outcomes_involution(self):
        rng = np.random.default_rng(2)
        for p in rng.uniform(0.0, 1.0, 300):
            d = make_distribution([p, 1.0 - p])
            assert sup_distance(negate(negate(d)), d) <= 1e-15

    def test_not_an_involution_above_two_outcomes(self):
        for d in random_distributions(seed=3, count=100, n_lo=3):
            if d.max_deviation_from_uniform() >= 0.05:
                assert sup_distance(negate(negate(d)), d) > 1e-3


class TestNegateK:
    def test_zero_steps_returns_input(self):
        d = make_distribution([0.2, 0.8])
        assert negate_k(d, 0) is d

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            negate_k(uniform(2), -1)

    def test_one_step_three_outcome_fixture(self):
        d = make_distribution([0.6, 0.3, 0.1])
        assert sup_distance(negate_k(d, 1), make_distribution([0.2, 0.35, 0.45])) <= 1e-15

    def test_two_outcome_double_negation_is_identity(self):
        rng = np.random.default_rng(4)
        for p in rng.uniform(0.0, 1.0, 200):
            d = make_distribution([p, 1.0 - p])
            assert sup_distance(negate_k(d, 2), d) <= 1e-15

    def test_matches_explicit_loop(self):
        # Vertices too: for n = 3, k = 1 the closed form's first entry
        # 1/3 - (1/2)(2/3) rounds below the exact 0.
        vertices = [make_distribution([1.0] + [0.0] * (n - 1)) for n in (3, 5, 7)]
        for d in random_distributions(seed=5, count=60) + vertices:
            current = d
            for k in range(51):
                assert sup_distance(negate_k(d, k), current) <= 1e-12
                current = negate(current)

    def test_parity_of_k_beyond_float_precision(self):
        # float(2**53 + 1) is even, and a 401-digit k is beyond float range.
        d = make_distribution([0.3, 0.7])
        for k in (2**53 + 1, 10**20 - 1, 10**400 + 1):
            assert negate_k(d, k) == negate_k(d, 1)
        for k in (2**53 + 2, 10**20, 10**400):
            assert negate_k(d, k) == negate_k(d, 2)

    def test_huge_k_reaches_uniform_for_three_or_more_outcomes(self):
        d = make_distribution([0.6, 0.3, 0.1])
        for k in (2**53 + 1, 10**400):
            assert negate_k(d, k).probs == (1.0 / 3.0,) * 3

    def test_bits_match_the_float_power_below_2_53(self):
        rng = np.random.default_rng(12)
        ks = list(range(1, 1200)) + [int(k) for k in rng.integers(1, 2**53, 300)]
        for d in random_distributions(seed=13, count=8) + [make_distribution([0.3, 0.7])]:
            u = 1.0 / d.n
            for k in ks + [2**53 - 1]:
                rk = (-1.0 / (d.n - 1)) ** k
                want = [max(0.0, u + rk * (p - u)) for p in d.probs]
                assert [x.hex() for x in negate_k(d, k).probs] == [x.hex() for x in want]

    def test_three_step_deviation_bound_on_fixture(self):
        # Initial sup deviation from uniform(4) is 0.15, and each step
        # divides it by 3, so after three steps entries sit within 0.3/27
        # of 1/4.
        d = make_distribution([0.4, 0.3, 0.2, 0.1])
        for p in negate_k(d, 3).probs:
            assert abs(p - 0.25) <= 0.3 / 27


class TestGeometricContraction:
    def test_deviation_contracts_at_rate_one_over_n_minus_one(self):
        # The ratio is checked only while the next deviation is at least
        # 1e-3: below that, the ~1e-16 float error of an iterate becomes
        # visible against a 1e-12 relative tolerance.
        checked = 0
        for d in random_distributions(seed=6, count=100, n_lo=3):
            current = d
            for _ in range(50):
                nxt = negate(current)
                dev_now = current.max_deviation_from_uniform()
                dev_next = nxt.max_deviation_from_uniform()
                if dev_next >= 1e-3:
                    assert abs(dev_next * (current.n - 1) / dev_now - 1.0) <= 1e-12
                    checked += 1
                current = nxt
        assert checked > 200


class TestTrace:
    def test_four_outcome_entropy_sequence(self):
        trace = trace_negation(make_distribution([0.4, 0.3, 0.2, 0.1]), tolerance=1e-3)
        h = [s.measures.H for s in trace.steps]
        for got, want in zip(h, (1.2799, 1.3751, 1.3851, 1.3862)):
            assert got == pytest.approx(want, abs=1e-3)
        assert trace.converged_at == 5

    def test_three_outcome_varentropy_sequence(self):
        trace = trace_negation(make_distribution([0.6, 0.3, 0.1]), tolerance=1e-4)
        vh = [s.measures.VH for s in trace.steps]
        for got, want in zip(vh, (0.3153, 0.0911, 0.0235, 0.0059, 0.0015)):
            assert got == pytest.approx(want, abs=1e-3)
        assert trace.converged_at == 12

    def test_uniform_converges_immediately(self):
        trace = trace_negation(uniform(5), tolerance=1e-6)
        assert trace.converged_at == 0
        assert len(trace.steps) == 1

    def test_two_outcome_oscillation_never_converges(self):
        trace = trace_negation(make_distribution([0.3, 0.7]), max_steps=20, tolerance=1e-9)
        assert trace.converged_at is None
        assert len(trace.steps) == 21

    def test_steps_are_consecutive_negations(self):
        trace = trace_negation(make_distribution([0.5, 0.3, 0.2]), max_steps=10,
                               tolerance=1e-15)
        for before, after in zip(trace.steps, trace.steps[1:]):
            assert after.k == before.k + 1
            assert after.dist.probs == negate(before.dist).probs

    def test_measures_match_measure_all(self):
        trace = trace_negation(make_distribution([0.9, 0.05, 0.05]), max_steps=5,
                               tolerance=1e-15)
        for step in trace.steps:
            assert step.measures == measure_all(step.dist)

    def test_two_outcome_measures_are_stationary(self):
        trace = trace_negation(make_distribution([0.2, 0.8]), max_steps=15,
                               tolerance=1e-12)
        first = trace.steps[0].measures
        for step in trace.steps[1:]:
            for a, b in zip(first.as_dict().values(), step.measures.as_dict().values()):
                assert a == pytest.approx(b, abs=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            trace_negation(uniform(3), max_steps=0)
        for tolerance in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="tolerance"):
                trace_negation(uniform(3), tolerance=tolerance)

    def test_json_lines_shape(self):
        trace = trace_negation(make_distribution([0.6, 0.3, 0.1]), max_steps=3,
                               tolerance=1e-12)
        lines = trace.to_json_lines().splitlines()
        assert len(lines) == len(trace.steps) + 1
        first = json.loads(lines[0])
        assert list(first) == ["k", "p", "H", "H1", "J", "VH", "VJ"]
        assert first["k"] == 0
        assert first["p"] == [0.6, 0.3, 0.1]
        summary = json.loads(lines[-1])
        assert summary == {"converged_at": None, "tolerance": 1e-12}

    def test_geometric_convergence_of_deviation_over_k_steps(self):
        # dev_k = dev_0 / (n-1)^k while dev_k is large enough to measure.
        for d in random_distributions(seed=9, count=50, n_lo=3):
            dev0 = d.max_deviation_from_uniform()
            rate = 1.0 / (d.n - 1)
            for k in range(1, 30):
                expected = dev0 * rate**k
                if expected < 1e-3:
                    break
                got = negate_k(d, k).max_deviation_from_uniform()
                assert abs(got / expected - 1.0) <= 1e-12
