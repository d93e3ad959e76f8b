"""Acceptance suite: one test per release criterion, each run at its stated
tolerance. ``pytest -v tests/test_acceptance.py`` prints one pass/fail line
per criterion.

Two checks fail by design and are kept failing on purpose:

* ``test_criterion_03b_uniform_varextropy_reference_value`` pins
  varextropy(uniform(3)) to +0.0837, and
* ``test_criterion_09b_uniform_varextropy_magnitude_decay`` requires
  |uniform_varextropy(n)| to shrink toward 0 as n grows.

Both reference behaviors are arithmetically incompatible with the defining
formula that the other criteria pin down: the criterion-2 trajectory below
converges to varextropy(uniform(3)) = -0.3288..., and the closed form
factors to -(n-1)(n-2)*ln(1-1/n)^2, whose magnitude grows toward 1. No
logarithm base or normalization reproduces +0.0837 alongside the other
pinned values, so these two checks stay red to keep the discrepancy
visible rather than hidden.
"""

import math

import numpy as np
import pytest

from negprob import (
    CONFIRMED,
    REFUTED,
    check_all,
    check_claim,
    entropy,
    make_distribution,
    measure_all,
    negate,
    negate_k,
    reports_to_json,
    uniform,
    uniform_varextropy,
    varentropy,
    varextropy,
)

REF_TOL = 2e-3  # reference values are rounded to four digits


def test_criterion_01_four_outcome_regression():
    d = make_distribution([0.4, 0.3, 0.2, 0.1])
    ms = measure_all(d)
    assert ms.H == pytest.approx(1.2799, abs=REF_TOL)
    assert ms.J == pytest.approx(0.8295, abs=REF_TOL)
    assert ms.VH == pytest.approx(0.1809, abs=REF_TOL)
    assert ms.VJ == pytest.approx(-0.3926, abs=REF_TOL)

    nd = negate(d)
    for got, want in zip(nd.probs, (0.2, 0.2333, 0.2667, 0.3)):
        assert got == pytest.approx(want, abs=REF_TOL)
    nms = measure_all(nd)
    assert nms.H == pytest.approx(1.3751, abs=REF_TOL)
    assert nms.VH == pytest.approx(0.0220, abs=REF_TOL)
    assert nms.VJ == pytest.approx(-0.4849, abs=REF_TOL)

    assert entropy(negate_k(d, 3)) == pytest.approx(1.3862, abs=REF_TOL)


def test_criterion_02_three_outcome_regression():
    expected = [
        (0.8979, 0.3153, -0.0707),
        (1.0487, 0.0911, -0.2629),
        (1.0868, 0.0235, -0.3121),
        (1.0956, 0.0059, -0.3246),
        (1.0979, 0.0015, -0.3278),
    ]
    current = make_distribution([0.6, 0.3, 0.1])
    for step, (h, vh, vj) in enumerate(expected):
        ms = measure_all(current)
        assert ms.H == pytest.approx(h, abs=REF_TOL), f"H at step {step}"
        assert ms.VH == pytest.approx(vh, abs=REF_TOL), f"VH at step {step}"
        assert ms.VJ == pytest.approx(vj, abs=REF_TOL), f"VJ at step {step}"
        if step == 0:
            negated = negate(current)
            for got, want in zip(negated.probs, (0.2, 0.35, 0.45)):
                assert got == pytest.approx(want, abs=1e-12)
            current = negated
        else:
            current = negate(current)


def test_criterion_03a_uniform_entropy_and_varentropy():
    assert entropy(uniform(2)) == pytest.approx(math.log(2), abs=1e-12)
    assert entropy(uniform(3)) == pytest.approx(math.log(3), abs=1e-12)
    for n in range(2, 101):
        assert abs(varentropy(uniform(n))) <= 1e-12


def test_criterion_03b_uniform_varextropy_reference_value():
    # Fails by design: the defining formula gives -0.3288..., the value the
    # criterion-2 trajectory converges to. See the module docstring.
    assert varextropy(uniform(3)) == pytest.approx(0.0837, abs=1e-3)


def test_criterion_04_two_outcome_invariance():
    rng = np.random.default_rng(20260809)
    for p1 in rng.uniform(0.0, 1.0, 10_000):
        d = make_distribution([p1, 1.0 - p1])
        negated = negate(d)
        a = measure_all(d).as_dict()
        b = measure_all(negated).as_dict()
        for name in a:
            assert abs(a[name] - b[name]) <= 1e-12, name
        back = negate(negated)
        assert max(abs(x - y) for x, y in zip(back.probs, d.probs)) <= 1e-15


def test_criterion_05_closed_form_iterates_and_contraction():
    rng = np.random.default_rng(425)
    for _ in range(1000):
        n = int(rng.integers(2, 13))
        g = rng.exponential(size=n)
        d = make_distribution((g / g.sum()).tolist(), renormalize=True)
        current = d
        for k in range(51):
            closed = negate_k(d, k)
            assert (
                max(abs(a - b) for a, b in zip(closed.probs, current.probs)) <= 1e-12
            )
            if k < 50:
                nxt = negate(current)
                if n >= 3:
                    dev_now = current.max_deviation_from_uniform()
                    dev_next = nxt.max_deviation_from_uniform()
                    # The per-step ratio is only float-measurable while the
                    # deviation is well above one ulp; below 1e-3 the ~1e-16
                    # iterate error would dominate a 1e-12 relative check.
                    if dev_next >= 1e-3:
                        assert abs(dev_next * (n - 1) / dev_now - 1.0) <= 1e-12
                current = nxt


def test_criterion_06_entropy_never_drops_and_majorization_agrees():
    report = check_claim(
        "C1", seed=20260809, trials=100_000, n_range=(3, 8), tolerance=1e-12
    )
    assert report.verdict == CONFIRMED
    assert report.counterexample is None
    assert report.observed["min_margin"] >= -1e-12
    assert report.observed["majorization_failures"] == 0


def test_criterion_07_second_moment_claims_refuted_by_fixture():
    fixture = (0.4, 0.3, 0.2, 0.1)
    vh_report = check_claim("C2", seed=7, trials=200, tolerance=1e-3)
    vj_report = check_claim("C3", seed=7, trials=200, tolerance=1e-3)
    for report, margin in ((vh_report, 0.159), (vj_report, 0.092)):
        assert report.verdict == REFUTED
        assert report.counterexample.p == fixture
        assert report.counterexample.margin == pytest.approx(margin, abs=REF_TOL)
        assert report.counterexample.margin > 1e-3


def test_criterion_08_negated_entropy_bounded_and_peaked_at_uniform():
    # 30k trials round-robin over n in {3, 4, 5}: 10^4 samples per n.
    report = check_claim(
        "C7", seed=31, trials=30_000, n_range=(3, 5), tolerance=1e-12
    )
    assert report.verdict == CONFIRMED
    assert report.observed["max_excess"] <= 1e-9
    peak = make_distribution(report.observed["argmax_p"])
    assert peak.max_deviation_from_uniform() == 0.0
    assert report.observed["argmax_value"] == pytest.approx(
        math.log(peak.n), abs=1e-9
    )


def test_criterion_09a_uniform_entropy_growth():
    ns = [2**k for k in range(1, 15)]
    values = [entropy(uniform(n)) for n in ns]
    for n, v in zip(ns, values):
        assert abs(v - math.log(n)) <= 1e-12
    assert all(b > a for a, b in zip(values, values[1:]))


def test_criterion_09b_uniform_varextropy_magnitude_decay():
    # Fails by design: the closed form's magnitude grows toward 1. See the
    # module docstring.
    ns = [n for n in (2**k for k in range(1, 15)) if n >= 3]
    magnitudes = [abs(uniform_varextropy(n)) for n in ns]
    assert all(b < a for a, b in zip(magnitudes, magnitudes[1:]))
    assert magnitudes[-1] < 1e-3


def test_criterion_10_check_reports_are_deterministic():
    kwargs = dict(seed=12, trials=300, n_range=(2, 8), tolerance=1e-9)
    serial = reports_to_json(check_all(**kwargs))
    rerun = reports_to_json(check_all(**kwargs))
    assert rerun == serial
