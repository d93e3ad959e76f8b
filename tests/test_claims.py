import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import negprob

from negprob import (
    CLAIMS,
    CONFIRMED,
    REFUTED,
    SimplexSamplerConfig,
    UnknownClaim,
    check_all,
    check_claim,
    claim_by_id,
    entropy,
    majorizes,
    make_distribution,
    negate,
    reports_to_json,
    sample_uniform_simplex,
    uniform,
    varentropy,
    varextropy,
)

from negprob.claims import MAX_OUTCOMES
from negprob.measures import constant_measures

FIXTURE = (0.4, 0.3, 0.2, 0.1)


class TestRegistry:
    def test_nine_claims_in_id_order(self):
        assert [c.id for c in CLAIMS] == [f"C{i}" for i in range(1, 10)]

    def test_claim_lookup(self):
        assert claim_by_id("C4").kind == "limit"
        with pytest.raises(UnknownClaim):
            claim_by_id("C10")

    def test_kinds(self):
        kinds = {c.id: c.kind for c in CLAIMS}
        assert all(kinds[f"C{i}"] == "inequality" for i in (1, 2, 3))
        assert all(kinds[f"C{i}"] == "limit" for i in (4, 5, 6))
        assert all(kinds[f"C{i}"] == "maximizer" for i in (7, 8, 9))


class TestParameterValidation:
    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            check_claim("C1", n_range=(1, 5))
        with pytest.raises(ValueError):
            check_claim("C1", n_range=(6, 5))
        with pytest.raises(ValueError):
            check_claim("C1", n_range=(2, 10_001))

    def test_rejects_bad_trials_tolerance_workers(self):
        with pytest.raises(ValueError):
            check_claim("C1", trials=0)
        for tolerance in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="tolerance"):
                check_claim("C1", tolerance=tolerance)
        with pytest.raises(TypeError):
            check_claim("C1", workers=2)

    @pytest.mark.parametrize("kwargs, name", [
        ({"trials": True}, "trials"),
        ({"trials": 1.5}, "trials"),
        ({"n_range": (2.7, 5)}, "n_range"),
        ({"n_range": ("3", "5")}, "n_range"),
        ({"n_range": (2, 8, "junk")}, "n_range"),
        ({"n_range": (2,)}, "n_range"),
        ({"n_range": 5}, "n_range"),
        ({"tolerance": True}, "tolerance"),
    ])
    def test_rejects_coercible_counts_and_bool_tolerance(self, kwargs, name):
        for claim_id in ("C1", "C4", "C7"):
            with pytest.raises(ValueError, match=name):
                check_claim(claim_id, **kwargs)
        with pytest.raises(ValueError, match=name):
            check_all(**kwargs)

    def test_accepts_integer_tolerance(self):
        assert check_claim("C5", trials=1, tolerance=1).tolerance == 1

    def test_unknown_claim(self):
        with pytest.raises(UnknownClaim):
            check_claim("Z9")

    @pytest.mark.parametrize("claim_id", [c.id for c in CLAIMS])
    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True])
    def test_rejects_seed_outside_64_bits_for_every_kind(self, claim_id, seed):
        with pytest.raises(ValueError, match="seed"):
            check_claim(claim_id, seed=seed, trials=1)
        with pytest.raises(ValueError, match="seed"):
            check_all(seed=seed, trials=1, claim_ids=[claim_id])

    def test_accepts_seed_bounds(self):
        for seed in (0, 2**64 - 1):
            assert check_claim("C1", seed=seed, trials=2).seed == seed

    @pytest.mark.parametrize("trials, n_max, claim_ids", [
        (2**31 + 1, 2, None), (2**31 + 1, 2, ["C4"]), (2**31 + 1, 2, ["C7"]),
        (2**22 + 1, 1024, ["C1"]), (429_497, 10_000, ["C5", "C9"]),
    ])
    def test_rejects_a_check_over_the_sampled_entry_bound_before_seeding(
            self, monkeypatch, trials, n_max, claim_ids):
        from negprob import _batch

        def seeded(*args):
            raise AssertionError("a trial was seeded")

        monkeypatch.setattr(_batch, "pcg64_seeds", seeded)
        message = (rf"^trials \* n_max = {trials} \* {n_max} exceeds the bound of "
                   r"4294967296 sampled entries$")
        with pytest.raises(ValueError, match=message):
            check_all(trials=trials, n_range=(2, n_max), claim_ids=claim_ids)
        with pytest.raises(ValueError, match=message):
            check_claim((claim_ids or ["C2"])[0], trials=trials, n_range=(2, n_max))

    @pytest.mark.parametrize("trials, n_range", [(2**31, (2, 2)), (2**22, (3, 1024))])
    def test_accepts_a_check_at_the_sampled_entry_bound(self, monkeypatch, trials, n_range):
        # Its trials would take about an hour, so no chunk is drawn: the
        # check runs its fixture, probes and limit grid and stops there.
        from negprob import _batch

        calls = []
        monkeypatch.setattr(_batch, "trial_chunks", lambda *args: calls.append(args) or iter(()))
        reports = check_all(seed=5, trials=trials, n_range=n_range)
        assert calls == [(5, trials, *n_range)]
        assert trials * n_range[1] == 2**32
        assert [r.trials_run == trials for r in reports] == [
            c.kind != "limit" for c in CLAIMS]


class TestEntropyInequality:
    def test_confirmed_over_seeded_trials(self):
        report = check_claim("C1", seed=42, trials=2000, n_range=(3, 8), tolerance=1e-9)
        assert report.verdict == CONFIRMED
        assert report.counterexample is None
        assert report.observed["majorization_failures"] == 0
        assert report.observed["min_margin"] >= -1e-12

    def test_both_oracles_agree_sample_by_sample(self):
        # Independent check outside the engine: the entropy comparison and
        # the sorted-prefix-sum comparator must agree on every draw.
        for n in (3, 5, 8):
            cfg = SimplexSamplerConfig(seed=7, n=n, trials=100)
            for t in range(100):
                p = sample_uniform_simplex(cfg, t)
                negated = negate(p)
                assert entropy(negated) >= entropy(p) - 1e-12
                assert majorizes(p, negated)

    def test_holds_at_two_outcomes_with_equality(self):
        report = check_claim("C1", seed=3, trials=300, n_range=(2, 2), tolerance=1e-9)
        assert report.verdict == CONFIRMED
        # n = 2 negation is a swap, so the entropy gain is pure float noise.
        assert abs(report.observed["min_margin"]) <= 1e-12


class TestSecondMomentInequalities:
    def test_varentropy_claim_refuted_by_fixture(self):
        report = check_claim("C2", seed=11, trials=200)
        assert report.verdict == REFUTED
        ce = report.counterexample
        assert ce.p == FIXTURE
        assert ce.margin == pytest.approx(0.15889432225931607, abs=1e-12)
        assert ce.lhs == pytest.approx(0.022027364394601907, abs=1e-12)
        assert ce.rhs == pytest.approx(0.18092168665391797, abs=1e-12)

    def test_varextropy_claim_refuted_by_fixture(self):
        report = check_claim("C3", seed=11, trials=200)
        assert report.verdict == REFUTED
        ce = report.counterexample
        assert ce.p == FIXTURE
        assert ce.margin == pytest.approx(0.09227054465375806, abs=1e-12)

    def test_fixture_reported_for_any_seed(self):
        for seed in (0, 1, 99999):
            assert check_claim("C2", seed=seed, trials=10).counterexample.p == FIXTURE

    def test_refuted_without_fixture_in_scope(self):
        report = check_claim("C2", seed=5, trials=400, n_range=(5, 8))
        assert report.verdict == REFUTED
        assert 5 <= len(report.counterexample.p) <= 8

    def test_counterexamples_reevaluate_as_violations(self):
        for claim_id, measure in (("C2", varentropy), ("C3", varextropy)):
            report = check_claim(claim_id, seed=2, trials=100, tolerance=1e-9)
            p = make_distribution(report.counterexample.p)
            assert measure(negate(p)) < measure(p) - 1e-9

    def test_reversal_fraction_reported(self):
        report = check_claim("C2", seed=8, trials=500, n_range=(3, 8))
        frac = report.observed["reversal_fraction"]
        # Random interior samples essentially always lose varentropy under
        # negation; the metric is informational, so just pin its range.
        assert 0.9 <= frac <= 1.0


class TestLimitClaims:
    def test_entropy_growth_confirmed(self):
        report = check_claim("C4", seed=0, n_range=(2, 1000), tolerance=1e-9)
        assert report.verdict == CONFIRMED
        grid = report.observed["n_grid"]
        assert grid[0] == 2 and grid[-1] == 1000
        values = report.observed["values"]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_entropy_at_uniform_rises_from_every_n_to_the_next(self):
        # C4 does not check its rise at run time: H(uniform(n)), as the
        # engine measures it, rises from every n to n + 1 up to MAX_OUTCOMES,
        # so along every grid. The least rise, ln(10^4 / 9999), is about
        # 1e-4, over 10^10 ulps of H.
        values = [constant_measures(1.0 / n, n).H for n in range(2, MAX_OUTCOMES + 1)]
        rises = [b - a for a, b in zip(values, values[1:])]
        assert len(rises) == MAX_OUTCOMES - 2
        least = min(rises)
        assert least == rises[-1]
        assert abs(least - math.log1p(1.0 / (MAX_OUTCOMES - 1))) <= 1e-12
        assert least > 1e10 * math.ulp(values[-1])

    def test_uniform_varentropy_zero_confirmed_tightly(self):
        report = check_claim("C5", seed=0, n_range=(2, 1000), tolerance=1e-12)
        assert report.verdict == CONFIRMED
        assert all(abs(v) <= 1e-12 for v in report.observed["values"])

    def test_varextropy_magnitude_decay_refuted(self):
        report = check_claim("C6", seed=0, n_range=(2, 1000), tolerance=1e-9)
        assert report.verdict == REFUTED
        ce = report.counterexample
        assert ce.p == uniform(3).probs
        assert ce.lhs == pytest.approx(0.32880390778633084, abs=1e-12)
        assert ce.rhs == 0.0

    def test_trials_run_is_grid_size(self):
        report = check_claim("C5", seed=0, n_range=(2, 9))
        assert report.trials_run == len(report.observed["n_grid"]) == 8


class TestMaximizerClaims:
    def test_negated_entropy_peaks_at_uniform(self):
        report = check_claim("C7", seed=21, trials=2000, n_range=(3, 5), tolerance=1e-12)
        assert report.verdict == CONFIRMED
        peak = make_distribution(report.observed["argmax_p"])
        assert peak.max_deviation_from_uniform() == 0.0
        assert report.observed["max_excess"] <= 1e-9
        assert report.observed["argmax_value"] == pytest.approx(math.log(peak.n), abs=1e-9)

    def test_negated_varentropy_refuted_uniform_is_minimizer(self):
        report = check_claim("C8", seed=21, trials=500, n_range=(3, 5))
        assert report.verdict == REFUTED
        ce = make_distribution(report.counterexample.p)
        n = ce.n
        assert varentropy(negate(ce)) > varentropy(negate(uniform(n))) + 1e-9
        assert report.observed["max_excess"] > 0.0

    def test_negated_varextropy_refuted_uniform_is_minimizer(self):
        report = check_claim("C9", seed=21, trials=500, n_range=(3, 5))
        assert report.verdict == REFUTED
        ce = make_distribution(report.counterexample.p)
        assert varextropy(negate(ce)) > varextropy(negate(uniform(ce.n))) + 1e-9

    @pytest.mark.parametrize("claim_id", ["C7", "C8", "C9"])
    def test_finishes_at_max_outcomes(self, claim_id):
        # n_max = MAX_OUTCOMES, the largest range check_claim accepts.
        kwargs = dict(seed=5, trials=2, n_range=(9999, 10_000))
        first = check_claim(claim_id, **kwargs)
        assert check_claim(claim_id, **kwargs).to_json() == first.to_json()
        assert len(first.observed["argmax_p"]) in (9999, 10_000)


class TestSeedIndependentCache:
    """The probes' measures and their bounds, the limit grid's uniform(n)
    measures and the fixture are computed once per process and then
    reused."""

    CHECKS = [dict(seed=7, trials=50, n_range=(226, 232)),
              dict(seed=2**64 - 1, trials=300, n_range=(2, 16)),
              dict(seed=1, trials=3, n_range=(9_000, 9_010), claim_ids=["C2", "C6", "C9"])]

    def test_a_warm_check_writes_the_bytes_of_a_fresh_process(self):
        for kwargs in self.CHECKS:
            check_all(**kwargs)
        warm = [reports_to_json(check_all(**kwargs)) for kwargs in self.CHECKS]
        src = str(Path(negprob.__file__).resolve().parent.parent)
        script = ("import json\n"
                  "from negprob import check_all, reports_to_json\n"
                  f"print(json.dumps([reports_to_json(check_all(**kwargs)) "
                  f"for kwargs in {self.CHECKS!r}]))\n")
        fresh = subprocess.run([sys.executable, "-c", script],
                               env={**os.environ, "PYTHONPATH": src},
                               capture_output=True, text=True, timeout=60)
        assert fresh.returncode == 0, fresh.stderr
        assert json.loads(fresh.stdout) == warm

    def test_the_probe_cache_holds_one_entry_per_n(self):
        from negprob import claims

        check_all(seed=3, trials=2, n_range=(2, MAX_OUTCOMES), claim_ids=["C7", "C8", "C9"])
        assert claims._probes.cache_info().currsize == MAX_OUTCOMES - 1
        for n_range in [(2, 8), (228, 229), (9_990, MAX_OUTCOMES)]:
            check_all(seed=4, trials=2, n_range=n_range, claim_ids=["C8"])
        assert claims._probes.cache_info().currsize == MAX_OUTCOMES - 1

    def test_cached_values_are_shared_and_immutable(self):
        from negprob import claims

        check_all(seed=1, trials=2)
        hits = claims._probes.cache_info().hits
        check_all(seed=2, trials=2)
        assert claims._probes.cache_info().hits == hits + 7  # n = 2..8, reused
        assert claims._probes(5) is claims._probes(5)
        assert [type(part) for part in claims._probes(5)] == [bytes, bytes]
        assert claims._fixture() is claims._fixture()
        assert claims._uniform_measures(5) is claims._uniform_measures(5)
        assert claims._uniform_measures(5) == constant_measures(1.0 / 5, 5)


class TestReports:
    def test_check_all_returns_reports_in_registry_order(self):
        reports = check_all(seed=1, trials=40)
        assert [r.claim_id for r in reports] == [c.id for c in CLAIMS]

    def test_default_configuration_verdicts(self):
        verdicts = {r.claim_id: r.verdict for r in check_all(seed=9, trials=60)}
        assert verdicts == {
            "C1": CONFIRMED,
            "C2": REFUTED,
            "C3": REFUTED,
            "C4": CONFIRMED,
            "C5": CONFIRMED,
            "C6": REFUTED,
            "C7": CONFIRMED,
            "C8": REFUTED,
            "C9": REFUTED,
        }

    def test_subset_selection(self):
        reports = check_all(seed=1, trials=40, claim_ids=["C5"])
        assert len(reports) == 1
        assert reports[0].claim_id == "C5"
        assert reports[0].verdict == CONFIRMED

    def test_subset_selection_unknown_id(self):
        with pytest.raises(UnknownClaim):
            check_all(claim_ids=["C1", "nope"])

    @pytest.mark.parametrize("claim_ids", ["C1", "C1,C2", ""])
    def test_claim_ids_must_be_a_collection_not_one_string(self, claim_ids):
        # Iterated, a string gives one character per id ("unknown claim 'C'").
        with pytest.raises(ValueError, match="must be a collection of claim ids") as raised:
            check_all(claim_ids=claim_ids)
        assert not isinstance(raised.value, UnknownClaim)

    def test_one_pass_samples_each_trial_once(self, monkeypatch):
        from negprob import _batch

        drawn = []

        def counting(seed, ns, ts):
            drawn.extend(zip([seed] * len(ts), ns.tolist(), ts.tolist()))
            return pcg64_seeds(seed, ns, ts)

        pcg64_seeds = _batch.pcg64_seeds
        monkeypatch.setattr(_batch, "pcg64_seeds", counting)
        check_all(seed=3, trials=50)
        assert drawn == [(3, 2 + t % 7, t) for t in range(50)]

    @pytest.mark.parametrize("claim_ids, measured, measures_samples", [
        (None, 2, True),  # the sample and its negation
        (["C7", "C8", "C9"], 1, False),
        (["C2", "C3", "C4"], 2, True),
        (["C1"], 2, True),
    ])
    def test_chunks_compute_only_what_the_selected_claims_read(
            self, monkeypatch, claim_ids, measured, measures_samples):
        from negprob import _batch

        calls = {name: [] for name in ("sample_rows", "measure_rows")}
        for name, seen in calls.items():
            def spy(*args, real=getattr(_batch, name), seen=seen):
                seen.append((args[0], real(*args)))  # (first argument, result)
                return seen[-1][1]

            monkeypatch.setattr(_batch, name, spy)
        check_all(seed=5, trials=5000, claim_ids=claim_ids)
        samples = [rows for _, rows in calls["sample_rows"]]
        assert len(samples) == 2  # 25,000 entries of n = 2..8 make two chunks
        assert len(calls["measure_rows"]) == measured * 2
        assert any(values is p for values, _ in calls["measure_rows"]
                   for p in samples) == measures_samples

    def test_trial_fold_takes_the_first_violation_in_trial_order(self):
        from types import SimpleNamespace

        import numpy as np

        from negprob.claims import _Inequality

        after, before = np.array([1.0, 1.0, 0.5, 1.0]), np.array([0.5, 1.0, 1.0, 0.5])
        ns = np.array([2, 3, 3, 4])
        chunk = SimpleNamespace(
            n=ns, reversible=(ns >= 3, 3),
            measures={"negated": {"H": after, "VH": after},
                      "p": {"H": before, "VH": before}}.__getitem__,
            probs=lambda i: ("trial", i),
        )
        tally = _Inequality(claim_by_id("C1"), 1e-9)
        tally.trials(chunk)
        assert tally.counterexample.p == ("trial", 2)
        assert tally.observed() == {"min_margin": -0.5, "majorization_failures": 0}
        assert (tally.reversible, tally.reversed) == (0, 0)  # C1 reports no reversals
        tally = _Inequality(claim_by_id("C2"), 1e-9)
        tally.trials(chunk)
        assert tally.counterexample.p == ("trial", 2)
        # Trials with n >= 3 are 1, 2 and 3; VH does not rise at 1 and 2.
        assert (tally.reversible, tally.reversed) == (3, 2)

    def test_maximizer_trial_fold_bounds_each_trial_by_its_n(self, monkeypatch):
        from types import SimpleNamespace

        import numpy as np

        from negprob import _batch
        from negprob._batch import trial_chunks
        from negprob.claims import _Inequality, _Maximizer

        ns = [2, 3, 3, 4]
        value = np.array([math.log(n) + x for n, x in zip(ns, (0.5, 1.5, 2.5, 2.5))])
        chunk = SimpleNamespace(n=np.array(ns), probs=lambda i: ("trial", i),
                                measures={"negated": {"H": value}}.__getitem__)
        monkeypatch.setattr(_batch, "trial_chunks", lambda *args: iter([chunk]))
        report = check_claim("C7", trials=4, n_range=(2, 4), tolerance=1.0)
        # C7's bound at n is ln n. No probe has a positive excess; trial 1
        # is the first above the tolerance and the peak is the first of the
        # largest excesses.
        excess = [v - math.log(n) for v, n in zip(value.tolist(), ns)]
        ce = report.counterexample
        assert (ce.p, ce.lhs, ce.rhs, ce.margin) == (
            ("trial", 1), value[1], math.log(3), excess[1])
        peak = excess.index(max(excess))
        assert report.observed == {"max_excess": excess[peak], "argmax_value": value[peak],
                                   "argmax_p": ("trial", peak)}
        monkeypatch.undo()

        # A real chunk hands both kinds of claim one tuple for one trial.
        chunk = next(trial_chunks(7, 3, 3, 5))  # trials 0, 1, 2 of n = 3, 4, 5
        inequality = _Inequality(claim_by_id("C2"), -math.inf)  # every trial violates
        maximizer = _Maximizer(claim_by_id("C8"), -math.inf)
        inequality.trials(chunk)
        maximizer._points(chunk.measures("negated")["VH"], np.zeros(3), chunk.probs)
        assert inequality.counterexample.p is maximizer.counterexample.p
        assert inequality.counterexample.p == tuple(chunk.p[:3].tolist())

    def test_point_fold_reports_the_first_strict_maximum(self):
        import numpy as np

        from negprob.claims import _Maximizer

        tally = _Maximizer(claim_by_id("C7"), 1.0)
        tally._points(np.array([0.5, 1.0, 2.0, 2.0]), np.zeros(4), lambda i: ("first", i))
        tally._points(np.array([2.5, 1.0]), np.array([0.5, 0.0]), lambda i: ("second", i))
        # Excess 1.0 equals the tolerance, so point 2 is the first violation;
        # ties, within a call or across calls, keep the earlier point.
        assert tally.counterexample.p == ("first", 2)
        assert tally.peak == (2.0, 2.0, ("first", 2))

    def test_point_fold_builds_a_point_that_is_peak_and_violation_once(self):
        import numpy as np

        from negprob.claims import _Maximizer

        built = []

        def probs(i):
            built.append(i)
            return ("point", i)

        tally = _Maximizer(claim_by_id("C7"), 1.0)
        tally._points(np.array([0.5, 3.0, 2.0]), np.zeros(3), probs)
        assert built == [1]
        assert tally.counterexample.p is tally.peak[2]
        tally._points(np.array([4.0, 0.0]), np.zeros(2), probs)  # a later peak only
        assert built == [1, 0]
        assert tally.counterexample.p == ("point", 1)

    @pytest.mark.parametrize("trials, n_range", [
        (5000, (2, 8)), (7, (9998, 10_000)), (300, (2, 10_000)), (40, (3, 3)),
        (9000, (2, 2)),  # 8192 trials of n = 2 fill a chunk exactly
    ])
    def test_chunks_cover_the_trials_in_order_within_the_entry_budget(self, trials, n_range):
        from negprob._batch import CHUNK_ENTRIES, trial_chunks

        n_min, n_max = n_range
        want = [n_min + t % (n_max - n_min + 1) for t in range(trials)]
        ns = []
        for chunk in trial_chunks(0, trials, n_min, n_max):
            assert len(chunk.n) == 1 or chunk.n.sum() <= CHUNK_ENTRIES
            if n_min > CHUNK_ENTRIES // 2:  # n near 10^4: one trial per chunk
                assert len(chunk.n) == 1
            ns += chunk.n.tolist()
            if len(ns) < trials:  # full: the next trial would not fit
                assert chunk.n.sum() + want[len(ns)] > CHUNK_ENTRIES
        assert ns == want

    @pytest.mark.parametrize("trials, n_range, runs", [
        (7, (9998, 10_000), 1),  # one call seeds seven one-trial chunks
        (20_000, (2, 3), 2),  # the second run starts at the chunk the first cannot hold
        (40, (3, 3), 1),
    ])
    def test_chunks_are_seeded_in_runs_of_consecutive_trials(self, monkeypatch, trials, n_range,
                                                            runs):
        import numpy as np

        from negprob import _batch

        real, seeded, chunks = _batch.pcg64_seeds, [], []

        def counting(seed, ns, ts):
            seeded.append(len(ts))
            return real(seed, ns, ts)

        monkeypatch.setattr(_batch, "pcg64_seeds", counting)
        monkeypatch.setattr(_batch, "TrialChunk", lambda streams, ns: chunks.append((streams, ns)))
        list(_batch.trial_chunks(11, trials, *n_range))
        assert len(seeded) == runs and max(seeded) <= _batch.CHUNK_ENTRIES
        t0 = 0
        for streams, ns in chunks:
            assert np.array_equal(streams, real(11, ns, np.arange(t0, t0 + len(ns))))
            t0 += len(ns)
        assert t0 == trials

    def test_a_trial_point_hands_the_writer_its_float64_row(self, monkeypatch):
        import numpy as np

        from negprob import _batch, _float_json, claims

        chunk = _batch.TrialChunk(_batch.pcg64_seeds(7, [600, 3], [0, 1]), [600, 3])
        p = chunk.probs(0)
        assert chunk.probs(0) is p and p == tuple(chunk.p[:600].tolist())
        assert p.row.dtype == np.float64 and p.row.tolist() == list(p)
        assert not np.shares_memory(p.row, chunk.p)  # a report does not keep the chunk
        formatted, array_json = [], _float_json.array_json
        monkeypatch.setattr(_float_json, "array_json",
                            lambda x: formatted.append(x) or array_json(x))
        text = claims._point_json(p)
        assert formatted[0] is p.row  # neither checked nor rebuilt from the tuple
        # The plain tuple of the same entries has no row and goes to json.
        assert text == claims._point_json(tuple(p)) == json.dumps(list(p), separators=(",", ":"))
        assert len(formatted) == 1

    def test_serialization_is_deterministic(self):
        a = reports_to_json(check_all(seed=4, trials=80))
        b = reports_to_json(check_all(seed=4, trials=80))
        assert a == b

    def test_json_shape(self):
        report = check_claim("C2", seed=1, trials=20)
        obj = json.loads(report.to_json())
        assert list(obj) == ["claim", "verdict", "trials", "seed", "tolerance",
                             "counterexample", "observed"]
        assert list(obj["counterexample"]) == ["p", "lhs", "rhs", "margin"]
        assert obj["trials"] == 20
        assert obj["seed"] == 1
