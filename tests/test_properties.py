"""Property tests for the invariants the shared claim pass relies on, and
for the CLI's contract that every input either works or fails cleanly.

``check_all`` measures each trial once and hands the values to every
claim, and the maximizer claims read them off negated points; the reports
are byte-identical to per-claim evaluation only because these properties
hold. The trial pass works on batches of trials (flat rows, see
``negprob._batch``); its sampler and measures must be bitwise equal to
the public one-distribution functions. The report
writer builds each line from pieces and must give the text of
``json.dumps`` of the report's reference object.
"""

import contextlib
import copy
import hashlib
import io
import json
import math
import pickle
import random
import re
import tracemalloc
import types
from fractions import Fraction
from itertools import accumulate, chain, repeat

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_engine

from negprob import (
    SUM_TOLERANCE,
    entropy,
    extropy,
    gini_entropy,
    majorizes,
    make_distribution,
    measure_all,
    negate,
    negate_k,
    uniform,
    varentropy,
    varextropy,
)
from negprob import SimplexSamplerConfig, sample_uniform_simplex
import negprob._batch as batch
from negprob._batch import (
    CHUNK_ENTRIES,
    JUMP_MAX_N,
    LOG_WITNESS_HEAD,
    Rows,
    guarded_logs,
    log_kernel,
    log_witness,
    math_logs,
    measure_rows,
    sample_rows,
    strided_logs,
)
from negprob.claims import (
    CLAIMS,
    COLUMNAR_POINT_MIN,
    MAX_OUTCOMES,
    CONFIRMED,
    REFUTED,
    ClaimReport,
    Counterexample,
    _MEASURE_FIELD,
    _Inequality,
    _Maximizer,
    _point_json,
    _probe_measures,
    _probe_points,
    check_all,
    claim_by_id,
    reports_to_json,
)
from negprob.cli import main
from negprob.measures import _measure_set, run_sum
from negprob.simplex import RunPoint

# Large distributions are slow to measure; no example database is written.
SETTINGS = settings(max_examples=60, deadline=None, database=None)


@st.composite
def distributions(draw, max_n=10_000):
    """Distributions with n up to max_n, often with zero entries.

    A quarter of draws are uniform(n) and another quarter its negation:
    inputs with all entries equal, which random weights almost never give.
    Otherwise small n draws every entry; larger n draws a seed and a zero
    fraction and fills the entries from them, which keeps n = 10^4 cheap
    to draw.
    """
    n = draw(st.one_of(st.integers(2, 12), st.integers(2, max_n), st.just(max_n)))
    kind = draw(st.integers(0, 3))
    if kind == 2:
        return uniform(n)
    if kind == 3:
        return negate(uniform(n))
    if n <= 12:
        weights = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
                                min_size=n, max_size=n))
    else:
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        zeros = draw(st.sampled_from([0.0, 0.1, 0.5, 0.99]))
        weights = [0.0 if rng.random() < zeros else rng.random() for _ in range(n)]
    weights[draw(st.integers(0, n - 1))] = draw(st.floats(0.01, 1.0))
    return make_distribution(weights, renormalize=True)


@SETTINGS
@given(distributions())
def test_measure_all_is_bitwise_equal_to_the_scalar_measures(d):
    ms = measure_all(d)
    assert ms.H.hex() == entropy(d).hex()
    assert ms.H1.hex() == gini_entropy(d).hex()
    assert ms.J.hex() == extropy(d).hex()
    assert ms.VH.hex() == varentropy(d).hex()
    assert ms.VJ.hex() == varextropy(d).hex()


# Entry values for runs: zero, subnormal, and tiny normal values whose
# terms split into subnormal halves, as well as ordinary ones.
RUN_VALUES = st.one_of(
    st.just(0.0),
    st.sampled_from([5e-324, 2.0**-1060, 1e-300, 2.0**-600, 2.0**-500, 2.0**-480]),
    st.floats(1e-320, 1.0),
)


def exact_sum(runs):
    """``math.fsum`` of each value repeated count times: the exact rational
    total, rounded once (``Fraction`` converts to the nearest float)."""
    return float(sum(Fraction(v) * c for v, c in runs))


def exact_measures(runs):
    """``measure_all`` of the distribution the (value, count) runs stand
    for, with every sum taken by ``exact_sum`` over the runs' terms."""
    counts = [c for _, c in runs]
    return _measure_set([v for v, _ in runs], lambda terms: exact_sum(zip(terms, counts)))


def negated_runs(runs):
    """``negate``'s entries, (1 - v)/(n - 1), of the distribution the runs
    stand for, as runs."""
    scale = sum(c for _, c in runs) - 1
    return [((1.0 - v) / scale, c) for v, c in runs]


@st.composite
def runs(draw):
    """A distribution as (value, count) runs with counts up to 10^4 (zero
    too) and at least one ordinary run, renormalised run by run."""
    k = draw(st.integers(0, 3))
    values = draw(st.lists(RUN_VALUES, min_size=k, max_size=k))
    counts = draw(st.lists(st.one_of(st.integers(0, 3), st.integers(0, 10_000)),
                           min_size=k, max_size=k))
    out = [*zip(values, counts), (draw(st.floats(0.01, 1.0)), draw(st.integers(1, 10_000)))]
    out.insert(draw(st.integers(0, k)), out.pop())
    if sum(c for _, c in out) < 2:
        out.append((out[-1][0], 1))
    total = exact_sum(out)
    return [(v / total, c) for v, c in out]


def expanded(runs):
    return [v for v, c in runs for _ in range(c)]


@SETTINGS
@given(runs())
def test_the_exact_run_reference_is_measure_all_of_the_expanded_runs(rs):
    # The reference the probe tests use: fsum is the exact total rounded
    # once, so exact rational sums give measure_all's bits.
    entries = expanded(rs)
    assert exact_sum(rs).hex() == math.fsum(entries).hex()
    want, got = measure_all(make_distribution(entries)), exact_measures(rs)
    assert [x.hex() for x in got.as_dict().values()] == [
        x.hex() for x in want.as_dict().values()]


def probe_values(n: int) -> list[list[tuple[float, int]]]:
    """The runs of each maximizer probe of n before it is renormalised:
    uniform(n) as (1/n, n), then [(u + eps, 1), (u - eps, 1), (u, n - 2)],
    u = 1/n, for each eps in (1e-3, 1e-2) with eps <= 1/n (1/(2n) when
    neither is)."""
    u = 1.0 / n
    return [[(u, n)]] + [
        [(u + eps, 1), (u - eps, 1), (u, n - 2)]
        for eps in [e for e in (1e-3, 1e-2) if e <= u] or [u / 2.0]]


def probe_runs(n: int) -> list[list[tuple[float, int]]]:
    """The maximizer probes of n as runs: uniform(n), then each perturbed
    probe of ``probe_values`` divided by its ``exact_sum``, without empty
    runs. This is the reference ``claims._probe_points`` reproduces."""
    uniform_runs, *perturbed = probe_values(n)
    points = [uniform_runs]
    for runs in perturbed:
        total = exact_sum(runs)
        points.append([(v / total, c) for v, c in runs if c])
    return points


@SETTINGS
@given(st.one_of(st.integers(2, 40), st.integers(2, 10_000), st.integers(9_990, 10_000)))
def test_probe_points_as_runs_equal_the_points_built_entry_by_entry(n):
    points = probe_runs(n)
    reference = list(reference_engine.probes(n))  # built entry by entry
    assert len(points) == len(reference)
    for point, want in zip(points, reference):
        assert expanded(point) == list(want.probs)
        assert exact_measures(point) == measure_all(want)
        negated = negated_runs(point)
        assert expanded(negated) == list(negate(want).probs)
        got, want_negated = exact_measures(negated), measure_all(negate(want))
        assert [x.hex() for x in got.as_dict().values()] == [
            x.hex() for x in want_negated.as_dict().values()]


# Terms a run sum takes: measure terms are at most 1 in magnitude and of
# either sign, and -0.0 is one of them.
SIGNED_RUN_VALUES = st.one_of(RUN_VALUES, RUN_VALUES.map(lambda v: -v))


@SETTINGS
@given(st.lists(st.lists(st.tuples(SIGNED_RUN_VALUES, st.one_of(st.integers(0, 3),
                                                                 st.integers(0, 10_000))),
                         min_size=3, max_size=3), min_size=1, max_size=8))
@example([[(0.1, 1), (-0.0, 5), (0.3, 0)]])  # a count-1 run, a zero's copies, an empty run
@example([[(-0.0, 1), (0.0, 0), (-0.0, 2)]])  # a zero sum of negative zeros is +0.0
@example([[(-0.0, 1)]])  # and so is one negative zero alone
@example([[(5e-324, 3), (1.0, 10_000), (-1.0, 9_999)]])  # far apart, nearly cancelling
def test_run_sums_equal_the_exact_run_sums(rows):
    assert [run_sum(row).hex() for row in rows] == [exact_sum(row).hex() for row in rows]


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def scalar_probes(n):
    """Each probe of n as its runs, and the H, VH and VJ of its negation, by
    exact rational sums."""
    return [(q, exact_measures(negated_runs(q))) for q in probe_runs(n)]


def probe_table(n):
    """``_probe_measures(n)`` as lists: n's bounds, and each probe's H, VH
    and VJ."""
    bound, measured = _probe_measures(n)
    return list(bound), np.reshape(measured, (-1, 3)).tolist()


def test_probes_equal_the_exact_rational_reference_for_every_n():
    # The probes make none of make_distribution's checks at run time; this
    # test makes each of them, on every probe of every n the engine takes,
    # on the engine's own points and negations.
    for n in range(2, MAX_OUTCOMES + 1):
        reference = scalar_probes(n)
        bound, measured = probe_table(n)
        for own, values, (runs, want), got in zip(_probe_points(n), probe_values(n), reference,
                                                  measured, strict=True):
            # The probe values lie in [0, 1] and their sum, the
            # renormalisation total, is positive.
            assert all(0.0 <= v <= 1.0 for v, _ in values), n
            assert exact_sum(values) > 0.0, n
            # The point and its negation (1 - v)/(n - 1) lie in [0, 1]
            # and sum to 1 within SUM_TOLERANCE (nan fails each test).
            for point in own, negated_runs(own):
                assert all(0.0 <= v <= 1.0 for v, _ in point), n
                assert abs(exact_sum(point) - 1.0) <= SUM_TOLERANCE, n
            assert [(bits(v), c) for v, c in own] == [(bits(v), c) for v, c in runs]
            assert all(c > 0 for _, c in own)
            assert bits(got) == bits([want.H, want.VH, want.VJ])
        # The bounds of n: ln n, and negate(uniform(n))'s VH and VJ.
        negated_uniform = reference[0][1]
        assert bits(bound) == bits([math.log(n), negated_uniform.VH, negated_uniform.VJ])


def folded_probes(n_range):
    """The arguments of each maximizer's first fold, its probes', in a
    check of n_range: (value, bound, probs) by claim id. The range's
    probe fold is dropped first, so that the check folds its probes."""
    from negprob import claims

    calls = {}
    fold = _Maximizer._points

    def spy(self, value, bound, probs):
        calls.setdefault(self.claim.id, (value, bound, probs))
        fold(self, value, bound, probs)

    claims._probe_fold.cache_clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Maximizer, "_points", spy)
        check_all(seed=0, trials=1, n_range=n_range, claim_ids=("C7", "C8", "C9"))
    return calls


@pytest.mark.parametrize("n", [2, 3, 100, 101, 1000, 1001, 9999, 10_000])
def test_probe_tuples_equal_the_scalar_points(n):
    calls = folded_probes((n, n))
    points = scalar_probes(n)
    assert len(points) == (3 if n <= 100 else 2)
    probs, negated_uniform = calls["C7"][2], points[0][1]
    for claim_id, (value, bound, claim_probs) in calls.items():
        field = _MEASURE_FIELD[claim_id]
        want = math.log(n) if field == "H" else getattr(negated_uniform, field)
        assert bits(value) == bits([getattr(measured, field) for _, measured in points])
        assert bits(bound) == bits([want] * len(points))
        assert claim_probs is probs  # so every claim gets one tuple of a probe
    for i, (q, _) in enumerate(points):
        want = tuple(chain.from_iterable(repeat(v, c) for v, c in q))
        assert bits(probs(i)) == bits(want)
        assert probs(i) is probs(i)


def test_probe_points_are_run_points_of_their_nonempty_runs():
    # Every probe of a check's fold over n = 2..229 (n = 2 has an empty
    # run) and over n = 9990..10^4.
    for n_min, n_max in [(2, 229), (9_990, MAX_OUTCOMES)]:
        probs = folded_probes((n_min, n_max))["C8"][2]
        i = 0
        for n in range(n_min, n_max + 1):
            for runs in probe_runs(n):
                point = probs(i)
                assert type(point) is RunPoint
                assert [(bits(v), c) for v, c in point.runs] == [(bits(v), c) for v, c in runs]
                assert point == tuple(chain.from_iterable(repeat(v, c) for v, c in runs))
                assert probs(i) is point
                i += 1


# Run values the writer must print as json does: zeros of both signs, 1.0,
# subnormals, values in (0, 1) and values above 1.
WRITTEN_RUN_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 5e-324, 2.0**-1060, 2.0**-1022 - 2.0**-1074]),
    st.floats(5e-324, 2.0**-1022, exclude_max=True),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(1.0, exclude_min=True, allow_infinity=False),
)


@SETTINGS
@given(st.lists(st.tuples(WRITTEN_RUN_VALUES, st.integers(0, 2 * COLUMNAR_POINT_MIN)),
                max_size=6))
@example([(0.1, 0)])  # an empty run alone
@example([(0.1, 3), (0.5, 0), (0.1, 2)])  # an empty run between equal values
@example([(-0.0, 1), (0.0, 2 * COLUMNAR_POINT_MIN), (1.0, 1)])
def test_run_points_write_json_of_their_entries(runs):
    point = RunPoint.of(runs)
    assert list(point) == list(chain.from_iterable(repeat(v, c) for v, c in runs))
    assert point.runs == tuple((v, c) for v, c in runs if c > 0)
    assert _point_json(point) == json.dumps(list(point), separators=(",", ":"))


def test_run_points_copy_and_pickle_with_their_runs():
    point = RunPoint.of([(0.25, 3), (0.125, 0), (0.125, 2)])
    for other in (copy.copy(point), copy.deepcopy(point), pickle.loads(pickle.dumps(point))):
        assert type(other) is RunPoint
        assert other == point == (0.25, 0.25, 0.25, 0.125, 0.125)
        assert other.runs == point.runs == ((0.25, 3), (0.125, 2))


def test_the_limit_claims_constant_point_passes_every_distribution_check():
    # A limit claim's counterexample RunPoint.of([(1/n, n)]) is not validated
    # at run time: make_distribution's checks hold on it for every n.
    for n in range(2, MAX_OUTCOMES + 1):
        v = 1.0 / n
        assert 0.0 < v <= 1.0, n
        # n * v is fsum of n copies of v, the exact total rounded once.
        assert n * v == float(Fraction(v) * n), n
        assert abs(n * v - 1.0) <= SUM_TOLERANCE, n
    for n in (2, 3, 7, 100, 999, 9_063, 10_000):
        assert RunPoint.of([(1.0 / n, n)]) == uniform(n).probs


def test_limit_reports_at_large_n_build_no_distribution_and_no_columns(monkeypatch):
    import negprob._float_json as float_json
    import negprob.simplex as simplex

    def fail(*args):
        raise AssertionError("called")

    monkeypatch.setattr(float_json, "array_json", fail)
    monkeypatch.setattr(simplex.Distribution, "__post_init__", fail)
    with pytest.raises(AssertionError):
        uniform(3)
    reports = check_all(seed=0, trials=4, n_range=(9000, 10_000), claim_ids=("C4", "C5", "C6"))
    c6 = reports[-1]
    assert c6.verdict == REFUTED and type(c6.counterexample.p) is RunPoint
    assert reports_to_json(reports) == "\n".join(
        json.dumps(r.to_json_obj(), separators=(",", ":")) for r in reports)


def test_maximizer_reports_at_wide_n_keep_their_bytes_and_memory():
    # The sha256 of this call's reports. Before the probes were built as
    # columns tracemalloc's peak was 0.28 MB, and whole-range columns would
    # take tens of MB.
    from negprob import claims

    kwargs = dict(seed=3, trials=20, n_range=(2, MAX_OUTCOMES), claim_ids=("C7", "C8", "C9"))
    check_all(**kwargs)  # warm-up: imports and first-use caches
    # The range fold is cached; dropping it makes the traced check measure
    # and fold the range's probes again.
    claims._probe_fold.cache_clear()
    tracemalloc.start()
    try:
        reports = check_all(**kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hashlib.sha256(reports_to_json(reports).encode()).hexdigest() == (
        "904b59e9c89bd7b58776ae5956170f9936435cd51d6849bddd927ccf7942cf7b")
    assert peak <= 2 * 2**20
    # C8 and C9 fall to one probe point and peak at one: each is one tuple.
    c7, c8, c9 = reports
    assert c8.counterexample.p is c9.counterexample.p
    assert c8.observed["argmax_p"] is c9.observed["argmax_p"]


def test_reports_format_each_shared_point_once(monkeypatch):
    import negprob.claims as claims

    # C8's counterexample and the peaks of C8 and C9 are one trial point.
    reports = check_all(seed=9001, trials=2, n_range=(9999, 10_000),
                        claim_ids=("C7", "C8", "C9"))
    c7, c8, c9 = reports
    assert c8.counterexample.p is c8.observed["argmax_p"] is c9.observed["argmax_p"]
    formatted = []
    real = claims._point_pieces
    monkeypatch.setattr(claims, "_point_pieces", lambda p: formatted.append(p) or real(p))
    text = reports_to_json(reports)
    assert [id(p) for p in formatted] == [id(c7.observed["argmax_p"]),
                                          id(c8.observed["argmax_p"])]
    assert text == "\n".join(json.dumps(r.to_json_obj(), separators=(",", ":"))
                             for r in reports)


def test_c2_and_c3_read_one_reversible_count_per_chunk():
    ns = [2, 3, 4, 2, 5]
    chunk = batch.TrialChunk(batch.pcg64_seeds(7, ns, range(5)), ns)
    tallies = [_Inequality(claim_by_id(c), 1e-9) for c in ("C2", "C3")]
    for tally in tallies:
        tally.trials(chunk)
    mask, count = chunk.reversible
    assert mask.tolist() == [False, True, True, False, True] and count == 3
    assert [t.reversible for t in tallies] == [3, 3]
    assert chunk.reversible[0] is mask  # computed once, then kept


@SETTINGS
@given(distributions())
def test_negate_lands_on_the_simplex_below_one_over_n_minus_one(d):
    q = negate(d)
    assert q.n == d.n
    assert all(0.0 <= x <= 1.0 / (d.n - 1) for x in q.probs)
    assert abs(math.fsum(q.probs) - 1.0) <= SUM_TOLERANCE


@SETTINGS
@given(distributions(max_n=200), st.integers(0, 40))
def test_negate_k_matches_k_explicit_negations(d, k):
    explicit = d
    for _ in range(k):
        explicit = negate(explicit)
    closed = negate_k(d, k)
    assert max(abs(a - b) for a, b in zip(closed.probs, explicit.probs)) <= 1e-12


@SETTINGS
@given(st.floats(0.0, 1.0), st.integers(1, 10**400))
def test_two_outcome_negate_k_depends_on_the_parity_of_k_alone(p, k):
    d = make_distribution([p, 1.0 - p])
    assert negate_k(d, k) == negate_k(d, 2 - k % 2)


@SETTINGS
@given(distributions())
def test_distribution_majorizes_its_negation(d):
    assert majorizes(d, negate(d))


def flat(*dists):
    """The distributions as flat rows and their layout."""
    return np.array([x for d in dists for x in d.probs]), Rows([d.n for d in dists])


# Trial indices up to the largest that pcg64_seeds takes, 2**32 - 1, the
# last one SeedSequence takes as one word.
TRIAL_INDICES = st.one_of(st.sampled_from([0, 2**32 - 1]), st.integers(0, 2**32 - 1))


# Row sizes either side of the cutoff between the jumped outputs and
# random_raw, small ones, and any up to 10^4.
SAMPLE_NS = st.one_of(st.integers(2, 12),
                      st.integers(JUMP_MAX_N - 3, JUMP_MAX_N + 3),
                      st.integers(2, 10_000))


@SETTINGS
@given(st.integers(0, 2**64 - 1),
       st.lists(st.tuples(SAMPLE_NS, TRIAL_INDICES, st.integers(1, 3)), min_size=1, max_size=4))
def test_batched_samples_are_bitwise_equal_to_the_sampler(seed, draws):
    # A count above 1 gives rows of one n, which sample_rows sums as a matrix.
    trials = [(n, (t + j) % 2**32) for n, t, count in draws for j in range(count)]
    rows = Rows([n for n, _ in trials])
    got = sample_rows(batch.pcg64_seeds(seed, rows.ns, [t for _, t in trials]), rows).tolist()
    for (n, t), row in zip(trials, rows.slices(np.arange(len(rows)))):
        want = sample_uniform_simplex(SimplexSamplerConfig(seed, n, t + 1), t).probs
        assert [x.hex() for x in got[row]] == [x.hex() for x in want]


# The least positive gap, from u = 2**-53, and the largest, from u = 1 - 2**-53:
# every gap exponential_rows gives is +0.0 or between them.
SMALLEST_GAP = 0.0 - math.log(1.0 - 2.0**-53)
LARGEST_GAP = 0.0 - math.log(2.0**-53)
# How the gaps that are neither zero nor the largest are spread: as sampled,
# log-uniformly over the whole range, uniformly, or all the least gap.
GAP_KINDS = ("sampled", "log-uniform", "uniform", "smallest")
# The bound the proofs in sample_rows' and TrialChunk's docstrings give on
# |fsum - 1|, for a sample and for its negation, about 3 and 6 units of
# 2**-53, rounded to the number of units a row may show.
SUM_ERROR_BOUND = 4 * 2.0**-53


def gap_row(n, zeros, largest, kind, seed):
    """n gaps in an order drawn from seed: zeros (at most n - 1 of them),
    copies of the largest gap (at most the rest), and the others by kind."""
    rng = np.random.default_rng(seed)
    zeros = min(zeros, n - 1)
    largest = min(largest, n - zeros)
    size = n - zeros - largest
    if kind == "sampled":
        rest = 0.0 - np.log(1.0 - rng.integers(1, 2**53, size) * 2.0**-53)
    elif kind == "log-uniform":
        rest = np.exp(rng.uniform(math.log(SMALLEST_GAP), math.log(LARGEST_GAP), size))
    elif kind == "uniform":
        rest = rng.uniform(SMALLEST_GAP, LARGEST_GAP, size)
    else:
        rest = np.full(size, SMALLEST_GAP)
    rest = np.clip(rest, SMALLEST_GAP, LARGEST_GAP)
    return rng.permutation(np.concatenate([np.zeros(zeros), np.full(largest, LARGEST_GAP), rest]))


GAP_ROWS = st.lists(st.tuples(st.one_of(st.integers(2, 12), st.integers(2, 10_000),
                                        st.sampled_from([2, 3, 10_000])),
                              st.one_of(st.sampled_from([0, 1, 10_000]), st.integers(0, 10_000)),
                              st.one_of(st.sampled_from([0, 1, 10_000]), st.integers(0, 10_000)),
                              st.sampled_from(GAP_KINDS), st.integers(0, 2**32 - 1)),
                    min_size=1, max_size=4)


@settings(max_examples=150, deadline=None, database=None)
@given(GAP_ROWS)
@example([(10_000, 0, 1, "smallest", 0)])  # one gap of 53 ln 2, the rest the least gap
@example([(10_000, 10_000, 0, "smallest", 1), (2, 1, 1, "sampled", 2)])  # vertices
@example([(2, 0, 2, "sampled", 3), (3, 0, 3, "sampled", 4)])  # uniform rows
@example([(10_000, 0, 0, "log-uniform", 5), (9_999, 5_000, 3, "uniform", 6)])
def test_samples_and_their_negations_need_no_check_on_any_gap_row(gap_rows):
    # Any row of gaps exponential_rows could give, renormalised by
    # sample_rows and negated by TrialChunk, passes every check of
    # make_distribution with room to spare: entries in [0, 1] and a sum
    # within a few units of 2**-53 of 1, not just 1e-9. Each row is also
    # the scalar path's, bit for bit.
    rows = [gap_row(*drawn) for drawn in gap_rows]
    gaps = np.concatenate(rows)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(batch, "exponential_rows", lambda *_: gaps.copy())
        chunk = batch.TrialChunk(None, [len(row) for row in rows])
    for gaps_of_row, at in zip(rows, chunk.rows.slices(np.arange(len(rows)))):
        p, q = chunk.p[at], chunk.negated[at]
        for x in p, q:
            assert 0.0 <= x.min() and x.max() <= 1.0
            assert abs(math.fsum(x.tolist()) - 1.0) <= SUM_ERROR_BOUND
        want = make_distribution(gaps_of_row.tolist(), renormalize=True)
        assert list(map(float.hex, p.tolist())) == list(map(float.hex, want.probs))
        assert list(map(float.hex, q.tolist())) == list(map(float.hex, negate(want).probs))


@pytest.mark.parametrize("gap", [SMALLEST_GAP, LARGEST_GAP])
@pytest.mark.parametrize("n", [2, 3, JUMP_MAX_N + 1, 10_000])
def test_a_row_of_one_nonzero_gap_is_a_vertex_and_its_negation(monkeypatch, n, gap):
    # The proofs' edge: a total equal to its one gap gives p = 1.0 exactly,
    # so 1 - p is +0.0, and every other entry of the negation is 1/(n - 1).
    gaps = np.zeros(n)
    gaps[n // 2] = gap
    monkeypatch.setattr(batch, "exponential_rows", lambda *_: gaps.copy())
    chunk = batch.TrialChunk(None, [n])
    p, q = [0.0] * n, [1.0 / (n - 1)] * n
    p[n // 2], q[n // 2] = 1.0, 0.0
    assert list(map(float.hex, chunk.p.tolist())) == list(map(float.hex, p))
    assert list(map(float.hex, chunk.negated.tolist())) == list(map(float.hex, q))


# Entries fsum treats apart: signed zeros, subnormals, the smallest
# normal; and entries it passes through or raises on.
SUM_SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.0**-1022, -2.0**-1022, 1.0, -3.0]
SUM_BAD = [math.inf, -math.inf, math.nan, 1e308, -1e308]


@st.composite
def sum_rows(draw):
    """A row of floats to sum: a near tie (x, an odd multiple of ulp(x)/2
    below x, and at times a tiny tail or a zero), special values with
    mixed signs, or n up to 10^4 entries of random sign spread over up to
    120 binades below a random scale (either side of the extraction
    window), at times with every entry negated too (an exact zero sum).
    One row in ten holds inf, nan or 1e308."""
    kind = draw(st.integers(0, 3))
    if kind == 0:
        x = draw(st.floats(-1e300, 1e300).filter(bool))
        odd = draw(st.sampled_from([1.0, -1.0])) * (2 * draw(st.integers(2**49, 2**50)) + 1)
        tail = draw(st.sampled_from([0.0, 1.0, -1.0])) * 2.0 ** -draw(st.integers(1, 80))
        row = [x, odd * math.ulp(x) / 2, tail * math.ulp(x)]
    elif kind == 1:
        row = draw(st.lists(st.sampled_from(SUM_SPECIALS) | st.floats(allow_nan=False),
                            min_size=1, max_size=12))
    else:
        n = draw(st.integers(1, 12) if kind == 2 else st.integers(1, 10_000))
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        scale, spread = draw(st.integers(-1080, 1000)), draw(st.integers(0, 120))
        row = [rng.choice((-1.0, 1.0)) * rng.random() * 2.0 ** (scale - rng.randint(0, spread))
               for _ in range(n)]
        if draw(st.booleans()):
            row += [-x for x in row]
    if draw(st.integers(0, 9)) == 0:
        row.insert(draw(st.integers(0, len(row))), draw(st.sampled_from(SUM_BAD)))
    return row


def sum_bits(x):
    """x's bits as text, its sign of zero included."""
    return x.hex(), math.copysign(1.0, x)


@SETTINGS
@given(st.lists(sum_rows(), min_size=1, max_size=5))
@example([[1.0, 0.5 + 2.0**-53]])  # a tie, rounded down to even
@example([[1.0 + 2.0**-52, 0.5 + 2.0**-53]])  # a tie, rounded up to even
@example([[1.0, 0.5 + 2.0**-53, 2.0**-130]])  # just above a tie
@example([[1.0, 2.0**-53, 2.0**-80, 2.0**-132 - 2.0**-80]])  # a tie, and a tail past it up
@example([[1.0 + 2.0**-52, 2.0**-53, -2.0**-80, 2.0**-80 - 2.0**-132]])  # and down
@example([[-0.0, -0.0], [0.0, -0.0], [1.0, -1.0]])
@example([[1.0, 5e-324], [2.0**-1022, -2.0**-1023]])
@example([[1.0, 2.0], [math.inf, -math.inf], [1e308, 1e308]])  # fsum raises on row 1
@example([[1.0, 2.0], [1e308, 1e308, -1e308], [math.inf, -math.inf]])
@example([[math.nan, 1.0], [math.inf, 1.0], [-math.inf, 1e308]])
def test_row_sums_are_fsum_of_each_row_bit_for_bit(entries):
    rows = Rows([len(row) for row in entries])
    values = np.array([x for row in entries for x in row])
    want = []
    try:
        for row in entries:
            want.append(math.fsum(row))
    except (OverflowError, ValueError) as error:
        with pytest.raises(type(error), match=f"^{re.escape(str(error))}$"):
            rows.fsums(values)
        return
    assert list(map(sum_bits, rows.fsums(values).tolist())) == list(map(sum_bits, want))


@pytest.mark.parametrize("row, extracted", [
    ([1.0, 2.0**-51], True),  # the one-level window's floor, 2**(k + b - 54)
    ([1.0, 2.0**-52], True),  # below it: the second level extracts it
    ([1.0, 2.0**-102], True),  # sum(|x|) < 2, so k = 2, b = 1, j = -49: the floor is 2**-102
    ([1.0, 0.5 + 2.0**-53], True),  # a tie, rounded down to even
    ([1.0 + 2.0**-52, 0.5 + 2.0**-53], True),  # a tie, rounded up to even
    ([1.0, 2.0**-53, 2.0**-80, 2.0**-132 - 2.0**-80], True),  # a tie, and a tail past it
    ([1.0, 2.0**-103], False),  # below the window
    ([0.75, 0.0, -2.0**-50], True),  # zeros do not count
    ([1.0, 5e-324], False),
    ([2.0**-960, 5e-324], False),  # a subnormal below the window
    ([2.0**-1000, 5e-324], True),  # j = -1050: the floor 2**(j + b - 54) is below 2**-1074
    ([2.0**-1030, 5e-324], True),  # j = -1080: 2**j is 0.0, and every lo part is 0.0
    ([2.0**-1060, -5e-324], True),  # subnormals inside it: 2**(j + b - 106) < 2**-1074
    ([2.0**998, 2.0**997], True),
    ([2.0**998, 2.0**998], False),  # sum(|x|) reaches 2**999
    ([1.0, -1.0], False),  # a zero sum keeps fsum's sign of zero
    ([1.0, math.inf], False),
])
def test_row_sums_fall_back_to_fsum_outside_the_window(monkeypatch, row, extracted):
    summed = []
    monkeypatch.setattr(batch, "fsum", lambda entries: summed.append(1) or math.fsum(entries))
    got = Rows([len(row)]).fsums(np.array(row)).tolist()
    assert sum_bits(got[0]) == sum_bits(math.fsum(row))
    assert summed == ([] if extracted else [1])


@st.composite
def mixed_calls(draw):
    """The rows of one ``Rows.fsums`` call, of mixed magnitudes: up to 40
    rows of 1..64 entries, each row scaled by its own 2**e, e in -80..80
    (within 0, 8, 32 or all 160 binades of the call's lowest), its entries
    spread over up to 60 binades below that; some rows hold zeros,
    subnormals and special values. Entries take both signs and, at times,
    cancel in pairs. One call in ten holds inf, nan or 1e308 in some row."""
    low = draw(st.integers(-80, 80))
    high = min(80, low + draw(st.sampled_from([0, 8, 32, 160])))
    rows = []
    for _ in range(draw(st.integers(1, 40))):
        n, e = draw(st.integers(1, 64)), draw(st.integers(low, high))
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        spread, special = rng.choice((0, 10, 60)), rng.choice((0.0, 0.1))
        row = []
        for _ in range(n):
            kind = rng.random()
            if kind < special / 2:
                row.append(rng.choice(SUM_SPECIALS))
            elif kind < special:
                row.append(math.ldexp(rng.choice((-1, 1)) * rng.randint(1, 2**52), -1074))
            else:
                row.append(rng.choice((-1.0, 1.0)) * rng.random()
                           * 2.0 ** (e - rng.randint(0, spread)))
        if rng.random() < 0.3:  # cancel a random part of the row
            row += [-x for x in row if rng.random() < 0.5]
        rows.append(row)
    if draw(st.integers(0, 9)) == 0:
        row = draw(st.sampled_from(rows))
        row.insert(draw(st.integers(0, len(row))), draw(st.sampled_from(SUM_BAD)))
    return rows


@SETTINGS
@given(mixed_calls())
def test_row_sums_of_mixed_magnitudes_in_one_call_are_fsum_bit_for_bit(entries):
    # The call's split point comes from the call's sum(|x|), so a small row
    # beside large ones is split far above its own magnitude.
    rows = Rows([len(row) for row in entries])
    values = np.array([x for row in entries for x in row])
    want = []
    try:
        for row in entries:
            want.append(math.fsum(row))
    except (OverflowError, ValueError) as error:
        with pytest.raises(type(error), match=f"^{re.escape(str(error))}$"):
            rows.fsums(values)
        return
    assert list(map(sum_bits, rows.fsums(values).tolist())) == list(map(sum_bits, want))


@pytest.mark.parametrize("entries, second_level, to_fsum", [
    # Call sum(|x|) near 4: k = 4, b = 2, so the first level's floor is
    # 2**-48 and the second's 2**-98. Row 1 reaches the second level and
    # is exact there, its sum a tie at 2**-60 * (3.5 + 2**-52).
    ([[1.0, 1.0, 1.0, 1.0], [2.0**-60, 3 * 2.0**-61, 2.0**-60 + 2.0**-112]], True, []),
    ([[1.0, 1.0, 1.0, 1.0], [2.0**-48, -2.0**-47]], False, []),  # on the first floor
    ([[1.0, 1.0, 1.0, 1.0], [2.0**-49, -2.0**-47]], True, []),  # just below it
    ([[1.0], [1.0, 1.0, 1.0, 2.0**-49]], True, []),  # b is the longest row's, not the first's
    # k = 5, b = 3: floors 2**-46 and 2**-95. Row 1 needs the second level
    # and sits on its floor.
    ([[1.0] * 8, [2.0**-20, 2.0**-95]], True, []),
    # Same call, but 2**-96 is below the second level's floor: row 1 goes
    # to fsum, though its own sum(|x|) would put it in a window.
    ([[1.0] * 8, [2.0**-30, 2.0**-96]], True, [1]),
    # A zero sum goes to fsum for its sign, in a call that is otherwise exact.
    ([[1.0, 2.0**-60], [1.0, -1.0], [-0.0, -0.0], [3.0]], True, [1, 2]),
    # Each row's sum(|x|) is below 2**999, the call's is not: fsum sums
    # every row.
    ([[2.0**998], [2.0**998]], False, [0, 1]),
    # An inf anywhere: fsum sums every row, in order.
    ([[1.0, 2.0], [math.inf, 1.0], [3.0]], False, [0, 1, 2]),
])
def test_row_sums_of_a_mixed_call_fall_back_to_fsum_by_row(monkeypatch, entries, second_level,
                                                           to_fsum):
    summed, two_sums = [], []
    two_sum = batch._two_sum  # taken by the second level alone
    monkeypatch.setattr(batch, "_two_sum", lambda x, y: two_sums.append(1) or two_sum(x, y))
    monkeypatch.setattr(batch, "fsum", lambda row: summed.append(list(row)) or math.fsum(row))
    rows = Rows([len(row) for row in entries])
    got = rows.fsums(np.array([x for row in entries for x in row])).tolist()
    assert list(map(sum_bits, got)) == [sum_bits(math.fsum(row)) for row in entries]
    assert bool(two_sums) == second_level
    assert summed == [entries[i] for i in to_fsum]


def exactness_bound_calls(seed, count):
    """Calls of two rows aimed at the edge of ``Rows.fsums``' first window.
    The second row is one entry in [2**(k - 2), 1.5 * 2**(k - 2)), so the
    call's sum(|x|) is in [2**(k - 2), 2**(k - 1)) and its split point is
    2**k. The first row has 2**b - 1 entries (4m + 1) * 2**(k - 54) of one
    sign, each at least the window's floor 2**(k + b - 54) and each with a
    lo part of 2**(k - 54), and one entry of the same sign in
    [2**(k + b - 55), 2**(k + b - 54)) with a random odd significand: just
    below the floor, so only the second level sums that row exactly."""
    rng = random.Random(seed)
    for _ in range(count):
        b, k, sign = rng.randint(1, 3), rng.randint(-900, 900), rng.choice((-1.0, 1.0))
        m_min = -(-(2**b - 1) // 4)  # (4m + 1) >= 2**b
        row = [sign * math.ldexp(4 * rng.randint(m_min, m_min + 3) + 1, k - 54)
               for _ in range(2**b - 1)]
        odd = 2**52 + 2 * rng.randrange(2**51) + 1
        row.insert(rng.randint(0, len(row)), sign * math.ldexp(odd, k + b - 55 - 52))
        yield [row, [math.ldexp(1.0 + rng.random() / 2, k - 2)]]


def test_row_sums_at_the_first_windows_floor_are_fsum_bit_for_bit():
    # A floor one binade lower, or b one less, puts the odd entry in the
    # first window, where its row's lo parts pass 2**53 units and round:
    # about 3 % of these calls then give a wrong row.
    for entries in exactness_bound_calls(23, 2_000):
        rows = Rows([len(row) for row in entries])
        got = rows.fsums(np.array([x for row in entries for x in row])).tolist()
        assert list(map(sum_bits, got)) == [sum_bits(math.fsum(row)) for row in entries]


def test_trial_rows_are_summed_without_the_fsum_fallback(monkeypatch):
    # A silent slow path would keep the reports and lose the speed: the
    # default check, full chunks shaped as check-small-n's (n = 2..8) and
    # trials at n near 10^4 as check-large-n's sum every row by extraction.
    from negprob import check_all, claims

    # A default check measures its probes with the scalar run sums, never
    # with Rows.fsums, so a cold check sums only its one chunk of 1,000
    # trials, 9 times, as a warm one does.
    slow, rows_summed = [], []
    fsums = Rows.fsums
    monkeypatch.setattr(batch, "fsum", lambda entries: slow.append(1) or math.fsum(entries))
    monkeypatch.setattr(Rows, "fsums",
                        lambda rows, values: rows_summed.append(len(rows)) or fsums(rows, values))
    claims._probe_fold.cache_clear()
    check_all()
    assert rows_summed == [1_000] * 9
    check_all()
    assert rows_summed[9:] == [1_000] * 9
    del rows_summed[9:]
    # check-large-n's claims draw one trial a chunk and take no probes.
    check_all(trials=4, n_range=(9000, 10_000), claim_ids=["C1", "C2", "C3", "C4", "C5", "C6"])
    assert rows_summed[9:] == [1] * 36
    del rows_summed[9:]
    trial_rows = 0
    for seed in (1, 9001, 2**64 - 1):
        for chunk in [*batch.trial_chunks(seed, 4_700, 2, 8),
                      *batch.trial_chunks(seed, 8, 9000, 10_000)]:
            for kind in ("p", "negated"):
                chunk.measures(kind)
            trial_rows += len(chunk.rows)
    # A chunk's rows are summed once for the sample and 4 times for the
    # measures of each of p and its negation.
    assert sum(rows_summed) == 9_000 + 9 * trial_rows and slow == []


# The log kernels measure_rows may run: the one the guard chose on this
# machine, and math.log entry by entry, its fallback.
LOG_KERNELS = pytest.mark.parametrize("kernel", [log_kernel, math_logs],
                                      ids=["chosen", "math_log"])


@LOG_KERNELS
@SETTINGS
@given(dists=st.lists(distributions(), min_size=1, max_size=3))
def test_batched_measures_are_bitwise_equal_to_measure_all(kernel, dists):
    dists += [negate(d) for d in dists]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(batch, "log_kernel", kernel)
        columns = measure_rows(*flat(*dists))
    for i, d in enumerate(dists):
        ms = measure_all(d)
        assert [c[i].hex() for c in map(lambda c: c.tolist(), columns)] == [
            ms.H.hex(), ms.VH.hex(), ms.VJ.hex()]


@LOG_KERNELS
def test_batched_measures_equal_measure_all_on_many_small_rows(monkeypatch, kernel):
    # numpy's SIMD log differs from math.log in the last bit on about 0.4 %
    # of inputs, which moves a sum of few terms; 6,000 small rows catch it
    # where a few dozen hypothesis examples need not.
    monkeypatch.setattr(batch, "log_kernel", kernel)
    rng = random.Random(1)
    dists = [make_distribution([rng.random() for _ in range(rng.randint(2, 6))],
                               renormalize=True) for _ in range(3000)]
    dists += [negate(d) for d in dists]
    columns = [c.tolist() for c in measure_rows(*flat(*dists))]
    assert list(zip(*columns)) == [(m.H, m.VH, m.VJ) for m in map(measure_all, dists)]


def test_the_guard_rejects_a_kernel_one_ulp_off_on_a_witness_entry(monkeypatch):
    witness = LOG_WITNESS_HEAD[0]

    def one_ulp_off(x):
        out = math_logs(x)
        hit = x == witness
        out[hit] = np.nextafter(out[hit], np.inf)
        return out

    assert guarded_logs(one_ulp_off) is math_logs
    values, rows = np.array([witness, 1.0 - witness]), Rows([2])

    def measured(kernel):
        monkeypatch.setattr(batch, "log_kernel", kernel)
        return [[x.hex() for x in column.tolist()] for column in measure_rows(values, rows)]

    assert measured(guarded_logs(one_ulp_off)) == measured(math_logs)
    assert measured(one_ulp_off) != measured(math_logs)  # the row shows the ulp


def test_the_guard_takes_the_strided_path_exactly_when_its_bits_are_math_logs():
    # No assumption about this CPU: its contiguous np.log may agree with
    # math.log everywhere, and the strided path may not.
    head = LOG_WITNESS_HEAD.tolist()
    assert {5e-324, 0.5, 1.0, float.fromhex("0x1.3c56175d4f3c4p-3"),
            float.fromhex("0x1.fda00b1de131ap-1"),
            float.fromhex("0x1.ddd1ef95b1f48p-2")} <= set(head)
    assert any(1.0 - 2.0**-20 < x < 1.0 for x in head)
    # The same inputs on every call, a full chunk of them past numpy's
    # 8192-entry buffer, of every kind: uniform, 1 - tiny, p**2, subnormals.
    witness = log_witness().tolist()
    assert log_witness().tolist() == witness and witness[:len(head)] == head
    spread = np.array(witness[len(head):])
    assert len(spread) == CHUNK_ENTRIES > 8192
    assert (spread > 0.0).all() and (spread <= 1.0).all()
    assert len(set(spread.tolist())) > 15_000
    assert ((spread > 0.1) & (spread < 0.9)).sum() > 4000
    assert ((spread > 1.0 - 2.0**-40) & (spread < 1.0)).sum() > 200
    assert ((spread > 2.0**-100) & (spread < 2.0**-10)).sum() > 40
    assert (spread < 2.0**-1022).sum() > 3900 and (spread < 2.0**-1070).sum() > 200
    agrees = all([x.hex() for x in strided_logs(np.array(xs)).tolist()]
                 == [math.log(x).hex() for x in xs] for xs in (head, witness))
    assert guarded_logs(strided_logs) is (strided_logs if agrees else math_logs)
    assert log_kernel is guarded_logs(strided_logs)


@pytest.mark.parametrize("long, at", [
    (True, -1),  # a spread subnormal
    (True, len(LOG_WITNESS_HEAD) + 6000),  # a spread 1 - tiny
    (False, 3),  # a head entry
], ids=["long-last", "long-middle", "short"])
def test_the_guard_rejects_a_kernel_one_ulp_off_on_one_entry_at_one_length(long, at):
    # Another SIMD kernel would differ on points of its own, and numpy may
    # dispatch long and short arrays apart: the guard must see both.
    def one_ulp_off(x):
        out = math_logs(x)
        if (len(x) > 8192) == long:
            out[at] = np.nextafter(out[at], -np.inf)
        return out

    assert guarded_logs(one_ulp_off) is math_logs
    assert guarded_logs(math_logs) is math_logs


def test_the_chosen_log_kernel_is_math_log_bit_for_bit_on_a_wide_sweep():
    # The witness decides the path; this sweeps the inputs the measures
    # see, over row lengths 1 to 17 and 16,385, with the integer view, so
    # that -0.0 and nan would compare exactly.
    rng = np.random.default_rng(20_251)
    size = 250_000
    x = np.concatenate([
        rng.random(size),
        1.0 - rng.random(size) * np.ldexp(1.0, -rng.integers(1, 53, size)),
        rng.standard_exponential(size) / 1e4,
        rng.random(size) * 2.0**-1022,
    ])
    x[x == 0.0] = 1.0
    want = math_logs(x).view(np.int64)
    assert np.array_equal(log_kernel(x).view(np.int64), want)
    for n in [*range(1, 18), 16_385]:
        for at in range(0, len(x) - n, 97 * n if n < 18 else n):
            got = log_kernel(x[at:at + n].copy()).view(np.int64)
            assert np.array_equal(got, want[at:at + n]), (n, at)


def chunk_ns_trial_by_trial(trials, n_min, n_max):
    """Each chunk's (t0, ns) as trial_chunks once built them, one trial at a
    time: the reference for its columnar form."""
    chunks, t0 = [], 0
    while t0 < trials:
        ns, entries = [], 0
        for t in range(t0, trials):
            n = n_min + t % (n_max - n_min + 1)
            if ns and entries + n > CHUNK_ENTRIES:
                break
            ns.append(n)
            entries += n
        chunks.append((t0, ns))
        t0 += len(ns)
    return chunks


@SETTINGS
@given(st.integers(1, 30_000), st.integers(2, 10_000), st.integers(0, 10_000))
@example(9000, 2, 0)  # 8192 trials of n = 2 fill a chunk exactly
@example(1200, 2, 58)  # chunk boundaries mid-period, n wrapping inside chunks
@example(5, CHUNK_ENTRIES // 2, 0)  # two trials fill a chunk exactly
@example(7, CHUNK_ENTRIES // 2 + 1, 10_000)  # one trial per chunk
@example(4, 9_998, 2)
@example(3, CHUNK_ENTRIES + 5, 0)  # a trial larger than a chunk
@example(400, 2, 9_998)  # the wrap from n = 10^4 back to 2
def test_chunk_layout_and_rows_equal_their_python_references(trials, n_min, span):
    n_max = n_min + span
    trials = min(trials, 40 * CHUNK_ENTRIES // (n_min + span // 2) + 1)  # about 40 chunks
    with pytest.MonkeyPatch.context() as patch:  # the layout alone, with no draws
        patch.setattr(batch, "pcg64_seeds", lambda seed, ns, ts: np.zeros((4, len(ts)), np.uint64))
        patch.setattr(batch, "TrialChunk", lambda streams, ns: ns)
        chunks = list(batch.trial_chunks(0, trials, n_min, n_max))
    t0s = [0, *accumulate(map(len, chunks))][:-1]
    chunks = list(zip(t0s, chunks))
    assert [(t0, ns.tolist()) for t0, ns in chunks] == chunk_ns_trial_by_trial(
        trials, n_min, n_max)
    if n_min > CHUNK_ENTRIES // 2:
        assert all(len(ns) == 1 for _, ns in chunks)
    for _, ns in chunks:
        rows, ns = Rows(ns), ns.tolist()
        ends = list(accumulate(ns))
        starts = [0, *ends[:-1]]
        assert rows.starts.tolist() == starts
        assert rows.slices(np.arange(len(ns))) == list(map(slice, starts, ends))


class ListInequality(_Inequality):
    def trials(self, chunk) -> None:
        """The fold as it was, over lists in a Python loop: the reference."""
        field = _MEASURE_FIELD[self.claim.id]
        lhs = chunk.measures("negated")[field]
        rhs = chunk.measures("p")[field]
        self.min_margin = min(self.min_margin, *(lhs - rhs).tolist())
        violated = (lhs < rhs - self.tolerance).tolist()
        if self.claim.id != "C1":
            for n, reversed_ in zip(chunk.n.tolist(), (lhs <= rhs).tolist()):
                if n >= 3:
                    self.reversible += 1
                    self.reversed += reversed_
        if self.counterexample is None and True in violated:
            i = violated.index(True)
            self._violation(chunk.probs(i), float(lhs[i]), float(rhs[i]))


class ListMaximizer(_Maximizer):
    def _points(self, value, bound, probs) -> None:
        """The fold as it was, over lists: the reference."""
        value, bound = value.tolist(), bound.tolist()
        excess = [v - b for v, b in zip(value, bound)]
        top = max(excess)
        peak = excess.index(top)
        if self.peak is None or top > self.peak[0]:
            self.peak = (top, float(value[peak]), probs(peak))
        else:
            peak = None
        if self.counterexample is None:
            over = [x > self.tolerance for x in excess]
            if True in over:
                i = over.index(True)
                self.counterexample = Counterexample(
                    self.peak[2] if i == peak else probs(i),
                    float(value[i]), float(bound[i]), excess[i]
                )


# Values that tie and zeros of both signs, beside any float.
FOLD_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0]), st.floats(-2.0, 2.0))


@st.composite
def fold_chunks(draw):
    """The columns of one chunk: n, lhs (negated measure) and rhs, of one
    to six trials."""
    size = draw(st.integers(1, 6))
    column = st.lists(FOLD_FLOATS, min_size=size, max_size=size)
    return (draw(st.lists(st.integers(2, 5), min_size=size, max_size=size)),
            draw(column), draw(column))


def fake_chunk(k, columns):
    ns, lhs, rhs = map(np.array, columns)
    return types.SimpleNamespace(
        n=ns, probs=lambda i: ("chunk", k, i),
        reversible=(ns >= 3, int((ns >= 3).sum())),
        measures={"negated": {"H": lhs, "VH": lhs}, "p": {"H": rhs, "VH": rhs}}.__getitem__)


@SETTINGS
@given(st.lists(fold_chunks(), min_size=1, max_size=4), st.sampled_from([1e-9, 0.5]))
@example([([3, 3], [0.0, -0.0], [0.0, 0.0])], 1e-9)  # margins 0.0, -0.0
@example([([3, 3], [-0.0, 0.0], [0.0, 0.0])], 1e-9)  # margins -0.0, 0.0
@example([([2], [0.0], [0.0]), ([2], [-0.0], [0.0])], 1e-9)
@example([([2, 4, 3], [0.0, 1.0, 1.0], [1.0, 1.0, 1.0])], 1e-9)  # first
@example([([4, 2, 3], [1.0, 1.0, 0.0], [1.0, 1.0, 1.0])], 1e-9)  # last
@example([([2, 3], [2.0, 2.0], [1.0, 1.0]),
          ([5, 2], [2.0, 3.0], [1.0, 2.0])], 0.5)  # ties within and across
def test_columnar_folds_equal_the_list_folds(chunks, tolerance):
    # vars() holds every running value; repr tells -0.0 from 0.0 and a
    # numpy scalar from a float.
    for claim_id in ("C1", "C2"):
        got, want = _Inequality(claim_by_id(claim_id), tolerance), ListInequality(
            claim_by_id(claim_id), tolerance)
        for k, columns in enumerate(chunks):
            got.trials(fake_chunk(k, columns))
            want.trials(fake_chunk(k, columns))
            assert repr(vars(got)) == repr(vars(want))
        assert repr(got.observed()) == repr(want.observed())
    got, want = _Maximizer(claim_by_id("C8"), tolerance), ListMaximizer(
        claim_by_id("C8"), tolerance)
    for k, (_, lhs, rhs) in enumerate(chunks):
        for tally in got, want:
            tally._points(np.array(lhs), np.array(rhs), lambda i, k=k: ("chunk", k, i))
        assert repr(vars(got)) == repr(vars(want))
    assert repr(got.observed()) == repr(want.observed())


class ReferenceMaximizer(_Maximizer):
    """The maximizer fold as it was before ``_run`` built bound tables, kept
    as the reference: each n's probes and each chunk reach ``_points``
    through ``probes`` and ``trials``, which look the bound up per n."""

    def bound(self, n: int, negated_uniform) -> float:
        """The claimed maximum at n; negated_uniform[n] measures negate(uniform(n))."""
        field = _MEASURE_FIELD[self.claim.id]
        return math.log(n) if field == "H" else getattr(negated_uniform[n], field)

    def probes(self, n, points, values, negated_uniform) -> None:
        field = _MEASURE_FIELD[self.claim.id]
        value = np.array([getattr(after, field) for after in values])
        bound = np.full(len(points), self.bound(n, negated_uniform))
        self._points(value, bound, lambda i: tuple(
            chain.from_iterable(repeat(v, c) for v, c in points[i])))

    def trials(self, chunk, negated_uniform) -> None:
        value = chunk.measures("negated")[_MEASURE_FIELD[self.claim.id]]
        bound = reference_per_n(chunk, lambda n: self.bound(n, negated_uniform))
        self._points(value, bound, chunk.probs)


def reference_per_n(chunk, value):
    """value(n) for each trial of n, looked up in a table of the chunk's n."""
    sizes = np.unique(chunk.n)  # rising
    table = np.array([value(n) for n in sizes.tolist()])
    return table[np.searchsorted(sizes, chunk.n)]


MEASURE_TRIPLES = st.tuples(FOLD_FLOATS, FOLD_FLOATS, FOLD_FLOATS)  # H, VH, VJ


@st.composite
def maximizer_inputs(draw):
    """An n range of one to four sizes, the measures of one to three probe
    points for each n (the first standing for negate(uniform(n))), and
    one to three chunks of one to five trials of any n in the range, so
    a chunk's n may wrap."""
    n_min = draw(st.integers(2, 4))
    n_max = n_min + draw(st.integers(0, 3))
    probes = {n: draw(st.lists(MEASURE_TRIPLES, min_size=1, max_size=3))
              for n in range(n_min, n_max + 1)}
    chunks = []
    for _ in range(draw(st.integers(1, 3))):
        size = draw(st.integers(1, 5))
        chunks.append((draw(st.lists(st.integers(n_min, n_max), min_size=size, max_size=size)),
                       draw(st.lists(MEASURE_TRIPLES, min_size=size, max_size=size))))
    return n_min, n_max, probes, chunks


def fake_maximizer_chunk(k, ns, triples):
    rows = Rows(ns)
    columns = dict(zip(("H", "VH", "VJ"), np.array(triples, dtype=float).T))
    return types.SimpleNamespace(n=rows.ns, rows=rows, probs=lambda i: ("chunk", k, i),
                                 measures={"negated": columns}.__getitem__)


def fake_probes(probes):
    """``_probe_measures`` for the n whose probes are the triples probes[n]:
    the bounds of n are ln n and the VH and VJ of its first triple."""
    def per_n(n):
        return (math.log(n), *probes[n][0][1:]), list(chain(*probes[n]))
    return per_n


@SETTINGS
@given(maximizer_inputs(), st.sampled_from([1e-9, 0.5]))
# Ties across n: VH excess 1.0 at n = 2 and at n = 3; the n = 2 probe stays the peak.
@example((2, 3, {2: [(0.0, 0.0, 0.0), (0.0, 1.0, 1.0)], 3: [(0.0, 0.0, 0.0), (0.0, 1.0, 1.0)]},
          [([3, 2], [(0.0, 0.5, 0.5), (0.0, 0.5, 0.5)])]), 0.5)
# Ties across the probe/trial boundary: a trial equals the probe peak.
@example((3, 3, {3: [(0.0, 0.0, 0.0), (0.0, 1.0, -1.0)]},
          [([3], [(1.0, 1.0, -1.0)]), ([3, 3], [(0.0, 1.0, 0.0), (0.0, -1.0, 1.0)])]), 1e-9)
# A violation among the probes, then a larger one among the trials.
@example((2, 2, {2: [(0.5, 0.5, 0.5), (1.0, 1.0, 1.0)]},
          [([2, 2], [(0.0, 0.0, 0.0), (2.0, 2.0, 2.0)])]), 0.5)
# A chunk whose n wraps from n_max to n_min, with the bounds of each n apart.
@example((2, 4, {2: [(0.0, 0.0, -1.0)], 3: [(0.0, 0.5, 0.0)], 4: [(0.0, 1.0, 1.0)]},
          [([3, 4, 2, 3], [(1.5, 1.2, 0.5), (1.5, 1.2, 0.5), (1.5, 1.2, 0.5), (2.0, 2.0, 2.0)])]),
         0.5)
def test_maximizer_fold_with_bound_tables_equals_the_per_n_fold(inputs, tolerance):
    from negprob import claims

    n_min, n_max, probes, chunks = inputs
    trials = sum(len(ns) for ns, _ in chunks)
    measured = {("probe", n, j): types.SimpleNamespace(H=h, VH=vh, VJ=vj)
                for n, triples in probes.items() for j, (h, vh, vj) in enumerate(triples)}

    # The n just outside the range each have a probe that would be the peak
    # and the first violation of every claim, were it folded, and bounds
    # that would shift the probes' and the trials' if they were read.
    poisoned = {n: [(0.0, -1.0, -1.0), (1e300, 1e300, 1e300)] for n in (n_min - 1, n_max + 1)}
    every = {**poisoned, **probes}

    def probe_points(n):  # each probe is one run of one token
        return [[(("probe", n, j), 1)] for j in range(len(every[n]))]

    def fake_chunks(*args):
        return (fake_maximizer_chunk(k, ns, triples) for k, (ns, triples) in enumerate(chunks))

    # The fold of the fake tables is dropped on the way out, and any real
    # fold of the range on the way in, so neither outlives its tables.
    claims._probe_fold.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(claims, "_probe_measures", fake_probes(every))
            patch.setattr(claims, "_probe_points", probe_points)
            patch.setattr(batch, "trial_chunks", fake_chunks)
            got = claims.check_all(seed=0, trials=trials, n_range=(n_min, n_max),
                                   tolerance=tolerance, claim_ids=("C7", "C8", "C9"))
    finally:
        claims._probe_fold.cache_clear()

    tallies = [ReferenceMaximizer(claim_by_id(c), tolerance) for c in ("C7", "C8", "C9")]
    negated_uniform = {}
    for n in range(n_min, n_max + 1):
        points = probe_points(n)
        values = [measured[q[0][0]] for q in points]
        negated_uniform[n] = values[0]
        for tally in tallies:
            tally.probes(n, points, values, negated_uniform)
    for chunk in fake_chunks():
        for tally in tallies:
            tally.trials(chunk, negated_uniform)
    want = [claims._report(t.claim, 0, trials, tolerance, t.counterexample, t.observed())
            for t in tallies]
    # repr tells -0.0 from 0.0 and a numpy scalar from a float.
    assert repr(got) == repr(want)


@pytest.mark.parametrize("margins, kept", [((0.0, -0.0), "0.0"), ((-0.0, 0.0), "-0.0")])
def test_min_margin_keeps_the_first_of_two_zeros(margins, kept):
    for chunks in [[([3, 3], list(margins))], [([3], [margins[0]]), ([3], [margins[1]])]]:
        tally = _Inequality(claim_by_id("C2"), 1e-9)
        for k, (ns, lhs) in enumerate(chunks):
            tally.trials(fake_chunk(k, (ns, lhs, [0.0] * len(ns))))
        assert repr(tally.min_margin) == kept


# Floats whose JSON text is easy to get wrong: signed zeros, subnormals,
# the exponent forms json takes from repr (1e-05, 1e+16), integral values,
# and the non-finite values json writes as Infinity and NaN.
REPORT_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                     1e-05, 1e+16, 1e16 + 2.0, 1.0, 0.1, math.inf, -math.inf]),
)


def long_point(seed, n, spread):
    """n entries from a seeded stream: uniform float64 bit patterns of
    [2**-1022, 1) when spread, else a normalised exponential sample."""
    rng = np.random.default_rng(seed)
    if spread:
        bits = rng.integers(0x0010000000000000, 0x3FF0000000000000, size=n, dtype=np.uint64)
        return bits.view(np.float64).tolist()
    e = rng.exponential(size=n)
    return (e / e.sum()).tolist()


@st.composite
def report_points(draw):
    """A counterexample point: often n equal entries, n up to 10^4 (one
    object repeated, or n equal objects), else a few arbitrary floats, a
    constant point with one entry changed, entries that compare equal yet
    print differently, or a long point around the columnar writer's
    cutoff, with a few special or non-float entries at drawn places."""
    kind = draw(st.integers(0, 5))
    if kind == 5:
        n = draw(st.integers(COLUMNAR_POINT_MIN - 1, 3 * COLUMNAR_POINT_MIN))
        point = long_point(draw(st.integers(0, 2**32 - 1)), n, draw(st.booleans()))
        for _ in range(draw(st.integers(0, 3))):
            point[draw(st.integers(0, n - 1))] = draw(
                st.one_of(REPORT_FLOATS, st.sampled_from([1, True])))
        return tuple(point)
    v = draw(REPORT_FLOATS)
    n = draw(st.one_of(st.integers(1, 12), st.integers(1, 10_000)))
    if kind == 0:
        return (v,) * n
    if kind == 1:
        return tuple(float(repr(v)) for _ in range(n))
    if kind == 2:
        point = [v] * n
        point[draw(st.integers(0, n - 1))] = draw(REPORT_FLOATS)
        return tuple(point)
    if kind == 3:
        return draw(st.sampled_from([(0.0, -0.0), (-0.0, 0.0), (1.0, 1), (1.0, True)]))
    return tuple(draw(st.lists(REPORT_FLOATS, min_size=1, max_size=12)))


OBSERVED = st.one_of(
    st.none(),
    st.fixed_dictionaries({"min_margin": REPORT_FLOATS,
                           "majorization_failures": st.integers(0, 10**6)}),
    st.fixed_dictionaries({"min_margin": REPORT_FLOATS,
                           "reversal_fraction": REPORT_FLOATS}),
    st.builds(lambda excess, value, p: {"max_excess": excess, "argmax_value": value,
                                        "argmax_p": list(p)},
              REPORT_FLOATS, REPORT_FLOATS, report_points()),
    st.lists(st.tuples(st.integers(2, 10_000), REPORT_FLOATS), max_size=16).map(
        lambda grid: {"n_grid": [n for n, _ in grid], "values": [v for _, v in grid]}),
)


@st.composite
def report_lists(draw):
    """Claim reports in which some counterexamples and peaks share one
    point tuple."""
    pool = draw(st.lists(report_points(), min_size=1, max_size=3))
    reports = []
    for _ in range(draw(st.integers(1, 6))):
        counterexample = None
        if draw(st.booleans()):
            counterexample = Counterexample(
                pool[draw(st.integers(0, len(pool) - 1))],
                draw(REPORT_FLOATS), draw(REPORT_FLOATS), draw(REPORT_FLOATS))
        observed = draw(OBSERVED)
        if observed is not None and "argmax_p" in observed and draw(st.booleans()):
            # As the engine reports a peak: the point's tuple itself.
            observed["argmax_p"] = pool[draw(st.integers(0, len(pool) - 1))]
        reports.append(ClaimReport(
            claim_id=draw(st.sampled_from([c.id for c in CLAIMS])),
            verdict=draw(st.sampled_from([CONFIRMED, REFUTED])),
            trials_run=draw(st.integers(0, 10**6)),
            seed=draw(st.integers(0, 2**64 - 1)),
            tolerance=draw(REPORT_FLOATS),
            counterexample=counterexample,
            observed=observed,
        ))
    return reports


PEAK = (0.75, 0.25, 0.0)
LONG_POINT = (-0.0, *long_point(9, COLUMNAR_POINT_MIN, True), 5e-324, math.nan, 1.0)


@SETTINGS
@given(report_lists())
@example([ClaimReport("C6", REFUTED, 16, 0, 1e-9,
                      Counterexample((0.0001,) * 10_000, math.inf, -math.inf, 1e16),
                      {"n_grid": [2, 3], "values": [-0.0, 5e-324]})] * 2)
# Points of one length that differ, constant non-finite points, non-finite
# entries outside a constant point, and entries equal to their neighbour
# that print differently.
@example([ClaimReport(cid, REFUTED, 1, 0, 1e-05, Counterexample(p, 0.5, 1e+16, 2.0), None)
          for cid, p in (("C2", (0.25, 0.75)), ("C3", (0.75, 0.25)),
                         ("C9", (math.inf,) * 3), ("C8", (math.nan,) * 3),
                         ("C7", (0.5, -math.inf, math.nan)), ("C1", (0.0, -0.0)),
                         ("C4", (1.0, 1)))])
# A peak shared with a counterexample, and a peak that equals it yet
# prints apart (0.0 and -0.0 compare equal).
@example([ClaimReport("C8", REFUTED, 1, 0, 1e-9, Counterexample(PEAK, 0.5, 0.25, 0.25),
                      {"max_excess": 0.25, "argmax_value": 0.5, "argmax_p": PEAK}),
          ClaimReport("C9", CONFIRMED, 1, 0, 1e-9, None,
                      {"max_excess": 0.0, "argmax_value": 0.5, "argmax_p": (0.75, 0.25, -0.0)})])
# Long points: one on the columnar writer's path, shared by two reports,
# with special entries at the ends; and one sent to json by an int entry.
@example([ClaimReport(cid, REFUTED, 1, 0, 1e-9, Counterexample(p, 0.5, 0.25, 0.25), None)
          for cid, p in (("C2", LONG_POINT), ("C3", LONG_POINT),
                         ("C8", LONG_POINT[:-1] + (1,)))])
def test_report_lines_equal_json_dumps_of_the_reference_object(reports):
    want = [json.dumps(r.to_json_obj(), separators=(",", ":")) for r in reports]
    assert [r.to_json() for r in reports] == want
    assert reports_to_json(reports) == "\n".join(want)


# Entries as a user might type them: floats of any size and sign, including
# -0.0, 1e308, subnormals, nan and inf, and ints beyond float range.
ENTRIES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1.0, 0.5, 1e308, -1e308, 5e-324]),
    st.integers(-(10**400), 10**400),
)


@st.composite
def probs_text(draw):
    """A -p argument: a comma list or a JSON array, of 0 to 5 entries."""
    values = draw(st.lists(ENTRIES, max_size=5))
    if draw(st.booleans()):
        return "[" + ",".join(json.dumps(v) for v in values) + "]"
    return ",".join(repr(v) for v in values)


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _assert_clean(code, err):
    assert code in (0, 2)
    assert (code == 2) == err.startswith("error: ")


@settings(max_examples=300, deadline=None, database=None)
@given(probs_text(), st.booleans(), st.sampled_from(["e", "2"]))
def test_measure_returns_zero_or_two(text, renormalize, log_base):
    argv = ["measure", f"--probs={text}", "--log-base", log_base]
    _assert_clean(*run_main(argv + ["--renormalize"] * renormalize))


@settings(max_examples=300, deadline=None, database=None)
@given(
    probs_text(),
    st.booleans(),
    st.one_of(st.integers(-3, 100), st.integers(2**53 - 2, 2**53 + 2),
              st.integers(0, 10**400)),
)
def test_negate_returns_zero_or_two(text, renormalize, k):
    argv = ["negate", f"--probs={text}", f"--steps={k}"]
    _assert_clean(*run_main(argv + ["--renormalize"] * renormalize))


class _Enough(Exception):
    """Raised by ``_CappedOutput`` once a run has written its limit."""


class _CappedOutput(io.StringIO):
    """stdout for runs that may stream without end: writing past ``limit``
    characters stops the run."""

    limit = 1 << 18

    def write(self, text):
        if self.tell() + len(text) > self.limit:
            raise _Enough
        return super().write(text)


# iterate streams its steps, so any k is fair: a non-uniform two-outcome
# input never converges and would run all k steps, so such a run is
# stopped once it has written a quarter MiB, which counts as clean.
@settings(max_examples=200, deadline=None, database=None)
@given(probs_text(), st.booleans(),
       st.one_of(st.integers(-3, 60), st.integers(2**53 - 2, 2**53 + 2),
                 st.integers(0, 10**400)))
def test_iterate_returns_zero_or_two(text, renormalize, k):
    argv = ["iterate", f"--probs={text}", f"--steps={k}"]
    out, err = _CappedOutput(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--renormalize"] * renormalize)
    except _Enough:
        code = 0
    _assert_clean(code, err.getvalue())
