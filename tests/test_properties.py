"""Property tests for the invariants the shared claim pass relies on, and
for the CLI's contract that every input either works or fails cleanly.

``check_all`` measures each trial once and hands the values to every
claim, and the maximizer claims read them off negated points; the reports
are byte-identical to per-claim evaluation only because these properties
hold. The trial pass works on batches of trials (flat rows, see
``negprob._batch``); its sampler, measures and majorization check must be
bitwise equal to the public one-distribution functions.
"""

import contextlib
import io
import json
import math
import random
import tracemalloc
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from negprob._batch import (
    Rows,
    descending_prefix_sums,
    majorizes_rows,
    measure_rows,
    sample_rows,
)
from negprob.claims import _probe_points
from negprob.cli import main
from negprob.measures import measure_runs
from negprob.negation import negate_runs
from negprob.simplex import fsum_runs, make_distribution_runs

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
    total = fsum_runs(out)
    return [(v / total, c) for v, c in out]


def expanded(runs):
    return [v for v, c in runs for _ in range(c)]


@SETTINGS
@given(runs())
def test_measure_runs_is_bitwise_equal_to_measure_all_of_the_expanded_runs(rs):
    entries = expanded(rs)
    assert fsum_runs(rs).hex() == math.fsum(entries).hex()
    want, got = measure_all(make_distribution(entries)), measure_runs(rs)
    assert [x.hex() for x in got.as_dict().values()] == [
        x.hex() for x in want.as_dict().values()]


def built(make, *args):
    """What make(*args) returns, or the type and text of what it raises."""
    try:
        return make(*args)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


@SETTINGS
@given(st.lists(st.tuples(
    st.one_of(RUN_VALUES, st.sampled_from([-0.0, -1e-3, 1.5, 1e300, math.inf, math.nan])),
    st.one_of(st.integers(0, 3), st.integers(0, 10_000)),
), max_size=4), st.booleans())
@example([(0.3, 1)], True)  # one entry, whatever its value, is too few
@example([(5e-324, 865), (1e-300, 0), (1e-320, 353)], True)  # an empty run above 1
def test_distribution_runs_are_make_distribution_of_the_expanded_runs(rs, renormalize):
    got = built(make_distribution_runs, rs, renormalize)
    want = built(make_distribution, expanded(rs), renormalize)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert [x.hex() for x in expanded(got)] == [x.hex() for x in want.probs]


def reference_probe_points(n):
    """The maximizer probes, built entry by entry: uniform, then uniform +
    eps*(e_0 - e_1) renormalised, for each probe eps."""
    u = uniform(n)
    base = u.probs[0]
    points = [u]
    for eps in [e for e in (1e-3, 1e-2) if e <= base] or [base / 2.0]:
        vals = list(u.probs)
        vals[0] += eps
        vals[1] -= eps
        points.append(make_distribution(vals, renormalize=True))
    return points


@SETTINGS
@given(st.one_of(st.integers(2, 40), st.integers(2, 10_000), st.integers(9_990, 10_000)))
def test_probe_points_as_runs_equal_the_points_built_entry_by_entry(n):
    points = _probe_points(n)
    reference = reference_probe_points(n)
    assert len(points) == len(reference)
    for point, want in zip(points, reference):
        assert expanded(point) == list(want.probs)
        assert measure_runs(point) == measure_all(want)
        negated = negate_runs(point)
        assert expanded(negated) == list(negate(want).probs)
        got, want_negated = measure_runs(negated), measure_all(negate(want))
        assert [x.hex() for x in got.as_dict().values()] == [
            x.hex() for x in want_negated.as_dict().values()]


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


# Trial indices at the one-word / two-word boundary of SeedSequence's input.
TRIAL_INDICES = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32]),
                          st.integers(0, 2**64 - 1))


@SETTINGS
@given(st.integers(0, 2**64 - 1),
       st.lists(st.tuples(st.one_of(st.integers(2, 12), st.integers(2, 10_000)),
                          TRIAL_INDICES), min_size=1, max_size=4))
def test_batched_samples_are_bitwise_equal_to_the_sampler(seed, trials):
    rows = Rows([n for n, _ in trials])
    got = sample_rows(seed, rows, [t for _, t in trials]).tolist()
    for (n, t), row in zip(trials, rows.slices):
        want = sample_uniform_simplex(SimplexSamplerConfig(seed, n, t + 1), t).probs
        assert [x.hex() for x in got[row]] == [x.hex() for x in want]


@SETTINGS
@given(st.lists(distributions(), min_size=1, max_size=3))
def test_batched_measures_are_bitwise_equal_to_measure_all(dists):
    dists += [negate(d) for d in dists]
    columns = measure_rows(*flat(*dists))
    for i, d in enumerate(dists):
        ms = measure_all(d)
        assert [c[i].hex() for c in map(lambda c: c.tolist(), columns)] == [
            ms.H.hex(), ms.VH.hex(), ms.VJ.hex()]


def test_batched_measures_equal_measure_all_on_many_small_rows():
    # np.log differs from math.log in the last bit on about 0.4 % of
    # inputs, which moves a sum of few terms; 6,000 small rows catch it
    # where a few dozen hypothesis examples need not.
    rng = random.Random(1)
    dists = [make_distribution([rng.random() for _ in range(rng.randint(2, 6))],
                               renormalize=True) for _ in range(3000)]
    dists += [negate(d) for d in dists]
    columns = [c.tolist() for c in measure_rows(*flat(*dists))]
    assert list(zip(*columns)) == [(m.H, m.VH, m.VJ) for m in map(measure_all, dists)]


@st.composite
def distribution_pairs(draw):
    """Pairs of distributions of one size, often close to majorizing each
    other: a distribution and its negation, a permutation, itself, or an
    independent draw."""
    p = draw(distributions(max_n=2_000))
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return p, negate(p)
    if kind == 1:
        return p, make_distribution(draw(st.permutations(p.probs)))
    if kind == 2:
        return p, p
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return p, make_distribution([rng.random() for _ in range(p.n)], renormalize=True)


@SETTINGS
@given(st.lists(distribution_pairs(), min_size=1, max_size=4))
def test_batched_majorization_equals_majorizes(pairs):
    ps, qs = [p for p, _ in pairs], [q for _, q in pairs]
    values_p, rows = flat(*ps)
    values_q, _ = flat(*qs)
    assert majorizes_rows(values_p, values_q, rows) == [
        majorizes(p, q) for p, q in pairs]
    assert majorizes_rows(values_q, values_p, rows) == [
        majorizes(q, p) for p, q in pairs]


def test_batched_majorization_keeps_row_order_across_repeated_sizes():
    rng = random.Random(5)
    pairs = []
    for n in [3, 2, 3, 7, 2, 7, 7, 3, 2, 3] * 3:
        p = make_distribution([rng.random() for _ in range(n)], renormalize=True)
        pairs.append((p, negate(p)) if rng.random() < 0.5 else (negate(p), p))
    values_p, rows = flat(*[p for p, _ in pairs])
    values_q, _ = flat(*[q for _, q in pairs])
    want = [majorizes(p, q) for p, q in pairs]
    assert True in want and False in want
    assert majorizes_rows(values_p, values_q, rows) == want


def test_batched_majorization_equals_majorizes_across_the_wrap_of_n():
    # Trials of n = 2..10^4 wrap from 10^4 back to 2 inside one chunk,
    # which then holds one row of each large n and many rows of small n.
    rng = random.Random(9)
    ns = [9_999, 10_000, *range(2, 40), *range(2, 40)]
    pairs = []
    for n in ns:
        p = make_distribution([rng.random() ** 3 for _ in range(n)], renormalize=True)
        kind = rng.randrange(3)
        q = negate(p) if kind == 0 else make_distribution(
            [rng.random() for _ in range(n)], renormalize=True) if kind == 1 else p
        pairs.append((p, q) if rng.random() < 0.5 else (q, p))
    values_p, rows = flat(*[p for p, _ in pairs])
    values_q, _ = flat(*[q for _, q in pairs])
    want = [majorizes(p, q) for p, q in pairs]
    assert True in want and False in want
    assert majorizes_rows(values_p, values_q, rows) == want


@pytest.mark.parametrize("n", [2, 3, 7, 100, 10_000])
def test_row_prefix_sums_are_accumulate_of_the_sorted_row(n):
    rng = random.Random(n)
    matrix = np.array([[rng.random() * 10.0 ** rng.randint(-20, 0) for _ in range(n)]
                       for _ in range(max(1, 2_000 // n))])
    got = descending_prefix_sums(matrix).tolist()
    for row, sums in zip(matrix.tolist(), got):
        want = list(accumulate(sorted(row, reverse=True)))
        assert [x.hex() for x in sums] == [x.hex() for x in want]


def test_batched_majorization_memory_follows_the_entries_not_the_widest_row():
    # A chunk at the wrap of n 2..10^4: padding every row to n = 10^4 would
    # hold 112 x 10^4 floats (about 9 MB) per prefix-sum array.
    ns = [10_000, *range(2, 113)]
    dists = [make_distribution([1.0 + (i % 5) for i in range(n)], renormalize=True)
             for n in ns]
    values, rows = flat(*dists)
    negated, _ = flat(*map(negate, dists))
    tracemalloc.start()
    try:
        decided = majorizes_rows(values, negated, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(decided)
    assert peak < 8 * values.nbytes


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
