"""Property tests for the invariants the shared claim pass relies on, and
for the CLI's contract that every input either works or fails cleanly.

``check_all`` measures each trial once with ``measure_all`` and hands the
values to every claim, and the maximizer claims read them off negated
points; the reports are byte-identical to per-claim evaluation only
because these properties hold.
"""

import contextlib
import io
import json
import math
import random

from hypothesis import given, settings
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
from negprob.cli import main

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


# iterate stores every step it takes, so k stays small here: a
# non-uniform two-outcome input never converges and runs all k steps.
@settings(max_examples=200, deadline=None, database=None)
@given(probs_text(), st.booleans(), st.integers(-3, 60))
def test_iterate_returns_zero_or_two(text, renormalize, k):
    argv = ["iterate", f"--probs={text}", f"--steps={k}"]
    _assert_clean(*run_main(argv + ["--renormalize"] * renormalize))
