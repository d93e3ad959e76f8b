"""Property tests for the invariants the shared claim pass relies on.

``check_all`` measures each trial once with ``measure_all`` and hands the
values to every claim, and the maximizer claims read them off negated
points; the reports are byte-identical to per-claim evaluation only
because these properties hold.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from negprob import (
    SUM_TOLERANCE,
    entropy,
    make_distribution,
    measure_all,
    negate,
    negate_k,
    varentropy,
    varextropy,
)

# Large distributions are slow to measure; no example database is written.
SETTINGS = settings(max_examples=60, deadline=None, database=None)


@st.composite
def distributions(draw, max_n=10_000):
    """Distributions with n up to max_n, often with zero entries.

    Small n draws every entry; larger n draws a seed and a zero fraction
    and fills the entries from them, which keeps n = 10^4 cheap to draw.
    """
    n = draw(st.one_of(st.integers(2, 12), st.integers(2, max_n), st.just(max_n)))
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
