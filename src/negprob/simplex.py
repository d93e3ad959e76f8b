"""Validated points on the probability simplex, plus reproducible sampling
and a majorization comparator.

A distribution here is a finite tuple (p_1, ..., p_n) with n >= 2, every
p_i in [0, 1] and finite, and sum(p_i) = 1 to within ``SUM_TOLERANCE``.
Zero entries are legal; downstream measures apply the 0*ln(0) = 0
convention. n = 1 is rejected at construction because the negation map
divides by n - 1.

Sampling is flat-Dirichlet (uniform over the simplex) via normalized
unit-exponential gaps, drawn by inversion from PCG64's raw outputs. Each
trial's random stream is derived from (seed, n, trial_index) alone, so a
given trial yields the same sample no matter in which order trials are
evaluated.

Entries are ints or floats (numpy's float64 is a float), not bools or
strs, and functions of a ``Distribution`` take nothing else
(``require_distribution``); both fail with a named ``NotADistribution``.

These functions are the reference for the claim engine's batched trial
pass (``_batch``), which must reproduce them bit for bit, and the one
path that validates every point. The engine's fixed points, uniform(n)
and the maximizer probes, are held as ``RunPoint``s of (value, count)
runs and not validated at run time: the tests assert every check on
every one of them. Its samples and their negations are not validated
either: every check holds for them by construction, except a sample
whose gaps are all zero, on which ``make_distribution`` raises its
usual ``NotADistribution`` (see ``_batch.sample_rows``).
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping, Set

from ._record import frozen_record

SUM_TOLERANCE = 1e-9

# Slack used when comparing partial sums; absorbs float noise in sums of
# entries that are themselves only accurate to ~1e-16.
MAJORIZATION_SLACK = 1e-12

_UINT64_MAX = 2**64 - 1


class TooFewOutcomes(ValueError):
    """Fewer than two outcomes: negation is undefined for n < 2."""


class NotADistribution(ValueError):
    """Entries are not a probability distribution (range, finiteness, sum)."""


class DimensionMismatch(ValueError):
    """Two distributions with different outcome counts were compared."""


@frozen_record
class Distribution:
    """An immutable, validated discrete probability distribution.

    Every construction validates its entries, including the outputs of
    maps such as negation that provably stay on the simplex. The entry
    checks run as C-level scans; only a failing input is walked entry by
    entry, to name the first offender.

    Instances are safe to share across threads; every operation in this
    package treats them as pure values.
    """

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        probs = _floats(self.probs)
        object.__setattr__(self, "probs", probs)
        if len(probs) < 2:
            raise TooFewOutcomes(f"need at least 2 outcomes, got {len(probs)}")
        # Finiteness first: min and max can pass over a NaN.
        if not (all(map(math.isfinite, probs)) and min(probs) >= 0.0 and max(probs) <= 1.0):
            for i, p in enumerate(probs):
                if not math.isfinite(p):
                    raise NotADistribution(f"p[{i}] = {p!r} is not finite")
                if p < 0.0 or p > 1.0:
                    raise NotADistribution(f"p[{i}] = {p!r} is outside [0, 1]")
        total = math.fsum(probs)
        if not abs(total - 1.0) <= SUM_TOLERANCE:
            raise NotADistribution(
                f"sum = {total!r} differs from 1 by more than {SUM_TOLERANCE}"
            )

    @property
    def n(self) -> int:
        return len(self.probs)

    def __len__(self) -> int:
        return len(self.probs)

    def __iter__(self):
        return iter(self.probs)

    def max_deviation_from_uniform(self) -> float:
        """Sup-norm distance to the uniform distribution of the same size."""
        u = 1.0 / self.n
        return max(abs(p - u) for p in self.probs)

    def to_json(self) -> str:
        """Interchange form: a JSON array of numbers."""
        return json.dumps(list(self.probs), separators=(",", ":"))


def make_distribution(values, renormalize: bool = False) -> Distribution:
    """Build a validated Distribution from a sequence of reals.

    With ``renormalize`` set, nonnegative values with a positive finite sum
    are divided by that sum before validation; anything else falls through
    to validation and raises the usual errors.
    """
    if not renormalize:
        return Distribution(values)
    vals = _floats(values)
    if vals and all(map(math.isfinite, vals)) and min(vals) >= 0.0:
        try:
            total = math.fsum(vals)
        except OverflowError:  # a finite total too large for a float
            total = math.inf
        if math.isfinite(total) and total > 0.0:
            vals = tuple(v / total for v in vals)
    return Distribution(vals)


def _floats(values) -> tuple[float, ...]:
    """The entries as a tuple of floats; a ``NotADistribution`` names an
    argument that is not a sequence, or its first bool or non-number entry
    (with a numpy scalar's type, such as int64 or float32), or its first
    int beyond float range."""
    if type(values) not in (tuple, list) and (
            not hasattr(values, "__len__") or getattr(values, "ndim", 1) == 0  # a 0-d array
            or isinstance(values, (str, bytes, bytearray, Mapping, Set))):
        raise NotADistribution(f"entries must be a sequence, not {type(values).__name__}")
    types = set(map(type, values))
    if types == {float}:
        return tuple(values)
    if not types <= {float, int}:  # a subclass, such as numpy's float64, or not a number
        for i, v in enumerate(values):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                what = (f"a numpy {type(v).__name__}, not a Python int or float"
                        if type(v).__module__ == "numpy" else "not an int or a float")
                raise NotADistribution(f"p[{i}] = {v!r} is {what}")
    try:
        return tuple(map(float, values))
    except OverflowError:  # float() rounds an int of at least 2**1024 - 2**970 to 2**1024
        i = next(i for i, v in enumerate(values)
                 if isinstance(v, int) and abs(v) >= 2**1024 - 2**970)
        raise NotADistribution(f"p[{i}] is an int beyond float range") from None


def require_distribution(name: str, value):
    """value, when it is a ``Distribution``; otherwise a ``NotADistribution``
    naming it and its type (a list would raise AttributeError)."""
    if not isinstance(value, Distribution):
        raise NotADistribution(f"{name} must be a Distribution, not {type(value).__name__}")
    return value


def require_int(name: str, value):
    """value, when it is an int and not a bool; otherwise a ValueError that
    names it. The sampler and the claim engine take their counts, indices
    and seeds by this rule, so '7', 2.5 and True never reach numpy."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} = {value!r} must be an integer")
    return value


def require_tolerance(name: str, value):
    """value, when it is a finite real number above 0, an int or a float
    and not a bool; otherwise a ValueError that names it."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} = {value!r} must be a real number")
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} = {value!r} must be finite and > 0")
    return value


def uniform(n: int) -> Distribution:
    """The uniform distribution on n outcomes, the fixed point of negation."""
    if require_int("n", n) < 2:
        raise TooFewOutcomes(f"need at least 2 outcomes, got {n}")
    return Distribution((1.0 / n,) * n)


class RunPoint(tuple):
    """A point held as (value, count) runs: the tuple of its entries, each
    run's value repeated count times, and as ``runs`` the tuple of its
    nonempty runs, from which the report writer formats each value once
    (see ``claims._point_pieces``). It is not validated: the engine's run
    points, uniform(n) and the maximizer probes, are fixed for each n, and
    the tests assert ``make_distribution``'s checks on every one of them."""

    @classmethod
    def of(cls, runs) -> RunPoint:
        """The point of the runs, nonnegative int counts, without its empty
        runs."""
        runs = tuple((v, c) for v, c in runs if c > 0)
        entries = ()  # () + t is t itself, so one run's tuple is not copied
        for v, c in runs:
            entries += (v,) * c
        point = cls(entries)
        point.runs = runs
        return point


@frozen_record
class SimplexSamplerConfig:
    """Reproducible sampling plan: a seed, an outcome count, and a trial
    budget, each an int and not a bool (``require_int``). Identical (seed,
    n, trial_index) always yields the identical sample regardless of
    evaluation order.
    """

    seed: int
    n: int
    trials: int

    def __post_init__(self) -> None:
        if not 0 <= require_int("seed", self.seed) <= _UINT64_MAX:
            raise ValueError(f"seed = {self.seed!r} is not a 64-bit unsigned integer")
        if require_int("n", self.n) < 2:
            raise TooFewOutcomes(f"need at least 2 outcomes, got {self.n}")
        if require_int("trials", self.trials) < 1:
            raise ValueError(f"trials = {self.trials!r} must be positive")


def sample_uniform_simplex(
    config: SimplexSamplerConfig, trial_index: int
) -> Distribution:
    """Draw one flat-Dirichlet sample, deterministic in (seed, n, trial_index).

    Normalized unit-exponential gaps are uniform over the simplex (Devroye,
    "Non-Uniform Random Variate Generation", 1986, ch. V). The per-trial
    stream is PCG64 seeded by numpy's ``SeedSequence((seed, n,
    trial_index))``, which makes the sampler stateless and trivially
    parallel. Each of its n raw 64-bit outputs gives u, its top 53 bits
    times 2**-53, and the gap 0.0 - log(1.0 - u), by inversion (ch. II):
    u and 1 - u are exact, and ``0.0 -`` makes the gap of u = 0 +0.0. So a
    sample depends on SeedSequence and PCG64's raw stream, which numpy
    keeps stable across versions (NEP 19), IEEE arithmetic and the C
    library's ``log``, not on numpy's distributions. A gap is at most
    53 ln 2 (about 36.7), and it is zero with probability 2**-53 per draw.
    The gaps are divided by their ``fsum`` (``make_distribution``). numpy
    is imported here, on first use, so commands that never sample skip it.
    """
    import numpy as np

    if not 0 <= require_int("trial_index", trial_index) < config.trials:
        raise ValueError(
            f"trial_index = {trial_index} outside [0, {config.trials})"
        )
    seq = np.random.SeedSequence((config.seed, config.n, trial_index))
    outputs = np.random.PCG64(seq).random_raw(config.n).tolist()
    gaps = [0.0 - math.log(1.0 - (x >> 11) * 2.0**-53) for x in outputs]
    return make_distribution(gaps, renormalize=True)


def majorizes(p: Distribution, q: Distribution) -> bool:
    """True when p majorizes q: every prefix sum of p's entries sorted in
    descending order dominates the corresponding prefix sum of q's.

    Both arguments are validated distributions, so the totals already agree.
    Prefix sums are compared with ``MAJORIZATION_SLACK`` to keep the
    predicate stable under float noise; exact comparisons would flip on
    ~1e-16 differences.
    """
    if require_distribution("p", p).n != require_distribution("q", q).n:
        raise DimensionMismatch(f"sizes differ: {p.n} vs {q.n}")
    ps = sorted(p.probs, reverse=True)
    qs = sorted(q.probs, reverse=True)
    sum_p = 0.0
    sum_q = 0.0
    for a, b in zip(ps, qs):
        sum_p += a
        sum_q += b
        if sum_p < sum_q - MAJORIZATION_SLACK:
            return False
    return True
