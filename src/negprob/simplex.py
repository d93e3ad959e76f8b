"""Validated points on the probability simplex, plus reproducible sampling
and a majorization comparator.

A distribution here is a finite tuple (p_1, ..., p_n) with n >= 2, every
p_i in [0, 1] and finite, and sum(p_i) = 1 to within ``SUM_TOLERANCE``.
Zero entries are legal; downstream measures apply the 0*ln(0) = 0
convention. n = 1 is rejected at construction because the negation map
divides by n - 1.

Sampling is flat-Dirichlet (uniform over the simplex) via normalized
unit-exponential draws. Each trial's random stream is derived from
(seed, n, trial_index) alone, so a given trial yields the same sample no
matter in which order trials are evaluated.

A point with few distinct entries can be held as (value, count) runs.
``make_distribution_runs`` applies ``make_distribution``'s rules to the
runs, once per run, with the sums taken exactly by ``fsum_runs``.

These functions are the reference for the claim engine's batched trial
pass (``_batch``), which must reproduce them bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain, repeat

SUM_TOLERANCE = 1e-9

# Slack used when comparing partial sums; absorbs float noise in sums of
# entries that are themselves only accurate to ~1e-16.
MAJORIZATION_SLACK = 1e-12

_UINT64_MAX = 2**64 - 1

# Veltkamp's split of a float into two halves of at most 26 bits each.
_SPLITTER = 2.0**27 + 1.0
# Counts are multiplied 26 bits at a time: 26 + 26 bits fit in 53.
_PIECE_BITS = 26
_PIECE_MASK = 2**_PIECE_BITS - 1
_PIECE_SCALE = 2.0**_PIECE_BITS


class TooFewOutcomes(ValueError):
    """Fewer than two outcomes: negation is undefined for n < 2."""


class NotADistribution(ValueError):
    """Entries are not a probability distribution (range, finiteness, sum)."""


class DimensionMismatch(ValueError):
    """Two distributions with different outcome counts were compared."""


@dataclass(frozen=True)
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
        probs = tuple(map(float, self.probs))
        object.__setattr__(self, "probs", probs)
        if len(probs) < 2:
            raise TooFewOutcomes(f"need at least 2 outcomes, got {len(probs)}")
        if not _in_unit_interval(probs):
            for i, p in enumerate(probs):
                if not math.isfinite(p):
                    raise NotADistribution(f"p[{i}] = {p!r} is not finite")
                if p < 0.0 or p > 1.0:
                    raise NotADistribution(f"p[{i}] = {p!r} is outside [0, 1]")
        total = math.fsum(probs)
        if not _sums_to_one(total):
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
    vals = [float(v) for v in values]
    if renormalize and vals and all(map(math.isfinite, vals)) and min(vals) >= 0.0:
        try:
            total = math.fsum(vals)
        except OverflowError:  # a finite total too large for a float
            total = math.inf
        if math.isfinite(total) and total > 0.0:
            vals = [v / total for v in vals]
    return Distribution(tuple(vals))


def make_distribution_runs(runs, renormalize: bool = False) -> list[tuple[float, int]]:
    """``make_distribution`` of the values that the (value, count) runs
    expand to, as runs, in O(number of runs); counts are nonnegative
    integers.

    Runs whose values all lie in [0, 1] are renormalised and checked run
    by run with ``make_distribution``'s rules, the sums taken by
    ``fsum_runs``, which is exactly the ``fsum`` of the entries. Runs
    that fail a check, or hold a value outside [0, 1], are expanded and
    handed to ``make_distribution``: it raises its usual error naming the
    entry, or, when renormalising values above 1, builds the distribution,
    which comes back as runs of one entry each.
    """
    runs = [(float(v), c) for v, c in runs]
    values = [v for v, _ in runs]
    if values and _in_unit_interval(values):  # fsum_runs takes |value| <= 1
        out = runs
        if renormalize:
            total = fsum_runs(runs)
            if total > 0.0:
                out = [(v / total, c) for v, c in runs]
        if (sum(c for _, c in out) >= 2 and max(v for v, _ in out) <= 1.0
                and _sums_to_one(fsum_runs(out))):
            return out
    entries = chain.from_iterable(repeat(v, c) for v, c in runs)
    return [(p, 1) for p in make_distribution(entries, renormalize).probs]


def _in_unit_interval(values) -> bool:
    """Every value is finite and in [0, 1]. Finiteness is checked first:
    min and max can pass over a NaN."""
    return all(map(math.isfinite, values)) and min(values) >= 0.0 and max(values) <= 1.0


def _sums_to_one(total: float) -> bool:
    return abs(total - 1.0) <= SUM_TOLERANCE


def fsum_runs(runs) -> float:
    """``math.fsum`` of each value repeated count times, bit for bit, in
    O(number of runs).

    Values are floats of magnitude at most 1, as every term of the
    measures is (a huge value can overflow in the split), and counts are
    nonnegative integers. ``fsum`` rounds the
    exact total of its inputs once, so it suffices to hand it floats
    whose exact total is that of the copies. A single copy, or the copies
    of a zero, go as they are. Any other value is written as hi + lo by
    Veltkamp's split (Dekker, Numer. Math. 18, 1971), each half with at
    most 26 significant bits, and its count is taken 26 bits at a time;
    each product of a count piece and a half goes in. The split is exact
    also when a half is subnormal (Boldo, "Pitfalls of a full
    floating-point proof", IJCAR 2006). And every product is exact: a
    count piece is an integer below 2**26 times a power of two, so the
    product has at most 52 significant bits and, like the half, is a
    multiple of 2**-1074; every such number of magnitude below 2**1024
    is a float.
    """
    parts = []
    for value, count in runs:
        if count <= 1 or not value:
            if count < 0:
                raise ValueError(f"run count {count!r} is negative")
            if count:
                parts.append(value)  # a zero's copies add only its sign
            continue
        hi = value * _SPLITTER
        hi -= hi - value
        lo = value - hi
        scale = 1.0
        while count:
            piece = (count & _PIECE_MASK) * scale
            parts += (piece * hi, piece * lo)
            count >>= _PIECE_BITS
            scale *= _PIECE_SCALE
    return math.fsum(parts)


def uniform(n: int) -> Distribution:
    """The uniform distribution on n outcomes, the fixed point of negation."""
    if n < 2:
        raise TooFewOutcomes(f"need at least 2 outcomes, got {n}")
    return Distribution((1.0 / n,) * n)


@dataclass(frozen=True)
class SimplexSamplerConfig:
    """Reproducible sampling plan: a seed, an outcome count, and a trial
    budget. Identical (seed, n, trial_index) always yields the identical
    sample regardless of evaluation order.
    """

    seed: int
    n: int
    trials: int

    def __post_init__(self) -> None:
        if not 0 <= int(self.seed) <= _UINT64_MAX:
            raise ValueError(f"seed = {self.seed!r} is not a 64-bit unsigned integer")
        if self.n < 2:
            raise TooFewOutcomes(f"need at least 2 outcomes, got {self.n}")
        if self.trials < 1:
            raise ValueError(f"trials = {self.trials!r} must be positive")


def sample_uniform_simplex(
    config: SimplexSamplerConfig, trial_index: int
) -> Distribution:
    """Draw one flat-Dirichlet sample, deterministic in (seed, n, trial_index).

    Normalized unit-exponential draws are uniform over the simplex. The
    per-trial stream is seeded from the full (seed, n, trial_index) triple,
    which makes the sampler stateless and trivially parallel. numpy is
    imported here, on first use, so commands that never sample skip it.
    """
    import numpy as np

    if not 0 <= trial_index < config.trials:
        raise ValueError(
            f"trial_index = {trial_index} outside [0, {config.trials})"
        )
    seq = np.random.SeedSequence((config.seed, config.n, trial_index))
    gaps = np.random.default_rng(seq).standard_exponential(config.n)
    return make_distribution((gaps / gaps.sum()).tolist(), renormalize=True)


def majorizes(p: Distribution, q: Distribution) -> bool:
    """True when p majorizes q: every prefix sum of p's entries sorted in
    descending order dominates the corresponding prefix sum of q's.

    Both arguments are validated distributions, so the totals already agree.
    Prefix sums are compared with ``MAJORIZATION_SLACK`` to keep the
    predicate stable under float noise; exact comparisons would flip on
    ~1e-16 differences.
    """
    if p.n != q.n:
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
