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

These functions are the reference for the claim engine's batched trial
pass (``_batch``), which must reproduce them bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

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
        # Finiteness first: min and max can pass over a NaN.
        if not (
            all(map(math.isfinite, probs)) and min(probs) >= 0.0 and max(probs) <= 1.0
        ):
            for i, p in enumerate(probs):
                if not math.isfinite(p):
                    raise NotADistribution(f"p[{i}] = {p!r} is not finite")
                if p < 0.0 or p > 1.0:
                    raise NotADistribution(f"p[{i}] = {p!r} is outside [0, 1]")
        total = math.fsum(probs)
        if abs(total - 1.0) > SUM_TOLERANCE:
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


def majorizes(p: Distribution, q: Distribution, slack: float = MAJORIZATION_SLACK) -> bool:
    """True when p majorizes q: every prefix sum of p's entries sorted in
    descending order dominates the corresponding prefix sum of q's.

    Both arguments are validated distributions, so the totals already agree.
    Prefix sums are compared with ``slack`` to keep the predicate stable
    under float noise; exact comparisons would flip on ~1e-16 differences.
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
        if sum_p < sum_q - slack:
            return False
    return True
