"""Scalar uncertainty measures on discrete distributions.

All logarithms are natural, so H, J are in nats and VH, VJ in nats^2.
Boundary terms follow the 0*ln(0) = 0 convention: at p = 0 for the
entropy-side measures and at p = 1 for the extropy-side ones.

    H(p)  = -sum_i p_i ln p_i                      Shannon entropy
    H1(p) = 1 - sum_i p_i^2                        Gini (quadratic) entropy
    J(p)  = -sum_i (1-p_i) ln(1-p_i)               extropy
    VH(p) = sum_i p_i (ln p_i)^2     - (sum_i p_i ln p_i)^2
    VJ(p) = sum_i (1-p_i)(ln(1-p_i))^2 - (sum_i (1-p_i) ln(1-p_i))^2

VH is a true variance (its weights sum to one) and can only go negative
through float noise; values within ``VARENTROPY_CLAMP`` below zero are
clamped to zero. VJ's weights sum to n - 1, so it is not a variance and is
genuinely negative for many inputs; it is never clamped.

Sums use ``math.fsum`` (exactly rounded), which keeps uniform-distribution
identities such as H(uniform(n)) = ln n tight to ~1 ulp even at n = 10^4
where a naive running sum drifts past 1e-12.

The per-measure functions are the numerical reference. ``measure_all``
computes the same five sums with one ``log`` of p_i and of 1 - p_i per
entry, and is bitwise equal to them for two reasons. Its terms are the
same float operations in the same order (p * (lp * lp), not
(p * lp) * lp), so each term is the same float; only a -0.0 entry
gives a -0.0 term where the scalar guard gives 0.0, which cannot move
a sum that also holds the largest entry's term. And ``fsum`` is exactly
rounded, so equal terms give an equal sum whichever list holds them.

``constant_measures(v, n)`` is ``measure_all`` of n entries equal to v,
such as uniform(n), in O(1). Each of its sums is the ``fsum`` of n copies
of one term t: the exact n t rounded once, which is the IEEE product
``n * t``, as n <= 2**53 is exact as a float. ``measure_all`` uses it
for a distribution whose entries are all equal, as do the claim engine's
limit grid and the CLI's sweep-n for uniform(n). The tests check it
against the exact rational sum, ``float(Fraction(t) * n)``.
"""

from __future__ import annotations

import json
import math
from math import fsum, log
from operator import mul

from ._record import frozen_record
from .simplex import Distribution, TooFewOutcomes, require_distribution, require_int

VARENTROPY_CLAMP = 1e-12


@frozen_record
class MeasureSet:
    """The five measures of one distribution, in nats / nats^2."""

    H: float
    H1: float
    J: float
    VH: float
    VJ: float

    def as_dict(self) -> dict[str, float]:
        return {"H": self.H, "H1": self.H1, "J": self.J, "VH": self.VH, "VJ": self.VJ}

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), separators=(",", ":"))


def _plogp(p: float) -> float:
    return p * math.log(p) if p > 0.0 else 0.0


def _plog2p(p: float) -> float:
    if p <= 0.0:
        return 0.0
    lp = math.log(p)
    return p * (lp * lp)


def entropy(d: Distribution) -> float:
    """Shannon entropy, in [0, ln n]."""
    return -math.fsum(_plogp(p) for p in require_distribution("d", d).probs) + 0.0


def gini_entropy(d: Distribution) -> float:
    """Quadratic entropy 1 - sum p_i^2, in [0, 1 - 1/n]; logarithm-free."""
    return 1.0 - math.fsum(p * p for p in require_distribution("d", d).probs)


def extropy(d: Distribution) -> float:
    """Extropy, the complementary dual of entropy; equals H when n = 2."""
    return -math.fsum(_plogp(1.0 - p) for p in require_distribution("d", d).probs) + 0.0


def varentropy(d: Distribution) -> float:
    """Variance of the information content -ln p_i under p; zero iff uniform."""
    m1 = math.fsum(_plogp(p) for p in require_distribution("d", d).probs)
    m2 = math.fsum(_plog2p(p) for p in d.probs)
    v = m2 - m1 * m1
    if -VARENTROPY_CLAMP < v < 0.0:
        return 0.0
    return v


def varextropy(d: Distribution) -> float:
    """Second-moment spread of the extropy terms; may be negative because
    the weights (1 - p_i) sum to n - 1 rather than 1.
    """
    e1 = math.fsum(_plogp(1.0 - p) for p in require_distribution("d", d).probs)
    e2 = math.fsum(_plog2p(1.0 - p) for p in d.probs)
    return e2 - e1 * e1


def measure_all(d: Distribution) -> MeasureSet:
    """All five measures from one logarithm of p_i and of 1 - p_i per entry.

    Each sum is fed the scalar functions' terms, built with the same
    operations in the same order, so results agree bit for bit with them.
    A distribution whose entries are all equal is measured by
    ``constant_measures`` (see the module docstring).
    """
    probs = require_distribution("d", d).probs
    if probs.count(probs[0]) == len(probs):
        return constant_measures(probs[0], len(probs))
    return _measure_set(probs, fsum)


def constant_measures(v: float, n: int) -> MeasureSet:
    """``measure_all`` of n entries equal to v, bit for bit, for v in [0, 1]
    other than -0.0 and 1 <= n <= 2**53 (see the module docstring)."""
    return _measure_set([v], lambda terms: n * next(terms))


def _measure_set(ps, total) -> MeasureSet:
    """The five measures from the sums of p^2, p ln p, p (ln p)^2, q ln q
    and q (ln q)^2, q = 1 - p, where total(terms) sums the terms of the
    entries ps, one per entry, in order."""
    # Three comprehensions, not one loop filling three lists: the loop
    # is faster below n ~ 8 but raised check-large-n's peak RSS by ~1 MB.
    lps = [log(p) if p > 0.0 else 0.0 for p in ps]
    qs = [1.0 - p for p in ps]
    lqs = [log(q) if q > 0.0 else 0.0 for q in qs]
    sq = total(map(mul, ps, ps))
    s1 = total(map(mul, ps, lps))
    s2 = total(map(mul, ps, map(mul, lps, lps)))
    t1 = total(map(mul, qs, lqs))
    t2 = total(map(mul, qs, map(mul, lqs, lqs)))
    vh = s2 - s1 * s1
    if -VARENTROPY_CLAMP < vh < 0.0:
        vh = 0.0
    return MeasureSet(H=-s1 + 0.0, H1=1.0 - sq, J=-t1 + 0.0, VH=vh, VJ=t2 - t1 * t1)


def uniform_varextropy(n: int) -> float:
    """Closed form for VJ at the uniform distribution:

        n (1 - 1/n) (ln(1 - 1/n))^2 - (n (1 - 1/n) ln(1 - 1/n))^2

    Zero at n = 2; algebraically equal to -(n-1)(n-2) (ln(1 - 1/n))^2, so
    the magnitude grows with n and tends to 1, not 0. sweep-n prints this
    value; ``measure_all``, ``varextropy`` and claim C6 report the summed
    ``varextropy(uniform(n))`` (``constant_measures``), within 8 ulp of it.
    """
    if require_int("n", n) < 2:
        raise TooFewOutcomes(f"need at least 2 outcomes, got {n}")
    t = 1.0 - 1.0 / n
    ln_t = math.log(t)
    nt = n * t
    return nt * (ln_t * ln_t) - (nt * ln_t) ** 2
