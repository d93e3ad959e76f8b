"""Yager's negation of a discrete distribution and its iteration.

The negation of p is the distribution with entries

    negate(p)_i = (1 - p_i) / (n - 1),

which always lands back on the simplex with every entry in [0, 1/(n-1)].
For n = 2 it swaps the two entries, so applying it twice is the identity;
for n >= 3 it is irreversible and iterating it contracts toward the
uniform distribution geometrically, with ratio 1/(n-1) per step. Solving
the affine recurrence gives the k-th iterate in closed form:

    negate^k(p)_i = 1/n + r**k * (p_i - 1/n),   r = -1/(n-1).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .measures import MeasureSet, measure_all
from .simplex import Distribution

DEFAULT_MAX_STEPS = 100
DEFAULT_TOLERANCE = 1e-9


def negate(d: Distribution) -> Distribution:
    """One application of the negation map; output is validated on the way out."""
    scale = d.n - 1
    return Distribution(tuple((1.0 - p) / scale for p in d.probs))


def negate_k(d: Distribution, k: int) -> Distribution:
    """The k-th iterate via the closed form, O(n) regardless of k.

    k = 0 returns the input unchanged. Agreement with k explicit
    applications of ``negate`` is a tested invariant (1e-12 sup-norm).
    Entries are clamped at 0, where rounding can land an exact zero (the
    negation of a vertex) just below it.
    """
    if k < 0:
        raise ValueError(f"k = {k} must be nonnegative")
    if k == 0:
        return d
    u = 1.0 / d.n
    rk = (-1.0 / (d.n - 1)) ** k
    return Distribution(tuple(max(0.0, u + rk * (p - u)) for p in d.probs))


@dataclass(frozen=True)
class TraceStep:
    k: int
    dist: Distribution
    measures: MeasureSet


@dataclass(frozen=True)
class NegationTrace:
    """Iterates of the negation map with their measures.

    ``steps[0]`` is the input; ``steps[j+1].dist`` equals
    ``negate(steps[j].dist)``. ``converged_at`` is the first iterate whose
    sup-norm distance from uniform is within ``tolerance``, or None when
    the budget ran out first (always the case for n = 2 non-uniform input,
    which oscillates with period 2 instead of converging).
    """

    steps: tuple[TraceStep, ...]
    converged_at: int | None
    tolerance: float

    def to_json_lines(self) -> str:
        """One JSON object per step, then a summary object."""
        lines = []
        for step in self.steps:
            obj = {"k": step.k, "p": list(step.dist.probs)}
            obj.update(step.measures.as_dict())
            lines.append(json.dumps(obj, separators=(",", ":")))
        summary = {"converged_at": self.converged_at, "tolerance": self.tolerance}
        lines.append(json.dumps(summary, separators=(",", ":")))
        return "\n".join(lines)


def trace_negation(
    d: Distribution,
    max_steps: int = DEFAULT_MAX_STEPS,
    tolerance: float = DEFAULT_TOLERANCE,
) -> NegationTrace:
    """Iterate negation from d, recording measures, until the iterate is
    within ``tolerance`` of uniform (sup-norm) or ``max_steps`` negations
    have been applied.
    """
    if max_steps < 1:
        raise ValueError(f"max_steps = {max_steps} must be >= 1")
    if not (math.isfinite(tolerance) and tolerance > 0.0):
        raise ValueError(f"tolerance = {tolerance} must be finite and > 0")
    steps: list[TraceStep] = []
    converged_at: int | None = None
    current = d
    for k in range(max_steps + 1):
        steps.append(TraceStep(k=k, dist=current, measures=measure_all(current)))
        if current.max_deviation_from_uniform() <= tolerance:
            converged_at = k
            break
        if k == max_steps:
            break
        current = negate(current)
    return NegationTrace(tuple(steps), converged_at, tolerance)
