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
from collections.abc import Iterator

from ._record import frozen_record
from .measures import MeasureSet, measure_all
from .simplex import Distribution, make_distribution_runs, require_int, require_tolerance

DEFAULT_MAX_STEPS = 100
DEFAULT_TOLERANCE = 1e-9


def negate(d: Distribution) -> Distribution:
    """One application of the negation map; output is validated on the way out."""
    scale = d.n - 1
    return Distribution(tuple((1.0 - p) / scale for p in d.probs))


def negate_runs(runs) -> list[tuple[float, int]]:
    """``negate`` of the distribution that the (value, count) runs expand
    to, as runs; the output is validated like ``negate``'s."""
    scale = sum(c for _, c in runs) - 1
    return make_distribution_runs([((1.0 - v) / scale, c) for v, c in runs])


def negate_k(d: Distribution, k: int) -> Distribution:
    """The k-th iterate via the closed form, O(n) regardless of k.

    k must be a nonnegative int; a bool or a float raises ValueError
    (``require_int``).
    k = 0 returns the input unchanged. Agreement with k explicit
    applications of ``negate`` is a tested invariant (1e-12 sup-norm).
    Entries are clamped at 0, where rounding can land an exact zero (the
    negation of a vertex) just below it.

    The parity of k sets the sign of r**k, and k never becomes a float,
    which would round away its parity from 2**53 on and overflow beyond
    ~1e308. |r|**k is 1 for n = 2 and underflows to 0 for n >= 3 long
    before k = 2**53, so capping the exponent there changes no bit.
    """
    if require_int("k", k) < 0:
        raise ValueError(f"k = {k} must be nonnegative")
    if k == 0:
        return d
    u = 1.0 / d.n
    rk = (1.0 / (d.n - 1)) ** min(k, 2**53)
    if k % 2:
        rk = -rk
    return Distribution(tuple(max(0.0, u + rk * (p - u)) for p in d.probs))


@frozen_record
class TraceStep:
    k: int
    dist: Distribution
    measures: MeasureSet

    def to_json(self) -> str:
        """One JSON object: k, the entries p, then the five measures."""
        obj = {"k": self.k, "p": list(self.dist.probs)}
        obj.update(self.measures.as_dict())
        return json.dumps(obj, separators=(",", ":"))


@frozen_record
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
        lines = [step.to_json() for step in self.steps]
        lines.append(summary_json(self.converged_at, self.tolerance))
        return "\n".join(lines)


def summary_json(converged_at: int | None, tolerance: float) -> str:
    """The summary object that ends a trace's JSON Lines."""
    summary = {"converged_at": converged_at, "tolerance": tolerance}
    return json.dumps(summary, separators=(",", ":"))


def converged_at(last: TraceStep, tolerance: float) -> int | None:
    """k of the last step of a trace when it is within ``tolerance`` of
    uniform, else None (the step budget ran out first)."""
    return last.k if last.dist.max_deviation_from_uniform() <= tolerance else None


def negation_steps(
    d: Distribution,
    max_steps: int = DEFAULT_MAX_STEPS,
    tolerance: float = DEFAULT_TOLERANCE,
) -> Iterator[TraceStep]:
    """The steps of ``trace_negation``, computed one at a time as they are
    consumed, so memory stays O(n) whatever ``max_steps`` is. The
    arguments are checked on the call, before any step is computed:
    ``max_steps`` by ``require_int``, ``tolerance`` by ``require_tolerance``.
    """
    if require_int("max_steps", max_steps) < 1:
        raise ValueError(f"max_steps = {max_steps} must be >= 1")
    require_tolerance("tolerance", tolerance)
    return _steps(d, max_steps, tolerance)


def _steps(current: Distribution, max_steps: int, tolerance: float) -> Iterator[TraceStep]:
    for k in range(max_steps + 1):
        yield TraceStep(k=k, dist=current, measures=measure_all(current))
        if current.max_deviation_from_uniform() <= tolerance or k == max_steps:
            return
        current = negate(current)


def trace_negation(
    d: Distribution,
    max_steps: int = DEFAULT_MAX_STEPS,
    tolerance: float = DEFAULT_TOLERANCE,
) -> NegationTrace:
    """Iterate negation from d, recording measures, until the iterate is
    within ``tolerance`` of uniform (sup-norm) or ``max_steps`` negations
    have been applied.
    """
    steps = tuple(negation_steps(d, max_steps, tolerance))
    return NegationTrace(steps, converged_at(steps[-1], tolerance), tolerance)
