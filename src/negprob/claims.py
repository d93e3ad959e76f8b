"""A registry of nine conjectured properties of the negation map and a
seeded engine that confirms each one over randomized simplex trials or
refutes it with a concrete counterexample.

Claim kinds
-----------
inequality (C1-C3)
    A measure is claimed never to decrease under negation. Each trial
    samples a distribution and compares the measure before and after one
    negation. Fixed counterexample fixtures are always evaluated first,
    ahead of the random trials.
limit (C4-C6)
    A claimed trend of a measure at the uniform distribution as n grows,
    evaluated over a log-spaced grid of n inside the configured range.
maximizer (C7-C9)
    A negated measure is claimed to peak exactly at the uniform input.
    Deterministic probes run before the random trials: uniform itself,
    then one pair perturbation uniform + eps*(e_0 - e_1) for each eps in
    {1e-3, 1e-2} that fits inside the simplex (1/(2n) when neither does).
    One pair stands for all pairs: every uniform + eps*(e_i - e_j) is a
    permutation of the (0, 1) probe, the measures are symmetric, and
    ``math.fsum`` is exactly rounded, so every pair at a given eps has the
    same value bit for bit. Each random trial also contributes a mild
    perturbation of uniform blended toward the sample, because boundary
    structure is easy to miss by sampling alone.

Verdicts report what the formulas actually do. With default settings C1,
C4, C5 and C7 come out CONFIRMED while C2, C3, C6, C8 and C9 come out
REFUTED: the fixed four-outcome fixture [0.4, 0.3, 0.2, 0.1] moves both
second-moment measures the other way, |varextropy(uniform(n))| grows with
n instead of shrinking, and uniform is the minimizer (not the maximizer)
of the negated second-moment measures. VACUOUS is reserved for a claim
whose quantified scope is empty under the requested n range; no default
configuration produces it.

Reproducibility: a report is a pure function of (seed, trials, n_range,
tolerance), whichever claims are selected beside it. Each trial is drawn
once from its own stream keyed by (seed, n, t), negated and measured once,
and shared by every selected claim; ``check_claim`` is the one-claim case.
Within a claim the order is fixed: fixtures, then probes by n, then trials
by trial index. The reported counterexample is the first violation in that
order, and a maximizer's reported peak is the first point that attains the
largest excess.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .measures import measure_all
from .negation import negate
from .simplex import (
    Distribution,
    SimplexSamplerConfig,
    majorizes,
    make_distribution,
    sample_uniform_simplex,
    uniform,
)

CONFIRMED = "CONFIRMED"
REFUTED = "REFUTED"
VACUOUS = "VACUOUS"

MAX_OUTCOMES = 10_000

# Decides C2 and C3 on its own whenever n = 4 is in scope.
REFUTATION_FIXTURE = (0.4, 0.3, 0.2, 0.1)

# Blend weight pulling a random sample toward uniform for the extra
# near-uniform point each maximizer trial contributes.
_NEAR_UNIFORM_WEIGHT = 0.01


class UnknownClaim(ValueError):
    """No registered claim has the requested id."""


@dataclass(frozen=True)
class Claim:
    id: str
    statement: str
    kind: str  # "inequality" | "limit" | "maximizer"
    scope: str


CLAIMS: tuple[Claim, ...] = (
    Claim(
        "C1",
        "entropy(negate(p)) >= entropy(p) for every distribution p",
        "inequality",
        "all p on the simplex, n in the configured range",
    ),
    Claim(
        "C2",
        "varentropy(negate(p)) >= varentropy(p) for every distribution p",
        "inequality",
        "all p on the simplex, n in the configured range",
    ),
    Claim(
        "C3",
        "varextropy(negate(p)) >= varextropy(p) for every distribution p",
        "inequality",
        "all p on the simplex, n in the configured range",
    ),
    Claim(
        "C4",
        "entropy(uniform(n)) = ln(n), strictly increasing and unbounded in n",
        "limit",
        "uniform distributions over a log-spaced grid of n in the configured range",
    ),
    Claim(
        "C5",
        "varentropy(uniform(n)) = 0 for every n",
        "limit",
        "uniform distributions over a log-spaced grid of n in the configured range",
    ),
    Claim(
        "C6",
        "|varextropy(uniform(n))| decreases toward 0 as n grows",
        "limit",
        "uniform distributions over a log-spaced grid of n in the configured range",
    ),
    Claim(
        "C7",
        "entropy(negate(p)) is maximized exactly at p = uniform",
        "maximizer",
        "all p on the simplex plus uniform-perturbation probes, n in the configured range",
    ),
    Claim(
        "C8",
        "varentropy(negate(p)) is maximized exactly at p = uniform",
        "maximizer",
        "all p on the simplex plus uniform-perturbation probes, n in the configured range",
    ),
    Claim(
        "C9",
        "varextropy(negate(p)) is maximized exactly at p = uniform",
        "maximizer",
        "all p on the simplex plus uniform-perturbation probes, n in the configured range",
    ),
)

_CLAIMS_BY_ID = {c.id: c for c in CLAIMS}

# The MeasureSet field each claim is about.
_MEASURE_FIELD = {
    "C1": "H", "C2": "VH", "C3": "VJ",
    "C4": "H", "C5": "VH", "C6": "VJ",
    "C7": "H", "C8": "VH", "C9": "VJ",
}

_INEQUALITY_FIXTURES: dict[str, tuple[tuple[float, ...], ...]] = {
    "C2": (REFUTATION_FIXTURE,),
    "C3": (REFUTATION_FIXTURE,),
}


@dataclass(frozen=True)
class Counterexample:
    """A concrete input on which the claim's comparison fails.

    For inequality claims lhs/rhs are the negated and original measure;
    for maximizer claims they are the point's negated measure and the
    claimed bound; for limit claims they are the offending grid value and
    the value it was required to stay below (or match). margin is the
    amount by which the required relation failed, always positive.
    """

    p: tuple[float, ...]
    lhs: float
    rhs: float
    margin: float

    def as_json_obj(self) -> dict:
        return {
            "p": list(self.p),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
        }


@dataclass(frozen=True)
class ClaimReport:
    claim_id: str
    verdict: str
    trials_run: int
    seed: int
    tolerance: float
    counterexample: Counterexample | None
    observed: dict | None

    def to_json_obj(self) -> dict:
        obj: dict = {
            "claim": self.claim_id,
            "verdict": self.verdict,
            "trials": self.trials_run,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "counterexample": (
                self.counterexample.as_json_obj() if self.counterexample else None
            ),
        }
        if self.observed is not None:
            obj["observed"] = self.observed
        return obj

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"))


def reports_to_json(reports) -> str:
    """One JSON object per line, in the order given."""
    return "\n".join(r.to_json() for r in reports)


def claim_by_id(claim_id: str) -> Claim:
    try:
        return _CLAIMS_BY_ID[claim_id]
    except KeyError:
        raise UnknownClaim(
            f"unknown claim {claim_id!r}; registered: {', '.join(_CLAIMS_BY_ID)}"
        ) from None


def check_claim(
    claim_id: str,
    *,
    seed: int = 0,
    trials: int = 1000,
    n_range: tuple[int, int] = (2, 8),
    tolerance: float = 1e-9,
) -> ClaimReport:
    """Render a verdict for one claim.

    The result depends only on (seed, trials, n_range, tolerance), and it
    equals that claim's report from ``check_all``.
    """
    claim = claim_by_id(claim_id)
    return _run((claim,), seed, trials, n_range, tolerance)[0]


def check_all(
    *,
    seed: int = 0,
    trials: int = 1000,
    n_range: tuple[int, int] = (2, 8),
    tolerance: float = 1e-9,
    claim_ids=None,
) -> list[ClaimReport]:
    """Reports for every registered claim (or the requested subset), always
    in registry order, from one shared pass over the trials."""
    if claim_ids is None:
        selected = CLAIMS
    else:
        wanted = {claim_by_id(cid).id for cid in claim_ids}
        selected = tuple(c for c in CLAIMS if c.id in wanted)
    return _run(selected, seed, trials, n_range, tolerance)


# ---------------------------------------------------------------------------
# engine internals


def _report(claim, seed, trials_run, tolerance, counterexample, observed):
    return ClaimReport(
        claim_id=claim.id,
        verdict=REFUTED if counterexample is not None else CONFIRMED,
        trials_run=trials_run,
        seed=seed,
        tolerance=tolerance,
        counterexample=counterexample,
        observed=observed,
    )


@dataclass
class _Inequality:
    """Running verdict of one inequality claim; the first violation wins."""

    claim: Claim
    tolerance: float
    counterexample: Counterexample | None = None
    min_margin: float = math.inf
    majorization_failures: int = 0
    reversed: int = 0
    reversible: int = 0  # trials with n >= 3

    def point(self, p, negated, before, after, fixture=False) -> None:
        """Compare p with its negation. A fixture only decides the verdict;
        a trial also updates the observed statistics."""
        lhs = getattr(after, _MEASURE_FIELD[self.claim.id])
        rhs = getattr(before, _MEASURE_FIELD[self.claim.id])
        violated = lhs < rhs - self.tolerance
        if not fixture:
            self.min_margin = min(self.min_margin, lhs - rhs)
            if self.claim.id == "C1" and not majorizes(p, negated):
                self.majorization_failures += 1
                violated = True
            if p.n >= 3:
                self.reversible += 1
                if lhs <= rhs:
                    self.reversed += 1
        if violated and self.counterexample is None:
            self.counterexample = Counterexample(p.probs, lhs, rhs, rhs - lhs)

    def observed(self) -> dict:
        observed: dict = {"min_margin": self.min_margin}
        if self.claim.id == "C1":
            observed["majorization_failures"] = self.majorization_failures
        elif self.reversible > 0:
            observed["reversal_fraction"] = self.reversed / self.reversible
        return observed


@dataclass
class _Maximizer:
    """Running verdict of one maximizer claim; the first violation wins and
    the first strict maximum is the reported peak."""

    claim: Claim
    tolerance: float
    counterexample: Counterexample | None = None
    peak: tuple | None = None  # (excess, value, probs)

    def point(self, probs, after, negated_uniform) -> None:
        # after and negated_uniform measure negate(probs) and negate(uniform(n))
        field = _MEASURE_FIELD[self.claim.id]
        bound = math.log(len(probs)) if field == "H" else getattr(negated_uniform, field)
        value = getattr(after, field)
        excess = value - bound
        if self.peak is None or excess > self.peak[0]:
            self.peak = (excess, value, probs)
        if excess > self.tolerance and self.counterexample is None:
            self.counterexample = Counterexample(probs, value, bound, excess)

    def observed(self) -> dict:
        return {
            "max_excess": self.peak[0],
            "argmax_value": self.peak[1],
            "argmax_p": list(self.peak[2]),
        }


def _probe_points(n: int) -> list[Distribution]:
    """Uniform, then uniform + eps*(e_0 - e_1) for each probe eps.

    The (0, 1) pair stands for every pair (i, j): see the module docstring.
    """
    u = uniform(n)
    points = [u]
    base = u.probs[0]
    for eps in [e for e in (1e-3, 1e-2) if e <= base] or [base / 2.0]:
        vals = list(u.probs)
        vals[0] += eps
        vals[1] -= eps
        points.append(make_distribution(vals, renormalize=True))
    return points


def _near_uniform(x: Distribution) -> Distribution:
    """Uniform nudged toward x; the per-trial perturbation of uniform."""
    w = _NEAR_UNIFORM_WEIGHT
    u = 1.0 / x.n
    return make_distribution(
        [(1.0 - w) * u + w * xi for xi in x.probs], renormalize=True
    )


def _run(selected, seed, trials, n_range, tolerance) -> list[ClaimReport]:
    """Reports for the selected claims, in the order given: fixtures and
    probes first, then one pass that draws, negates and measures each trial
    once for every selected claim. The near-uniform blend is built only for
    maximizer claims, and ``majorizes`` runs only for C1."""
    n_min, n_max = int(n_range[0]), int(n_range[1])
    if not (2 <= n_min <= n_max <= MAX_OUTCOMES):
        raise ValueError(
            f"n_range = {n_range!r} must satisfy 2 <= n_min <= n_max <= {MAX_OUTCOMES}"
        )
    if trials < 1:
        raise ValueError(f"trials = {trials!r} must be positive")
    if not (math.isfinite(tolerance) and tolerance > 0.0):
        raise ValueError(f"tolerance = {tolerance!r} must be finite and > 0")
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ValueError(f"seed = {seed!r} must be an integer")
    SimplexSamplerConfig(seed, n_min, trials)  # the sampler's seed rule, for every claim
    inequalities = [_Inequality(c, tolerance) for c in selected if c.kind == "inequality"]
    maximizers = [_Maximizer(c, tolerance) for c in selected if c.kind == "maximizer"]
    negated_uniform = {}  # n -> measures of negate(uniform(n))

    for tally in inequalities:
        for probs in _INEQUALITY_FIXTURES.get(tally.claim.id, ()):
            if n_min <= len(probs) <= n_max:
                p = make_distribution(probs)
                negated = negate(p)
                before, after = measure_all(p), measure_all(negated)
                tally.point(p, negated, before, after, fixture=True)
    for n in range(n_min, n_max + 1) if maximizers else ():
        points = _probe_points(n)  # points[0] is uniform(n)
        values = [measure_all(negate(q)) for q in points]
        negated_uniform[n] = values[0]
        for tally in maximizers:
            for q, after in zip(points, values):
                tally.point(q.probs, after, values[0])

    for t in range(trials) if inequalities or maximizers else ():
        n = n_min + t % (n_max - n_min + 1)
        p = sample_uniform_simplex(SimplexSamplerConfig(seed, n, trials), t)
        negated = negate(p)
        after = measure_all(negated)
        if inequalities:
            before = measure_all(p)
            for tally in inequalities:
                tally.point(p, negated, before, after)
        if maximizers:
            blend = _near_uniform(p)
            blend_after = measure_all(negate(blend))
            for tally in maximizers:
                tally.point(p.probs, after, negated_uniform[n])
                tally.point(blend.probs, blend_after, negated_uniform[n])

    grid = _limit_grid(n_min, n_max)
    limits = any(c.kind == "limit" for c in selected)
    at_uniform = [measure_all(uniform(n)) for n in grid] if limits else []
    tallies = {tally.claim.id: tally for tally in inequalities + maximizers}
    return [
        _check_limit(c, seed, tolerance, grid, at_uniform) if c.kind == "limit"
        else _report(c, seed, trials, tolerance, tallies[c.id].counterexample,
                     tallies[c.id].observed())
        for c in selected
    ]


def _limit_grid(n_min: int, n_max: int) -> list[int]:
    span = n_max - n_min + 1
    if span <= 16:
        return list(range(n_min, n_max + 1))
    grid = {n_min, n_max}
    ratio = (n_max / n_min) ** (1.0 / 15.0)
    x = float(n_min)
    for _ in range(14):
        x *= ratio
        grid.add(round(x))
    return sorted(n for n in grid if n_min <= n <= n_max)


def _check_limit(claim, seed, tolerance, grid, at_uniform):
    values = [getattr(m, _MEASURE_FIELD[claim.id]) for m in at_uniform]

    counterexample = None
    for j, (n, v) in enumerate(zip(grid, values)):
        if claim.id == "C4":
            target = math.log(n)
            if abs(v - target) > tolerance:
                counterexample = Counterexample(
                    uniform(n).probs, v, target, abs(v - target)
                )
                break
            if j > 0 and v <= values[j - 1]:
                counterexample = Counterexample(
                    uniform(n).probs, v, values[j - 1], values[j - 1] - v
                )
                break
        elif claim.id == "C5":
            if abs(v) > tolerance:
                counterexample = Counterexample(uniform(n).probs, v, 0.0, abs(v))
                break
        else:  # C6: magnitudes must not grow along the grid
            if j > 0 and abs(v) - abs(values[j - 1]) > tolerance:
                counterexample = Counterexample(
                    uniform(n).probs, abs(v), abs(values[j - 1]),
                    abs(v) - abs(values[j - 1]),
                )
                break

    observed = {"n_grid": grid, "values": values}
    return _report(claim, seed, len(grid), tolerance, counterexample, observed)
