"""A scalar reference engine for ``check_all``: the claims' documented
semantics, one point at a time, on the public one-distribution functions
alone (``sample_uniform_simplex``, ``make_distribution``, ``negate``,
``measure_all``, ``majorizes`` and ``uniform``).

It follows the order the ``claims`` module docstring gives: fixtures, then
the maximizer probes by n, then the trials by index, trial t having n =
n_min + t % (n_max - n_min + 1). It keeps the first violation, the first
strict maximum, and ``min_margin``'s first minimum with its sign of zero,
and it builds the ``ClaimReport``s that ``reports_to_json`` writes. It
shares no code with the batched engine, so a property comparing their
bytes on drawn inputs is a differential test of the whole pass (McKeeman,
"Differential testing for software", Digital Technical Journal 10(1),
1998).

It is slow by design: a few dozen trials of n up to about 10^3.
"""

import math

from negprob import (
    SimplexSamplerConfig,
    majorizes,
    make_distribution,
    measure_all,
    negate,
    sample_uniform_simplex,
    uniform,
)
from negprob.claims import CLAIMS, CONFIRMED, REFUTED, ClaimReport, Counterexample

# The measure each claim is about.
FIELD = {"C1": "H", "C2": "VH", "C3": "VJ", "C4": "H", "C5": "VH", "C6": "VJ",
         "C7": "H", "C8": "VH", "C9": "VJ"}
# The fixture evaluated ahead of the trials of C2 and C3, when n = 4 is in range.
FIXTURE = (0.4, 0.3, 0.2, 0.1)


def reference_reports(*, seed, trials, n_range, tolerance, claim_ids=None):
    """What ``check_all`` reports for these arguments, in registry order."""
    selected = [c for c in CLAIMS if claim_ids is None or c.id in claim_ids]
    n_min, n_max = n_range
    points = []  # each trial's (p, measures of p, negate(p), measures of negate(p))
    if any(c.kind != "limit" for c in selected):
        for t in range(trials):
            n = n_min + t % (n_max - n_min + 1)
            p = sample_uniform_simplex(SimplexSamplerConfig(seed, n, trials), t)
            q = negate(p)
            points.append((p, measure_all(p), q, measure_all(q)))
    reports = []
    for claim in selected:
        if claim.kind == "inequality":
            ce, observed = inequality(claim.id, n_range, tolerance, points)
            reports.append(report(claim.id, seed, trials, tolerance, ce, observed))
        elif claim.kind == "maximizer":
            ce, observed = maximizer(claim.id, n_range, tolerance, points)
            reports.append(report(claim.id, seed, trials, tolerance, ce, observed))
        else:
            ns = grid(*n_range)
            ce, observed = limit(claim.id, ns, tolerance)
            reports.append(report(claim.id, seed, len(ns), tolerance, ce, observed))
    return reports


def report(claim_id, seed, trials_run, tolerance, counterexample, observed):
    return ClaimReport(claim_id=claim_id, verdict=REFUTED if counterexample else CONFIRMED,
                       trials_run=trials_run, seed=seed, tolerance=tolerance,
                       counterexample=counterexample, observed=observed)


def inequality(claim_id, n_range, tolerance, points):
    """The first point whose negation lowers the measure by more than the
    tolerance (for C1, also one that fails to majorize its negation), and
    the observed statistics of the trials."""
    field = FIELD[claim_id]
    ce = None
    if claim_id in ("C2", "C3") and n_range[0] <= len(FIXTURE) <= n_range[1]:
        p = make_distribution(FIXTURE)
        lhs, rhs = getattr(measure_all(negate(p)), field), getattr(measure_all(p), field)
        if lhs < rhs - tolerance:
            ce = Counterexample(p.probs, lhs, rhs, rhs - lhs)
    min_margin, failures, reversed_, reversible = math.inf, 0, 0, 0
    for p, before, q, after in points:
        lhs, rhs = getattr(after, field), getattr(before, field)
        min_margin = min(min_margin, lhs - rhs)  # min keeps the first of equal values
        violated = lhs < rhs - tolerance
        if claim_id == "C1":
            if not majorizes(p, q):
                failures += 1
                violated = True
        elif p.n >= 3:  # negation cannot be undone
            reversible += 1
            reversed_ += lhs <= rhs
        if violated and ce is None:
            ce = Counterexample(p.probs, lhs, rhs, rhs - lhs)
    observed = {"min_margin": min_margin}
    if claim_id == "C1":
        observed["majorization_failures"] = failures
    elif reversible:
        observed["reversal_fraction"] = reversed_ / reversible
    return ce, observed


def probes(n):
    """uniform(n), then uniform + eps*(e_0 - e_1) renormalised for each eps
    in (1e-3, 1e-2) at most 1/n (1/(2n) when neither is)."""
    u = uniform(n)
    yield u
    base = u.probs[0]
    for eps in [e for e in (1e-3, 1e-2) if e <= base] or [base / 2.0]:
        values = list(u.probs)
        values[0] += eps
        values[1] -= eps
        yield make_distribution(values, renormalize=True)


def maximizer(claim_id, n_range, tolerance, points):
    """The first point whose negated measure exceeds its claimed maximum (ln
    n for H, else the measure of negate(uniform(n))) by more than the
    tolerance, and the first point of the largest excess."""
    field = FIELD[claim_id]
    bounds = {}
    ce = peak = None

    def fold(p, after):
        nonlocal ce, peak
        if p.n not in bounds:
            bounds[p.n] = (math.log(p.n) if field == "H"
                           else getattr(measure_all(negate(uniform(p.n))), field))
        value = getattr(after, field)
        excess = value - bounds[p.n]
        if peak is None or excess > peak[0]:
            peak = (excess, value, p.probs)
        if ce is None and excess > tolerance:
            ce = Counterexample(p.probs, value, bounds[p.n], excess)

    for n in range(n_range[0], n_range[1] + 1):
        for q in probes(n):
            fold(q, measure_all(negate(q)))
    for p, _, _, after in points:
        fold(p, after)
    return ce, {"max_excess": peak[0], "argmax_value": peak[1], "argmax_p": list(peak[2])}


def grid(n_min, n_max):
    """Every n of a range of at most 16, else n_min, n_max and 14 steps of a
    geometric sequence between them, rounded."""
    if n_max - n_min < 16:
        return list(range(n_min, n_max + 1))
    ns = {n_min, n_max}
    ratio = (n_max / n_min) ** (1.0 / 15.0)
    x = float(n_min)
    for _ in range(14):
        x *= ratio
        ns.add(round(x))
    return sorted(n for n in ns if n_min <= n <= n_max)


def limit(claim_id, ns, tolerance):
    """The first grid n at which the measure of uniform(n) breaks the
    claimed trend: C4, H = ln n and rising; C5, VH = 0; C6, |VJ| not
    growing by more than the tolerance."""
    values = [getattr(measure_all(uniform(n)), FIELD[claim_id]) for n in ns]
    ce = None
    for j, (n, v) in enumerate(zip(ns, values)):
        before = values[j - 1] if j else None
        if claim_id == "C4":
            target = math.log(n)
            if abs(v - target) > tolerance:
                ce = Counterexample(uniform(n).probs, v, target, abs(v - target))
            elif j and v <= before:
                ce = Counterexample(uniform(n).probs, v, before, before - v)
        elif claim_id == "C5":
            if abs(v) > tolerance:
                ce = Counterexample(uniform(n).probs, v, 0.0, abs(v))
        elif j and abs(v) - abs(before) > tolerance:
            ce = Counterexample(uniform(n).probs, abs(v), abs(before), abs(v) - abs(before))
        if ce is not None:
            break
    return ce, {"n_grid": ns, "values": values}
