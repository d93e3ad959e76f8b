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
    same value bit for bit. The probes depend on n alone, so a process
    measures each n's once, in aligned blocks of consecutive n
    (``_batch.probe_block``) built on first use and then kept, each with
    its bound columns: ln n for C7 (``math.log``'s bits), and for C8 and
    C9 the measure of negate(uniform(n)), each n's first probe negated.
    A check takes the probes of its range as slices of those blocks
    (``_batch.ProbeRange``), and each random trial then adds its sample
    as one point. Probes and trials go through one fold,
    ``_Maximizer._points``, once per slice and per chunk, against one
    bound table per claim, indexed by n - n_min and made by
    concatenating the slices' bound columns. Each probe's floats are
    ``fsum``'s exact results whichever block holds it, and folding a
    slice's probes in (n, point) order at once keeps the same first
    strict maximum and first violation as folding them n by n, so a
    report is the same in a fresh process as after any other checks.
    The cache holds at most 45 blocks, about 2 MB once every n up to
    10^4 has been probed. A block of 227 n takes about 0.4 ms to build,
    on the first check that reads it, against 0.12 ms for n 2..8 alone
    (2-vCPU Xeon, min of 200).

Verdicts report what the formulas actually do. With default settings C1,
C4, C5 and C7 come out CONFIRMED while C2, C3, C6, C8 and C9 come out
REFUTED: the fixed four-outcome fixture [0.4, 0.3, 0.2, 0.1] moves both
second-moment measures the other way, |varextropy(uniform(n))| grows with
n instead of shrinking, and uniform is the minimizer (not the maximizer)
of the negated second-moment measures.

C1 and C7 are theorems. Negation is p -> M p with M = (11^T - I)/(n - 1),
a doubly stochastic matrix, so p majorizes negate(p) (Hardy, Littlewood
and Polya; Marshall, Olkin and Arnold, "Inequalities: Theory of
Majorization", ch. 2). Entropy is Schur-concave, so it cannot decrease
under negation (C1); and H <= ln n with equality only at uniform, which
negation, a one-to-one map, reaches only from uniform (C7). C4 and C5 are
identities: H(uniform(n)) = ln n and VH(uniform(n)) = 0. C4's rise in n
is not re-checked at run time: tests/test_claims.py proves that H of
uniform(n), as ``measures.constant_measures`` gives it, rises from every
n to n + 1 up to ``MAX_OUTCOMES`` by at least about 1e-4, so it rises
along every grid; C4 checks each grid value against ln n.

C1's premise holds in floats as well, so no trial tests it and C1
reports ``majorization_failures`` 0: ``simplex.majorizes(p, negate(p))``
is True for every sample p (``_batch.sample_rows``,
``simplex.sample_uniform_simplex``) with n <= ``MAX_OUTCOMES``. Let u =
2**-53. A sample's entries are in [0, 1], and their exact sum s is
within 2u + u**2 < 3u of 1 (see ``_batch.sample_rows``). ``majorizes``
adds p's entries, largest first, into prefix sums S_k and q's into Q_k,
and fails at k only when S_k < fl(Q_k - slack); S_k is a float and
rounding is monotone, so only when Q_k - S_k > slack exactly. Let P_k be
the exact sum of p's k largest entries. Q_k - S_k is at most the sum of
three bounds (Higham, "Accuracy and Stability of Numerical Algorithms",
ch. 4, for the rounding of recursive sums):

- The exact gap and q's entries. q = fl(fl(1 - p) / (n - 1)) is
  non-increasing in p, so q's k largest entries are those of p's k
  smallest, whose sum L_k gives them the exact values' sum (k - L_k) /
  (n - 1). p majorizes M p, whose entries are (s - p_i) / (n - 1) and
  whose k largest sum to (k s - L_k) / (n - 1) <= P_k; so the exact
  values exceed P_k by at most k (1 - s) / (n - 1) <= 3u n / (n - 1).
  Each q is at most (1 + u)**2 times its exact value (two roundings,
  neither below the normal range), and the exact values of all n sum to
  (n - s) / (n - 1), so q's roundings add at most (2u + u**2)(1 + 3u /
  (n - 1)).
- p's side, P_k - S_k. S_1 is exact. While S_j < 1, step j's exact sum
  is below 1 (one of 1 or more rounds to 1 or more) and loses at most
  u / 2, half an ulp of [0.5, 1). Once S_j >= 1, every later S_k >= 1,
  since the entries are nonnegative and rounding is monotone, while
  P_k <= s < 1 + 3u. So P_k - S_k <= max((n - 1) u / 2, 3u).
- q's side, Q_k less the exact sum of its k entries. Every q is at most
  c = fl(1 / (n - 1)), so by monotone rounding each Q_j is at most C_j,
  the float prefix sums of n copies of c, and step j's rounding is at
  most half an ulp of C_j. Those half-ulps, j = 2..n, sum exactly.

The sum is largest at n = 10**4, 9.26e-13, under
``simplex.MAJORIZATION_SLACK`` = 1e-12; tests/test_simplex.py computes it
exactly for every n in 2..``MAX_OUTCOMES`` and aims rows at it. The
proof needs only entries in [0, 1] whose exact sum is within 3u of 1. It
does not cover every valid ``Distribution``, whose total may be 1e-9 off
1 (see ``simplex.majorizes``). tests/reference_engine.py still tests
the premise with the scalar ``majorizes`` on every trial it draws.

Reproducibility: a report is a pure function of (seed, trials, n_range,
tolerance), whichever claims are selected beside it. A check samples at
most ``MAX_SAMPLED_ENTRIES`` = 2**32 entries: trials * n_max above it
raises a ``ValueError`` before anything is seeded, whichever claims are
selected; so every trial index t is below 2**31. Each trial is drawn
once from its own stream, numpy's ``SeedSequence((seed, n, t))`` feeding
PCG64, negated and measured once, and shared by every selected claim;
``check_claim`` is the one-claim case. Within a claim the order is fixed:
fixtures, then probes by n, then trials by trial index. The reported
counterexample is the first violation in that order, and a maximizer's
reported peak is the first point that attains the largest excess.

The trial pass is batched (``_batch``). Trials are taken in index order,
in chunks of at most ``_batch.CHUNK_ENTRIES`` entries (but at least one
trial, so n near 10^4 gives one trial per chunk), and every step runs at
most once per chunk: seeding, renormalisation, negation and the
measures. The samples and their negations are not validated row by
row: every check of ``make_distribution`` but one holds for them by
construction (see ``_batch.sample_rows`` and ``_batch.TrialChunk``), and
that one, a sample whose gaps are all zero, raises its usual
``NotADistribution``. A chunk draws its samples when it is made and
takes each later step only when a reducer first reads its result, so a
subset of claims costs only what it reads. Every
step is the same IEEE operation or ``math.log`` that the
one-distribution functions use, and every row sum is ``math.fsum``'s
correctly rounded exact sum (taken by error-free extraction, with
``fsum`` itself for a row outside the window, see ``_batch.Rows.fsums``),
so every float equals theirs by construction. The reducers then fold
each chunk's columns in trial order by their own reductions: ``argmax``
and ``argmin`` keep the first extreme (no NaN reaches these columns),
so the first violation wins, the first strict maximum is the peak, and
``min_margin`` keeps the first minimum with its sign of zero. Only a
reported point is turned back into a tuple of probabilities.

The limit grid's uniform(n) is measured in O(1) by
``measures.constant_measures``, whose sums are the closed form n * t,
bitwise equal to ``measure_all`` of its n equal entries, once per n per
process (``_uniform_measures``, at most ``MAX_OUTCOMES`` - 1 entries,
about 2.8 MB were every n on some grid); the fixture and its two
measurements are likewise made once per process (``_fixture``). A limit
claim's counterexample is the ``simplex.RunPoint`` of its one run (1/n,
n), with no ``Distribution`` built (a test asserts ``make_distribution``'s
checks on it for every n up to ``MAX_OUTCOMES``). The maximizer
probes of consecutive n are the rows of a ``_batch.ProbeBlock``: each
probe is held as three (value, count) runs, and the block takes
``make_distribution``'s renormalisation and ``negate`` as the same IEEE
operations on all its probes at once (a test asserts the range and sum
checks on every probe of every n up to ``MAX_OUTCOMES``, so the block
does not repeat them on each run), the measures' terms by
``_batch.measure_terms``, the function the trials' measures use too, and
every sum as ``fsum`` of each run's exact split parts, by
``_batch.Rows.fsums``.
The tests pin both to exact rational sums (``fractions.Fraction``). A
probe's tuple, a ``RunPoint`` of its nonempty runs, is built only when
the point becomes a counterexample or the running peak, once per check
(``_batch.ProbeRange.probs``), so every claim that reports it gets the
same tuple, and a cached block keeps none of them.

A report line has one writer, ``ClaimReport.to_json``: the compact JSON
of ``to_json_obj()``, put together from ``json``'s encodings of its parts
in the same key order. It saves formatting work only. Claims that report
the same fixture, probe or trial point (C2 and C3 often do) get the same
tuple, from the fixture's one measurement, a probe range's or a
chunk's ``probs``, and a maximizer's ``observed["argmax_p"]`` is its
peak's tuple itself. ``reports_to_json`` formats each distinct tuple once
per call, whether it is a counterexample or an ``argmax_p``. A point held
as runs, uniform(n) in a limit claim's counterexample or a maximizer
probe, is written one run at a time: each run's value is formatted once
and its text repeated for the run's entries. Every other number is
formatted by ``json``, except the entries of a long trial point: a
trial's sample of at least ``COLUMNAR_POINT_MIN`` entries is formatted
from its float64 row on numpy columns by ``_float_json.array_json``
(Schubfach's shortest decimals for the entries in [2**-1022, 1),
``json``'s own text for the rest), which gives ``json``'s bytes by
construction at about a fifth of its cost: 1.2 against 6.5 ms for 9,000
entries (2-vCPU Xeon). It is imported only then, so the limit claims and
the CLI's other commands still run without numpy.
``reports_to_json`` joins the pieces of all lines at once, a point's
pieces among them, so a long point's or run's text is not first copied
into a point or a line of its own.
"""

from __future__ import annotations

import json
import math
from functools import cache

from ._record import frozen_record
from .measures import constant_measures, measure_all
from .negation import negate
from .simplex import (RunPoint, SimplexSamplerConfig, make_distribution, require_int,
                      require_tolerance)

CONFIRMED = "CONFIRMED"
REFUTED = "REFUTED"

MAX_OUTCOMES = 10_000
# A check samples at most this many entries, trials * n_max: at 1 to 2
# million sampled entries a second (2-vCPU Xeon), 35 to 70 minutes. Since
# n_max >= 2, every trial index is below 2**31, one SeedSequence word.
MAX_SAMPLED_ENTRIES = 2**32

# Decides C2 and C3 on its own whenever n = 4 is in scope.
REFUTATION_FIXTURE = (0.4, 0.3, 0.2, 0.1)

# json.dumps(obj, separators=(",", ":")), with its encoder made once.
_compact_json = json.JSONEncoder(separators=(",", ":")).encode

# Trial points of at least this many entries are formatted on numpy columns:
# the measured crossover, below which json's float.__repr__ per entry costs
# less. On sampled trial points, json of the tuple against the columns of its
# row (2-vCPU Xeon, numpy 2.4.6; min of 9 x 20 calls on 10 points, three runs,
# one disturbed at n = 300 and 304 and left out there), json took 157-159 us
# and the columns 163-166 us at n = 288, about the same at 296 and 300
# (164-168 against 164-166 us), and 169-170 against 164-168 us at 304.
COLUMNAR_POINT_MIN = 300


class UnknownClaim(ValueError):
    """No registered claim has the requested id."""


@frozen_record
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


@frozen_record
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


@frozen_record
class ClaimReport:
    claim_id: str
    verdict: str
    trials_run: int
    seed: int
    tolerance: float
    counterexample: Counterexample | None
    observed: dict | None

    def to_json_obj(self) -> dict:
        """The report as a JSON object; ``to_json`` writes the text of its
        ``json.dumps`` with compact separators."""
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
        """``to_json_obj()`` as compact JSON: one line of ``reports_to_json``."""
        return "".join(self._pieces({}))

    def _pieces(self, point_texts: dict) -> list[str]:
        """The pieces of text that join into ``json.dumps(self.to_json_obj(),
        separators=(",", ":"))``: the same keys and values, encoded by the
        same encoder in the same order, with the counterexample's point and
        a maximizer's peak, a tuple ``observed["argmax_p"]``, put in as the
        pieces of their text. point_texts maps id(p) to (p, the pieces of
        p's text) for every point already formatted, so a point that
        several reports share, or one report as both, is formatted once;
        holding p keeps its id from being reused while the map lives."""
        head = _compact_json({
            "claim": self.claim_id,
            "verdict": self.verdict,
            "trials": self.trials_run,
            "seed": self.seed,
            "tolerance": self.tolerance,
        })
        line = [head[:-1], ',"counterexample":']
        ce = self.counterexample
        if ce is None:
            line.append("null")
        else:
            numbers = _compact_json({"lhs": ce.lhs, "rhs": ce.rhs, "margin": ce.margin})
            line += ['{"p":', *_point_text(ce.p, point_texts), ",", numbers[1:]]
        observed = self.observed
        if observed is not None:
            line.append(',"observed":')
            if (list(observed) == ["max_excess", "argmax_value", "argmax_p"]
                    and isinstance(observed["argmax_p"], tuple)):
                numbers = _compact_json({"max_excess": observed["max_excess"],
                                         "argmax_value": observed["argmax_value"]})
                line += [numbers[:-1], ',"argmax_p":',
                         *_point_text(observed["argmax_p"], point_texts), "}"]
            else:
                line.append(_compact_json(observed))
        line.append("}")
        return line


def _point_text(p, point_texts: dict) -> list[str]:
    """``_point_pieces(p)``, formatted on the first request for p in one
    point_texts map (see ``ClaimReport._pieces``)."""
    if id(p) not in point_texts:
        point_texts[id(p)] = (p, _point_pieces(p))
    return point_texts[id(p)][1]


def _point_json(p) -> str:
    """The JSON array of the probabilities p: the join of
    ``_point_pieces(p)``."""
    return "".join(_point_pieces(p))


def _point_pieces(p) -> list[str]:
    """Pieces of text that join into the JSON array of the probabilities
    p. A point held as runs (``simplex.RunPoint``) is written one run at a
    time: each value is formatted once, and its text with a comma is
    repeated for all but the run's last entry, so a long run is one piece,
    which only the final join copies. A trial point
    (``_batch.TrialPoint``) of at least ``COLUMNAR_POINT_MIN`` entries
    hands over the float64 row it was made from, which
    ``_float_json.array_json`` formats on numpy columns to the same bytes,
    its entries neither checked nor copied again; any other point, such as
    the fixture, is written by ``json`` itself."""
    runs = getattr(p, "runs", None)
    if runs is not None:
        pieces = ["["]
        for v, count in runs:
            text = _compact_json(v)
            if len(pieces) > 1:
                pieces.append(",")
            pieces += [(text + ",") * (count - 1), text]
        pieces.append("]")
        return pieces
    row = getattr(p, "row", None)
    if row is not None and len(p) >= COLUMNAR_POINT_MIN:
        from ._float_json import array_json

        return [array_json(row)]
    return [_compact_json(list(p))]


def reports_to_json(reports) -> str:
    """One JSON object per line, in the order given. A counterexample point
    that several reports share (C2 and C3 often report the same trial) is
    formatted once for all of them."""
    point_texts: dict = {}
    pieces: list[str] = []
    for r in reports:
        if pieces:
            pieces.append("\n")
        pieces += r._pieces(point_texts)
    return "".join(pieces)  # one copy of each long point text, not two


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
    elif isinstance(claim_ids, str):  # iterated, it would give one character per id
        raise ValueError(f"claim_ids = {claim_ids!r} must be a collection of claim ids")
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


class _Inequality:
    """Running verdict of one inequality claim; the first violation wins."""

    def __init__(self, claim: Claim, tolerance: float) -> None:
        self.claim = claim
        self.tolerance = tolerance
        self.counterexample: Counterexample | None = None
        self.min_margin = math.inf
        self.reversed = 0
        self.reversible = 0  # trials with n >= 3, counted for C2 and C3

    def fixture(self, probs, before, after) -> None:
        """A fixture only decides the verdict."""
        field = _MEASURE_FIELD[self.claim.id]
        lhs, rhs = getattr(after, field), getattr(before, field)
        if lhs < rhs - self.tolerance:
            self._violation(probs, lhs, rhs)

    def trials(self, chunk) -> None:
        """Fold a chunk's trials in trial order into the verdict and the
        observed statistics."""
        field = _MEASURE_FIELD[self.claim.id]
        lhs = chunk.measures("negated")[field]
        rhs = chunk.measures("p")[field]
        margin = lhs - rhs  # min() and argmin() keep the first minimum, with its sign of zero
        self.min_margin = min(self.min_margin, float(margin[margin.argmin()]))
        violated = lhs < rhs - self.tolerance
        if self.claim.id != "C1":  # C1 reports majorization failures, the others their reversals
            reversible, count = chunk.reversible
            self.reversible += count
            self.reversed += int((reversible & (lhs <= rhs)).sum())
        i = int(violated.argmax())  # the first violation, when there is one
        if self.counterexample is None and violated[i]:
            self._violation(chunk.probs(i), float(lhs[i]), float(rhs[i]))

    def _violation(self, probs, lhs, rhs) -> None:
        if self.counterexample is None:
            self.counterexample = Counterexample(probs, lhs, rhs, rhs - lhs)

    def observed(self) -> dict:
        observed: dict = {"min_margin": self.min_margin}
        if self.claim.id == "C1":
            observed["majorization_failures"] = 0  # none, by the proof in the module docstring
        elif self.reversible > 0:
            observed["reversal_fraction"] = self.reversed / self.reversible
        return observed


class _Maximizer:
    """Running verdict of one maximizer claim. ``_run`` hands ``_points``
    each n's probes and then each trial chunk, each point with its claimed
    maximum; the first violation wins and the first strict maximum is the
    reported peak."""

    def __init__(self, claim: Claim, tolerance: float) -> None:
        self.claim = claim
        self.tolerance = tolerance
        self.counterexample: Counterexample | None = None
        self.peak: tuple | None = None  # (excess, value, probs)

    def _points(self, value, bound, probs) -> None:
        """Fold points in order: the float arrays value and bound hold each
        point's negated measure and claimed maximum, and probs(i) gives the
        i-th point, as a sequence of probabilities, when it is reported."""
        excess = value - bound
        peak = int(excess.argmax())  # the first strict maximum
        top = float(excess[peak])
        if self.peak is None or top > self.peak[0]:
            self.peak = (top, float(value[peak]), probs(peak))
        else:
            peak = None
        if self.counterexample is None:
            over = excess > self.tolerance
            i = int(over.argmax())  # the first excess over the tolerance, when there is one
            if over[i]:
                # A point that is both the new peak and the violation is built once.
                self.counterexample = Counterexample(
                    self.peak[2] if i == peak else probs(i),
                    float(value[i]), float(bound[i]), float(excess[i])
                )

    def observed(self) -> dict:
        return {
            "max_excess": self.peak[0],
            "argmax_value": self.peak[1],
            "argmax_p": self.peak[2],
        }


def _run(selected, seed, trials, n_range, tolerance) -> list[ClaimReport]:
    """Reports for the selected claims, in the order given: fixtures and
    probes first, then one pass over the trials in chunks. Each chunk draws
    its trials once, and negates, measures and checks them only as far as
    the selected claims read, once for all of them. Claims that report the
    same fixture, probe or trial point get the same tuple (a probe's from
    ``ProbeRange.probs``, a trial's from ``TrialChunk.probs``), so
    ``reports_to_json`` formats it once."""
    try:
        n_min, n_max = n_range
    except (TypeError, ValueError):
        raise ValueError(f"n_range = {n_range!r} must be a pair (n_min, n_max)") from None
    for name, value in (("n_range[0]", n_min), ("n_range[1]", n_max), ("trials", trials)):
        require_int(name, value)
    if not (2 <= n_min <= n_max <= MAX_OUTCOMES):
        raise ValueError(
            f"n_range = {n_range!r} must satisfy 2 <= n_min <= n_max <= {MAX_OUTCOMES}"
        )
    if trials < 1:
        raise ValueError(f"trials = {trials!r} must be positive")
    if trials * n_max > MAX_SAMPLED_ENTRIES:
        raise ValueError(
            f"trials * n_max = {trials} * {n_max} exceeds the bound of "
            f"{MAX_SAMPLED_ENTRIES} sampled entries"
        )
    require_tolerance("tolerance", tolerance)
    SimplexSamplerConfig(seed, n_min, trials)  # the sampler's seed rule, for every claim
    inequalities = [_Inequality(c, tolerance) for c in selected if c.kind == "inequality"]
    maximizers = [_Maximizer(c, tolerance) for c in selected if c.kind == "maximizer"]

    refutable = [tally for tally in inequalities if tally.claim.id in ("C2", "C3")]
    if refutable and n_min <= len(REFUTATION_FIXTURE) <= n_max:
        for tally in refutable:
            tally.fixture(*_fixture())  # one point for both

    if inequalities or maximizers:
        import numpy as np  # numpy loads only when trials are drawn

        from ._batch import probe_ranges, trial_chunks

        ranges = probe_ranges(n_min, n_max) if maximizers else []
        # Each maximizer's field and its claimed maximum at n, at n - n_min:
        # the ranges' bound columns one after another, ln n for H, else the
        # field of negate(uniform(n)), each n's first probe.
        bounds = []
        for tally in maximizers:
            field = _MEASURE_FIELD[tally.claim.id]
            bounds.append((tally, field, np.concatenate([r.bounds[field] for r in ranges])))
        for r in ranges:
            for tally, field, bound in bounds:
                tally._points(r.measures[field], bound[r.n - n_min], r.probs)

        for chunk in trial_chunks(seed, trials, n_min, n_max):
            for tally in inequalities:
                tally.trials(chunk)
            for tally, field, bound in bounds:
                tally._points(chunk.measures("negated")[field], bound[chunk.n - n_min],
                              chunk.probs)

    grid = _limit_grid(n_min, n_max)
    limits = any(c.kind == "limit" for c in selected)
    at_uniform = [_uniform_measures(n) for n in grid] if limits else []
    tallies = {tally.claim.id: tally for tally in inequalities + maximizers}
    return [
        _check_limit(c, seed, tolerance, grid, at_uniform) if c.kind == "limit"
        else _report(c, seed, trials, tolerance, tallies[c.id].counterexample,
                     tallies[c.id].observed())
        for c in selected
    ]


@cache
def _fixture():
    """The fixture's point and the measures of it and of its negation,
    computed once per process."""
    p = make_distribution(REFUTATION_FIXTURE)
    return p.probs, measure_all(p), measure_all(negate(p))


@cache
def _uniform_measures(n: int):
    """``constant_measures(1/n, n)``, uniform(n)'s measures, computed once per
    n per process: at most ``MAX_OUTCOMES`` - 1 of them."""
    return constant_measures(1.0 / n, n)


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
        if claim.id == "C4":  # the rise in n is proven by a test, not checked here
            target = math.log(n)
            if abs(v - target) > tolerance:
                counterexample = Counterexample(
                    RunPoint.of([(1.0 / n, n)]), v, target, abs(v - target)
                )
                break
        elif claim.id == "C5":
            if abs(v) > tolerance:
                counterexample = Counterexample(RunPoint.of([(1.0 / n, n)]), v, 0.0, abs(v))
                break
        else:  # C6: magnitudes must not grow along the grid
            if j > 0 and abs(v) - abs(values[j - 1]) > tolerance:
                counterexample = Counterexample(
                    RunPoint.of([(1.0 / n, n)]), abs(v), abs(values[j - 1]),
                    abs(v) - abs(values[j - 1]),
                )
                break

    observed = {"n_grid": grid, "values": values}
    return _report(claim, seed, len(grid), tolerance, counterexample, observed)
