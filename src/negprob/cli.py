"""Command-line front end.

Subcommands: measure, negate, iterate, sweep-n2, sweep-n, check. Each is a
thin wrapper over the library; anything printed here can be reproduced
through the API. Output goes to stdout as CSV or JSON (JSON Lines for
iterate and check), UTF-8 with LF line endings, floats rendered with
their shortest round-trip representation. No environment variables are
consulted. The check command exits 0 whatever the verdicts are; a
refutation is a finding, not a failure.

Examples:

    negprob measure -p 0.4,0.3,0.2,0.1
    negprob negate -p 0.4,0.3,0.2,0.1 -k 2
    negprob iterate -p 0.6,0.3,0.1 -k 4 --format csv
    negprob sweep-n2 --steps 200 --format csv > two_outcome.csv
    negprob sweep-n --n-min 2 --n-max 100 --format csv > uniform_by_n.csv
    negprob check --seed 42 --trials 1000 --claims C1,C2,C3
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Iterator

from ._record import frozen_record
from .measures import (
    MeasureSet,
    constant_measures,
    entropy,
    measure_all,
    uniform_varextropy,
    varentropy,
    varextropy,
)
from .negation import (
    DEFAULT_MAX_STEPS,
    DEFAULT_TOLERANCE,
    TraceStep,
    converged_at,
    negate,
    negate_k,
    negation_steps,
    summary_json,
)
from .simplex import Distribution, NotADistribution, make_distribution, require_int

_LN2 = math.log(2.0)

# Streamed output is written in blocks of about this many characters.
_BLOCK_CHARS = 1 << 16

# sweep-n's largest n: every n up to 2**53 is exact as a float.
_SWEEP_N_MAX = 2**53


@frozen_record
class SweepRow:
    """One output record: the sweep parameter plus its measure columns."""

    x: float
    columns: dict[str, float]


def parse_probs(text: str) -> list[float]:
    """Accept either a comma-separated list or a JSON array of numbers."""
    text = text.strip()
    if text.startswith("["):
        try:
            vals = json.loads(text)
        except json.JSONDecodeError as exc:
            raise NotADistribution(f"could not parse {text!r} as JSON: {exc}") from None
        # bool is a subclass of int; type() keeps true/false out.
        if not isinstance(vals, list) or not all(type(v) in (int, float) for v in vals):
            raise NotADistribution(f"expected a JSON array of numbers, got {text!r}")
        try:
            return [float(v) for v in vals]
        except OverflowError:
            raise NotADistribution(f"an entry of {text!r} is out of float range") from None
    out = []
    for tok in text.split(","):
        try:
            out.append(float(tok))
        except ValueError:
            raise NotADistribution(f"entry {tok.strip()!r} is not a number") from None
    return out


def sweep_n2_rows(steps: int = 200) -> Iterator[SweepRow]:
    """Rows at p1 = i/steps for i = 0..steps on two outcomes, with measures
    of the distribution and of its negation, computed one at a time as
    they are consumed. The endpoint rows rely on the 0*ln(0) convention so
    the series closes at the axes. ``steps`` is checked on the call.
    """
    if require_int("steps", steps) < 2:
        raise ValueError(f"steps = {steps} must be >= 2")
    return (_sweep_n2_row(i / steps) for i in range(steps + 1))


def _sweep_n2_row(p1: float) -> SweepRow:
    d = make_distribution([p1, 1.0 - p1])
    nd = negate(d)
    return SweepRow(
        x=p1,
        columns={
            "H_P": entropy(d),
            "H_neg": entropy(nd),
            "VH_P": varentropy(d),
            "VH_neg": varentropy(nd),
            "VJ_P": varextropy(d),
            "VJ_neg": varextropy(nd),
        },
    )


def sweep_n_rows(n_min: int = 2, n_max: int = 100) -> Iterator[SweepRow]:
    """One row per n with the uniform distribution's H, VH and the closed
    form of its VJ, computed one at a time as they are consumed. The range
    is checked on the call; n stops at 2**53, beyond which n is no longer
    exact as a float.
    """
    require_int("n_min", n_min)
    require_int("n_max", n_max)
    if not 2 <= n_min <= n_max <= _SWEEP_N_MAX:
        raise ValueError(
            f"need 2 <= n_min <= n_max <= 2**53, got [{n_min}, {n_max}]"
        )
    return map(_sweep_n_row, range(n_min, n_max + 1))


def _sweep_n_row(n: int) -> SweepRow:
    at_uniform = constant_measures(1.0 / n, n)  # O(1): uniform(n)'s entries are equal
    return SweepRow(
        x=n,
        columns={
            "H_uniform": at_uniform.H,
            "VH_uniform": at_uniform.VH,
            "VJ_uniform": uniform_varextropy(n),
        },
    )


def _fmt(v) -> str:
    return repr(v)


# Every measure column's unit, as its nats -> bits divisor: ln 2 for the
# entropies and extropies, (ln 2)^2 for the second moments and 1 (exact)
# for the logarithm-free H1.
_BITS_DIVISOR = {
    **dict.fromkeys(("H", "J", "H_P", "H_neg", "H_uniform"), _LN2),
    **dict.fromkeys(
        ("VH", "VJ", "VH_P", "VH_neg", "VJ_P", "VJ_neg", "VH_uniform", "VJ_uniform"),
        _LN2 * _LN2,
    ),
    "H1": 1.0,
}


def _rescale(columns: dict[str, float], log_base: str) -> dict[str, float]:
    """Display-only nats -> bits conversion, by each column's unit."""
    if log_base == "e":
        return columns
    return {name: value / _BITS_DIVISOR[name] for name, value in columns.items()}


def _sweep_text(rows, x_name: str, fmt: str, log_base: str):
    """The output of a sweep, one row at a time: a JSON array on one line,
    or a CSV header and one line per row."""
    for i, r in enumerate(rows):
        cols = _rescale(r.columns, log_base)
        if fmt == "json":
            yield ("[" if i == 0 else ",") + json.dumps(
                {x_name: r.x, **cols}, separators=(",", ":"))
        else:
            if i == 0:
                yield ",".join([x_name, *cols]) + "\n"
            yield ",".join([_fmt(r.x), *map(_fmt, cols.values())]) + "\n"
    if fmt == "json":
        yield "]\n"


def _iterate_text(d: Distribution, args):
    """The output of ``iterate``, one step at a time: a CSV header and one
    row per step, or one JSON object per step and a summary object, each
    on its own line."""
    last = None
    for step in negation_steps(d, max_steps=args.steps, tolerance=args.tol):
        columns = _rescale(step.measures.as_dict(), args.log_base)
        if args.format == "json":
            yield TraceStep(step.k, step.dist, MeasureSet(**columns)).to_json() + "\n"
        else:
            if last is None:
                yield ",".join(["k", *columns, *(f"p_{i + 1}" for i in range(d.n))]) + "\n"
            yield ",".join([_fmt(step.k), *map(_fmt, columns.values()),
                            *map(_fmt, step.dist.probs)]) + "\n"
        last = step
    if args.format == "json":
        yield summary_json(converged_at(last, args.tol), args.tol) + "\n"


def _write(pieces) -> None:
    """Write the pieces of text to stdout, in blocks of about
    ``_BLOCK_CHARS`` characters: one write per piece would cost a system
    call each on an unbuffered stream, and one write at the end would hold
    all of the output in memory."""
    block: list[str] = []
    size = 0
    for piece in pieces:
        block.append(piece)
        size += len(piece)
        if size >= _BLOCK_CHARS:
            sys.stdout.write("".join(block))
            block, size = [], 0
    if block:
        sys.stdout.write("".join(block))


def _parse_dist(args) -> Distribution:
    return make_distribution(parse_probs(args.probs), renormalize=args.renormalize)


def cmd_measure(args) -> int:
    columns = _rescale(measure_all(_parse_dist(args)).as_dict(), args.log_base)
    if args.format == "json":
        print(json.dumps(columns, separators=(",", ":")))
    else:
        print(",".join(columns))
        print(",".join(_fmt(v) for v in columns.values()))
    return 0


def cmd_negate(args) -> int:
    d = negate_k(_parse_dist(args), args.steps)
    if args.format == "json":
        print(d.to_json())
    else:
        print(",".join(f"p_{i + 1}" for i in range(d.n)))
        print(",".join(_fmt(p) for p in d.probs))
    return 0


def cmd_iterate(args) -> int:
    _write(_iterate_text(_parse_dist(args), args))
    return 0


def cmd_sweep_n2(args) -> int:
    _write(_sweep_text(sweep_n2_rows(args.steps), "p1", args.format, args.log_base))
    return 0


def cmd_sweep_n(args) -> int:
    rows = sweep_n_rows(args.n_min, args.n_max)
    _write(_sweep_text(rows, "n", args.format, args.log_base))
    return 0


def cmd_check(args) -> int:
    from .claims import check_all, reports_to_json  # the claim engine loads for check only

    claim_ids = None if args.claims is None else args.claims.split(",")
    reports = check_all(
        seed=args.seed,
        trials=args.trials,
        n_range=(args.n_min, args.n_max),
        tolerance=args.tol,
        claim_ids=claim_ids,
    )
    if args.format == "json":
        print(reports_to_json(reports))
    else:
        lines = ["claim,verdict,trials,seed,tolerance,lhs,rhs,margin"]
        for r in reports:
            ce = r.counterexample
            tail = (
                [_fmt(ce.lhs), _fmt(ce.rhs), _fmt(ce.margin)] if ce else ["", "", ""]
            )
            lines.append(
                ",".join(
                    [r.claim_id, r.verdict, _fmt(r.trials_run), _fmt(r.seed),
                     _fmt(r.tolerance)] + tail
                )
            )
        print("\n".join(lines))
    return 0


def _add_dist_flags(sp) -> None:
    sp.add_argument("-p", "--probs", required=True,
                    help="distribution as a comma list or JSON array")
    sp.add_argument("--renormalize", action="store_true",
                    help="divide nonnegative entries by their sum first")


def _add_format_flag(sp) -> None:
    sp.add_argument("--format", choices=["csv", "json"], default="json")


def _add_log_base_flag(sp) -> None:
    sp.add_argument("--log-base", dest="log_base", choices=["e", "2"], default="e",
                    help="display units: nats (e) or bits (2)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="negprob",
        description="Negation of discrete probability distributions and its "
        "uncertainty measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("measure", help="the five measures of one distribution")
    _add_dist_flags(sp)
    _add_format_flag(sp)
    _add_log_base_flag(sp)
    sp.set_defaults(func=cmd_measure)

    sp = sub.add_parser("negate", help="negate a distribution k times")
    _add_dist_flags(sp)
    sp.add_argument("-k", "--steps", type=int, default=1, help="number of negations")
    _add_format_flag(sp)
    sp.set_defaults(func=cmd_negate)

    sp = sub.add_parser("iterate", help="trace repeated negation with measures")
    _add_dist_flags(sp)
    sp.add_argument("-k", "--steps", type=int, default=DEFAULT_MAX_STEPS,
                    help="maximum number of negations")
    sp.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE,
                    help="sup-norm convergence tolerance to uniform")
    _add_format_flag(sp)
    _add_log_base_flag(sp)
    sp.set_defaults(func=cmd_iterate)

    sp = sub.add_parser("sweep-n2", help="two-outcome sweep of p1 from 0 to 1")
    sp.add_argument("--steps", type=int, default=200, help="grid resolution")
    _add_format_flag(sp)
    _add_log_base_flag(sp)
    sp.set_defaults(func=cmd_sweep_n2)

    sp = sub.add_parser("sweep-n", help="uniform-distribution measures by n")
    sp.add_argument("--n-min", type=int, default=2)
    sp.add_argument("--n-max", type=int, default=100)
    _add_format_flag(sp)
    _add_log_base_flag(sp)
    sp.set_defaults(func=cmd_sweep_n)

    sp = sub.add_parser("check", help="verify or refute the registered claims")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=int, default=1000)
    sp.add_argument("--n-min", type=int, default=2)
    sp.add_argument("--n-max", type=int, default=8)
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--claims", help="comma-separated claim ids, e.g. C1,C5")
    _add_format_flag(sp)
    sp.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:  # NotADistribution, UnknownClaim and the rest subclass it
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout (e.g. `negprob sweep-n2 | head`). Point
        # stdout at devnull, so the flush at exit cannot fail again, and
        # exit 1 with nothing on stderr.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
