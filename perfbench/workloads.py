"""The benchmark's workloads: what one operation is, how its inputs follow
from the benchmark seed, and the oracle that judges its output.

Why each workload exists, and which layer it should stress, is written in
README.md next to this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass

import negprob
from negprob import CONFIRMED, REFUTED

# Verdicts every check operation must reproduce, at any seed.
PINNED = {
    "C1": CONFIRMED,
    "C2": REFUTED,
    "C3": REFUTED,
    "C4": CONFIRMED,
    "C5": CONFIRMED,
    "C6": REFUTED,
    "C7": CONFIRMED,
    "C8": REFUTED,
    "C9": REFUTED,
}

# The scalar measure each claim is about, used to re-check counterexamples.
_CLAIM_MEASURE = {
    "C1": negprob.entropy,
    "C2": negprob.varentropy,
    "C3": negprob.varextropy,
    "C4": negprob.entropy,
    "C5": negprob.varentropy,
    "C6": negprob.varextropy,
    "C7": negprob.entropy,
    "C8": negprob.varentropy,
    "C9": negprob.varextropy,
}

# Operation index of the warm-up operation that set-up runs.
WARMUP = -1


def op_seed(seed: int, workload: str, index: int) -> int:
    """The 64-bit seed of operation ``index``; distinct for every index, so
    no two timed operations share inputs."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class CheckWorkload:
    """One operation is one ``check_all`` call plus its JSON Lines report."""

    name: str
    trials: int
    n_range: tuple[int, int]
    claim_ids: tuple[str, ...]
    kind = "check"

    @property
    def trials_per_op(self) -> int:
        """Random trials one operation evaluates: trials x sampled claims."""
        sampled = [
            c for c in self.claim_ids if negprob.claim_by_id(c).kind != "limit"
        ]
        return self.trials * len(sampled)

    def run(self, seed: int, index: int) -> str:
        reports = negprob.check_all(
            seed=op_seed(seed, self.name, index),
            trials=self.trials,
            n_range=self.n_range,
            claim_ids=self.claim_ids,
        )
        return negprob.reports_to_json(reports)

    def warmup(self, seed: int) -> str:
        return self.run(seed, WARMUP)

    def problems(self, text: str) -> list[str]:
        """Why this report is wrong, or [] when it is right."""
        reports = [json.loads(line) for line in text.splitlines()]
        got = {r["claim"]: r["verdict"] for r in reports}
        want = {c: PINNED[c] for c in self.claim_ids}
        found = []
        if got != want:
            found.append(f"verdicts {got} differ from the pinned {want}")
        for report in reports:
            if report["verdict"] == REFUTED and not recheck(report):
                found.append(f"{report['claim']} counterexample does not re-check")
        return found


def recheck(report: dict) -> bool:
    """Recompute a REFUTED report's counterexample with the scalar measures
    and ``negate``; it re-checks when lhs, rhs and margin match bit for bit
    and the margin exceeds the tolerance."""
    ce = report["counterexample"]
    if ce is None:
        return False
    claim_id = report["claim"]
    measure = _CLAIM_MEASURE[claim_id]
    p = negprob.make_distribution(ce["p"])
    kind = negprob.claim_by_id(claim_id).kind
    if kind == "inequality":
        lhs = measure(negprob.negate(p))
        rhs = measure(p)
        margin = rhs - lhs
    elif kind == "maximizer":
        lhs = measure(negprob.negate(p))
        if claim_id == "C7":
            rhs = math.log(p.n)
        else:
            rhs = measure(negprob.negate(negprob.uniform(p.n)))
        margin = lhs - rhs
    elif claim_id == "C6":
        # |VJ(uniform(n))| grew from the previous grid point to this one.
        grid = report["observed"]["n_grid"]
        j = grid.index(p.n)
        if j == 0 or p.probs != negprob.uniform(p.n).probs:
            return False
        lhs = abs(measure(p))
        rhs = abs(measure(negprob.uniform(grid[j - 1])))
        margin = lhs - rhs
    else:
        return False
    return (lhs, rhs, margin) == (ce["lhs"], ce["rhs"], ce["margin"]) and (
        margin > report["tolerance"]
    )


_CLI_COMMANDS = ("measure", "negate", "iterate", "sweep-n")


@dataclass(frozen=True)
class CliWorkload:
    """One operation is one fresh ``python -m negprob.cli`` process."""

    name: str
    kind = "cli"
    trials_per_op = 1

    def command(self, seed: int, index: int) -> tuple[list[str], str]:
        """The CLI arguments of operation ``index`` and the stdout that the
        equivalent library calls produce."""
        rng = random.Random(op_seed(seed, self.name, index))
        n = rng.randint(3, 50)
        gaps = [rng.expovariate(1.0) for _ in range(n)]
        total = math.fsum(gaps)
        probs = [g / total for g in gaps]
        d = negprob.make_distribution(probs)
        which = _CLI_COMMANDS[index % len(_CLI_COMMANDS)]
        if which == "measure":
            argv = ["measure", "-p", json.dumps(probs)]
            expected = negprob.measure_all(d).to_json()
        elif which == "negate":
            argv = ["negate", "-p", json.dumps(probs), "-k", "3"]
            expected = negprob.negate_k(d, 3).to_json()
        elif which == "iterate":
            argv = ["iterate", "-p", json.dumps(probs)]
            expected = negprob.trace_negation(d).to_json_lines()
        else:
            argv = ["sweep-n", "--n-min", str(n), "--n-max", "300"]
            rows = []
            for m in range(n, 301):
                u = negprob.uniform(m)
                rows.append(
                    {
                        "n": m,
                        "H_uniform": negprob.entropy(u),
                        "VH_uniform": negprob.varentropy(u),
                        "VJ_uniform": negprob.uniform_varextropy(m),
                    }
                )
            expected = json.dumps(rows, separators=(",", ":"))
        return argv, expected + "\n"

    def warmup(self, seed: int) -> str:
        """Run the warm-up command in this process; returns its stdout."""
        from negprob import cli

        argv, _ = self.command(seed, WARMUP)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"warm-up command {argv[0]} exited {code}")
        return out.getvalue()


WORKLOADS = {
    w.name: w
    for w in (
        CheckWorkload("check-small-n", 1000, (2, 8), tuple(PINNED)),
        CheckWorkload("check-wide-n", 200, (2, 16), tuple(PINNED)),
        CheckWorkload(
            "check-large-n", 4, (9000, 10000), ("C1", "C2", "C3", "C4", "C5", "C6")
        ),
        CliWorkload("cli-oneshot"),
    )
}
