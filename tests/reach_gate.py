"""A gate on reach: every statement of the package runs on some input the
package takes, or is listed in ALLOWED with the reason no such input
reaches it.

Run it from the repository root (stdlib and numpy; it does not need
pytest):

    python tests/reach_gate.py

It imports the package from src/ under the stdlib ``trace`` module, so
that module-level statements count too, and runs:

- every golden ``negprob check`` configuration of tests/test_golden.py
  (read from that file, not imported), in both formats;
- the CLI's six commands, in both formats;
- the library-only entry points the tests call, and the named input
  errors they pin, each of which must raise its ValueError.

A statement counts as reached when any of its lines runs; an ``except``
clause counts as a statement of its own. The gate fails when a statement
under src/negprob holds code, did not run and is not on ALLOWED; when a
statement on ALLOWED ran; and when an ALLOWED entry matches no statement.
An entry is (file, the stripped text of the statement's first line, the
reason), and it covers every statement of that file with that text. The
trace holds for the Python it runs on: CI runs it on one version, since a
line table may differ between versions.
"""

from __future__ import annotations

import ast
import contextlib
import io
import runpy
import sys
import tempfile
import time
import trace
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "negprob"

# Each entry names one block of statements that no input the package
# takes reaches: (file under src/negprob, the stripped text of one line of
# the block, the reason). Changing this list is a deliberate act.
ALLOWED = [
    ("_batch.py", "return self._fsum_rows(values, np.arange(len(self)), np.empty(len(self)))",
     "Rows.fsums of a call whose sum of magnitudes is 2**999 or more, inf or nan: the "
     "trials' samples and their measure terms are at most 37 in magnitude. It keeps the "
     "private function total; tests/test_properties.py calls it on such rows"),
    ("_batch.py", "outside = np.logical_or.reduceat(below, self.starts)",
     "Rows.fsums of a row with a nonzero entry below the second level's window, such as "
     "q (ln q)**2, about p**2, of an entry p near 1e-14 at n near 10**4: no golden config "
     "draws one; tests/test_properties.py calls it on such rows"),
    ("_batch.py", "entries = memoryview(values)",
     "fsum row by row, of the rows outside the window or with a zero sum, such as the "
     "terms of a vertex: as above"),
    ("_batch.py", "make_distribution(gaps[row].tolist(), renormalize=True)  # raises NotADistribution",
     "sample_rows raises on a row whose gaps are all zero, probability 2**(-53 n) for a row "
     "of n; tests/test_sampler.py crafts such a stream"),
    ("_batch.py", "return math_logs",
     "the log fallback, taken where numpy's scalar log loop does not give math.log's bits "
     "on the witness; tests/test_golden.py runs every golden config on it"),
]


def golden_configs() -> dict[str, list[str]]:
    """``CONFIGS`` of tests/test_golden.py, read without importing it (it
    imports pytest)."""
    tree = ast.parse((ROOT / "tests" / "test_golden.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "CONFIGS" for target in node.targets):
            return ast.literal_eval(node.value)
    raise SystemExit("tests/test_golden.py assigns no CONFIGS")


# Each CLI command, run once in each format with the flags given here.
CLI_COMMANDS = [
    ["measure", "-p", "0.4,0.3,0.2,0.1"],
    ["measure", "-p", "[2, 1, 1]", "--renormalize", "--log-base", "2"],
    ["negate", "-p", "0.4,0.3,0.2,0.1", "-k", "2"],
    ["iterate", "-p", "0.6,0.3,0.1", "-k", "4"],
    ["iterate", "-p", "0.6,0.3,0.1", "--log-base", "2"],
    ["sweep-n2", "--steps", "2000", "--log-base", "2"],  # more than one written block
    ["sweep-n", "--n-min", "2", "--n-max", "40"],
    ["check", "--trials", "40", "--claims", "C2,C5,C8"],
]

# CLI inputs that each fail with a named error and exit 2.
CLI_ERRORS = [
    ["measure", "-p", "[0.5, 0.5"],
    ["measure", "-p", "[0.5, true]"],
    ["measure", "-p", "[1" + "0" * 400 + ", 0]"],
    ["measure", "-p", "0.5,x"],
    ["sweep-n2", "--steps", "1"],
    ["sweep-n", "--n-min", "5", "--n-max", "4"],
    ["check", "--claims", "C10"],
    ["check", "--trials", "2147483649", "--n-max", "2"],
]


def run_cli(argv: list[str], stdout=None) -> int:
    """``negprob.cli.main(argv)`` with its stdout (a StringIO unless given)
    and stderr kept from the gate's own."""
    from negprob.cli import main

    with contextlib.redirect_stdout(stdout or io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: each write raises BrokenPipeError,
    and its file descriptor is a temporary file's."""

    def __init__(self, fd: int) -> None:
        super().__init__()
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError

    def fileno(self) -> int:
        return self.fd


def library_calls():
    """The library-only entry points the tests call, and the named input
    errors they pin: (what, the call, the ValueError it must raise or
    None)."""
    import numpy as np

    import negprob
    from negprob import (ClaimReport, Counterexample, DimensionMismatch, Distribution,
                         NotADistribution, SimplexSamplerConfig, TooFewOutcomes, UnknownClaim)
    from negprob._batch import TrialPoint
    from negprob.cli import sweep_n_rows, sweep_n2_rows

    d, q = negprob.make_distribution([0.4, 0.3, 0.2, 0.1]), negprob.uniform(3)
    zero = negprob.make_distribution([0.5, 0.5, 0.0])
    long_point = (0.0, 1.0, *[0.5 / 1023] * 1022, 5e-324)  # numpy columns, json's text too
    long_trial = TrialPoint(long_point)
    long_trial.row = np.array(long_point)
    report = ClaimReport("C1", "REFUTED", 1, 0, 1e-9, Counterexample(long_point, 0.0, 1.0, 1.0),
                         {"min_margin": -1.0})
    config = SimplexSamplerConfig(0, 4, 2)
    return [
        # A zero entry, and uniform(5), whose varentropy rounds below zero.
        ("the scalar measures", lambda: [f(x) for x in (d, zero, negprob.uniform(5)) for f in (
            negprob.entropy, negprob.gini_entropy, negprob.extropy, negprob.varentropy,
            negprob.varextropy)] + [negprob.measure_all(d).to_json()], None),
        ("negation", lambda: [negprob.negate_k(d, k) for k in (0, 1, 2)]
         + [negprob.trace_negation(d).to_json_lines(), list(d), len(d)], None),
        ("majorization", lambda: [negprob.majorizes(d, negprob.negate(d)),
                                  negprob.majorizes(negprob.negate(d), d)], None),
        ("the scalar sampler", lambda: negprob.sample_uniform_simplex(config, 1), None),
        ("one claim, its report as JSON", lambda: [
            negprob.check_claim("C3", trials=2).to_json(), report.to_json_obj(),
            negprob.reports_to_json([report])], None),
        ("a trial point's JSON text, as the writer tests take it",
         lambda: negprob.claims._point_json(long_trial), None),
        ("the limit claims at the least tolerance", lambda: negprob.check_all(
            trials=1, n_range=(2, 10_000), tolerance=5e-324, claim_ids=["C4", "C5"]), None),
        ("the package's names", lambda: dir(negprob), None),
        ("a name the package lacks", lambda: negprob.no_such_name, AttributeError),
        ("an unknown claim", lambda: negprob.claim_by_id("C10"), UnknownClaim),
        ("claim ids as one string", lambda: negprob.check_all(claim_ids="C1"), ValueError),
        ("n_range not a pair", lambda: negprob.check_all(n_range=5), ValueError),
        ("n_range out of order", lambda: negprob.check_all(n_range=(6, 5)), ValueError),
        ("no trials", lambda: negprob.check_all(trials=0), ValueError),
        ("trials not an int", lambda: negprob.check_all(trials=1.5), ValueError),
        ("tolerance not a number", lambda: negprob.check_all(tolerance="1"), ValueError),
        ("tolerance not positive", lambda: negprob.check_all(tolerance=0.0), ValueError),
        ("a seed of 65 bits", lambda: negprob.check_all(seed=2**64), ValueError),
        ("a sampler of one outcome", lambda: SimplexSamplerConfig(0, 1, 1), TooFewOutcomes),
        ("a sampler of no trials", lambda: SimplexSamplerConfig(0, 2, 0), ValueError),
        ("a trial index past the budget",
         lambda: negprob.sample_uniform_simplex(config, 2), ValueError),
        ("uniform(1)", lambda: negprob.uniform(1), TooFewOutcomes),
        ("uniform_varextropy(1)", lambda: negprob.uniform_varextropy(1), TooFewOutcomes),
        ("one entry", lambda: Distribution([1.0]), TooFewOutcomes),
        ("an entry that is not finite", lambda: Distribution([0.5, float("nan")]),
         NotADistribution),
        ("an entry outside [0, 1]", lambda: Distribution([1.5, -0.5]), NotADistribution),
        ("a sum off 1", lambda: Distribution([0.5, 0.6]), NotADistribution),
        ("entries that are not a sequence", lambda: Distribution(0.5), NotADistribution),
        ("an entry that is not a number", lambda: Distribution([0.5, "0.5"]), NotADistribution),
        ("a numpy int64 entry", lambda: Distribution(__import__("numpy").array([1, 0])),
         NotADistribution),
        ("an int beyond float range", lambda: Distribution([10**400, 1]), NotADistribution),
        ("a total beyond float range",
         lambda: negprob.make_distribution([1e308, 1e308], renormalize=True), NotADistribution),
        ("a list for a Distribution", lambda: negprob.entropy([0.5, 0.5]), NotADistribution),
        ("sizes that differ", lambda: negprob.majorizes(d, q), DimensionMismatch),
        ("a negative k", lambda: negprob.negate_k(d, -1), ValueError),
        ("no negation steps", lambda: negprob.trace_negation(d, max_steps=0), ValueError),
        ("one sweep step", lambda: sweep_n2_rows(1), ValueError),
        ("a sweep range out of order", lambda: sweep_n_rows(5, 4), ValueError),
    ]


def workload() -> list[str]:
    """Import the package and run every input above; the problems found:
    a command with the wrong exit code, or a call that does not raise as
    listed."""
    sys.path.insert(0, str(PACKAGE.parent))
    import negprob  # noqa: F401  (its module-level statements run here)

    problems = []
    for name, args in golden_configs().items():
        for fmt in ("json", "csv"):
            if run_cli(["check", *args, "--format", fmt]) != 0:
                problems.append(f"golden config {name} ({fmt}) did not exit 0")
    runs = [(argv + ["--format", fmt], 0) for argv in CLI_COMMANDS for fmt in ("json", "csv")]
    for argv, code in runs + [(argv, 2) for argv in CLI_ERRORS]:
        if run_cli(argv) != code:
            problems.append(f"negprob {' '.join(argv)} did not exit {code}")
    with tempfile.TemporaryFile() as sink:
        if run_cli(["sweep-n", "--n-max", "5"], ClosedPipe(sink.fileno())) != 1:
            problems.append("negprob sweep-n to a closed pipe did not exit 1")
    argv = sys.argv
    sys.argv = ["negprob", "sweep-n", "--n-max", "5"]
    try:  # runpy warns that negprob.cli is imported already
        with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            runpy.run_module("negprob.cli", run_name="__main__")
    except SystemExit as exit:
        if exit.code != 0:
            problems.append("python -m negprob.cli sweep-n did not exit 0")
    finally:
        sys.argv = argv
    for what, call, error in library_calls():
        try:
            call()
        except Exception as exc:  # noqa: BLE001  (the listed error, or a problem)
            if error is None or not isinstance(exc, error):
                problems.append(f"{what}: raised {exc!r}")
        else:
            if error is not None:
                problems.append(f"{what}: did not raise {error.__name__}")
    return problems


def statements(path: Path):
    """The statements of path: each body (the statements one statement, or
    the module, holds directly, an ``except`` clause counting as one) as
    its holder's first line (None for the module) and the (first line,
    last line) of each statement in it, decorators included; for each
    line inside a statement, the first line of the innermost one; and the
    lines that hold code, as the compiled code objects' line tables give
    them."""
    source = path.read_text()
    bodies, owner = [], {}

    def visit(node, holder) -> None:
        for field in ("body", "handlers", "orelse", "finalbody"):
            children = getattr(node, field, None)
            if not children:
                continue
            spans = []
            for child in children:
                decorators = getattr(child, "decorator_list", [])
                first = min([child.lineno, *(d.lineno for d in decorators)])
                spans.append((first, child.end_lineno))
                for line in range(first, child.end_lineno + 1):
                    owner[line] = first
                visit(child, first)
            bodies.append((holder, spans))

    visit(ast.parse(source), None)
    code_lines: set[int] = set()
    codes = [compile(source, str(path), "exec")]
    while codes:
        code = codes.pop()
        code_lines.update(line for *_, line in code.co_lines() if line is not None)
        codes += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return bodies, owner, code_lines


def unreached_blocks(bodies, owner, code_lines, ran):
    """The (first line, last line) of each block of statements that hold
    code and did not run, one after another in one body, where the body's
    holder ran; and the first lines of the statements that ran."""
    coded = {owner[line] for line in code_lines if line in owner}
    reached = {owner[line] for line in ran if line in owner}
    blocks = []
    for holder, spans in bodies:
        if holder in coded and holder not in reached:
            continue  # the holder's own block covers this body
        block = None
        for first, last in spans:
            if first not in coded:
                continue
            if first in reached:
                block = None
            elif block is None:
                block = [first, last]
                blocks.append(block)
            else:
                block[1] = last
    return sorted(map(tuple, blocks)), reached


def main() -> int:
    start = time.perf_counter()
    tracer = trace.Trace(count=1, trace=0)
    problems = tracer.runfunc(workload)
    ran: dict[str, set[int]] = {}
    for (filename, line), _ in tracer.results().counts.items():
        ran.setdefault(str(Path(filename).resolve()), set()).add(line)

    listed = {(file, text) for file, text, _ in ALLOWED}
    matched = set()
    unlisted = 0
    for path in sorted(PACKAGE.glob("*.py")):
        bodies, owner, code_lines = statements(path)
        blocks, reached = unreached_blocks(bodies, owner, code_lines,
                                           ran.get(str(path.resolve()), set()))
        lines = [line.strip() for line in path.read_text().splitlines()]
        for first, last in blocks:
            names = {(path.name, text) for text in lines[first - 1:last]} & listed
            matched |= names
            if not names:
                unlisted += 1
                problems.append(f"{path.name}:{first}-{last} did not run: {lines[first - 1]}")
        for number, text in enumerate(lines, 1):
            if (path.name, text) in listed and owner.get(number) in reached:
                problems.append(f"{path.name}:{number} is on ALLOWED but ran: {text}")
    problems += [f"ALLOWED entry names no unreached block: {entry}" for entry in listed - matched]
    for problem in problems:
        print(problem)
    print(f"reach gate: {unlisted} unreached blocks not on ALLOWED, {len(matched)} on it, "
          f"{len(problems)} problems, {time.perf_counter() - start:.1f} s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
