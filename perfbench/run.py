"""negprob benchmark: four closed-loop workloads, checked outputs, and a
traced per-layer breakdown.

    python3 perfbench/run.py --workload check-small-n --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

One process, one client, no threads: each operation starts after the last
one finished and was judged. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` reports the per-layer metrics from spans recorded around the
calls into negprob's public functions. The last stdout line is the result
object; the lines before it are a readable table and a stamp line with the
machine, versions, load and sample counts. README.md explains the
workloads and what each metric should predict.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import selectors
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

T_START = perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = str(HERE / "child.py")
PY = sys.executable
# Children import negprob from the same source tree as this process.
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p),
}

# Import negprob from this checkout's source tree, never from site-packages;
# main() refuses to run if it came from anywhere else.
sys.path.insert(0, str(SRC))
try:
    import negprob
except ModuleNotFoundError:
    sys.exit(f"perfbench: negprob is not importable from {SRC}")
import tracer  # noqa: E402
from calibration import REFERENCE_S, calibrate, calibrated  # noqa: E402
from child import TRACE_MARK  # noqa: E402
from workloads import WARMUP, WORKLOADS, digest  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 9001
DEFAULT_SECONDS = 25

SETUP_RUNS = 5  # fresh processes timed per run; setup_s is their median
PROBE_RUNS = 5  # bare-interpreter and import probes per traced run
MIN_OPS = 11  # op_tail_s needs ten samples beyond it
RERUN_EVERY = 4  # every 4th operation runs twice to compare report bytes
HARD_LIMIT_S = 150.0  # no operation starts later than this into the run
CHILD_TIMEOUT_S = 60.0
# Traced operations use their own indices, so no traced operation repeats
# the inputs of an untraced one.
TRACE_INDEX_BASE = 1_000_000
# Exact counters are summed over the first traced operations: one check
# report, or one of each of the four CLI commands.
COUNT_WINDOW = {"check": 1, "cli": 4}

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "trials_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> (unit, span name whose targets must all exist).
PER_LAYER = {
    "simplex.sample.calls": ("count", "simplex.sample"),
    "simplex.sample.self_s": ("s", "simplex.sample"),
    "simplex.sample.distinct_ratio": ("ratio", "simplex.sample"),
    "simplex.validate.calls": ("count", "simplex.validate"),
    "simplex.validate.entries": ("count", "simplex.validate"),
    "simplex.validate.self_s": ("s", "simplex.validate"),
    "simplex.majorizes.self_s": ("s", "simplex.majorizes"),
    "negation.negate.calls": ("count", "negation.negate"),
    "negation.negate.self_s": ("s", "negation.negate"),
    "negation.trace.self_s": ("s", "negation.trace"),
    "measures.calls": ("count", "measures"),
    "measures.entries": ("count", "measures"),
    "measures.self_s": ("s", "measures"),
    "claims.inequality.wall_s": ("s", "claims.check_claim"),
    "claims.inequality.self_s": ("s", "claims.check_claim"),
    "claims.maximizer.wall_s": ("s", "claims.check_claim"),
    "claims.maximizer.self_s": ("s", "claims.check_claim"),
    "claims.limit.wall_s": ("s", "claims.check_claim"),
    "claims.limit.self_s": ("s", "claims.check_claim"),
    "claims.maximizer.measure_calls": ("count", "claims.check_claim"),
    "cli.interp_s": ("s", None),
    "cli.import_s": ("s", None),
    "cli.numpy_loaded": ("ratio", None),
    "cli.main.self_s": ("s", "cli.main"),
    "trace.overhead_ratio": ("ratio", None),
}


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Child:
    code: int
    out: bytes
    err: bytes
    elapsed_s: float  # spawn to exit
    first_line_s: float | None  # spawn to the first complete stdout line
    maxrss_mb: float


def spawn(argv: list[str]) -> Child:
    """Run argv to completion, draining both pipes, and reap it with wait4
    so its own peak RSS is known. A child that outlives CHILD_TIMEOUT_S is
    killed and the timeout is raised."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=CHILD_ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    chunks = {proc.stdout: [], proc.stderr: []}
    first_line = None
    try:
        with selectors.DefaultSelector() as sel:
            for pipe in chunks:
                sel.register(pipe, selectors.EVENT_READ)
            while sel.get_map():
                left = t0 + CHILD_TIMEOUT_S - perf_counter()
                if left <= 0:
                    raise TimeoutError(f"{argv[1:3]} ran over {CHILD_TIMEOUT_S} s")
                for key, _ in sel.select(left):
                    data = os.read(key.fd, 65536)
                    if not data:
                        sel.unregister(key.fileobj)
                        continue
                    chunks[key.fileobj].append(data)
                    if first_line is None and key.fileobj is proc.stdout and b"\n" in data:
                        first_line = perf_counter() - t0
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        for pipe in chunks:
            pipe.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        code=proc.returncode,
        out=b"".join(chunks[proc.stdout]),
        err=b"".join(chunks[proc.stderr]),
        elapsed_s=perf_counter() - t0,
        first_line_s=first_line,
        maxrss_mb=usage.ru_maxrss / 1024.0,
    )


# ---------------------------------------------------------------------------
# operations


class Runner:
    """Runs one workload's operations in a closed loop and judges each."""

    def __init__(self, workload, seed: int, codes=None, claim_kinds=None):
        self.workload = workload
        self.seed = seed
        self.codes = codes  # span targets; None runs untraced
        self.claim_kinds = claim_kinds
        self.times: list[float] = []
        self.calibrations: list[float] = []  # taken just before each time
        self.attempted = 0
        self.failed = 0
        self.summaries: list[dict] = []
        self.numpy_loaded: list[bool] = []
        self.peak_child_rss_mb = 0.0
        self.first_spans = None

    def run(self, first_index: int, budget_s: float, min_ops: int) -> None:
        start = perf_counter()
        index = first_index
        while self.attempted < min_ops or perf_counter() - start < budget_s:
            if perf_counter() - T_START > HARD_LIMIT_S:
                break
            self.op(index)
            index += 1

    def op(self, index: int) -> None:
        self.attempted += 1
        if self.workload.kind == "check":
            self._calibration = calibrate()
        try:
            if self.workload.kind == "check":
                problems, spans = self._check_op(index)
            else:
                problems, spans = self._cli_op(index)
        except Exception as exc:  # one failed operation must not end the run
            problems, spans = [f"{type(exc).__name__}: {exc}"], None
        if problems:
            self.failed += 1
            print(f"op {index} failed: {'; '.join(problems)}", file=sys.stderr)
        if spans is not None:
            if self.first_spans is None:
                self.first_spans = spans
            self.summaries.append(tracer.summarize(spans, self.claim_kinds))

    def _record(self, elapsed_s: float) -> None:
        self.times.append(elapsed_s)
        if self.workload.kind == "check":
            self.calibrations.append(self._calibration)

    def _check_op(self, index: int):
        wl = self.workload
        spans = None
        t0 = perf_counter()
        try:
            if self.codes is None:
                text = wl.run(self.seed, index)
            else:
                with tracer.SpanRecorder(self.codes) as recorder:
                    text = wl.run(self.seed, index)
                spans = recorder.spans
        finally:
            self._record(perf_counter() - t0)
        if self.codes is not None:
            self.numpy_loaded.append("numpy" in sys.modules)
        problems = wl.problems(text)
        if index % RERUN_EVERY == 0 and wl.run(self.seed, index) != text:
            problems.append("the same seed gave different report bytes")
        return problems, spans

    def _cli_op(self, index: int):
        argv, expected = self.workload.command(self.seed, index)
        if self.codes is None:
            prog = [PY, "-m", "negprob.cli"]
        else:
            prog = [PY, CHILD, "cli"]
        child = spawn(prog + argv)
        self._record(child.elapsed_s)
        self.peak_child_rss_mb = max(self.peak_child_rss_mb, child.maxrss_mb)
        problems = []
        if child.code != 0:
            tail = child.err.decode(errors="replace").strip().splitlines()[-1:]
            problems.append(f"{argv[0]} exited {child.code}: {tail}")
        if child.out.decode() != expected:
            problems.append(f"{argv[0]} stdout differs from the library call")
        spans = None
        if self.codes is not None:
            last = child.err.decode().rstrip("\n").rsplit("\n", 1)[-1]
            if last.startswith(TRACE_MARK):
                record = json.loads(last[len(TRACE_MARK):])
                spans = record["spans"]
                self.numpy_loaded.append(record["numpy_loaded"])
            else:
                problems.append("traced child sent no spans")
        return problems, spans


def warm_up(workload, seed: int) -> tuple[list[float], list[float], list[str]]:
    """Time SETUP_RUNS fresh processes from start to a finished warm-up
    operation; each must print the digest of the expected output, then its
    own calibration. Returns the times, the calibrations and problems."""
    if workload.kind == "check":
        expected = digest(workload.warmup(seed))
    else:
        expected = digest(workload.command(seed, WARMUP)[1])
    times, calibrations, problems = [], [], []
    for _ in range(SETUP_RUNS):
        child = spawn([PY, CHILD, "setup", workload.name, str(seed)])
        if child.code != 0 or child.first_line_s is None:
            problems.append(f"set-up process exited {child.code}")
            continue
        ready, calibration = child.out.split(b"\n")[:2]
        if ready.split() != [b"ready", expected.encode()]:
            problems.append("set-up warm-up output differs from this process's")
            continue
        times.append(child.first_line_s)
        calibrations.append(float(calibration))
    return times, calibrations, problems


# ---------------------------------------------------------------------------
# metrics


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and which
    percentile that is."""
    xs = sorted(times)
    k = max(len(xs) - 11, 0)
    return xs[k], 100.0 * (k + 1) / len(xs)


def timing_metrics(workload, times: list[float], setup: list[float]) -> dict:
    return {
        "setup_s": statistics.median(setup) if setup else 0.0,
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail(times)[0],
        "trials_per_s": workload.trials_per_op * len(times) / sum(times),
    }


def end_to_end(workload, seed: int, seconds: float):
    setup_wall, setup_calibrations, problems = warm_up(workload, seed)
    runner = Runner(workload, seed)
    runner.run(0, seconds, MIN_OPS)
    times = runner.times
    if runner.calibrations:
        times = calibrated(runner.times, runner.calibrations)
    setup = calibrated(setup_wall, setup_calibrations)
    values = timing_metrics(workload, times, setup)
    if workload.kind == "check":
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        values["peak_rss_mb"] = runner.peak_child_rss_mb
    samples = {name: len(times) for name in values}
    samples["setup_s"] = len(setup)
    samples["peak_rss_mb"] = 1 if workload.kind == "check" else len(times)
    extra = {
        "op_tail_percentile": tail(times)[1],
        "wall": timing_metrics(workload, runner.times, setup_wall),
        "calibration_median_s": statistics.median(runner.calibrations + setup_calibrations),
        "calibration_reference_s": REFERENCE_S,
    }
    return values, samples, [runner], problems, extra


def per_layer(workload, seed: int, seconds: float):
    codes, missing = tracer.resolve()
    claim_kinds = {c.id: c.kind for c in negprob.CLAIMS}
    problems = []
    interp = [spawn([PY, "-c", "pass"]) for _ in range(PROBE_RUNS)]
    imports = [spawn([PY, "-c", "import negprob.cli"]) for _ in range(PROBE_RUNS)]
    if any(c.code != 0 for c in interp + imports):
        problems.append("an interpreter or import probe failed")
    interp_s = statistics.median(c.elapsed_s for c in interp)
    import_s = statistics.median(c.elapsed_s for c in imports) - interp_s
    if workload.kind == "check":
        workload.warmup(seed)

    plain = Runner(workload, seed)
    plain.run(0, seconds / 3.0, 3)
    traced = Runner(workload, seed, codes, claim_kinds)
    window = COUNT_WINDOW[workload.kind]
    traced.run(TRACE_INDEX_BASE, seconds * 2.0 / 3.0, window)

    ops = traced.summaries
    if not ops:
        raise SystemExit("perfbench: no traced operation produced spans")
    counted = ops[:window]

    def per_op(name: str, field: int) -> float:
        return sum(s["stats"].get(name, (0, 0.0, 0.0, 0))[field] for s in ops) / len(ops)

    def count(name: str, field: int) -> int:
        return sum(s["stats"].get(name, (0, 0.0, 0.0, 0))[field] for s in counted)

    sample_calls = count("simplex.sample", 0)
    distinct = len(set().union(*(s["sample_keys"] for s in counted)))
    values = {
        "simplex.sample.calls": sample_calls,
        "simplex.sample.self_s": per_op("simplex.sample", 2),
        "simplex.sample.distinct_ratio": distinct / sample_calls if sample_calls else 0.0,
        "simplex.validate.calls": count("simplex.validate", 0),
        "simplex.validate.entries": count("simplex.validate", 3),
        "simplex.validate.self_s": per_op("simplex.validate", 2),
        "simplex.majorizes.self_s": per_op("simplex.majorizes", 2),
        "negation.negate.calls": count("negation.negate", 0),
        "negation.negate.self_s": per_op("negation.negate", 2),
        "negation.trace.self_s": per_op("negation.trace", 2),
        "measures.calls": count("measures", 0),
        "measures.entries": count("measures", 3),
        "measures.self_s": per_op("measures", 2),
        "claims.maximizer.measure_calls": sum(s["maximizer_measures"] for s in counted),
        "cli.interp_s": interp_s,
        "cli.import_s": import_s,
        "cli.numpy_loaded": sum(traced.numpy_loaded) / len(traced.numpy_loaded),
        "cli.main.self_s": per_op("cli.main", 2),
        "trace.overhead_ratio": statistics.median(traced.times)
        / statistics.median(plain.times),
    }
    for kind in ("inequality", "maximizer", "limit"):
        values[f"claims.{kind}.wall_s"] = per_op(f"claims.{kind}", 1)
        values[f"claims.{kind}.self_s"] = per_op(f"claims.{kind}", 2)

    absent_spans = {
        name for name, refs in tracer.TARGETS.items() if any(r in missing for r in refs)
    }
    absent = sorted(m for m, (_, span) in PER_LAYER.items() if span in absent_spans)
    values = {m: values[m] for m in PER_LAYER if m not in absent}
    samples = {m: len(ops) for m in values}
    for m in values:
        if m.endswith((".calls", ".entries", ".distinct_ratio", ".measure_calls")):
            samples[m] = len(counted)
    samples["cli.interp_s"] = samples["cli.import_s"] = PROBE_RUNS
    extra = {
        "absent_metrics": absent,
        "missing_targets": missing,
        "count_window_ops": len(counted),
        "untraced_ops": len(plain.times),
        "dominant_self_s": sorted(
            ((name, per_op(name, 2)) for name in set().union(*(s["stats"] for s in ops))),
            key=lambda item: -item[1],
        )[:4],
    }
    spans_file = HERE / "out" / f"{workload.name}.spans.json"
    spans_file.parent.mkdir(exist_ok=True)
    spans_file.write_text(json.dumps(traced.first_spans))
    return values, samples, [plain, traced], problems, extra


# ---------------------------------------------------------------------------
# stamp and output


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def numpy_version() -> str:
    from importlib import metadata

    try:
        return metadata.version("numpy")
    except metadata.PackageNotFoundError:
        return "absent"


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    load_start = os.getloadavg()[0]
    measure = per_layer if args.trace else end_to_end
    values, samples, runners, problems, extra = measure(workload, args.seed, args.seconds)
    attempted = sum(r.attempted for r in runners)
    failed = sum(r.failed for r in runners)
    for problem in problems:
        print(f"set-up failed: {problem}", file=sys.stderr)
    correct = failed == 0 and not problems
    units = {m: u for m, (u, _) in PER_LAYER.items()} if args.trace else END_TO_END_UNITS

    print(
        f"# perfbench {workload.name} seed={args.seed} trace={args.trace} "
        f"seconds={args.seconds}"
    )
    for name, value in values.items():
        print(f"{name:<32} {value:>14.6g} {units[name]:<6} n={samples[name]}")
    print(f"{'fail_ratio':<32} {failed / attempted:>14.6g} {'ratio':<6} n={attempted}")
    stamp = {
        "workload": workload.name,
        "trace": args.trace,
        "seed": args.seed,
        "seconds": args.seconds,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg_1m_start": load_start,
        "loadavg_1m_end": os.getloadavg()[0],
        "fail_ratio": failed / attempted,
        "samples": samples,
        **extra,
    }
    print(json.dumps({"stamp": stamp}))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [PY, __file__, "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=300)
            print("\n".join(done.stdout.splitlines()[:-1]), flush=True)
            status = status or done.returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS),
                        help="one workload; omit to run them all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                        f"held out for claims: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="how long the operation loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not Path(negprob.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: negprob was imported from {negprob.__file__}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
