"""Fresh-process helpers that run.py spawns.

    python perfbench/child.py setup <workload> <seed>
        Import negprob, run the workload's warm-up operation, then print
        "ready <sha256 of its output>". The parent times process start to
        that line, which is the set-up time. A second line gives this
        process's calibration kernel time, taken after the first line.

    python perfbench/child.py cli <negprob arguments...>
        Run one negprob CLI command with spans recorded. Stdout is the
        command's own; the last stderr line is TRACE_MARK followed by the
        spans as JSON.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

TRACE_MARK = "perfbench-trace "


def setup(workload: str, seed: str) -> None:
    from workloads import WORKLOADS, digest

    text = WORKLOADS[workload].warmup(int(seed))
    print("ready", digest(text), flush=True)
    from calibration import calibrate

    print(calibrate(), flush=True)


def traced_cli(argv: list[str]) -> int:
    import tracer
    from negprob import cli

    codes, _ = tracer.resolve()
    recorder = tracer.SpanRecorder(codes)
    with recorder:
        code = cli.main(argv)
    sys.stdout.flush()
    record = {"spans": recorder.spans, "numpy_loaded": "numpy" in sys.modules}
    sys.stderr.write(TRACE_MARK + json.dumps(record) + "\n")
    return code


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(*sys.argv[2:])
    else:
        sys.exit(traced_cli(sys.argv[2:]))
