"""A gate of committed mutants: each is one textual change to the package,
and the tests listed with it must fail once it is applied.

Run it from the repository root (stdlib only; it runs pytest as a
subprocess):

    python tests/mutant_gate.py

First every listed test must pass on an unchanged copy of src/. Then, for
each mutant, a fresh copy of src/ in a temporary directory gets the
mutant's old text, which must occur exactly once in its file, replaced by
its new text, and pytest runs the mutant's tests on that copy
(PYTHONPATH names the copy). The gate fails when an old text is not found
exactly once, or when a listed test does not fail: a test whose cases
all pass, or a run that stops before its tests report (a collection
error), lets the mutant survive. It prints each mutant's verdict and time.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROPERTIES = "tests/test_properties.py::"
WRITER = "tests/test_float_json.py::"
FLOOR_TEST = PROPERTIES + "test_row_sums_at_the_first_windows_floor_are_fsum_bit_for_bit"
RAW_OUTPUTS_TEST = "tests/test_sampler.py::test_raw_outputs_are_random_raw_of_each_seeded_stream"
RANGES_TEST = ("tests/test_reference_engine.py::"
               "test_ranges_past_n_2_write_the_reference_engines_bytes")
FOLD_TEST = PROPERTIES + "test_maximizer_fold_with_bound_tables_equals_the_per_n_fold"
FALLBACK_TESTS = [
    PROPERTIES + "test_row_sums_fall_back_to_fsum_outside_the_window",
    PROPERTIES + "test_row_sums_of_a_mixed_call_fall_back_to_fsum_by_row",
]

# (file under src/negprob, exact old text, new text, test ids that must fail)
MUTANTS = [
    # Rows.fsums' bounds: the exactness windows of its two extraction levels.
    ("_batch.py", "k, b = frexp(total)[1] + 1, self.bits\n",
     "k, b = frexp(total)[1] + 1, self.bits - 1\n", [FLOOR_TEST]),
    ("_batch.py", "k, b = frexp(total)[1] + 1, self.bits\n",
     "k, b = frexp(total)[1], self.bits\n", FALLBACK_TESTS),
    ("_batch.py", "j = k + b - 52\n", "j = k + b - 53\n", FALLBACK_TESTS),
    ("_batch.py", "below = size < ldexp(1.0, k + b - 54)\n",
     "below = size < ldexp(1.0, k + b - 55)\n", [FLOOR_TEST]),
    # measure_terms' log guard lets a zero entry reach the logarithm.
    ("_batch.py", "np.where(x > 0.0, x, 1.0)", "np.where(x >= 0.0, x, 1.0)",
     [PROPERTIES + "test_batched_measures_are_bitwise_equal_to_measure_all"]),
    # _probes measures each probe point instead of its negation.
    ("claims.py", "run_measures([((1.0 - v) / (n - 1), c) for v, c in runs])",
     "run_measures(runs)",
     [PROPERTIES + "test_probe_tuples_equal_the_scalar_points",
      PROPERTIES + "test_probes_equal_the_exact_rational_reference_for_every_n"]),
    # run_sum takes a run of two as its one value, as it takes a run of one.
    ("measures.py", "if c == 1:", "if c <= 2:",
     [PROPERTIES + "test_run_sums_equal_the_exact_run_sums",
      "tests/test_measures.py::TestMeasureAll::test_runs_that_cancel_leave_the_exact_remainder",
      "tests/test_measures.py::TestMeasureAll::test_one_run_measures_as_constant_measures_does"]),
    # raw_rows jumps to each row's outputs one draw too far.
    ("_batch.py", "pos = np.arange(size) - rows.repeat(rows.starts)\n",
     "pos = np.arange(size) - rows.repeat(rows.starts) + 1\n",
     [RAW_OUTPUTS_TEST]),
    # pcg64_seeds hashes t where SeedSequence has n, and n where it has t.
    ("_batch.py", "entropy[len(words)] = ns\n    entropy[len(words) + 1] = ts\n",
     "entropy[len(words)] = ts\n    entropy[len(words) + 1] = ns\n", [RAW_OUTPUTS_TEST]),
    # The run writer repeats a run's text once too often.
    ("claims.py", '(text + ",") * (count - 1)', '(text + ",") * count',
     [PROPERTIES + "test_run_points_write_json_of_their_entries"]),
    # RunPoint keeps its empty runs, so the writer gives each one entry.
    ("simplex.py", "runs = tuple((v, c) for v, c in runs if c > 0)\n",
     "runs = tuple((v, c) for v, c in runs)\n",
     [PROPERTIES + "test_run_points_write_json_of_their_entries"]),
    # The float writer's switch from 0.000ddd to d.ddde-05, at decpt >= -3,
    # moved by one.
    ("_float_json.py", "s = np.multiply(t, t <= _U(4), out=h)",
     "s = np.multiply(t, t <= _U(3), out=h)",
     [WRITER + "test_layouts", WRITER + "test_every_significand_length_in_both_layouts"]),
    # The float writer breaks a tie toward the odd digit.
    ("_float_json.py", "np.bitwise_and(s, _U(1), out=tmp)",
     "np.bitwise_and(s + _U(1), _U(1), out=tmp)", [WRITER + "test_ties_go_to_the_even_digit"]),
    # _mul128 drops the carry out of the low halves' product.
    ("_batch.py", "cross += b_lo\n    cross += a_lo\n", "cross += a_lo\n", [RAW_OUTPUTS_TEST]),
    # sample_rows divides a row of zero gaps by its zero total.
    ("_batch.py", "if totals.min() == 0.0:", "if totals.min() < 0.0:",
     ["tests/test_sampler.py::test_a_row_of_zero_gaps_raises_make_distributions_error"]),
    # A maximizer's peak moves to a later point of equal excess.
    ("claims.py", "top > self.peak[0]", "top >= self.peak[0]",
     ["tests/test_claims.py::TestReports::test_point_fold_reports_the_first_strict_maximum"]),
    # The fold reads each n's bounds from n + 1's probes.
    ("claims.py", 'table = np.frombuffer(b"".join([bound for bound, _ in per_n]))',
     'table = np.frombuffer(b"".join([_probes(n + 1)[0] for n in range(n_min, n_max + 1)]))',
     [RANGES_TEST, FOLD_TEST]),
    # claims accepts no check at its sampled-entry bound.
    ("claims.py", "if trials * n_max > MAX_SAMPLED_ENTRIES:",
     "if trials * n_max >= MAX_SAMPLED_ENTRIES:",
     ["tests/test_claims.py::TestParameterValidation::"
      "test_accepts_a_check_at_the_sampled_entry_bound"]),
    # The majorization slack below the proven bound on a sample's prefix gap.
    ("simplex.py", "MAJORIZATION_SLACK = 1e-12\n", "MAJORIZATION_SLACK = 9e-13\n",
     ["tests/test_simplex.py::test_the_prefix_gap_bound_is_below_the_slack_for_every_n"]),
    # The float writer's window takes in 1.0, which json writes as 1.0.
    ("_float_json.py", "(bits < _ONE_BITS)", "(bits <= _ONE_BITS)",
     [WRITER + "test_entries_outside_the_window_take_jsons_text",
      WRITER + "test_a_point_of_entries_outside_the_window_only"]),
    # The log guard checks the witness's head alone, not the long array.
    ("_batch.py", "for size in len(LOG_WITNESS_HEAD), len(witness):",
     "for size in (len(LOG_WITNESS_HEAD),):",
     [PROPERTIES + "test_the_guard_rejects_a_kernel_one_ulp_off_on_one_entry_at_one_length"]),
    # The trial pass takes numpy's own log, unguarded.
    ("_batch.py", "log_kernel = guarded_logs(strided_logs)\n", "log_kernel = np.log\n",
     [PROPERTIES + "test_the_guard_takes_the_strided_path_exactly_when_its_bits_are_math_logs"]),
    # min_margin keeps the later of two equal margins, so the later zero.
    ("claims.py", "min(self.min_margin, float(margin[margin.argmin()]))",
     "min(float(margin[margin.argmin()]), self.min_margin)",
     [PROPERTIES + "test_min_margin_keeps_the_first_of_two_zeros"]),
]


def junit_name(test_id: str) -> tuple[str, str]:
    """The (classname, name) pytest's junit XML gives the test id."""
    path, *names = test_id.split("::")
    return ".".join([path.removesuffix(".py").replace("/", "."), *names[:-1]]), names[-1]


def outcomes(src: Path, test_ids: list[str]) -> dict[str, list[bool]] | None:
    """For each of test_ids, whether each of its cases (one per parameter)
    failed, with the package imported from src; None when the run stops
    before its tests report (a collection error, a usage error or no
    tests)."""
    with tempfile.TemporaryDirectory() as scratch:
        report = Path(scratch) / "report.xml"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             f"--junitxml={report}", *test_ids],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        if run.returncode not in (0, 1):
            return None
        cases = list(ET.parse(report).iter("testcase"))
    found = {}
    for test_id in test_ids:
        classname, name = junit_name(test_id)
        found[test_id] = [
            case.find("failure") is not None or case.find("error") is not None
            for case in cases if case.get("classname") == classname
            and (case.get("name") == name or case.get("name").startswith(name + "["))]
    return found


def copy_src(into: str) -> Path:
    src = Path(into) / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def main() -> int:
    problems = []
    every_test = sorted({test_id for *_, test_ids in MUTANTS for test_id in test_ids})
    with tempfile.TemporaryDirectory() as into:
        unchanged = outcomes(copy_src(into), every_test)
    if unchanged is None or not all(ran and not any(ran) for ran in unchanged.values()):
        print(f"the listed tests do not all run and pass on unchanged src: {unchanged}")
        return 1
    for i, (file, old, new, test_ids) in enumerate(MUTANTS):
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as into:
            path = copy_src(into) / "negprob" / file
            text = path.read_text()
            if text.count(old) != 1:
                problems.append(f"mutant {i}: {old!r} occurs {text.count(old)} times in {file}")
                print(problems[-1], flush=True)
                continue
            path.write_text(text.replace(old, new))
            found = outcomes(path.parents[1], test_ids) or {}
            survivors = [test_id for test_id in test_ids if not any(found.get(test_id, []))]
        verdict = f"survived {survivors}" if survivors else "killed"
        print(f"mutant {i} ({file}: {new.strip()!r}): {verdict}, "
              f"{time.perf_counter() - start:.1f} s", flush=True)
        if survivors:
            problems.append(f"mutant {i} survived")
    print(f"{len(MUTANTS) - len(problems)} of {len(MUTANTS)} mutants killed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
