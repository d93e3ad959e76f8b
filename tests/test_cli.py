import functools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import negprob
from negprob import (
    NotADistribution,
    entropy,
    make_distribution,
    measure_all,
    negate,
    negate_k,
    trace_negation,
    uniform,
    uniform_varextropy,
    varentropy,
    varextropy,
)
from negprob.cli import main, parse_probs, sweep_n2_rows, sweep_n_rows

LN2 = math.log(2.0)


class _Enough(Exception):
    """Raised by ``_LineCounter`` once a run has written ``stop_after``
    characters."""


class _LineCounter:
    """A stdout stand-in that keeps the writes it is given (up to ``keep``
    characters), their count, line count, largest size and last one, and
    the interpreter's live memory blocks at each write. With
    ``stop_after`` set, a write past that many characters raises
    ``_Enough``."""

    def __init__(self, keep=10_000_000, stop_after=None):
        self.keep = keep
        self.stop_after = stop_after
        self.blocks = []
        self.live_blocks = []
        self.writes = self.lines = self.size = self.largest = 0
        self.last = ""

    def write(self, text):
        self.live_blocks.append(sys.getallocatedblocks())
        self.largest = max(self.largest, len(text))
        self.writes += 1
        self.lines += text.count("\n")
        self.size += len(text)
        self.last = text
        if self.size <= self.keep:
            self.blocks.append(text)
        if self.stop_after is not None and self.size > self.stop_after:
            raise _Enough
        return len(text)

    def flush(self):
        pass


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseProbs:
    def test_comma_list(self):
        assert parse_probs("0.4,0.3,0.2,0.1") == [0.4, 0.3, 0.2, 0.1]

    def test_json_array(self):
        assert parse_probs("[0.4, 0.3, 0.2, 0.1]") == [0.4, 0.3, 0.2, 0.1]

    def test_bad_token_is_named(self):
        with pytest.raises(Exception, match="abc"):
            parse_probs("0.5,abc")

    @pytest.mark.parametrize("text", [
        "[[1],[2]]",
        "[0.5,null]",
        "[true,false]",
        '["0.5","0.5"]',
        "[1" + "0" * 400 + ",0]",
    ], ids=["nested", "null", "bool", "string", "int-beyond-float"])
    def test_json_entries_must_be_numbers(self, capsys, text):
        with pytest.raises(NotADistribution):
            parse_probs(text)
        code, out, err = run_cli(capsys, "measure", "-p", text)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")


class TestMeasureCommand:
    def test_json_output_matches_api(self, capsys):
        code, out, _ = run_cli(capsys, "measure", "-p", "0.4,0.3,0.2,0.1")
        assert code == 0
        got = json.loads(out)
        want = measure_all(make_distribution([0.4, 0.3, 0.2, 0.1])).as_dict()
        assert got == want
        assert got["H"] == pytest.approx(1.2799, abs=1e-4)

    def test_json_key_order(self, capsys):
        _, out, _ = run_cli(capsys, "measure", "-p", "0.5,0.5")
        positions = [out.index(f'"{k}"') for k in ("H", "H1", "J", "VH", "VJ")]
        assert positions == sorted(positions)

    def test_two_point_uniform(self, capsys):
        _, out, _ = run_cli(capsys, "measure", "-p", "0.5,0.5")
        assert json.loads(out)["H"] == pytest.approx(0.693147, abs=1e-6)

    def test_json_array_argument(self, capsys):
        code, out, _ = run_cli(capsys, "measure", "-p", "[0.5,0.5]")
        assert code == 0
        assert json.loads(out)["H1"] == 0.5

    def test_invalid_sum_diagnostic(self, capsys):
        code, out, err = run_cli(capsys, "measure", "-p", "0.5,0.6")
        assert code != 0
        assert "sum = 1.1" in err
        assert out == ""

    def test_single_outcome_rejected(self, capsys):
        code, _, err = run_cli(capsys, "measure", "-p", "1.0")
        assert code != 0
        assert "2 outcomes" in err

    def test_renormalize_with_overflowing_total_fails_cleanly(self, capsys):
        code, out, err = run_cli(capsys, "measure", "-p", "1e308,1e308", "--renormalize")
        assert (code, out) == (2, "")
        assert err == "error: p[0] = 1e+308 is outside [0, 1]\n"

    def test_renormalize_flag(self, capsys):
        code, out, _ = run_cli(capsys, "measure", "-p", "2,3", "--renormalize")
        assert code == 0
        want = measure_all(make_distribution([0.4, 0.6])).as_dict()
        assert json.loads(out) == want

    def test_csv_output(self, capsys):
        _, out, _ = run_cli(capsys, "measure", "-p", "0.5,0.5", "--format", "csv")
        header, row = out.splitlines()
        assert header == "H,H1,J,VH,VJ"
        assert [float(v) for v in row.split(",")][0] == pytest.approx(LN2, abs=1e-12)

    def test_log_base_two_rescales_display(self, capsys):
        _, out, _ = run_cli(capsys, "measure", "-p", "0.4,0.3,0.2,0.1",
                            "--log-base", "2")
        got = json.loads(out)
        nats = measure_all(make_distribution([0.4, 0.3, 0.2, 0.1])).as_dict()
        assert got["H"] == nats["H"] / LN2
        assert got["J"] == nats["J"] / LN2
        assert got["VH"] == nats["VH"] / (LN2 * LN2)
        assert got["VJ"] == nats["VJ"] / (LN2 * LN2)
        assert got["H1"] == nats["H1"]


class TestNegateCommand:
    def test_single_negation(self, capsys):
        code, out, _ = run_cli(capsys, "negate", "-p", "0.4,0.3,0.2,0.1")
        assert code == 0
        d = negate_k(make_distribution([0.4, 0.3, 0.2, 0.1]), 1)
        assert json.loads(out) == list(d.probs)

    def test_k_steps(self, capsys):
        _, out, _ = run_cli(capsys, "negate", "-p", "0.6,0.3,0.1", "-k", "2")
        d = negate_k(make_distribution([0.6, 0.3, 0.1]), 2)
        assert json.loads(out) == list(d.probs)

    def test_csv_output(self, capsys):
        _, out, _ = run_cli(capsys, "negate", "-p", "0.6,0.3,0.1", "--format", "csv")
        header, row = out.splitlines()
        assert header == "p_1,p_2,p_3"
        assert len(row.split(",")) == 3

    @pytest.mark.parametrize("k, want", [
        ("99999999999999999999", "[0.7,0.30000000000000004]"),
        ("100000000000000000000", "[0.3,0.7]"),
        ("1" + "0" * 400, "[0.3,0.7]"),
        ("1" + "0" * 399 + "1", "[0.7,0.30000000000000004]"),
    ], ids=["odd-20-digits", "even-21-digits", "even-401-digits", "odd-401-digits"])
    def test_huge_k_keeps_its_parity(self, capsys, k, want):
        code, out, err = run_cli(capsys, "negate", "-p", "0.3,0.7", "-k", k)
        assert (code, out, err) == (0, want + "\n", "")


class TestIterateCommand:
    def test_three_negations_reach_near_uniform_entropy(self, capsys):
        code, out, _ = run_cli(capsys, "iterate", "-p", "0.4,0.3,0.2,0.1",
                               "-k", "3", "--tol", "1e-12")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5  # k = 0..3 plus summary
        final = json.loads(lines[-2])
        assert final["k"] == 3
        assert final["H"] == pytest.approx(1.3862, abs=1e-3)
        assert json.loads(lines[-1])["converged_at"] is None

    def test_matches_api_serialization(self, capsys):
        _, out, _ = run_cli(capsys, "iterate", "-p", "0.6,0.3,0.1",
                            "-k", "4", "--tol", "1e-9")
        trace = trace_negation(make_distribution([0.6, 0.3, 0.1]),
                               max_steps=4, tolerance=1e-9)
        assert out.rstrip("\n") == trace.to_json_lines()

    def test_log_base_two_rescales_each_step(self, capsys):
        _, out, _ = run_cli(capsys, "iterate", "-p", "0.6,0.3,0.1", "-k", "2",
                            "--tol", "1e-12", "--log-base", "2")
        trace = trace_negation(make_distribution([0.6, 0.3, 0.1]),
                               max_steps=2, tolerance=1e-12)
        lines = out.splitlines()
        assert len(lines) == len(trace.steps) + 1
        for line, step in zip(lines, trace.steps):
            m = step.measures
            want = {"k": step.k, "p": list(step.dist.probs), "H": m.H / LN2,
                    "H1": m.H1, "J": m.J / LN2, "VH": m.VH / (LN2 * LN2),
                    "VJ": m.VJ / (LN2 * LN2)}
            assert line == json.dumps(want, separators=(",", ":"))
        assert lines[-1] == '{"converged_at":null,"tolerance":1e-12}'

    def test_one_step_from_negated_three_outcome(self, capsys):
        _, out, _ = run_cli(capsys, "iterate", "-p", "0.2,0.35,0.45",
                            "-k", "1", "--tol", "1e-12")
        final = json.loads(out.splitlines()[-2])
        assert final["H"] == pytest.approx(1.0868, abs=1e-3)

    def test_fixed_point_rows_identical(self, capsys):
        _, out, _ = run_cli(capsys, "iterate", "-p", "0.5,0.5", "-k", "10")
        lines = out.splitlines()
        rows = [json.loads(line) for line in lines[:-1]]
        assert all(row["p"] == rows[0]["p"] for row in rows)
        assert json.loads(lines[-1])["converged_at"] == 0

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_tolerance_fails(self, capsys, tol):
        code, out, err = run_cli(capsys, "iterate", "-p", "0.3,0.7", "--tol", tol)
        assert code == 2
        assert out == ""
        assert "tolerance" in err

    def test_csv_columns(self, capsys):
        _, out, _ = run_cli(capsys, "iterate", "-p", "0.6,0.3,0.1", "-k", "2",
                            "--tol", "1e-12", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "k,H,H1,J,VH,VJ,p_1,p_2,p_3"
        assert len(lines) == 4
        assert all(len(line.split(",")) == 9 for line in lines)

    def test_memory_stays_flat_over_many_steps(self, monkeypatch):
        # A non-uniform two-outcome input never converges, so this runs
        # all 200,000 steps: 200,001 step lines and the summary line. A
        # trace held in memory would show as millions of live blocks at
        # the last write, or as one 32 MB write. (tracemalloc would make
        # this run take about 40 s; the next test uses it at smaller k.)
        sink = _LineCounter(keep=0)
        monkeypatch.setattr(sys, "stdout", sink)
        before = sys.getallocatedblocks()
        assert main(["iterate", "-p", "0.3,0.7", "-k", "200000"]) == 0
        assert sink.lines == 200_002
        assert sink.last.endswith('{"converged_at":null,"tolerance":1e-09}\n')
        assert max(sink.live_blocks) - before < 10_000
        assert sink.largest < 2**17

    def test_traced_peak_does_not_grow_with_k(self, monkeypatch):
        peaks = []
        for k in ("500", "5000"):
            monkeypatch.setattr(sys, "stdout", _LineCounter(keep=0))
            tracemalloc.start()
            try:
                assert main(["iterate", "-p", "0.3,0.7", "-k", k]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # One output block and the step being written, whatever k is.
        assert max(peaks) < 2**19

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_blocks_join_into_the_trace(self, monkeypatch, fmt):
        sink = _LineCounter()
        monkeypatch.setattr(sys, "stdout", sink)
        assert main(["iterate", "-p", "0.3,0.7", "-k", "5000", "--format", fmt]) == 0
        assert 1 < sink.writes < 100
        assert all(block.endswith("\n") for block in sink.blocks)
        trace = trace_negation(make_distribution([0.3, 0.7]), max_steps=5000)
        if fmt == "json":
            assert "".join(sink.blocks) == trace.to_json_lines() + "\n"
        else:
            assert sink.lines == len(trace.steps) + 1

    def test_csv_floats_round_trip(self, capsys):
        _, out, _ = run_cli(capsys, "iterate", "-p", "0.6,0.3,0.1", "-k", "1",
                            "--tol", "1e-12", "--format", "csv")
        row = out.splitlines()[1].split(",")
        d = make_distribution([0.6, 0.3, 0.1])
        assert float(row[1]) == measure_all(d).H


@functools.cache
def sweep_rows_by_scalar_measures(command):
    """The rows of a sweep in nats, built with the scalar measures on each
    whole distribution: sweep-n over n = 2..1500, or sweep-n2 with 3000
    steps."""
    if command == "sweep-n":
        return [{"n": n, "H_uniform": entropy(uniform(n)),
                 "VH_uniform": varentropy(uniform(n)),
                 "VJ_uniform": uniform_varextropy(n)} for n in range(2, 1501)]
    rows = []
    for i in range(3001):
        d = make_distribution([i / 3000, 1.0 - i / 3000])
        nd = negate(d)
        rows.append({"p1": i / 3000, "H_P": entropy(d), "H_neg": entropy(nd),
                     "VH_P": varentropy(d), "VH_neg": varentropy(nd),
                     "VJ_P": varextropy(d), "VJ_neg": varextropy(nd)})
    return rows


def assert_sweep_bytes(monkeypatch, argv, fmt, log_base, unit):
    """The sweep's output, written in several blocks, joins into the JSON
    array (or CSV) of the rows the scalar measures give, in the unit."""
    sink = _LineCounter()
    monkeypatch.setattr(sys, "stdout", sink)
    assert main([*argv, "--format", fmt, "--log-base", log_base]) == 0
    rows = [{k: v if k in ("n", "p1") else v / (unit if k.startswith("H") else unit * unit)
             for k, v in r.items()} for r in sweep_rows_by_scalar_measures(argv[0])]
    if fmt == "json":
        want = json.dumps(rows, separators=(",", ":"))
    else:
        want = "\n".join([",".join(rows[0])]
                         + [",".join(map(repr, r.values())) for r in rows])
    assert sink.writes > 1
    assert "".join(sink.blocks) == want + "\n"


class TestSweepN2Command:
    def test_grid_and_invariance(self, capsys):
        code, out, _ = run_cli(capsys, "sweep-n2", "--steps", "8", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "p1,H_P,H_neg,VH_P,VH_neg,VJ_P,VJ_neg"
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        assert len(rows) == 9
        xs = [r[0] for r in rows]
        assert xs == sorted(xs) and xs[0] == 0.0 and xs[-1] == 1.0
        for r in rows:
            assert abs(r[1] - r[2]) <= 1e-12  # H
            assert abs(r[3] - r[4]) <= 1e-12  # VH
            assert abs(r[5] - r[6]) <= 1e-12  # VJ

    def test_midpoint_and_endpoint_rows(self, capsys):
        _, out, _ = run_cli(capsys, "sweep-n2", "--steps", "4", "--format", "csv")
        rows = {r.split(",")[0]: [float(v) for v in r.split(",")]
                for r in out.splitlines()[1:]}
        mid = rows["0.5"]
        assert mid[1] == pytest.approx(LN2, abs=1e-12)
        assert mid[3] == pytest.approx(0.0, abs=1e-12)
        assert mid[5] == pytest.approx(0.0, abs=1e-12)
        assert rows["0.0"][1] == 0.0

    def test_entropy_peaks_at_half(self, capsys):
        _, out, _ = run_cli(capsys, "sweep-n2", "--steps", "10", "--format", "csv")
        rows = [[float(v) for v in line.split(",")] for line in out.splitlines()[1:]]
        best = max(rows, key=lambda r: r[1])
        assert best[0] == 0.5

    def test_json_matches_api(self, capsys):
        _, out, _ = run_cli(capsys, "sweep-n2", "--steps", "5")
        objs = json.loads(out)
        rows = list(sweep_n2_rows(5))
        assert len(objs) == 6
        assert objs[2] == {"p1": rows[2].x, **rows[2].columns}

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("log_base, unit", [("e", 1.0), ("2", LN2)])
    def test_bytes_match_the_scalar_measures(self, monkeypatch, fmt, log_base, unit):
        assert_sweep_bytes(monkeypatch, ["sweep-n2", "--steps", "3000"],
                           fmt, log_base, unit)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_bits_at_2000_steps_are_the_scalar_measures(self, monkeypatch, fmt):
        # The rows take H, VH and VJ from measure_all of d and of negate(d);
        # each must print the bits of entropy, varentropy and varextropy.
        sink = _LineCounter()
        monkeypatch.setattr(sys, "stdout", sink)
        assert main(["sweep-n2", "--steps", "2000", "--format", fmt, "--log-base", "2"]) == 0
        rows = []
        for i in range(2001):
            d = make_distribution([i / 2000, 1.0 - i / 2000])
            nd = negate(d)
            rows.append({"p1": i / 2000, "H_P": entropy(d) / LN2, "H_neg": entropy(nd) / LN2,
                         "VH_P": varentropy(d) / (LN2 * LN2),
                         "VH_neg": varentropy(nd) / (LN2 * LN2),
                         "VJ_P": varextropy(d) / (LN2 * LN2),
                         "VJ_neg": varextropy(nd) / (LN2 * LN2)})
        if fmt == "json":
            want = json.dumps(rows, separators=(",", ":"))
        else:
            want = "\n".join([",".join(rows[0])] + [",".join(map(repr, r.values())) for r in rows])
        assert "".join(sink.blocks) == want + "\n"

    def test_rejects_tiny_step_count(self, capsys):
        code, _, err = run_cli(capsys, "sweep-n2", "--steps", "1")
        assert code != 0 and "steps" in err

    @pytest.mark.parametrize("steps", [2.5, 3.0, True, "3"])
    def test_rows_reject_a_step_count_that_is_not_an_int(self, steps):
        with pytest.raises(ValueError, match=f"^steps = {re.escape(repr(steps))} must be an integer$"):
            sweep_n2_rows(steps)

    def test_default_resolution(self):
        rows = list(sweep_n2_rows())
        assert len(rows) == 201
        assert rows[0].x == 0.0 and rows[-1].x == 1.0


class TestSweepNCommand:
    def test_columns_and_trends(self, capsys):
        code, out, _ = run_cli(capsys, "sweep-n", "--n-min", "2", "--n-max", "10",
                               "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,H_uniform,VH_uniform,VJ_uniform"
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        assert [r[0] for r in rows] == list(range(2, 11))
        for r in rows:
            n = int(r[0])
            assert r[1] == pytest.approx(math.log(n), abs=1e-12)
            assert abs(r[2]) <= 1e-12
            assert float(r[3]) == uniform_varextropy(n)
        hs = [r[1] for r in rows]
        assert all(b > a for a, b in zip(hs, hs[1:]))

    def test_uniform_three_row_matches_closed_form(self, capsys):
        _, out, _ = run_cli(capsys, "sweep-n", "--n-min", "3", "--n-max", "3")
        row = json.loads(out)[0]
        assert row["H_uniform"] == pytest.approx(math.log(3), abs=1e-12)
        assert row["VJ_uniform"] == uniform_varextropy(3)

    def test_json_matches_api(self, capsys):
        _, out, _ = run_cli(capsys, "sweep-n", "--n-min", "2", "--n-max", "4")
        objs = json.loads(out)
        rows = list(sweep_n_rows(2, 4))
        assert objs == [{"n": r.x, **r.columns} for r in rows]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("log_base, unit", [("e", 1.0), ("2", LN2)])
    def test_bytes_match_the_scalar_measures(self, monkeypatch, fmt, log_base, unit):
        assert_sweep_bytes(monkeypatch, ["sweep-n", "--n-min", "2", "--n-max", "1500"],
                           fmt, log_base, unit)

    def test_rejects_bad_range(self, capsys):
        code, _, err = run_cli(capsys, "sweep-n", "--n-min", "5", "--n-max", "4")
        assert code != 0

    @pytest.mark.parametrize("n_min, n_max, name, value", [
        (2.5, 4, "n_min", 2.5), (2, 4.0, "n_max", 4.0), (True, 4, "n_min", True),
        ("2", 4, "n_min", "2"), (1, 4.5, "n_max", 4.5),
    ])
    def test_rows_reject_bounds_that_are_not_ints(self, n_min, n_max, name, value):
        with pytest.raises(ValueError, match=f"^{name} = {re.escape(repr(value))} must be an integer$"):
            sweep_n_rows(n_min, n_max)

    @pytest.mark.parametrize("n_min, n_max", [(2, 2**53 + 1), (2**60, 2**60),
                                              (2, 10**400)])
    def test_rejects_n_beyond_two_to_the_53(self, capsys, n_min, n_max):
        code, out, err = run_cli(capsys, "sweep-n", "--n-min", str(n_min),
                                 "--n-max", str(n_max))
        assert code == 2
        assert out == ""
        assert "2**53" in err

    def test_rows_near_two_to_the_53(self, capsys):
        code, out, _ = run_cli(capsys, "sweep-n", "--n-min", str(2**53 - 1),
                               "--n-max", str(2**53))
        assert code == 0
        rows = json.loads(out)
        assert [r["n"] for r in rows] == [2**53 - 1, 2**53]
        assert all(r["H_uniform"] == pytest.approx(math.log(r["n"]), rel=1e-15)
                   for r in rows)

    @pytest.mark.parametrize("fmt, log_base, text", [
        ("json", "e", '[{"n":9007199254740991,"H_uniform":36.7368005696771,"VH_uniform":0.0,'
                      '"VJ_uniform":-0.9999999999999994},{"n":9007199254740992,'
                      '"H_uniform":36.7368005696771,"VH_uniform":0.0,'
                      '"VJ_uniform":-0.9999999999999997}]\n'),
        ("csv", "2", "n,H_uniform,VH_uniform,VJ_uniform\n"
                     "9007199254740991,53.0,0.0,-2.081368981005607\n"
                     "9007199254740992,53.0,0.0,-2.0813689810056073\n"),
    ])
    def test_rows_at_two_to_the_53_keep_their_bytes(self, capsys, fmt, log_base, text):
        # Pinned bytes: each of uniform(n)'s sums, the product n * t, is the
        # fsum of n copies of t, up to n = 2**53.
        code, out, _ = run_cli(capsys, "sweep-n", "--n-min", str(2**53 - 1), "--n-max",
                               str(2**53), "--format", fmt, "--log-base", log_base)
        assert (code, out) == (0, text)


class TestSweepStreaming:
    @pytest.mark.parametrize("argv", [
        ["sweep-n", "--n-max", "400000"],
        ["sweep-n", "--n-max", "400000", "--format", "csv"],
        ["sweep-n2", "--steps", "400000"],
    ])
    def test_memory_stays_flat_over_many_rows(self, monkeypatch, argv):
        # Each run is stopped after 2 MiB of its 30 MB or more of output. A
        # sweep held in memory would build every row before its first
        # write, and show as one huge write or as a growing count of live
        # blocks from one write to the next.
        sink = _LineCounter(keep=0, stop_after=2**21)
        monkeypatch.setattr(sys, "stdout", sink)
        before = sys.getallocatedblocks()
        with pytest.raises(_Enough):
            main(argv)
        assert sink.writes > 20
        assert max(sink.live_blocks) - before < 10_000
        assert sink.largest < 2**17


class TestCheckCommand:
    def test_default_run_verdicts_and_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--trials", "50", "--seed", "5")
        assert code == 0
        reports = [json.loads(line) for line in out.splitlines()]
        verdicts = {r["claim"]: r["verdict"] for r in reports}
        assert verdicts["C1"] == "CONFIRMED"
        assert verdicts["C2"] == "REFUTED"
        assert verdicts["C3"] == "REFUTED"
        assert len(reports) == 9

    def test_byte_identical_across_runs(self, capsys):
        _, first, _ = run_cli(capsys, "check", "--trials", "40", "--seed", "12")
        _, second, _ = run_cli(capsys, "check", "--trials", "40", "--seed", "12")
        assert first == second

    def test_single_claim_selection(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--claims", "C5", "--trials", "10")
        assert code == 0
        reports = [json.loads(line) for line in out.splitlines()]
        assert len(reports) == 1
        assert reports[0]["claim"] == "C5"
        assert reports[0]["verdict"] == "CONFIRMED"

    def test_unknown_claim_fails(self, capsys):
        code, _, err = run_cli(capsys, "check", "--claims", "C77")
        assert code != 0
        assert "C77" in err

    @pytest.mark.parametrize("claims", ["", "C1,,C2", ","])
    def test_empty_claim_id_fails(self, capsys, claims):
        code, out, err = run_cli(capsys, "check", "--claims", claims, "--trials", "1")
        assert code == 2
        assert out == ""
        assert "unknown claim ''" in err

    def test_csv_output_field_count(self, capsys):
        _, out, _ = run_cli(capsys, "check", "--trials", "20", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "claim,verdict,trials,seed,tolerance,lhs,rhs,margin"
        assert all(len(line.split(",")) == 8 for line in lines)

    @pytest.mark.parametrize("seed, claims", [("-1", "C4"), (str(2**64), "C5"),
                                              ("-1", "C1"), (str(2**64), "C9")])
    def test_seed_outside_64_bits_fails_for_every_kind(self, capsys, seed, claims):
        code, out, err = run_cli(capsys, "check", "--seed", seed, "--claims", claims,
                                 "--trials", "1")
        assert code == 2
        assert out == ""
        assert "seed" in err

    @pytest.mark.parametrize("tol", ["inf", "-inf", "nan", "0"])
    def test_tolerance_must_be_finite_and_positive(self, capsys, tol):
        code, out, err = run_cli(capsys, "check", f"--tol={tol}", "--trials", "1")
        assert code == 2
        assert out == ""
        assert "tolerance" in err


class TestSampledEntryBound:
    def test_trials_over_the_bound_exit_two_without_a_traceback(self):
        # 2**31 + 1 trials of n up to 2 are 2**32 + 2 sampled entries.
        proc = _run_fresh("import sys\nfrom negprob.cli import main\n"
                          "sys.exit(main(['check', '--trials', '2147483649', '--n-max', '2']))")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == ("error: trials * n_max = 2147483649 * 2 exceeds the bound of "
                               "4294967296 sampled entries\n")


class TestClosedStdout:
    @pytest.mark.parametrize("argv", [
        ["sweep-n2", "--steps", "2000000"],
        ["sweep-n", "--n-max", "1000000"],
        ["iterate", "-p", "0.3,0.7", "-k", "200000"],
        ["check", "--trials", "2", "--n-min", "9999", "--n-max", "10000"],
    ])
    def test_reader_closing_early_exits_one_without_a_traceback(self, argv):
        src = str(Path(negprob.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.Popen([sys.executable, "-m", "negprob.cli", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            assert len(proc.stdout.read(100)) == 100
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 1
        finally:
            proc.kill()
            proc.stderr.close()
        assert err == b""


def _run_fresh(script: str) -> subprocess.CompletedProcess:
    """Run a Python script in a fresh interpreter that imports negprob from
    this source tree."""
    src = str(Path(negprob.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)


def _loaded_by(argv, modules) -> str:
    """A script that runs the CLI on argv and fails when one of the modules
    is loaded afterwards."""
    return (
        "import sys\n"
        "from negprob.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        f"loaded = [m for m in {modules!r} if m in sys.modules]\n"
        "assert not loaded, f'loaded {loaded}'\n"
    )


class TestNoNumpyWithoutSampling:
    """The commands that do not sample load neither numpy nor ``dataclasses``
    nor, apart from check, the claim engine; a check that samples loads
    numpy but not ``dataclasses``. Each is a fresh process, whose imports
    are most of its cost."""

    def test_measure_does_not_import_numpy(self):
        result = _run_fresh(_loaded_by(["measure", "-p", "0.5,0.5"],
                                       ["numpy", "negprob.claims", "dataclasses"]))
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["H"] == math.log(2.0)

    @pytest.mark.parametrize("argv", [
        ["negate", "-p", "0.2,0.8", "-k", "3"],
        ["iterate", "-p", "0.2,0.3,0.5"],
        ["sweep-n", "--n-min", "3", "--n-max", "300"],
        ["sweep-n2"],
        # The limit claims measure uniform(n) as one run, with no sampling.
        ["check", "--claims", "C4,C5,C6", "--n-min", "9000", "--n-max", "10000"],
    ])
    def test_other_commands_without_sampling_do_not_import_numpy(self, argv):
        modules = ["numpy", "dataclasses"]
        if argv[0] != "check":
            modules.append("negprob.claims")
        result = _run_fresh(_loaded_by(argv, modules))
        assert result.returncode == 0, result.stderr

    def test_a_sampling_check_does_not_import_dataclasses(self):
        # Every claim kind: trials, probes and fixtures, and the limit grid.
        result = _run_fresh(_loaded_by(["check", "--trials", "20"], ["dataclasses"]))
        assert result.returncode == 0, result.stderr


class TestLazyClaimEngine:
    def test_bare_import_does_not_load_the_engine(self):
        result = _run_fresh(
            "import sys\n"
            "import negprob\n"
            "assert 'negprob.claims' not in sys.modules, 'the engine was imported'\n"
        )
        assert result.returncode == 0, result.stderr

    def test_every_public_name_resolves_in_a_fresh_process(self):
        # From-imports come first, so that __getattr__ resolves them.
        result = _run_fresh(
            "import negprob\n"
            "names = negprob.__all__\n"
            "assert set(names) <= set(dir(negprob)), 'dir lacks a name'\n"
            "for name in names:\n"
            "    ns = {}\n"
            "    exec(f'from negprob import {name}', ns)\n"
            "    assert ns[name] is getattr(negprob, name), name\n"
            "star = {}\n"
            "exec('from negprob import *', star)\n"
            "assert set(names) <= set(star)\n"
            "import negprob.claims\n"
            "assert negprob.check_all is negprob.claims.check_all\n"
            "assert negprob.ClaimReport is negprob.claims.ClaimReport\n"
            "assert set(names) <= set(dir(negprob))\n"
        )
        assert result.returncode == 0, result.stderr

    def test_public_names_are_unchanged(self):
        assert negprob.__all__ == [
            "CLAIMS", "CONFIRMED", "REFUTED", "Claim", "ClaimReport",
            "Counterexample", "DimensionMismatch", "Distribution", "MeasureSet",
            "NegationTrace", "NotADistribution", "SUM_TOLERANCE", "SimplexSamplerConfig",
            "TooFewOutcomes", "TraceStep", "UnknownClaim", "check_all", "check_claim",
            "claim_by_id", "entropy", "extropy", "gini_entropy", "majorizes",
            "make_distribution", "measure_all", "negate", "negate_k", "reports_to_json",
            "sample_uniform_simplex", "trace_negation", "uniform", "uniform_varextropy",
            "varentropy", "varextropy",
        ]
        assert set(negprob.__all__) <= set(dir(negprob))

    def test_engine_names_are_the_engine_objects(self):
        import negprob.claims

        for name in ("CLAIMS", "check_all", "check_claim", "reports_to_json", "UnknownClaim"):
            assert getattr(negprob, name) is getattr(negprob.claims, name)

    def test_unknown_attribute_names_the_package(self):
        with pytest.raises(AttributeError, match="module 'negprob' has no attribute 'no_such_name'"):
            negprob.no_such_name  # noqa: B018
