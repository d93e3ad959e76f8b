import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import negprob
from negprob import (
    NotADistribution,
    make_distribution,
    measure_all,
    negate_k,
    trace_negation,
    uniform_varextropy,
)
from negprob.cli import build_sweep_n, build_sweep_n2, main, parse_probs

LN2 = math.log(2.0)


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

    def test_csv_floats_round_trip(self, capsys):
        _, out, _ = run_cli(capsys, "iterate", "-p", "0.6,0.3,0.1", "-k", "1",
                            "--tol", "1e-12", "--format", "csv")
        row = out.splitlines()[1].split(",")
        d = make_distribution([0.6, 0.3, 0.1])
        assert float(row[1]) == measure_all(d).H


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
        rows = build_sweep_n2(5)
        assert len(objs) == 6
        assert objs[2] == {"p1": rows[2].x, **rows[2].columns}

    def test_rejects_tiny_step_count(self, capsys):
        code, _, err = run_cli(capsys, "sweep-n2", "--steps", "1")
        assert code != 0 and "steps" in err

    def test_default_resolution(self):
        rows = build_sweep_n2()
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
        rows = build_sweep_n(2, 4)
        assert objs == [{"n": r.x, **r.columns} for r in rows]

    def test_rejects_bad_range(self, capsys):
        code, _, err = run_cli(capsys, "sweep-n", "--n-min", "5", "--n-max", "4")
        assert code != 0


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


class TestNoNumpyWithoutSampling:
    def test_measure_does_not_import_numpy(self):
        src = str(Path(negprob.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        script = (
            "import sys\n"
            "from negprob.cli import main\n"
            "assert main(['measure', '-p', '0.5,0.5']) == 0\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        )
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["H"] == math.log(2.0)
