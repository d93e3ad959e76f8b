"""Golden `negprob check` reports.

Each file under tests/data/ is the stdout of `negprob check` for one
configuration and format. A report is a pure function of
(seed, trials, n_range, tolerance), so any change to these bytes is a
behaviour change: regenerate the files on purpose, never to make a
refactor pass.
"""

import hashlib
import json
import math
from collections import Counter
from decimal import Decimal, localcontext
from pathlib import Path

import pytest

import negprob._batch as batch
from negprob import CLAIMS, check_all, check_claim, claim_by_id
from negprob.claims import _MEASURE_FIELD, reports_to_json
from negprob.cli import build_parser, main

DATA = Path(__file__).parent / "data"

CONFIGS = {
    "default": [],
    "seed42_n2-30": ["--seed", "42", "--trials", "100", "--n-min", "2", "--n-max", "30"],
    "seed3_n2-16": ["--seed", "3", "--trials", "200", "--n-min", "2", "--n-max", "16"],
    # Wide n, and n near 1000, where 1/n falls below the 1e-3 probe step.
    "seed7_n60-70": ["--seed", "7", "--trials", "20", "--n-min", "60", "--n-max", "70"],
    "seed11_n999-1002": ["--seed", "11", "--trials", "3",
                         "--n-min", "999", "--n-max", "1002"],
    # Across n = 100, where 1/n reaches the 1e-2 probe step: n = 95..100
    # take three probes, n = 101..105 two.
    "seed13_n95-105": ["--seed", "13", "--trials", "33", "--n-min", "95", "--n-max", "105"],
    # Two-word seeds: the largest 64-bit seed over many trials, and the
    # smallest seed that needs a second 32-bit word.
    "seed18446744073709551615_n2-8": ["--seed", "18446744073709551615",
                                      "--trials", "5000", "--n-min", "2", "--n-max", "8"],
    "seed4294967296_n2-16": ["--seed", "4294967296", "--trials", "300",
                             "--n-min", "2", "--n-max", "16"],
    # Three chunks of small n (529, 529 and 142 trials): each chunk
    # boundary falls mid-period, and n wraps from 60 to 2 inside chunks.
    "seed5_n2-60": ["--seed", "5", "--trials", "1200", "--n-min", "2", "--n-max", "60"],
    # n near 10^4, one trial per n, for the inequality and limit claims.
    "seed9001_n9998-10000_C1-C6": ["--seed", "9001", "--trials", "3",
                                   "--n-min", "9998", "--n-max", "10000",
                                   "--claims", "C1,C2,C3,C4,C5,C6"],
    # The maximizer claims near 10^4: probe points, their negations and
    # the reported peaks all have about 10^4 entries.
    "seed9001_n9999-10000_C7-C9": ["--seed", "9001", "--trials", "2",
                                   "--n-min", "9999", "--n-max", "10000",
                                   "--claims", "C7,C8,C9"],
}


@pytest.mark.parametrize("fmt, ext", [("json", "jsonl"), ("csv", "csv")])
@pytest.mark.parametrize("name", list(CONFIGS))
def test_check_stdout_matches_golden(capsys, name, fmt, ext):
    code = main(["check", *CONFIGS[name], "--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == (DATA / f"check_{name}.{ext}").read_bytes()


@pytest.fixture(scope="module")
def long_jumps():
    """PCG64 jump words for rows of up to the largest n of CONFIGS."""
    return batch._jump_words(10_000)


@pytest.mark.parametrize("fmt, ext", [("json", "jsonl"), ("csv", "csv")])
@pytest.mark.parametrize("name", list(CONFIGS))
@pytest.mark.parametrize("split", ["random_raw", "jumped"])
def test_check_stdout_matches_golden_when_one_path_draws_every_row(
        monkeypatch, capsys, long_jumps, split, name, fmt, ext):
    # The row size that splits jumped outputs from random_raw calls is
    # chosen for speed alone: moving it to either end keeps every byte.
    if split == "random_raw":
        monkeypatch.setattr(batch, "JUMP_MAX_N", 0)
    else:
        monkeypatch.setattr(batch, "JUMP_MAX_N", long_jumps.shape[1])
        monkeypatch.setattr(batch, "_JUMPS", long_jumps)
    code = main(["check", *CONFIGS[name], "--format", fmt])
    assert code == 0
    assert capsys.readouterr().out.encode("utf-8") == (DATA / f"check_{name}.{ext}").read_bytes()


@pytest.mark.parametrize("name", list(CONFIGS))
def test_check_stdout_matches_golden_with_math_log_entry_by_entry(monkeypatch, capsys, name):
    # The per-entry log is the one step whose path depends on the numpy
    # version: numpy's scalar loop when it gives math.log's bits on the
    # import-time witness, math.log entry by entry otherwise. The fallback
    # keeps every byte. The process keeps its probe blocks, so they are
    # dropped first, to be built again on the fallback too.
    logged = []
    monkeypatch.setattr(batch, "log_kernel", lambda x: logged.append(len(x)) or batch.math_logs(x))
    batch.probe_block.cache_clear()
    code = main(["check", *CONFIGS[name], "--format", "json"])
    assert code == 0 and logged
    assert capsys.readouterr().out.encode("utf-8") == (DATA / f"check_{name}.jsonl").read_bytes()


def api_kwargs(name):
    """The check_all keyword arguments behind a golden CLI configuration."""
    args = build_parser().parse_args(["check", *CONFIGS[name]])
    return dict(seed=args.seed, trials=args.trials,
                n_range=(args.n_min, args.n_max), tolerance=args.tol)


def claim_ids(name):
    """The claims a golden configuration selects, in registry order."""
    args = build_parser().parse_args(["check", *CONFIGS[name]])
    return args.claims.split(",") if args.claims else [c.id for c in CLAIMS]


@pytest.mark.parametrize("name", list(CONFIGS))
def test_check_claim_equals_its_line_of_check_all(name):
    kwargs = api_kwargs(name)
    ids = claim_ids(name)
    lines = [r.to_json() for r in check_all(**kwargs, claim_ids=ids)]
    assert [check_claim(cid, **kwargs).to_json() for cid in ids] == lines


@pytest.mark.parametrize("name", ["default", "seed9001_n9998-10000_C1-C6"])
def test_c2_and_c3_report_one_point_as_one_tuple(name):
    # The default config's C2 and C3 both fall to the fixture; at n near
    # 10^4 both fall to the first trial. reports_to_json formats the
    # shared tuple once.
    reports = check_all(**api_kwargs(name), claim_ids=claim_ids(name))
    c2, c3 = reports[1], reports[2]
    assert (c2.claim_id, c3.claim_id) == ("C2", "C3")
    assert c2.counterexample.p is c3.counterexample.p


@pytest.mark.parametrize("subset", [{"C1"}, {"C7"}, {"C2", "C8"}, {"C4", "C5", "C6"}])
def test_subset_equals_matching_lines_of_full_run(subset):
    full = (DATA / "check_default.jsonl").read_text().splitlines()
    wanted = [line for c, line in zip(CLAIMS, full) if c.id in subset]
    reports = check_all(**api_kwargs("default"), claim_ids=sorted(subset))
    assert [r.to_json() for r in reports] == wanted


# The sha256 of reports_to_json at n near 10^4 for each (seed, claims) of
# LARGE_N_CONFIGS, also the sha256 of the reference engine's reports
# (tests/reference_engine.py) when they were taken.
LARGE_N_SHA256 = {
    (0, "C1-C6"): "e82427af1b632e71ab232c1411aad6113af05117bd146f04ec78931ea0ac88c8",
    (1, "C1-C6"): "147f155fa11bcc410f3954cb3c610a7a7101a981b07cd9ceb6e3787c0f9a05e1",
    (9001, "C1-C6"): "e6a852f1ab6caa3bb0b49e79357514add1b0fad678f4a09bb4b443441b22fcc7",
    (2**64 - 1, "C1-C6"): "6fd4bf6ff3e438a2be6aca90539d68b00384da0aceabe39c8e9df8d90c5ff0d0",
    (0, "C7-C9"): "ef6348120f5ff642cbd613d41ec03c39917f23716c455747dfe6abd7dc6e4cb4",
    (1, "C7-C9"): "86866d2c9ab440af77f67a4522b9996b471a2dd77d991d716106651e9fb1a508",
    (9001, "C7-C9"): "2fd26232e9e27dd47f68b53bad8631a1bcfd3266d63e523a8e6ca5ad99e5439a",
    (2**64 - 1, "C7-C9"): "4f49044e0b6d330d239272f99be451521381d8189e61672aea29a008faada769",
}
LARGE_N_CONFIGS = {
    "C1-C6": dict(trials=4, n_range=(9000, 10_000),
                  claim_ids=("C1", "C2", "C3", "C4", "C5", "C6")),
    "C7-C9": dict(trials=3, n_range=(9998, 10_000), claim_ids=("C7", "C8", "C9")),
}


@pytest.mark.parametrize("seed, claims", list(LARGE_N_SHA256))
def test_reports_at_large_n_keep_their_sha256(seed, claims):
    reports = check_all(seed=seed, **LARGE_N_CONFIGS[claims])
    digest = hashlib.sha256(reports_to_json(reports).encode()).hexdigest()
    assert digest == LARGE_N_SHA256[seed, claims]


def refuted_reports():
    """(file name, report) for every REFUTED report in the golden JSON files."""
    return [
        (path.name, report)
        for path in sorted(DATA.glob("check_*.jsonl"))
        for report in map(json.loads, path.read_text().splitlines())
        if report["verdict"] == "REFUTED"
    ]


def exact_measure(probs, field, negated=False):
    """H, VH or VJ (``field``), to 60 digits, of the distribution
    p = probs / sum(probs), or of negate(p). Decimal(x) is a float's exact
    value and Decimal.ln is correctly rounded."""
    with localcontext() as ctx:
        ctx.prec = 60
        runs = Counter(probs)
        n = len(probs)
        total = sum(Decimal(x) * c for x, c in runs.items())
        ln_scale = Decimal(n - 1).ln()
        s1 = s2 = Decimal(0)
        for x, c in runs.items():
            p = Decimal(x) / total
            w = (1 - p) / (n - 1) if negated else p
            if field == "VJ":
                w = 1 - w
            if not w:
                continue  # 0 ln 0 = 0
            if negated and field != "VJ":  # ln(1 - p) is the cheap log, near 1
                ln_w = (1 - p).ln() - ln_scale
            else:
                ln_w = w.ln()
            s1 += c * w * ln_w
            s2 += c * w * ln_w * ln_w
        return -s1 if field == "H" else s2 - s1 * s1


def exact_uniform(n):
    """H, VH and VJ of uniform(n), which negation maps to itself, to 60
    digits: ln n, 0 and -(n-1)(n-2) ln(1-1/n)^2."""
    with localcontext() as ctx:
        ctx.prec = 60
        big_n = Decimal(n)
        ln_t = (1 - 1 / big_n).ln()
        return {"H": big_n.ln(), "VH": Decimal(0), "VJ": -(big_n - 1) * (big_n - 2) * ln_t * ln_t}


class TestRefutationsAgainstA60DigitOracle:
    """Every REFUTED report in the golden files, re-derived in 60-digit
    decimal arithmetic: the real margin must exceed the tolerance, so no
    refutation is a rounding artefact.

    The counterexample's floats are taken as exact values and divided by
    their exact sum, which gives a true distribution p. Inequality claims
    compare a measure of negate(p) with that of p; maximizer claims compare
    the negated measure with its value at uniform(n), a fixed point of
    negation; C6 compares |VJ(uniform(n))| with its value at the previous
    grid n. C4 and C5 are identities, so a refutation of either could only
    be a rounding artefact: none may occur.

    Error budget: the reported lhs and rhs each lie within n ulp of 1 of
    their exact values, and the margin within 2n ulp of 1 plus its own
    ulp. The engine rounds every entry of a point (the sample, its
    renormalisation, its negation, 1/n) before taking logarithms, and the
    measures turn those relative roundings into an error that grows with
    n, as ``TestUniformOracle`` shows for VJ of uniform(n). The worst seen
    in these files is 0.48 n ulp of 1 on an lhs or rhs (C9 at n = 60) and
    0.45 n on a margin (C6 at n = 9999). The smallest real margin is 1.15
    times the tolerance (C9 at n = 60).
    """

    REPORTS = refuted_reports()

    def test_every_kind_is_read(self):
        claims = {report["claim"] for _, report in self.REPORTS}
        assert {"C2", "C3", "C6", "C8", "C9"} <= claims

    @pytest.mark.parametrize("name, report", REPORTS,
                             ids=[f"{name}-{r['claim']}" for name, r in REPORTS])
    def test_margin_exceeds_the_tolerance(self, name, report):
        claim = claim_by_id(report["claim"])
        field = _MEASURE_FIELD[claim.id]
        ce = report["counterexample"]
        n = len(ce["p"])
        with localcontext() as ctx:
            ctx.prec = 60
            if claim.kind == "inequality":
                lhs = exact_measure(ce["p"], field, negated=True)
                rhs = exact_measure(ce["p"], field)
                margin = rhs - lhs
            elif claim.kind == "maximizer":
                lhs = exact_measure(ce["p"], field, negated=True)
                rhs = exact_uniform(n)[field]
                margin = lhs - rhs
            else:
                assert claim.id == "C6"
                grid = report["observed"]["n_grid"]
                lhs = abs(exact_uniform(n)[field])
                rhs = abs(exact_uniform(grid[grid.index(n) - 1])[field])
                margin = lhs - rhs
            budget = n * Decimal(math.ulp(1.0))
            assert abs(Decimal(ce["lhs"]) - lhs) <= budget
            assert abs(Decimal(ce["rhs"]) - rhs) <= budget
            assert abs(Decimal(ce["margin"]) - margin) <= 2 * budget + Decimal(
                math.ulp(ce["margin"]))
            assert margin > Decimal(report["tolerance"])
