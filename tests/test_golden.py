"""Golden `negprob check` reports.

Each file under tests/data/ is the stdout of `negprob check` for one
configuration and format. A report is a pure function of
(seed, trials, n_range, tolerance), so any change to these bytes is a
behaviour change: regenerate the files on purpose, never to make a
refactor pass.
"""

from pathlib import Path

import pytest

from negprob import CLAIMS, check_all, check_claim
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
    # Two-word seeds: the largest 64-bit seed over many trials, and the
    # smallest seed that needs a second 32-bit word.
    "seed18446744073709551615_n2-8": ["--seed", "18446744073709551615",
                                      "--trials", "5000", "--n-min", "2", "--n-max", "8"],
    "seed4294967296_n2-16": ["--seed", "4294967296", "--trials", "300",
                             "--n-min", "2", "--n-max", "16"],
    # n near 10^4, one trial per n, with C1's majorization check.
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


@pytest.mark.parametrize("subset", [{"C1"}, {"C7"}, {"C2", "C8"}, {"C4", "C5", "C6"}])
def test_subset_equals_matching_lines_of_full_run(subset):
    full = (DATA / "check_default.jsonl").read_text().splitlines()
    wanted = [line for c, line in zip(CLAIMS, full) if c.id in subset]
    reports = check_all(**api_kwargs("default"), claim_ids=sorted(subset))
    assert [r.to_json() for r in reports] == wanted
