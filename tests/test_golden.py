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


@pytest.mark.parametrize("name", list(CONFIGS))
def test_check_claim_equals_its_line_of_check_all(name):
    kwargs = api_kwargs(name)
    lines = [r.to_json() for r in check_all(**kwargs)]
    assert [check_claim(c.id, **kwargs).to_json() for c in CLAIMS] == lines


@pytest.mark.parametrize("subset", [{"C1"}, {"C7"}, {"C2", "C8"}, {"C4", "C5", "C6"}])
def test_subset_equals_matching_lines_of_full_run(subset):
    full = (DATA / "check_default.jsonl").read_text().splitlines()
    wanted = [line for c, line in zip(CLAIMS, full) if c.id in subset]
    reports = check_all(**api_kwargs("default"), claim_ids=sorted(subset))
    assert [r.to_json() for r in reports] == wanted
