"""The batched claim engine against the scalar reference engine
(tests/reference_engine.py): the same report bytes on drawn seeds, trial
counts, n ranges, tolerances and claim subsets, and on every golden
configuration."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_engine import reference_reports
from test_golden import CONFIGS, DATA

from negprob import CLAIMS, check_all, reports_to_json
from negprob.cli import build_parser

SEEDS = st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1]),
                  st.integers(0, 2**64 - 1))
# n in 2..40, or a few n near 10^3, where 1/n falls below the 1e-3 probe step.
N_RANGES = st.one_of(
    st.tuples(st.integers(2, 40), st.integers(0, 38)).map(
        lambda r: (r[0], min(40, r[0] + r[1]))),
    st.tuples(st.integers(995, 1005), st.integers(0, 3)).map(lambda r: (r[0], r[0] + r[1])),
)
TOLERANCES = st.one_of(st.sampled_from([1e-9, 1e-15, 1e-6, 1e-3, 0.5]),
                       st.floats(1e-16, 1.0))
CLAIM_IDS = st.one_of(st.none(), st.sets(st.sampled_from([c.id for c in CLAIMS]), min_size=1))


@settings(max_examples=40, deadline=None, database=None)
@given(SEEDS, st.integers(1, 60), N_RANGES, TOLERANCES, CLAIM_IDS)
@example(0, 60, (2, 8), 1e-9, None)  # the default check's n range and tolerance
@example(2**64 - 1, 20, (2, 40), 1e-9, None)  # a two-word seed, n wrapping mid-run
@example(3, 12, (998, 1001), 1e-9, None)  # points long enough for the columnar writer
@example(1, 40, (999, 1002), 1e-9, {"C2", "C3", "C9"})  # three chunks, each with violations
def test_check_all_writes_the_reference_engines_bytes(seed, trials, n_range, tolerance,
                                                      claim_ids):
    kwargs = dict(seed=seed, trials=trials, n_range=n_range, tolerance=tolerance,
                  claim_ids=claim_ids)
    want = reports_to_json(reference_reports(**kwargs))
    assert reports_to_json(check_all(**kwargs)) == want


# Ranges that start past n = 2, where 1/n lies between the two probe steps,
# so that the fold's tables are indexed by n - n_min away from n = 2: one,
# two, three, seven and 232 n.
@pytest.mark.parametrize("n_range", [(226, 232), (228, 229), (229, 229), (455, 457),
                                     (227, 458)])
def test_ranges_past_n_2_write_the_reference_engines_bytes(n_range):
    kwargs = dict(seed=11, trials=12, n_range=n_range, tolerance=1e-9, claim_ids=None)
    want = reports_to_json(reference_reports(**kwargs))
    assert reports_to_json(check_all(**kwargs)) == want


@pytest.mark.parametrize("name", list(CONFIGS))
def test_each_golden_report_is_the_reference_engines(name):
    # The golden files hold the CLI's stdout: reports_to_json and a newline.
    args = build_parser().parse_args(["check", *CONFIGS[name]])
    reports = reference_reports(
        seed=args.seed, trials=args.trials, n_range=(args.n_min, args.n_max),
        tolerance=args.tol, claim_ids=args.claims.split(",") if args.claims else None)
    assert reports_to_json(reports) + "\n" == (DATA / f"check_{name}.jsonl").read_text()
