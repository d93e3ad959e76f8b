"""The sampler's raw outputs and the edges of its inverse-CDF gaps.

Every gap is 0.0 - log(1.0 - u), u the top 53 bits of a raw PCG64 output
times 2**-53. Crafted streams put the two edges of u at chosen outputs: an
output below 2**11 gives u = 0 and a zero gap, which must be +0.0, and the
all-ones output gives the largest gap, 53 ln 2. The batched pass
(``_batch``) and the scalar ``sample_uniform_simplex`` must agree on both,
bit for bit.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_engine import reference_reports

import negprob._batch as batch
from negprob import (NotADistribution, SimplexSamplerConfig, check_all, reports_to_json,
                     sample_uniform_simplex)
from negprob._batch import JUMP_MAX_N, Rows

_MASK64 = 2**64 - 1
_MASK128 = 2**128 - 1


def crafted_stream(first: int, second: int) -> list[int]:
    """The ``pcg64_seeds`` words of a stream whose first two raw outputs are
    first, an even number, and second, an odd one. A state whose high word
    is zero outputs its low word, so the stream's first two states are
    first and second, inc = second - M * first (odd), and seeding's two LCG
    steps are undone from there."""
    mult = batch._PCG_MULT
    inc = (second - mult * first) & _MASK128
    inverse = pow(mult, -1, 2**128)
    seeded = (first - inc) * inverse
    seed = ((seeded - inc) * inverse - inc) & _MASK128
    return [seed & _MASK64, seed >> 64, inc & _MASK64, inc >> 64]


# Stream t starts with an output below 2**11 (u = 0) and the all-ones output
# (u = 1 - 2**-53) in the order EDGE_OUTPUTS[t] gives.
EDGE_OUTPUTS = [(2**11 - 2, 2**64 - 1), (2**64 - 2, 1)]
EDGE_STREAMS = [crafted_stream(*outputs) for outputs in EDGE_OUTPUTS]
LARGEST_GAP = 0.0 - math.log(2.0**-53)


def edge_seeds(seed, ns, ts):
    """``pcg64_seeds`` with trial t's stream EDGE_STREAMS[t % 2]."""
    return np.array([EDGE_STREAMS[t % 2] for t in np.asarray(ts).tolist()], np.uint64).T


def edge_generators(monkeypatch):
    """Make ``np.random.PCG64(SeedSequence((seed, n, t)))`` the edge stream
    of t, as ``edge_seeds`` does for the batch."""
    real = np.random.PCG64

    def crafted(seq):
        bits = real(0)
        batch._set_pcg64(bits, EDGE_STREAMS[seq.entropy[2] % 2])
        return bits

    monkeypatch.setattr(np.random, "PCG64", crafted)


def zero_signs(values):
    return [math.copysign(1.0, x) for x in values if x == 0.0]


def test_edge_outputs_give_a_positive_zero_gap_and_the_largest_gap():
    rows = Rows([3, 3])
    seeds = edge_seeds(0, rows.ns, [0, 1])
    raw = batch.raw_rows(seeds, rows).tolist()
    assert (raw[0], raw[1]) == EDGE_OUTPUTS[0] and (raw[3], raw[4]) == EDGE_OUTPUTS[1]
    gaps = batch.exponential_rows(seeds, rows).tolist()
    assert [gaps[0], gaps[4]] == [0.0, 0.0] and zero_signs(gaps) == [1.0, 1.0]
    assert gaps[1].hex() == gaps[3].hex() == LARGEST_GAP.hex()
    assert LARGEST_GAP == pytest.approx(53 * math.log(2.0), rel=1e-15)


def test_both_samplers_agree_on_the_edge_streams(monkeypatch):
    rows = Rows([3, 3])
    got = batch.sample_rows(edge_seeds(0, rows.ns, [0, 1]), rows).tolist()
    edge_generators(monkeypatch)
    want = [x for t in (0, 1)
            for x in sample_uniform_simplex(SimplexSamplerConfig(0, 3, 2), t).probs]
    assert [x.hex() for x in got] == [x.hex() for x in want]
    assert zero_signs(got) == [1.0, 1.0]


def test_reports_on_the_edge_streams_hold_no_negative_zero(monkeypatch):
    # At n = 3 the first trial's point, with its zero entry, refutes C2
    # and C3 and is C8's peak, and the second trial's is C9's peak.
    monkeypatch.setattr(batch, "pcg64_seeds", edge_seeds)
    edge_generators(monkeypatch)
    kwargs = dict(seed=0, trials=2, n_range=(3, 3), tolerance=1e-9, claim_ids=None)
    text = reports_to_json(check_all(**kwargs))
    assert text == reports_to_json(reference_reports(**kwargs))
    reports = [json.loads(line) for line in text.splitlines()]
    points = [r["counterexample"]["p"] for r in reports if r["counterexample"]]
    points += [r["observed"]["argmax_p"] for r in reports if "argmax_p" in r["observed"]]
    assert [reports[1]["counterexample"]["p"][0], reports[7]["observed"]["argmax_p"][0],
            reports[8]["observed"]["argmax_p"][1]] == [0.0, 0.0, 0.0]
    assert all(sign == 1.0 for p in points for sign in zero_signs(p))


# A stream whose first two outputs are 0 (a state with equal words, here
# both 0) and 1: both give u = 0, so its row at n = 2 has two zero gaps and
# a total of 0, the one sample row make_distribution rejects.
ZERO_STREAM = crafted_stream(0, 1)


@pytest.mark.parametrize("zero_rows", [[0], [1], [2], [1, 2]])
@pytest.mark.filterwarnings("error")
def test_a_row_of_zero_gaps_raises_make_distributions_error(monkeypatch, zero_rows):
    # Wherever the zero rows are among good ones, the batch raises on the
    # first before it divides by its total, with the scalar sampler's
    # message.
    rows = Rows([3 if i not in zero_rows else 2 for i in range(3)])
    seeds = batch.pcg64_seeds(5, rows.ns, [0, 1, 2])
    seeds[:, zero_rows] = np.array(ZERO_STREAM, np.uint64)[:, None]
    gaps = batch.exponential_rows(seeds, rows)
    assert [not gaps[at].any() for at in rows.slices(np.arange(3))] == [
        i in zero_rows for i in range(3)]
    message = "sum = 0.0 differs from 1 by more than 1e-09"
    with pytest.raises(NotADistribution) as batched:
        batch.sample_rows(seeds, rows)
    real = np.random.PCG64

    def crafted(seq):
        bits = real(0)
        batch._set_pcg64(bits, ZERO_STREAM)
        return bits

    monkeypatch.setattr(np.random, "PCG64", crafted)
    with pytest.raises(NotADistribution) as scalar:
        sample_uniform_simplex(SimplexSamplerConfig(5, 2, 2), 1)
    assert str(batched.value) == str(scalar.value) == message


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(0, 2**64 - 1),
       st.lists(st.tuples(st.integers(1, JUMP_MAX_N + 3),
                          st.one_of(st.sampled_from([0, 2**32 - 1]),
                                    st.integers(0, 2**32 - 1))),
                min_size=1, max_size=6))
def test_raw_outputs_are_random_raw_of_each_seeded_stream(seed, draws):
    # pcg64_outputs jumps to each output of a row up to the cutoff, and
    # raw_rows takes a longer row from random_raw itself.
    rows = Rows([n for n, _ in draws])
    seeds = batch.pcg64_seeds(seed, rows.ns, [t for _, t in draws])
    got = batch.raw_rows(seeds, rows).tolist()
    for i, ((n, t), row) in enumerate(zip(draws, rows.slices(np.arange(len(rows))))):
        want = np.random.PCG64(np.random.SeedSequence((seed, n, t))).random_raw(n).tolist()
        assert got[row] == want
        if n <= JUMP_MAX_N:
            assert batch.pcg64_outputs(seeds, np.full(n, i), np.arange(n)).tolist() == want
