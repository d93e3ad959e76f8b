"""The sampler's draws against numpy's Generator, bit for bit.

``negprob._batch`` draws every row of at most ``ZIGGURAT_MAX_N`` entries
in numpy: PCG64 jumped ahead to each output, then numpy's ziggurat for
``standard_exponential``, its slow path included, with the tables of
``negprob._ziggurat_tables``. These tests check the committed tables
against an independent derivation from crafted PCG64 states (the oracle
below), every layer's fast-path and wedge boundaries and the tail's edges
against the Generator's own draws on crafted streams, and whole rows
against the Generator-only path.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import negprob._batch as batch
from negprob import check_all, reports_to_json
from negprob._batch import (
    SLOW_KINDS,
    ZIGGURAT_MAX_N,
    Rows,
    crafted_stream,
    exponential_rows,
    guarded_ziggurat,
    pcg64_outputs,
    pcg64_seeds,
    ziggurat_draws,
    ziggurat_split,
    ziggurat_tables,
    ziggurat_witness,
)
from negprob._ziggurat_tables import FE, KE, R, WE

SETTINGS = settings(max_examples=60, deadline=None, database=None)
_PCG_MULT, _MASK64, _MASK128 = batch._PCG_MULT, 2**64 - 1, 2**128 - 1
# The committed tables, unguarded: the draws below are checked against the
# Generator whatever the guard would decide.
TABLES = (np.frombuffer(WE, "<f8"), np.frombuffer(KE, "<u8"), np.frombuffer(FE, "<f8"), R)


def derive_ziggurat():
    """The tables (we, ke) of the installed numpy's ``standard_exponential``,
    read off crafted draws, or None when a boundary is not where it is
    looked for. From state 0, PCG64 steps to state inc and outputs inc
    itself (a state whose high word is zero), so inc is set to the output
    wanted, made odd; a draw took the fast path when the raw output after
    it is the one step from inc. A draw at ri = 1 gives we[layer] (layer
    1's slow path returns it too). ke[layer], the least ri whose draw is
    not fast, is walked to from one below the width ratio we[layer - 1] /
    we[layer] * 2**53 (within 3 of it on numpy 2.4), from a bisection for
    layer 0 (the tail), and from 0 for layer 1, which has no fast path."""
    bits = np.random.PCG64(0)
    gen = np.random.Generator(bits)

    def draw(ri, layer):
        """The draw at ri in layer, and whether it took the fast path."""
        inc = (ri << 8 | layer) << 3 | 1
        batch._set_pcg64(bits, 0, inc)
        x = gen.standard_exponential()
        return x, bits.random_raw() == _xsl_rr(inc * (_PCG_MULT + 1) & _MASK128)

    def fast(ri, layer):
        return draw(ri, layer)[1]

    we, ke = [draw(1, layer)[0] for layer in range(256)], []
    for layer in range(256):
        if layer == 0:
            k, high = 0, 2**53
            while k < high:
                mid = (k + high) // 2
                k, high = (mid + 1, high) if fast(mid, layer) else (k, mid)
        elif layer == 1:
            k = 0
        else:
            try:  # clamped to an ri whose crafted output PCG64's inc can hold
                k = min(max(int(we[layer - 1] / we[layer] * 2**53) - 1, 0), 2**53)
            except (ArithmeticError, ValueError):  # a zero, inf or nan width
                return None
        k = _first_slow(lambda ri: fast(ri, layer), k)
        if k is None:
            return None
        ke.append(k)
    return np.array(we), np.array(ke, np.uint64)


def _xsl_rr(state: int) -> int:
    """PCG64's output at a 128-bit state."""
    high, low = state >> 64, state & _MASK64
    word, turn = high ^ low, high >> 58
    return (word >> turn | word << (64 - turn)) & _MASK64


def _first_slow(fast, k):
    """The least ri >= 0 for which fast(ri) is false, by a walk of one unit
    at a time from k that sees fast(ri - 1) and not fast(ri); None when
    the walk takes more than 16 steps."""
    up = fast(k)
    for _ in range(16):
        if up:
            k += 1
            if not fast(k):
                return k
        elif k == 0 or fast(k - 1):
            return k
        else:
            k -= 1
    return None


def generator_draws(states):
    """Generator.standard_exponential(1) from each PCG64 (state, inc), and
    the state it leaves."""
    bits = np.random.PCG64(0)
    gen = np.random.Generator(bits)
    out = []
    for state, inc in states:
        bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                      "has_uint32": 0, "uinteger": 0}
        out.append((gen.standard_exponential(1).tolist(), bits.state["state"]["state"]))
    return out


def crafted_streams(outputs):
    """pcg64_seeds-style words of streams whose first output is each of
    outputs (a state whose high word is zero outputs its low word), and the
    PCG64 (state, inc) that seeding sets for each."""
    mult, mask = batch._PCG_MULT, 2**128 - 1
    inverse = pow(mult * mult, -1, 2**128)
    words, states = [], []
    for i, output in enumerate(outputs):
        inc = (0x9E3779B97F4A7C15F39CC0605CEDC835 * (2 * i + 1)) & mask | 1
        # The first draw's state is M**2 * seed + (1 + M + M**2) * inc.
        seed = (output - (1 + mult + mult * mult) * inc) * inverse & mask
        words.append([seed & 2**64 - 1, seed >> 64, inc & 2**64 - 1, inc >> 64])
        states.append((((seed + inc) * mult + inc) & mask, inc))
    return np.array(words, np.uint64).T.copy(), states


def slow_draws(seeds, rows):
    """Each row's slow draws in the vectorised path, as lists of
    ``SLOW_KINDS`` names, and the rows it leaves to the Generator."""
    left, row, kind = batch._ziggurat_rows(seeds, rows, TABLES, np.empty(int(rows.ns.sum())))
    kinds = [[] for _ in range(len(rows))]
    for r, k in zip(row.tolist(), kind.tolist()):
        kinds[r].append(SLOW_KINDS[k])
    return kinds, left.tolist()


def assert_generator_bits(seeds, rows):
    """exponential_rows with the committed tables gives the Generator's
    bits."""
    got = exponential_rows(seeds, rows, TABLES)
    want = exponential_rows(seeds, rows, None)
    assert [x.hex() for x in got.tolist()] == [x.hex() for x in want.tolist()]
    return got.tolist()


def two_output_rows(pairs):
    """pcg64_seeds words and one-draw rows for streams whose first two
    outputs are each (ri, layer, u bits): the draw's output, then the one
    its slow path reads u from."""
    words = [crafted_stream((ri << 8 | layer) << 3, u << 11 | 1) for ri, layer, u in pairs]
    return np.array(words, np.uint64).T.copy(), Rows([1] * len(pairs))


def test_the_crafted_streams_output_what_they_are_made_to():
    pairs = [(5, 0, 0), (2**53 - 1, 255, 2**53 - 1), (123456789, 17, 987654321)]
    seeds, rows = two_output_rows(pairs)
    raw = pcg64_outputs(seeds, np.repeat(np.arange(3), 2), np.tile([0, 1], 3))
    ri, layer = ziggurat_split(raw)
    assert ri.tolist()[0::2] == [p[0] for p in pairs]
    assert layer.tolist()[0::2] == [p[1] for p in pairs]
    assert ri.tolist()[1::2] == [p[2] for p in pairs]


def test_the_fast_path_is_numpys_on_both_sides_of_every_layer_boundary():
    # ri = ke - 1 is the largest the fast path returns and ri = ke the
    # least it does not, for all 256 layers: layer 0's slow side is the
    # tail and layer 1 (ke = 0) has no fast side. The low three bits of an
    # output are not read; they vary here.
    tables = ziggurat_tables()
    assert tables is not None  # numpy's ziggurat is plain C, the same on every CPU
    ke = tables[1].tolist()
    assert ke[1] == 0
    cases = [(layer, ri) for layer in range(256) for ri in (ke[layer] - 1, ke[layer]) if ri >= 0]
    outputs = [(ri << 8 | layer) << 3 | layer % 8 for layer, ri in cases]
    seeds, states = crafted_streams(outputs)
    raw = pcg64_outputs(seeds, np.arange(len(cases)), np.zeros(len(cases), np.intp))
    assert raw.tolist() == outputs
    x, fast = ziggurat_draws(*ziggurat_split(raw), tables)
    want = generator_draws(states)
    for (layer, ri), output, got, is_fast, (draws, state) in zip(
            cases, outputs, x.tolist(), fast.tolist(), want):
        assert is_fast == (ri < ke[layer]), (layer, ri)
        # numpy took its fast path, one LCG step, exactly where flagged.
        assert (state == output) == is_fast, (layer, ri)
        if is_fast:
            assert got.hex() == draws[0].hex(), (layer, ri)
    # Every row of one draw, fast or not, comes out as the Generator's.
    drawn = exponential_rows(seeds, Rows([1] * len(cases)), tables).tolist()
    assert [x.hex() for x in drawn] == [draws[0].hex() for draws, _ in want]


def wedge_edge(layer, ri, fe, we):
    """The largest u bits whose wedge test accepts the draw at ri in layer,
    by bisection: (fe[i - 1] - fe[i]) * u + fe[i] never falls as u rises."""
    x, i = ri * we[layer], layer

    def accepts(bits):
        return (fe[i - 1] - fe[i]) * (bits * 2.0**-53) + fe[i] < math.exp(-x)

    low, high = 0, 2**53 - 1
    assert accepts(low) and not accepts(high), (layer, ri)  # the edge lies inside
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if accepts(mid) else (low, mid)
    return low


def test_every_wedge_accepts_up_to_its_edge_and_restarts_past_it_as_numpy_does():
    # For each layer >= 1, a slow draw a third of the way into its slow
    # side, at the largest u the committed fe accepts and the least it
    # rejects. Where numpy's SIMD exp differs from math.exp in the last bit
    # near there, such an x is taken, so that an exp other than the C
    # library's moves the edge.
    we, ke, fe = (t.tolist() for t in TABLES[:3])
    pairs = []
    for layer in range(1, 256):
        base = ke[layer] + (2**53 - ke[layer]) // 3
        ris = np.arange(base, base + 256, dtype=np.uint64)
        x = ris.astype(float) * we[layer]
        differs = np.flatnonzero(np.exp(-x) != [math.exp(-v) for v in x.tolist()])
        ri = int(ris[differs[0]]) if len(differs) else base
        edge = wedge_edge(layer, ri, fe, we)
        pairs += [(ri, layer, edge), (ri, layer, edge + 1)]
    seeds, rows = two_output_rows(pairs)
    drawn = assert_generator_bits(seeds, rows)
    kinds, left = slow_draws(seeds, rows)
    assert left == []
    for j, ((ri, layer, u), x, row_kinds) in enumerate(zip(pairs, drawn, kinds)):
        # The Generator returned the draw's own x exactly where the edge
        # says the test accepts; past it, numpy restarted the draw.
        if j % 2 == 0:
            assert x == ri * we[layer] and row_kinds == ["wedge"], (layer, ri, u)
        else:
            assert x != ri * we[layer] and row_kinds[0] == "restart", (layer, ri, u)


def test_a_tail_draw_at_either_end_of_u_is_numpys():
    # Layer 0's slow side returns r - log1p(-u): at u = 0 that is r itself,
    # so the Generator's draw reads the committed r back, and at the
    # largest u, 1 - 2**-53, the farthest tail draw numpy can make.
    _, ke, _, r = TABLES
    ke0 = int(ke[0])
    pairs = [(ri, 0, u) for ri in (ke0, 2**53 - 1) for u in (0, 2**53 - 1)]
    seeds, rows = two_output_rows(pairs)
    drawn = assert_generator_bits(seeds, rows)
    assert drawn[0] == drawn[2] == r
    assert drawn[1] == drawn[3] == r - math.log1p(-(1.0 - 2.0**-53))
    assert slow_draws(seeds, rows) == ([["tail"]] * 4, [])


def test_a_restart_that_lands_on_another_slow_draw_is_numpys():
    # Trial 46 of seed 0 at n = 2: output 1 misses the fast path and its
    # wedge test rejects, so the draw restarts at output 3, which misses the
    # fast path too and is accepted. One row, two slow draws.
    seeds = pcg64_seeds(0, [2], [46])
    rows = Rows([2])
    outputs = pcg64_outputs(seeds, np.zeros(6, np.intp), np.arange(6))
    _, fast = ziggurat_draws(*ziggurat_split(outputs), TABLES)
    assert fast.tolist()[:4] == [True, False, True, False]
    assert slow_draws(seeds, rows) == ([["restart", "wedge"]], [])
    assert_generator_bits(seeds, rows)


@SETTINGS
@given(st.integers(0, 2**64 - 1), st.integers(1, ZIGGURAT_MAX_N + 3),
       st.integers(1, 3000), st.integers(0, 2**64 - 3001))
@example(0, ZIGGURAT_MAX_N, 3000, 0)
@example(2**64 - 1, ZIGGURAT_MAX_N + 3, 3000, 2**32 - 1500)  # t crosses 2**32
def test_rows_equal_the_generator_only_path(seed, n_max, count, t0):
    # Rows of every n up to n_max, so some lie past ZIGGURAT_MAX_N, over a
    # run of trials whose rows hold slow draws of every kind.
    ns = 1 + np.arange(count) % n_max
    seeds = pcg64_seeds(seed, ns, np.arange(t0, t0 + count, dtype=np.uint64))
    assert_generator_bits(seeds, Rows(ns))


def test_a_row_whose_draws_outrun_the_window_goes_to_the_generator(monkeypatch):
    # With one output past n, a row whose slow draw restarts, or whose two
    # slow draws both return, cannot be drawn in numpy.
    monkeypatch.setattr(batch, "_SLOW_WINDOW", 1)
    ns = np.full(3000, 8)
    seeds = pcg64_seeds(3, ns, np.arange(3000))
    rows = Rows(ns)
    kinds, left = slow_draws(seeds, rows)
    assert left and all(kinds[i] == [] for i in left)
    assert_generator_bits(seeds, rows)


def test_no_row_of_the_default_check_goes_to_the_generator(monkeypatch):
    # The default check config, n = 2..8: every row is drawn in numpy once
    # the tables pass their guard, slow draws included.
    assert ziggurat_tables() is not None
    states = []
    monkeypatch.setattr(batch, "_set_pcg64", lambda *args: states.append(args))
    for seed in range(3):
        check_all(seed=seed)
    assert states == []


def test_the_ziggurat_tables_are_derived_once_and_pass_their_guard():
    tables = ziggurat_tables()
    assert ziggurat_tables() is tables
    we, ke = derive_ziggurat()
    assert np.array_equal(we.view(np.int64), tables[0].view(np.int64))
    assert np.array_equal(ke, tables[1])
    assert guarded_ziggurat(tables) is tables
    # The witness has rows of fast draws alone and rows with slow draws of
    # every kind, one row with two of them, and the two crafted rows either
    # side of a wedge's edge; no row is left to the Generator.
    seeds, rows = ziggurat_witness()
    kinds, left = slow_draws(seeds, rows)
    assert left == []
    assert 0 < sum(map(bool, kinds)) < len(rows)
    assert {kind for row in kinds for kind in row} == set(SLOW_KINDS)
    assert max(map(len, kinds)) >= 2
    assert kinds[-2:] == [["wedge"], ["restart"]]


@pytest.mark.parametrize("off", ["we", "ke", "fe", "fe down", "r"])
def test_the_guard_rejects_tables_that_change_a_draw(off):
    we, ke, fe, r = TABLES
    assert guarded_ziggurat(TABLES) is TABLES
    if off == "we":  # every draw one ulp off
        we = np.nextafter(we, np.inf)
    elif off == "ke":  # the fast path returns draws numpy sends to its slow path
        ke = ke + np.uint64(2**50)
    elif off == "fe":  # the wedge edge moves by one ulp, either way
        fe = np.nextafter(fe, np.inf)
    elif off == "fe down":
        fe = np.nextafter(fe, -np.inf)
    else:  # every tail draw moves
        r = math.nextafter(r, math.inf)
    assert guarded_ziggurat((we, ke, fe, r)) is None
    assert guarded_ziggurat(None) is None


def test_the_boundary_walk_confirms_both_sides_or_gives_up():
    def fast(ri):
        seen.append(ri)
        return ri < 100

    for start, want, probes in [(100, 100, [100, 99]), (97, 100, [97, 98, 99, 100]),
                                (103, 100, [103, 102, 101, 100, 99]), (0, None, None),
                                (150, None, None)]:
        seen = []
        assert _first_slow(fast, start) == want
        if probes:
            assert seen == probes
    assert _first_slow(lambda ri: False, 2) == 0  # no fast side: ke = 0


@pytest.mark.parametrize("n_range", [(2, 64), (28, 36)])
def test_reports_are_the_same_when_the_generator_draws_every_row(monkeypatch, n_range):
    # Ranges either side of ZIGGURAT_MAX_N; the golden files cover the rest.
    assert n_range[0] < ZIGGURAT_MAX_N < n_range[1]
    kwargs = dict(seed=2**32 + 5, trials=300, n_range=n_range)
    chosen = reports_to_json(check_all(**kwargs))
    monkeypatch.setattr(batch, "ziggurat_tables", lambda: None)
    assert reports_to_json(check_all(**kwargs)) == chosen
