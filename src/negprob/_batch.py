"""The claim engine's batched trial pass: many trials drawn, negated and
measured at once, with every float equal to the one-distribution
functions' by construction.

Trials of mixed n are held as flat rows (``Rows``): one float array with
the distributions one after another. Each step runs once on the whole
array and is the same float operation as its scalar reference:

- ``pcg64_seeds`` is numpy's documented SeedSequence pool hash on
  integer columns, and ``sample_rows`` draws all rows of at most
  ``ZIGGURAT_MAX_N`` entries at once: PCG64 jumped ahead to each draw's
  state, then numpy's ziggurat fast path, with tables read off the
  installed numpy on first use and kept only when they match its
  Generator on a witness. The Generator draws every other row, so each
  row is exactly the stream ``simplex.sample_uniform_simplex`` draws.
- Division, ``1 - p`` and products are single IEEE operations in numpy
  as in Python, and every logarithm is ``math.log``'s (see below). Every
  sum is ``math.fsum``'s, the correctly rounded exact sum: ``Rows.fsums``
  takes it by error-free extraction for all rows at once, in two levels
  when a row spans many binades, and by ``fsum`` itself for a row
  outside the extraction's window (a nonzero entry below about
  2**(2b - 104) times the row's sum of magnitudes, for n <= 2**b). So
  ``distribution_rows`` matches ``make_distribution`` and
  ``measure_rows`` matches ``measure_all``.
- ``majorizes_rows`` decides all rows of one n together: ``np.sort``
  along the rows, a reversed view, and ``cumsum`` along the rows, which
  adds each row's prefix sums left to right like ``majorizes``.

numpy's SIMD ``log`` is never used: it differs from ``math.log`` in the
last bit on a fraction of inputs. ``np.log`` of a reversed view runs
numpy's scalar loop instead, which calls the C library's ``log``, the
same function ``math.log`` calls, at about a twentieth of the cost of
``math.log`` per entry. Which loop numpy picks is its own dispatch
detail, so ``log_kernel`` takes that path only when it gives
``math.log``'s bits on ``log_witness()`` (checked once, at import), and
``math.log`` entry by entry otherwise. The properties in
tests/test_properties.py pin every function here against its reference.
This module imports numpy, so it is imported only when trials are
sampled.
"""

from __future__ import annotations

from functools import cache, cached_property
from math import fsum, inf, log

import numpy as np

from .measures import VARENTROPY_CLAMP
from .simplex import MAJORIZATION_SLACK, SUM_TOLERANCE, make_distribution

# Entries (trials x n) evaluated together; n near 10^4 gives one trial per chunk.
CHUNK_ENTRIES = 2**14

# numpy's SeedSequence hash constants (32-bit words, pool of four).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
# PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = 2**32 - 1
_MASK64 = 2**64 - 1
_MASK128 = 2**128 - 1
# Rows of at most this many draws are drawn at once, and a longer row by the
# Generator: a row with any slow-path draw goes to the Generator anyway (42 %
# of rows at n = 24), and from about 28 draws on a row costs less there.
ZIGGURAT_MAX_N = 24


class Rows:
    """The layout of flat rows: distributions of mixed sizes stored one
    after another in one float array, none of them empty. ``ns`` holds
    each row's length, ``starts`` where each row begins and ``bits`` each
    row's (n - 1).bit_length(), the b with n <= 2**b; ``slices`` builds
    the slices of just the rows a reader asks for."""

    def __init__(self, ns):
        self.ns = np.asarray(ns)
        self.starts = np.cumsum(self.ns) - self.ns
        self.bits = np.frexp(self.ns - 1.0)[1]

    def __len__(self) -> int:
        return len(self.ns)

    def slices(self, rows):
        """The part of the flat array that holds each of the given rows."""
        starts = self.starts[rows]
        return list(map(slice, starts.tolist(), (starts + self.ns[rows]).tolist()))

    def repeat(self, per_row):
        """Each row's value, once for every entry of the row."""
        return np.repeat(per_row, self.ns)

    @cached_property
    def by_n(self):
        """The rows of each size n, in order of n: the rising indices of
        the rows, sorted by the unique key n * len + index, and the (rows,
        n) matrix of their entries' places, built once for all readers."""
        order = np.argsort(self.ns * len(self) + np.arange(len(self)))
        ns = self.ns[order]
        cuts = [0, *(np.flatnonzero(ns[1:] != ns[:-1]) + 1).tolist(), len(ns)]
        return [(order[a:b], self.starts[order[a:b]][:, None] + np.arange(ns[a]))
                for a, b in zip(cuts, cuts[1:])]

    def fsums(self, values):
        """``fsum`` of each row, bit for bit, as an array: the correctly
        rounded exact sum, by one or two levels of error-free extraction
        (Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31(1), 2008) in a
        fixed number of numpy passes.

        A row of n entries whose sum(|x|), as numpy rounds it, is below
        2**(k - 1) is split at sigma = 2**k: each entry x is hi = (sigma +
        x) - sigma plus lo = x - hi, both exact (FastTwoSum, as |x| <
        sigma). Each hi is a multiple of 2**(k - 53) and every partial sum
        of them is below 2**k, so numpy adds them exactly in any order.
        Each |lo| is at most 2**(k - 53). With b = (n - 1).bit_length(), so
        that n <= 2**b, when every nonzero |x| is at least 2**(k + b - 54),
        each lo is a multiple of 2**(k + b - 106), no partial sum of them
        exceeds 2**53 such units, and numpy adds them exactly too; one
        IEEE addition of the two exact sums rounds the row sum once, ties
        to even, as ``fsum`` does.

        When an entry of some row is smaller, and only then, since it
        about doubles the cost of a call on small rows, a second level
        runs on all rows: sum(|lo|) is at most 2**(j - 1) for j = k + b -
        52, so the lo parts split the same way at 2**j into mid and rest,
        the mids add exactly, and each |rest| is at most 2**(j - 53). The
        window is then: every nonzero |x| is at least 2**(j + b - 54), and
        the rests add exactly by the argument above. The row sum is the exact sum of
        the three column sums; TwoSum turns them into a nonoverlapping
        expansion r + d + v, and ``fsum``'s own last step rounds that once.
        A subnormal entry needs no rule of its own: it is in a window only
        when that window's unit, 2**(k + b - 106) or 2**(j + b - 106), is
        below 2**-1074, and every float is a multiple of that.

        ``fsum`` itself sums, in row order, every row outside the window,
        every row with an entry that is not finite or with a sum(|x|) of
        2**999 or more, and every row whose sum is zero (``fsum`` decides
        the sign of zero). So a bad row gives or raises exactly what
        ``fsum`` does, and the first such row raises.
        """
        with np.errstate(all="ignore"):  # a bad row makes inf and nan here
            split = np.empty((2, len(values)))
            size = np.abs(values, out=split[0])
            total = np.add.reduceat(size, self.starts)
            k = np.frexp(total)[1] + 1
            ok = total < 2.0**999  # False on inf and nan
            below = size < self.repeat(np.ldexp(1.0, k + self.bits - 54))
            deeper = False
            if below.any():  # zeros, or entries the lo parts cannot sum exactly
                below &= size > 0.0
                deeper = below.any()
                if deeper:  # the second level runs; each row must meet its window
                    j = k + self.bits - 52
                    below &= size < self.repeat(np.ldexp(1.0, j + self.bits - 54))
                    ok &= ~np.logical_or.reduceat(below, self.starts)
            hi, lo = split
            sigma = self.repeat(np.ldexp(1.0, k))
            np.add(values, sigma, out=hi)
            hi -= sigma
            np.subtract(values, hi, out=lo)
            if not deeper:  # every sum of lo parts is exact: one rounding
                hi_sums, lo_sums = np.add.reduceat(split, self.starts, axis=1)
                sums = hi_sums + lo_sums
            else:
                sigma = self.repeat(np.ldexp(1.0, j))
                mid = lo + sigma
                mid -= sigma
                lo -= mid  # the rest
                hi_sums, rest_sums = np.add.reduceat(split, self.starts, axis=1)
                mid_sums = np.add.reduceat(mid, self.starts)
                u, v = _two_sum(mid_sums, rest_sums)
                r, d = _two_sum(hi_sums, u)
                # r is r + d rounded; when d is half an ulp of r and v lies
                # beyond it, the exact sum rounds away from r.
                away = r + 2.0 * d
                away_wins = (d != 0.0) & (v != 0.0) & ((d < 0.0) == (v < 0.0))
                away_wins &= away - r == 2.0 * d
                sums = np.where(d == 0.0, r + v, np.where(away_wins, away, r))
        slow = np.flatnonzero(~ok | (sums == 0.0))
        if len(slow):
            entries = memoryview(values)
            for i, row in zip(slow.tolist(), self.slices(slow)):
                sums[i] = fsum(entries[row])
        return sums


def _two_sum(x, y):
    """x + y as numpy rounds it, and the exact error of that rounding
    (Knuth's TwoSum)."""
    s = x + y
    y_part = s - x
    return s, (x - (s - y_part)) + (y - y_part)


def _words(x: int) -> list[int]:
    """x as little-endian 32-bit words, the way SeedSequence splits an int."""
    words = [x & _MASK32]
    x >>= 32
    while x:
        words.append(x & _MASK32)
        x >>= 32
    return words


def pcg64_seeds(seed: int, ns, ts):
    """The PCG64 seed and inc that ``SeedSequence((seed, n, t))`` gives, for
    each pair of ns (every n below 2**32) and ts (every t below 2**64), as
    a (4, pairs) uint64 array: the seed's low and high words, then inc's.

    This is numpy's SeedSequence pool hash and ``generate_state(4,
    uint64)``, run on uint32 columns with one entry per pair; PCG64 takes
    the first two words as the seed and inc = 2 * (the last two) + 1.
    """
    ns, ts = np.asarray(ns, np.uint32), np.asarray(ts, np.uint64)
    highs = ts >> 32
    long = highs != 0  # t takes one word below 2**32 and two from there on
    if long.any() and not long.all():
        seeds = np.empty((4, len(ts)), np.uint64)
        for part in long, ~long:
            seeds[:, part] = pcg64_seeds(seed, ns[part], ts[part])
        return seeds
    entropy = [np.full(len(ts), w, np.uint32) for w in _words(seed)]
    entropy += [ns, ts.astype(np.uint32)]
    if long.any():
        entropy.append(highs.astype(np.uint32))

    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> 16)

    zero = np.zeros(len(ts), np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    hash_const = _INIT_B
    state = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        state.append(value ^ (value >> 16))
    # generate_state(4, uint64) reads the uint32 words as little-endian pairs.
    words = np.stack(state, axis=1).astype("<u4").view("<u8").astype(np.uint64)
    seed_hi, seed_lo, seq_hi, seq_lo = words.T
    return np.array([seed_lo, seed_hi, seq_lo << 1 | 1, seq_hi << 1 | seq_lo >> 63])


def _jump_words(n_max: int):
    """The (4, n_max) uint64 words of draw j's jump, in column j - 1: the
    low and high words of M**(j + 1), then of C(j + 2), for PCG64's
    multiplier M and C(k) = M**0 + ... + M**(k - 1), mod 2**128. Seeding
    sets the state to M * (seed + inc) + inc, and each draw steps it to M *
    state + inc first, so draw j comes from M**(j + 1) * seed + C(j + 2) *
    inc."""
    power = _PCG_MULT**2 & _MASK128
    total = 1 + _PCG_MULT + power
    columns = []
    for _ in range(n_max):
        columns.append([power & _MASK64, power >> 64, total & _MASK64, total >> 64])
        power = power * _PCG_MULT & _MASK128
        total = (total + power) & _MASK128
    return np.array(columns, np.uint64).T.copy()


_JUMPS = _jump_words(ZIGGURAT_MAX_N)


def _mul128(a, at, b, bt):
    """a[:, at] * b[:, bt] mod 2**128, for 128-bit numbers held as columns
    of (low word, high word), as arrays of low and high words: numpy's
    uint64 product wraps to the low word, and the products of 32-bit
    halves give the high word of the low words' product."""
    a_lo, b_lo = a[0].take(at), b[0].take(bt)
    low = a_lo * b_lo
    high = a[1].take(at) * b_lo
    high += a_lo * b[1].take(bt)
    a_hi, b_hi = a_lo >> 32, b_lo >> 32
    a_lo &= _MASK32
    b_lo &= _MASK32
    high += a_hi * b_hi
    a_hi *= b_lo  # the cross products
    b_hi *= a_lo
    a_lo *= b_lo
    a_lo >>= 32  # the carry out of the low halves
    a_lo += a_hi & _MASK32
    a_lo += b_hi & _MASK32
    high += a_hi >> 32
    high += b_hi >> 32
    high += a_lo >> 32
    return low, high


def pcg64_outputs(seeds, row, pos):
    """PCG64's raw output for draw pos + 1 of stream row, for each pair of
    row and pos, where column row of seeds holds ``pcg64_seeds`` words:
    the state M**(j + 1) * seed + C(j + 2) * inc (see ``_jump_words``) put
    through XSL-RR, the xor of its words rotated right by its top six
    bits."""
    low, high = _mul128(_JUMPS[:2], pos, seeds[:2], row)
    low_inc, high_inc = _mul128(_JUMPS[2:], pos, seeds[2:], row)
    high += high_inc
    del high_inc
    low += low_inc
    high += low < low_inc  # the carry of the low words
    del low_inc
    low ^= high
    high >>= 58
    out = low >> high
    high = (64 - high) & 63
    low <<= high
    out |= low
    return out


def ziggurat_draws(outputs, tables):
    """``standard_exponential``'s fast path on each PCG64 output (the array
    is consumed): the draw, and whether numpy returns it, as arrays. Bits
    3 to 10 of the output pick the layer and its top 53 bits are ri; the
    draw is ri * we[layer], returned when ri < ke[layer] (Marsaglia and
    Tsang, J. Stat. Softw. 5(8), 2000). Otherwise numpy's slow path draws
    something else, from further outputs too."""
    we, ke = tables
    outputs >>= 3
    layer = (outputs & 0xFF).astype(np.intp)
    outputs >>= 8
    x = outputs.astype(float)
    x *= we[layer]
    return x, outputs < ke[layer]


def _ziggurat_rows(seeds, rows: Rows, tables, gaps):
    """Write into gaps the fast-path draws of every row of at most
    ``ZIGGURAT_MAX_N`` entries, and return the indices of the rows left to
    the Generator: the longer rows and every row with a draw the fast path
    does not return."""
    short = np.flatnonzero(rows.ns <= ZIGGURAT_MAX_N)
    ns = rows.ns[short]
    starts = np.cumsum(ns) - ns
    row = np.repeat(short, ns)
    pos = np.arange(len(row)) - np.repeat(starts, ns)
    x, fast = ziggurat_draws(pcg64_outputs(seeds, row, pos), tables)
    gaps[rows.starts[row] + pos] = x
    drawn = np.zeros(len(rows), bool)
    drawn[short] = np.logical_and.reduceat(fast, starts)
    return np.flatnonzero(~drawn)


def exponential_rows(seeds, rows: Rows, tables):
    """``Generator(PCG64).standard_exponential(n)`` of each row's stream,
    given by its column of ``pcg64_seeds`` words, bit for bit, as flat
    rows: by ``ziggurat_draws`` with tables where they serve, and by one
    Generator for every other row (every row when tables is None)."""
    gaps = np.empty(rows.starts[-1] + rows.ns[-1])
    loop = np.arange(len(rows)) if tables is None else _ziggurat_rows(seeds, rows, tables, gaps)
    if len(loop):
        bits = np.random.PCG64(0)
        gen = np.random.Generator(bits)
        for row, (seed_lo, seed_hi, inc_lo, inc_hi) in zip(
                rows.slices(loop), seeds[:, loop].T.tolist()):
            inc = inc_hi << 64 | inc_lo
            # PCG64's seeding: two LCG steps, adding the seed after the first.
            _set_pcg64(bits, ((seed_hi << 64 | seed_lo) + inc) * _PCG_MULT + inc & _MASK128, inc)
            gen.standard_exponential(out=gaps[row])
    return gaps


def _set_pcg64(bits, state: int, inc: int) -> None:
    """Put the PCG64 bits at the given 128-bit LCG state and increment,
    with no seeding step."""
    bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                  "has_uint32": 0, "uinteger": 0}


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
        _set_pcg64(bits, 0, inc)
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


def guarded_ziggurat(tables):
    """tables when ``exponential_rows`` draws the witness rows with them
    bit for bit as the Generator draws them, and None otherwise. The
    witness is one row of each n up to ``ZIGGURAT_MAX_N``."""
    if tables is None:
        return None
    rows = Rows(range(2, ZIGGURAT_MAX_N + 1))
    seeds = pcg64_seeds(0, rows.ns, range(len(rows)))
    want = exponential_rows(seeds, rows, None).view(np.int64)
    got = exponential_rows(seeds, rows, tables).view(np.int64)
    return tables if np.array_equal(got, want) else None


@cache
def ziggurat_tables():
    """The tables ``sample_rows`` draws with, derived and guarded on first
    use, once per process; None when the Generator draws every row."""
    return guarded_ziggurat(derive_ziggurat())


def sample_rows(seed: int, rows: Rows, ts):
    """``sample_uniform_simplex(SimplexSamplerConfig(seed, n, trials), t)``
    for each n of ``rows.ns`` and t of ts, bit for bit, as flat rows.

    Each row's draws from its own stream are ``exponential_rows`` with the
    ``ziggurat_tables``, and ``gaps / gaps.sum()`` is taken with numpy's
    own sum of that row, taken for all rows of one n as the rows of a
    matrix; the renormalisation and validation then run on all rows at
    once (see ``distribution_rows``).
    """
    # The tables are derived only once some row can use them.
    tables = ziggurat_tables() if rows.ns.min() <= ZIGGURAT_MAX_N else None
    gaps = exponential_rows(pcg64_seeds(seed, rows.ns, ts), rows, tables)
    sums = np.empty(len(rows))
    for members, at in rows.by_n:
        # A row of a C-ordered matrix is summed like the row alone (pairwise).
        sums[members] = gaps[at].sum(axis=1)
    gaps /= rows.repeat(sums)
    return distribution_rows(gaps, rows, renormalize=True)


def distribution_rows(values, rows: Rows, renormalize: bool = False):
    """``make_distribution(row, renormalize).probs`` for each row of the
    flat array ``values``, bit for bit, as flat rows.

    The entry checks are scans of the whole array and the row sums are
    ``Rows.fsums``. When a scan finds any row that ``make_distribution``
    would not accept as is, every row is rebuilt by it in order, so the
    first bad row raises the usual error.
    """
    out = values
    ok = values.min() >= 0.0  # False on nan; an inf entry fails a later check
    try:
        if ok and renormalize:
            totals = rows.fsums(values)
            ok = totals.min() > 0.0 and totals.max() < inf  # no inf / inf below
            if ok:
                out = rows.repeat(totals)
                np.divide(values, out, out=out)
        ok = ok and out.max() <= 1.0 and (
            np.abs(rows.fsums(out) - 1.0).max() <= SUM_TOLERANCE
        )
    except OverflowError:  # an fsum of finite entries beyond float range
        ok = False
    if ok:
        return out
    entries = values.tolist()
    return np.array([
        x for row in rows.slices(np.arange(len(rows)))
        for x in make_distribution(entries[row], renormalize).probs
    ])


def negate_rows(values, rows: Rows):
    """(1 - p) / (n - 1) for every entry, the operations ``negate`` applies;
    the result is not yet validated."""
    negated = 1.0 - values
    negated /= rows.repeat(rows.ns - 1.0)
    return negated


def majorizes_rows(p, q, rows: Rows):
    """``majorizes`` of each pair of rows of the flat arrays p and q, as a
    bool array.

    Rows of one n are decided together, as the rows of an (rows, n)
    matrix: ``descending_prefix_sums`` of p's and of q's rows are the
    prefix sums ``majorizes`` forms, and every comparison is the same
    float operation.
    """
    decided = np.empty(len(rows), bool)
    for members, at in rows.by_n:
        sums_q = descending_prefix_sums(q[at])
        sums_q -= MAJORIZATION_SLACK
        decided[members] = ~(descending_prefix_sums(p[at]) < sums_q).any(axis=1)
    return decided


def descending_prefix_sums(matrix):
    """The prefix sums of each row sorted in descending order, added left
    to right: numpy's cumsum is a sequential add along the axis, the same
    float operations as ``itertools.accumulate``."""
    return np.sort(matrix)[:, ::-1].cumsum(axis=1)


def math_logs(x):
    """``math.log`` of each entry of the contiguous float array x."""
    return np.fromiter(map(log, memoryview(x)), float, len(x))


def strided_logs(x):
    """``np.log`` of each entry of x, taken through a reversed view: numpy
    sends a negatively strided array through its scalar loop, which calls
    the C library's ``log``, not through its SIMD kernel."""
    return np.log(x[::-1])[::-1]


def _spread_log_inputs(size: int):
    """size inputs in each of four kinds the measures take logs of: spread
    evenly over (0, 1) (Weyl sequences, i * c mod 1 for irrational c,
    whose low bits vary from one i to the next), 1 - tiny for tiny in
    each binade down to 2**-52, their squares, and floats in each binade
    from 2**-1022 down to the subnormals'. Plain arithmetic makes them:
    drawing them from numpy's generators at import raised peak RSS."""
    steps = np.arange(1, size + 1)
    uniform = steps * 0.6180339887498949 % 1.0
    other = steps * 0.7548776662466927 % 1.0
    binades = steps % 52
    return np.concatenate([
        uniform,
        1.0 - np.ldexp(other, -binades),
        uniform * uniform,
        np.ldexp(1.0 + other, -1022 - binades),
    ])


# Inputs on which numpy's SIMD log has been seen to differ from math.log
# in the last bit (x86-64 with AVX-512, numpy 2.4), then the edges of the
# measures' domain 0 < x <= 1: subnormals, the smallest normal, 0.5 and
# values just below 1.
LOG_WITNESS_HEAD = np.array([
    *map(float.fromhex, (
        "0x1.3c56175d4f3c4p-3", "0x1.fda00b1de131ap-1", "0x1.ddd1ef95b1f48p-2",
        "0x1.e688c76083800p-2", "0x1.b8f8e768f4458p-3", "0x1.7eee35abc5901p-1",
        "0x1.ffffe1cabaaecp-1", "0x1.ffffe00037e1fp-1", "0x1.455f59f642596p-20",
        "0x1.6f583eecd5654p-14", "0x1.a9d02f7e49dfep-15",
    )),
    5e-324, 1e-310, 2.0**-1022, 1e-300, 1e-16, 1e-4, 0.1, 0.5,
    1.0 - 2.0**-30, 1.0 - 2.0**-52, 1.0 - 2.0**-53, 1.0,
])


def log_witness():
    """The inputs the guard checks: ``LOG_WITNESS_HEAD``, then as many
    spread ones as a full trial chunk has entries, since another SIMD
    kernel would differ on points of its own. The whole is past numpy's
    8192-entry buffer, so that it takes the dispatch measure_rows takes
    on a long array, as the head alone takes the one on a short array.
    It is built for each check and then dropped."""
    return np.concatenate([LOG_WITNESS_HEAD, _spread_log_inputs(CHUNK_ENTRIES // 4)])


def guarded_logs(kernel):
    """kernel when it gives ``math.log``'s bits on every entry of
    ``log_witness()``, taken whole and its head alone, and ``math_logs``
    otherwise."""
    witness = log_witness()
    want = math_logs(witness).view(np.int64)
    for size in len(LOG_WITNESS_HEAD), len(witness):
        if not np.array_equal(kernel(witness[:size]).view(np.int64), want[:size]):
            return math_logs
    return kernel


# The per-entry logarithm of measure_rows, chosen once per process.
log_kernel = guarded_logs(strided_logs)


def measure_rows(values, rows: Rows):
    """H, VH and VJ of each distribution in the flat rows ``values``, as
    three arrays, each entry bitwise equal to that field of
    ``measure_all``.

    The logarithms are ``math.log``'s with the scalar guard (a guarded
    entry takes log(1.0) = 0.0): ``log_kernel`` is numpy's scalar loop,
    which calls the same C library ``log`` as ``math.log``, when its
    bits match on ``log_witness()``, and ``math.log`` itself otherwise;
    numpy's SIMD ``log`` is never used. Each term is the same numpy
    product in the same order as in ``measure_all``, and each sum is
    ``fsum``'s (``Rows.fsums``).
    """

    def logs(x):
        return log_kernel(np.where(x > 0.0, x, 1.0))

    lps = logs(values)
    s1 = rows.fsums(values * lps)
    lps *= lps
    s2 = rows.fsums(values * lps)
    del lps
    qs = 1.0 - values
    lqs = logs(qs)
    t1 = rows.fsums(qs * lqs)
    lqs *= lqs
    t2 = rows.fsums(qs * lqs)
    vh = s2 - s1 * s1
    vh[(-VARENTROPY_CLAMP < vh) & (vh < 0.0)] = 0.0
    # 0.0 - s1 equals measure_all's -s1 + 0.0, zeros included.
    return 0.0 - s1, vh, t2 - t1 * t1


class TrialChunk:
    """Consecutive trials t0, t0 + 1, ..., as flat rows in trial order.

    The sample rows ``p`` are drawn when the chunk is made. Every other
    value is computed the first time a claim reads it and then kept for
    the chunk's life, so a chunk does only the work its readers need:
    ``negated`` (the negation of each sample), ``majorized``
    (``majorizes(p, negate(p))`` of each trial), ``measures(kind)`` and
    ``probs(i)``, the tuple of the i-th trial's sample, one object for
    every claim that reports it.
    """

    def __init__(self, seed, t0, ns):
        self.rows = Rows(ns)
        self.n = self.rows.ns
        self.p = sample_rows(seed, self.rows, range(t0, t0 + len(self.rows)))
        self._measures = {}
        self._points = {}

    @cached_property
    def negated(self):
        return distribution_rows(negate_rows(self.p, self.rows), self.rows)

    @cached_property
    def majorized(self):
        return majorizes_rows(self.p, self.negated, self.rows)

    def measures(self, kind):
        """The columns of H, VH and VJ, by field name, of each trial's
        sample (kind "p") or its negation ("negated")."""
        if kind not in self._measures:
            values = getattr(self, kind)
            self._measures[kind] = dict(zip(("H", "VH", "VJ"), measure_rows(values, self.rows)))
        return self._measures[kind]

    def probs(self, i: int) -> tuple[float, ...]:
        """The sample of the chunk's i-th trial, built on the first call and
        then the same tuple on every call."""
        if i not in self._points:
            (row,) = self.rows.slices([i])
            self._points[i] = tuple(self.p[row].tolist())
        return self._points[i]


def trial_chunks(seed, trials, n_min, n_max):
    """``TrialChunk``s of trials 0, 1, ..., trials - 1 in order, trial t
    having n = n_min + t % (n_max - n_min + 1). A chunk's entries sum to
    at most ``CHUNK_ENTRIES``, unless its one trial alone exceeds it."""
    most = max(1, CHUNK_ENTRIES // n_min)  # each trial has at least n_min entries
    t0 = 0
    while t0 < trials:
        ns = n_min + np.arange(t0, min(trials, t0 + most)) % (n_max - n_min + 1)
        ns = ns[:max(1, np.cumsum(ns).searchsorted(CHUNK_ENTRIES, "right"))]
        yield TrialChunk(seed, t0, ns)
        t0 += len(ns)
