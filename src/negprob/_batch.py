"""The claim engine's batched trial pass: many trials drawn, negated and
measured at once, with every float equal to the one-distribution
functions' by construction. The maximizer probes are not here: they are
fixed for each n, and ``claims`` measures them once per n with the scalar
``measures.run_measures``.

Trials of mixed n are held as flat rows (``Rows``): one float array with
the distributions one after another. Each step runs once on the whole
array and is the same float operation as its scalar reference:

- ``pcg64_seeds`` is numpy's documented SeedSequence pool hash on
  integer columns, for the four entropy words of a seed below 2**64, n
  and a trial index below 2**32 (``claims.MAX_SAMPLED_ENTRIES`` keeps
  every trial index of a check below 2**31). ``raw_rows`` takes each
  row's PCG64 raw outputs, by jumping to each output of every row of at
  most ``JUMP_MAX_N`` entries at once, and by one ``random_raw`` call
  for a longer row; and
  ``exponential_rows`` turns them into the gaps 0.0 - log(1.0 - u), u
  the top 53 bits times 2**-53, as ``simplex.sample_uniform_simplex``
  does. ``sample_rows`` divides each row of gaps by its ``fsum``, as
  ``make_distribution`` renormalises them, and ``TrialChunk.negated``
  takes ``negate``'s (1 - p) / (n - 1). Neither validates its rows:
  every check of ``make_distribution`` but one holds by construction (see
  their docstrings), and the one a sample can fail, a row of zero gaps,
  raises the usual error.
- Division, ``1 - p`` and products are single IEEE operations in numpy
  as in Python, and every logarithm is ``math.log``'s (see below). Every
  sum is ``math.fsum``'s, the correctly rounded exact sum: ``Rows.fsums``
  takes it by error-free extraction for all rows at once, split at one
  point set by the whole call's sum of magnitudes, in two levels when the
  call's entries span many binades, and by ``fsum`` itself for a row
  outside the extraction's window (a nonzero entry below about
  2**(2b - 104) times the call's sum of magnitudes, every n <= 2**b). So
  ``sample_rows`` matches ``make_distribution`` and ``measure_rows``
  matches ``measure_all``.

numpy's SIMD ``log`` is never used: it differs from ``math.log`` in the
last bit on a fraction of inputs. ``np.log`` of a reversed view runs
numpy's scalar loop instead, which calls the C library's ``log``, the
same function ``math.log`` calls, at about a twentieth of the cost of
``math.log`` per entry. Which loop numpy picks is its own dispatch
detail, so ``log_kernel`` takes that path only when it gives
``math.log``'s bits on ``log_witness()`` (checked once, at import), and
``math.log`` entry by entry otherwise. The properties in
tests/test_properties.py and tests/test_sampler.py pin every function
here against its reference.
This module imports numpy, so it is imported only when trials are
sampled.
"""

from __future__ import annotations

from functools import cached_property
from math import frexp, fsum, ldexp, log

import numpy as np

from .measures import VARENTROPY_CLAMP
from .simplex import make_distribution

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
# Rows of at most this many entries take their raw outputs by jumping PCG64
# ahead to each one, and a longer row by one random_raw call (see raw_rows):
# on a 2-vCPU Xeon a jumped output costs about 0.071 us and a random_raw row
# about 6.2 us plus 0.008 us an output, so they meet near n = 98.
JUMP_MAX_N = 96


class Rows:
    """The layout of flat rows: distributions of mixed sizes stored one
    after another in one float array, none of them empty. ``ns`` holds
    each row's length, ``starts`` where each row begins and ``bits`` the
    longest row's (n - 1).bit_length(), the b with every n <= 2**b;
    ``slices`` builds the slices of just the rows a reader asks for."""

    def __init__(self, ns):
        self.ns = np.asarray(ns)
        self.starts = np.cumsum(self.ns) - self.ns
        self.bits = (int(self.ns.max()) - 1).bit_length()

    def __len__(self) -> int:
        return len(self.ns)

    def slices(self, rows):
        """The part of the flat array that holds each of the given rows."""
        starts = self.starts[rows]
        return list(map(slice, starts.tolist(), (starts + self.ns[rows]).tolist()))

    def repeat(self, per_row):
        """Each row's value, once for every entry of the row."""
        return np.repeat(per_row, self.ns)

    def fsums(self, values):
        """``fsum`` of each row, bit for bit, as an array: the correctly
        rounded exact sum, by one or two levels of error-free extraction
        (Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31(1), 2008) in a
        fixed number of numpy passes, with one split point for the whole
        call.

        When the call's sum(|x|), as numpy rounds it, is below 2**(k - 1),
        so is every row's, and every entry is split at sigma = 2**k: each
        entry x is hi = (sigma + x) - sigma plus lo = x - hi, both exact
        (FastTwoSum, as |x| < sigma). Each hi is a multiple of 2**(k - 53)
        and every partial sum of a row's is below 2**k, so numpy adds them
        exactly in any order. Each |lo| is at most 2**(k - 53). With b =
        ``bits``, so that every n <= 2**b, when every nonzero |x| is at
        least 2**(k + b - 54), each lo is a multiple of 2**(k + b - 106),
        no partial sum of a row's exceeds 2**53 such units, and numpy adds
        them exactly too; one IEEE addition of a row's two exact sums
        rounds its sum once, ties to even, as ``fsum`` does. Since k is
        the call's, the window sits log2(call's sum / row's sum) binades
        higher than a row's own would: about 10 on 1,000 like rows.

        When an entry is smaller, and only then, since it about doubles
        the cost of a call on small rows, a second level runs on all rows:
        a row's sum(|lo|) is at most 2**(j - 1) for j = k + b - 52, so the
        lo parts split the same way at 2**j into mid and rest, the mids add
        exactly, and each |rest| is at most 2**(j - 53). The window is
        then: every nonzero |x| is at least 2**(j + b - 54) = 2**(k + 2b -
        106), and the rests add exactly by the argument above. The row sum
        is the exact sum of the three column sums; TwoSum turns them into a
        nonoverlapping expansion r + d + v, and ``fsum``'s own last step
        rounds that once. A subnormal entry needs no rule of its own: it is
        in a window only when that window's unit, 2**(k + b - 106) or
        2**(j + b - 106), is below 2**-1074, and every float is a multiple
        of that. Whatever sigma is, each column sum is exact, so a row in
        the window gets ``fsum``'s bits.

        ``fsum`` itself sums, in row order, every row with a nonzero entry
        below the second level's window, every row whose sum is zero
        (``fsum`` decides the sign of zero), and every row of a call whose
        sum(|x|) is 2**999 or more, inf or nan. So a bad row gives or
        raises exactly what ``fsum`` does, and the first such row raises.
        """
        outside = False  # or, for each row, whether an entry is below the window
        with np.errstate(all="ignore"):  # a bad entry makes inf and nan here
            split = np.empty((2, len(values)))
            size = np.abs(values, out=split[0])
            total = float(size.sum())
            if not total < 2.0**999:  # inf, nan or a huge entry: fsum sums every row
                return self._fsum_rows(values, np.arange(len(self)), np.empty(len(self)))
            k, b = frexp(total)[1] + 1, self.bits
            below = size < ldexp(1.0, k + b - 54)
            deeper = False
            if below.any():  # zeros, or entries the lo parts cannot sum exactly
                below &= size > 0.0
                deeper = below.any()
                if deeper:  # the second level runs; each row must meet its window
                    j = k + b - 52
                    below &= size < ldexp(1.0, j + b - 54)
                    if below.any():
                        outside = np.logical_or.reduceat(below, self.starts)
            hi, lo = split
            sigma = ldexp(1.0, k)
            np.add(values, sigma, out=hi)
            hi -= sigma
            np.subtract(values, hi, out=lo)
            if not deeper:  # every sum of lo parts is exact: one rounding
                hi_sums, lo_sums = np.add.reduceat(split, self.starts, axis=1)
                sums = hi_sums + lo_sums
            else:
                sigma = ldexp(1.0, j)
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
        return self._fsum_rows(values, np.flatnonzero((sums == 0.0) | outside), sums)

    def _fsum_rows(self, values, rows, sums):
        """sums, with ``fsum`` of each of the given rows put in its place,
        in row order."""
        if len(rows):
            entries = memoryview(values)
            for i, row in zip(rows.tolist(), self.slices(rows)):
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
    each pair of ns and ts, as a (4, pairs) uint64 array: the seed's low and
    high words, then inc's. Every n and every t must be below 2**32, and ts
    uint32 or Python ints (``claims`` bounds a check's trials so that every
    t is below 2**31); a larger t would take a second entropy word.

    This is numpy's SeedSequence pool hash and ``generate_state(4,
    uint64)``, run on uint32 columns with one entry per pair; PCG64 takes
    the first two words as the seed and inc = 2 * (the last two) + 1. The
    entropy is always the pool's four words: the seed's one or two words (a
    seed below 2**64), n, t, then zero padding. Each hashmix call takes the
    next constant of a fixed sequence, so the calls that hash one word into
    several pool words run as one operation on a (words, pairs) array.
    """
    words = _words(seed)
    entropy = np.zeros((_POOL_SIZE, len(ts)), np.uint32)
    entropy[:len(words)] = np.array(words, np.uint32)[:, None]
    entropy[len(words)] = ns
    entropy[len(words) + 1] = ts

    def hashmix(value, k, count):
        """Hash calls k, k + 1, ..., k + count - 1 of value."""
        value = value ^ _HASH_A[k:k + count]
        value *= _HASH_A[k + 1:k + count + 1]
        return value ^ (value >> 16)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> 16)

    pool = hashmix(entropy, 0, _POOL_SIZE)
    k = _POOL_SIZE
    for i_src in range(_POOL_SIZE):
        others = [i for i in range(_POOL_SIZE) if i != i_src]
        pool[others] = mix(pool[others], hashmix(pool[i_src], k, _POOL_SIZE - 1))
        k += _POOL_SIZE - 1
    state = np.concatenate([pool, pool]) ^ _HASH_B[:-1]
    state *= _HASH_B[1:]
    state ^= state >> 16
    # generate_state(4, uint64) reads the uint32 words as little-endian pairs.
    state = state.astype(np.uint64)
    seed_hi, seed_lo, seq_hi, seq_lo = state[0::2] | state[1::2] << 32
    return np.array([seed_lo, seed_hi, seq_lo << 1 | 1, seq_hi << 1 | seq_lo >> 63])


def _hash_constants(init: int, mult: int, count: int):
    """The first count + 1 hash constants of SeedSequence's sequence from
    init, each mult times the one before mod 2**32, as a uint32 column."""
    constants = [init]
    for _ in range(count):
        constants.append(constants[-1] * mult & _MASK32)
    return np.array(constants, np.uint32)[:, None]


# The constants of the pool's hashmix calls (four words, each mixed into
# the other three) and of generate_state's, one per output word.
_HASH_A = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


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


_JUMPS = _jump_words(JUMP_MAX_N)


def _mul128(a, at, b, bt):
    """a[:, at] * b[:, bt] mod 2**128, for 128-bit numbers held as columns
    of (low word, high word), as arrays of low and high words: numpy's
    uint64 product wraps to the low word, and the products of 32-bit
    halves give the high word of the low words' product (no sum of them
    passes 2**64).

    It works in place on seven arrays: each further temporary is memory
    that glibc hands back to the system once freed and page-faults in again
    on the next call, which on a sampled chunk cost more than the
    arithmetic (over a hundred faults per check-small-n op with twice the
    arrays, about ten with these)."""
    a_lo, b_lo = a[0].take(at), b[0].take(bt)
    low = a_lo * b_lo
    high = a[1].take(at)
    high *= b_lo
    part = b[1].take(bt)
    part *= a_lo
    high += part
    a_hi = np.right_shift(a_lo, 32, out=part)
    b_hi = b_lo >> 32
    a_lo &= _MASK32
    b_lo &= _MASK32
    cross = a_hi * b_lo  # a cross product of halves, below 2**64
    b_lo *= a_lo
    b_lo >>= 32  # the carry out of the low halves
    a_lo *= b_hi
    a_hi *= b_hi
    high += a_hi
    np.right_shift(cross, 32, out=a_hi)
    high += a_hi
    cross &= _MASK32
    cross += b_lo
    cross += a_lo
    cross >>= 32
    high += cross
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


def raw_rows(seeds, rows: Rows):
    """PCG64's first n raw outputs, ``random_raw(n)``, of each row's stream,
    given by its column of ``pcg64_seeds`` words, as flat uint64 rows:
    jumped ahead to by ``pcg64_outputs`` for every row of at most
    ``JUMP_MAX_N`` entries at once, and drawn by one bit generator put in
    each longer row's seeded state."""
    size = rows.starts[-1] + rows.ns[-1]
    out = np.empty(size, np.uint64)
    long = np.flatnonzero(rows.ns > JUMP_MAX_N)
    if len(long) < len(rows):  # a row jumps: entry i is output pos[i] of stream row[i]
        row = rows.repeat(np.arange(len(rows)))
        pos = np.arange(size) - rows.repeat(rows.starts)
        if not len(long):  # every row jumped: the outputs come in row order
            return pcg64_outputs(seeds, row, pos)
        short = rows.ns[row] <= JUMP_MAX_N
        out[short] = pcg64_outputs(seeds, row[short], pos[short])
    bits = np.random.PCG64(0)
    for part, words in zip(rows.slices(long), seeds[:, long].T.tolist()):
        _set_pcg64(bits, words)
        out[part] = bits.random_raw(part.stop - part.start)
    return out


def _set_pcg64(bits, words) -> None:
    """Put the PCG64 bits in the state that seeding with the given
    ``pcg64_seeds`` words gives: two LCG steps, adding the seed after the
    first."""
    seed_lo, seed_hi, inc_lo, inc_hi = words
    inc = inc_hi << 64 | inc_lo
    state = ((seed_hi << 64 | seed_lo) + inc) * _PCG_MULT + inc & _MASK128
    bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                  "has_uint32": 0, "uinteger": 0}


def exponential_rows(seeds, rows: Rows):
    """The unit-exponential gaps of each row's stream, as flat rows: 0.0 -
    log(1.0 - u) for u the top 53 bits of each of ``raw_rows``' outputs
    times 2**-53, by ``log_kernel``. u and 1 - u are exact, so each gap is
    ``sample_uniform_simplex``'s bit for bit."""
    u = raw_rows(seeds, rows)
    u >>= 11
    gaps = u.astype(float)
    del u
    gaps *= -2.0**-53
    gaps += 1.0
    gaps = log_kernel(gaps)
    return np.subtract(0.0, gaps, out=gaps)


def sample_rows(streams, rows: Rows):
    """``sample_uniform_simplex(SimplexSamplerConfig(seed, n, trials), t)``
    for each row, bit for bit, as flat rows, where the row's column of
    streams holds ``pcg64_seeds`` words of (seed, n, t): the
    ``exponential_rows`` gaps, each row divided by its ``fsum``
    (``Rows.fsums``), as ``make_distribution(gaps, renormalize=True)``
    divides them.

    The one check made is the only one a row can fail: a row whose gaps
    are all zero (probability 2**(-53 n)) has total 0, and
    ``make_distribution`` raises its usual ``NotADistribution`` on the
    first such row. Every other check of ``make_distribution`` holds by
    construction. A gap is 0.0 - log(1.0 - u), in [+0.0, 53 ln 2], so the
    gaps are finite and nonnegative and their total is finite. ``fsum``
    is correctly rounded and rounding is monotone, so a positive total T
    is at least every gap g of its row, and each p = fl(g / T) is in [0,
    1]. The exact sum of g / T is T_exact / T, within 2**-53 of 1; each
    division adds at most 2**-53 p, and ``fsum`` rounds the sum of the
    p's once, so |fsum(p) - 1| is at most about 3 * 2**-53, far inside
    ``make_distribution``'s 1e-9. tests/test_properties.py checks the
    bound on adversarial gap rows.
    """
    gaps = exponential_rows(streams, rows)
    totals = rows.fsums(gaps)
    if totals.min() == 0.0:  # a row of zero gaps; totals are never negative
        (row,) = rows.slices([totals.argmin()])
        make_distribution(gaps[row].tolist(), renormalize=True)  # raises NotADistribution
    gaps /= rows.repeat(totals)
    return gaps


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


def measure_terms(values):
    """The terms of ``measure_all``'s sums of p ln p, p (ln p)^2, q ln q and
    q (ln q)^2, q = 1 - p, for the 1-D float array ``values``: four arrays,
    made one at a time as they are read, the p logs freed before q is.

    The logarithms are ``math.log``'s with the scalar guard (a guarded
    entry takes log(1.0) = 0.0): ``log_kernel`` is numpy's scalar loop,
    which calls the same C library ``log`` as ``math.log``, when its
    bits match on ``log_witness()``, and ``math.log`` itself otherwise;
    numpy's SIMD ``log`` is never used. Each term is the same numpy
    product in the same order as in ``measure_all``. values is 1-D because
    ``strided_logs`` reverses only axis 0: a 2-D array's inner axis could
    reach numpy's SIMD loop, which the import-time check never ran.
    """

    def terms(x):
        logs = log_kernel(np.where(x > 0.0, x, 1.0))
        yield x * logs
        logs *= logs
        yield x * logs

    yield from terms(values)
    yield from terms(1.0 - values)


def measure_rows(values, rows: Rows):
    """H, VH and VJ of each distribution in the flat rows ``values``, as
    three arrays, each entry bitwise equal to that field of
    ``measure_all``: each sum is ``fsum``'s (``Rows.fsums``) of the
    ``measure_terms``, one term array alive at a time, and the fields are
    ``measure_all``'s operations on the sums.
    """
    s1, s2, t1, t2 = map(rows.fsums, measure_terms(values))
    vh = s2 - s1 * s1
    vh[(-VARENTROPY_CLAMP < vh) & (vh < 0.0)] = 0.0
    # 0.0 - s1 equals measure_all's -s1 + 0.0, zeros included.
    return 0.0 - s1, vh, t2 - t1 * t1


class TrialChunk:
    """Consecutive trials, as flat rows in trial order: ns holds each
    trial's n and streams its ``pcg64_seeds`` words, a column per trial.

    The sample rows ``p`` are drawn when the chunk is made. Every other
    value is computed the first time a claim reads it and then kept for
    the chunk's life, so a chunk does only the work its readers need:
    ``negated`` (the negation of each sample), ``reversible``,
    ``measures(kind)`` and ``probs(i)``, the tuple of the i-th trial's
    sample, one object for every claim that reports it. No trial is
    tested for majorization: ``claims`` proves that every sample
    majorizes its negation.

    ``negated`` is ``negate``'s q = fl(fl(1 - p) / (n - 1)) for every
    entry, and it is not validated: it cannot fail ``Distribution``'s
    checks. Each p is in [0, 1] (``sample_rows``) and rounding is
    monotone, so 1 - p and then q stay in [0, 1]. The exact sum of (1 -
    p) / (n - 1) is 1 + (1 - sum(p)) / (n - 1); the subtraction and the
    division each add at most 2**-53 of an entry, and ``fsum`` rounds
    once more, so |fsum(q) - 1| is at most about 6 * 2**-53 for any n,
    far inside 1e-9.
    """

    def __init__(self, streams, ns):
        self.rows = Rows(ns)
        self.n = self.rows.ns
        self.p = sample_rows(streams, self.rows)
        self._measures = {}
        self._points = {}

    @cached_property
    def negated(self):
        negated = 1.0 - self.p
        negated /= self.rows.repeat(self.n - 1.0)
        return negated

    @cached_property
    def reversible(self):
        """Which trials have n >= 3, where negation cannot be undone, as a
        bool array, and how many: read by every claim that counts
        reversals."""
        mask = self.n >= 3
        return mask, int(np.count_nonzero(mask))

    def measures(self, kind):
        """The columns of H, VH and VJ, by field name, of each trial's
        sample (kind "p") or its negation ("negated")."""
        if kind not in self._measures:
            values = getattr(self, kind)
            self._measures[kind] = dict(zip(("H", "VH", "VJ"), measure_rows(values, self.rows)))
        return self._measures[kind]

    def probs(self, i: int) -> tuple[float, ...]:
        """The sample of the chunk's i-th trial, a ``TrialPoint`` built on
        the first call and then the same tuple on every call."""
        if i not in self._points:
            (row,) = self.rows.slices([i])
            values = self.p[row].copy()  # not a view: a report may outlive the chunk
            self._points[i] = point = TrialPoint(values.tolist())
            point.row = values
        return self._points[i]


class TrialPoint(tuple):
    """A trial's sample: the tuple of its floats, and as ``row`` the float64
    array it was made from, which the report writer formats without
    checking or rebuilding the tuple (see ``claims._point_pieces``)."""


def trial_chunks(seed, trials, n_min, n_max):
    """``TrialChunk``s of trials 0, 1, ..., trials - 1 in order, trial t
    having n = n_min + t % (n_max - n_min + 1). A chunk's entries sum to
    at most ``CHUNK_ENTRIES``, unless its one trial alone exceeds it. The
    streams are seeded by one ``pcg64_seeds`` call for each run of up to
    ``CHUNK_ENTRIES`` consecutive trials, which covers at least one whole
    chunk: at n near 10^4 that is one call for many one-trial chunks."""
    most = max(1, CHUNK_ENTRIES // n_min)  # each trial has at least n_min entries
    period = n_max - n_min + 1
    t0 = start = end = 0
    while t0 < trials:
        ns = n_min + np.arange(t0, min(trials, t0 + most)) % period
        ns = ns[:max(1, np.cumsum(ns).searchsorted(CHUNK_ENTRIES, "right"))]
        if t0 + len(ns) > end:  # seed the next run
            start, end = t0, min(trials, t0 + CHUNK_ENTRIES)
            ts = np.arange(start, end, dtype=np.uint32)
            streams = pcg64_seeds(seed, n_min + ts % period, ts)
        yield TrialChunk(streams[:, t0 - start:t0 - start + len(ns)], ns)
        t0 += len(ns)
