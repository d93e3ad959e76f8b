"""The claim engine's batched trial pass: many trials drawn, negated and
measured at once, with every float equal to the one-distribution
functions' by construction.

Trials of mixed n are held as flat rows (``Rows``): one float array with
the distributions one after another. Each step runs once on the whole
array and is the same float operation as its scalar reference:

- ``pcg64_states`` is numpy's documented SeedSequence pool hash and
  PCG64 seeding, run on integer columns, so ``sample_rows`` draws from
  exactly the stream ``simplex.sample_uniform_simplex`` draws from.
- Division, ``1 - p`` and products are single IEEE operations in numpy
  as in Python, every logarithm is ``math.log`` and every sum is one
  ``math.fsum`` per row, so ``distribution_rows`` matches
  ``make_distribution`` and ``measure_rows`` matches ``measure_all``.
- ``majorizes_rows`` decides all rows of one n together: ``np.sort``
  along the rows, a reversed view, and ``cumsum`` along the rows, which
  adds each row's prefix sums left to right like ``majorizes``.

numpy's ``log`` is never used: it differs from ``math.log`` in the last
bit on a fraction of inputs. The properties in tests/test_properties.py
pin every function here against its reference. This module imports
numpy, so it is imported only when trials are sampled.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate
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
_MASK128 = 2**128 - 1


class Rows:
    """The layout of flat rows: distributions of mixed sizes stored one
    after another in one float array. ``ns`` holds each row's length and
    ``slices`` the part of the flat array that holds each row."""

    def __init__(self, ns):
        self.ns = np.asarray(ns)
        ends = list(accumulate(self.ns.tolist()))
        self.slices = list(map(slice, [0, *ends[:-1]], ends))

    def __len__(self) -> int:
        return len(self.slices)

    def repeat(self, per_row):
        """Each row's value, once for every entry of the row."""
        return np.repeat(per_row, self.ns)

    def fsums(self, values):
        """One ``fsum`` per row, as an array. The rows are read through a
        memoryview, which yields Python floats without a list of them."""
        entries = memoryview(values)
        return np.array(list(map(fsum, map(entries.__getitem__, self.slices))))


def _words(x: int) -> list[int]:
    """x as little-endian 32-bit words, the way SeedSequence splits an int."""
    words = [x & _MASK32]
    x >>= 32
    while x:
        words.append(x & _MASK32)
        x >>= 32
    return words


def pcg64_states(seed: int, ns, ts) -> list[tuple[int, int]]:
    """The PCG64 (state, inc) that ``SeedSequence((seed, n, t))`` seeds, for
    each pair of ns (every n below 2**32) and ts (every t below 2**64).

    This is numpy's SeedSequence pool hash and ``generate_state(4,
    uint64)``, run on uint32 columns with one entry per pair, followed by
    PCG64's seeding (two LCG steps) in Python's 128-bit integers.
    """
    ns, ts = list(ns), list(ts)
    highs = [t >> 32 for t in ts]  # t takes one word below 2**32 and two from there on
    if any(highs) and not all(highs):
        states = [None] * len(ts)
        for long in (False, True):
            at = [i for i, high in enumerate(highs) if bool(high) == long]
            parts = pcg64_states(seed, [ns[i] for i in at], [ts[i] for i in at])
            for i, state in zip(at, parts):
                states[i] = state
        return states
    entropy = [np.full(len(ts), w, np.uint32) for w in _words(seed)]
    entropy += [np.array(ns, np.uint32), np.array([t & _MASK32 for t in ts], np.uint32)]
    if any(highs):
        entropy.append(np.array(highs, np.uint32))

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
        state.append((value ^ (value >> 16)).tolist())
    out = []
    # Little-endian uint32 pairs make the four uint64 seed words.
    for a, b, c, d, e, f, g, h in zip(*state):
        seed_hi, seed_lo = a | b << 32, c | d << 32
        seq_hi, seq_lo = e | f << 32, g | h << 32
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        out.append(((((seed_hi << 64 | seed_lo) + inc) * _PCG_MULT + inc) & _MASK128, inc))
    return out


def sample_rows(seed: int, rows: Rows, ts):
    """``sample_uniform_simplex(SimplexSamplerConfig(seed, n, trials), t)``
    for each n of ``rows.ns`` and t of ts, bit for bit, as flat rows.

    Every row is drawn from its own PCG64 stream, set from
    ``pcg64_states`` on one Generator, and ``gaps / gaps.sum()`` is taken
    with numpy's own sum of that row; the renormalisation and validation
    then run on all rows at once (see ``distribution_rows``).
    """
    bits = np.random.PCG64(0)
    gen = np.random.Generator(bits)
    seeded = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": seeded, "has_uint32": 0, "uinteger": 0}
    draws = []
    ns = rows.ns.tolist()
    for n, (seeded["state"], seeded["inc"]) in zip(ns, pcg64_states(seed, ns, ts)):
        bits.state = state
        draws.append(gen.standard_exponential(n))
    sums = np.array(list(map(np.add.reduce, draws)))  # gaps.sum() of each row
    gaps = np.concatenate(draws)
    del draws
    gaps /= rows.repeat(sums)
    return distribution_rows(gaps, rows, renormalize=True)


def distribution_rows(values, rows: Rows, renormalize: bool = False):
    """``make_distribution(row, renormalize).probs`` for each row of the
    flat array ``values``, bit for bit, as flat rows.

    The entry checks are scans of the whole array and each row sum is one
    ``fsum``. When a scan finds any row that ``make_distribution`` would
    not accept as is, every row is rebuilt by it in order, so the first
    bad row raises the usual error.
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
        x for row in rows.slices
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
    list of bools.

    Rows of one n are decided together, as the rows of an (rows, n)
    matrix: ``descending_prefix_sums`` of p's and of q's rows are the
    prefix sums ``majorizes`` forms, and every comparison is the same
    float operation.
    """
    rows_of = {}  # n -> the indices of its rows, in order
    for i, n in enumerate(rows.ns.tolist()):
        rows_of.setdefault(n, []).append(i)
    decided = [True] * len(rows)
    for n, members in rows_of.items():
        at = np.array([rows.slices[i].start for i in members])[:, None] + np.arange(n)
        sums_q = descending_prefix_sums(q[at])
        sums_q -= MAJORIZATION_SLACK
        failed = (descending_prefix_sums(p[at]) < sums_q).any(axis=1)
        for i, fail in zip(members, failed.tolist()):
            decided[i] = not fail
    return decided


def descending_prefix_sums(matrix):
    """The prefix sums of each row sorted in descending order, added left
    to right: numpy's cumsum is a sequential add along the axis, the same
    float operations as ``itertools.accumulate``."""
    return np.sort(matrix)[:, ::-1].cumsum(axis=1)


def measure_rows(values, rows: Rows):
    """H, VH and VJ of each distribution in the flat rows ``values``, as
    three arrays, each entry bitwise equal to that field of
    ``measure_all``.

    The logarithms are ``math.log`` with the scalar guard (a guarded entry
    takes log(1.0) = 0.0), each term is the same numpy product in the same
    order as in ``measure_all``, and each sum is one ``fsum`` per row.
    """

    def logs(x):
        return np.fromiter(map(log, memoryview(np.where(x > 0.0, x, 1.0))), float, len(x))

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
    vh = [0.0 if -VARENTROPY_CLAMP < v < 0.0 else v for v in (s2 - s1 * s1).tolist()]
    # 0.0 - s1 equals measure_all's -s1 + 0.0, zeros included.
    return 0.0 - s1, np.array(vh), t2 - t1 * t1


class TrialChunk:
    """Consecutive trials t0, t0 + 1, ..., as flat rows in trial order.

    The sample rows ``p`` are drawn when the chunk is made. Every other
    value is computed the first time a claim reads it and then kept for
    the chunk's life, so a chunk does only the work its readers need:
    ``negated`` (the negation of each sample), ``blend`` (the near-uniform
    blend (1 - w) * (1 / n) + w * p of each sample, renormalised, for the
    chunk's blend weight w), ``majorized`` (``majorizes(p, negate(p))`` of
    each trial) and ``measures(kind)``.
    """

    def __init__(self, seed, t0, ns, blend_weight):
        self.rows = Rows(ns)
        self.n = self.rows.ns
        self.blend_weight = blend_weight
        self.p = sample_rows(seed, self.rows, range(t0, t0 + len(self.rows)))
        self._measures = {}

    @cached_property
    def negated(self):
        return distribution_rows(negate_rows(self.p, self.rows), self.rows)

    @cached_property
    def blend(self):
        w = self.blend_weight
        near = self.rows.repeat((1.0 - w) * (1.0 / self.n)) + w * self.p
        return distribution_rows(near, self.rows, renormalize=True)

    @cached_property
    def majorized(self):
        return majorizes_rows(self.p, self.negated, self.rows)

    def measures(self, kind):
        """The columns of H, VH and VJ, by field name, of each trial's
        sample (kind "p"), its negation ("negated") or its blend's
        negation ("blend")."""
        if kind not in self._measures:
            if kind == "blend":
                values = distribution_rows(negate_rows(self.blend, self.rows), self.rows)
            else:
                values = getattr(self, kind)  # self.p or self.negated
            self._measures[kind] = dict(zip(("H", "VH", "VJ"), measure_rows(values, self.rows)))
        return self._measures[kind]

    def per_n(self, value):
        """The column that holds value(n) for each trial of n."""
        ns = self.n.tolist()
        values = {n: value(n) for n in set(ns)}
        return np.array(list(map(values.__getitem__, ns)))

    def probs(self, i: int, blend: bool = False) -> tuple[float, ...]:
        """The sample (or its blend) of the chunk's i-th trial."""
        rows = self.blend if blend else self.p
        return tuple(rows[self.rows.slices[i]].tolist())


def trial_chunks(seed, trials, n_min, n_max, blend_weight):
    """``TrialChunk``s of trials 0, 1, ..., trials - 1 in order, trial t
    having n = n_min + t % (n_max - n_min + 1), each blending toward
    uniform with ``blend_weight``. A chunk's entries sum to at most
    ``CHUNK_ENTRIES``, unless its one trial alone exceeds it."""
    t0 = 0
    while t0 < trials:
        ns, entries = [], 0
        for t in range(t0, trials):
            n = n_min + t % (n_max - n_min + 1)
            if ns and entries + n > CHUNK_ENTRIES:
                break
            ns.append(n)
            entries += n
        yield TrialChunk(seed, t0, ns, blend_weight)
        t0 += len(ns)
