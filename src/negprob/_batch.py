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
- ``majorizes_rows`` adds prefix sums left to right like ``majorizes``.

numpy's ``log`` is never used: it differs from ``math.log`` in the last
bit on a fraction of inputs. The properties in tests/test_properties.py
pin every function here against its reference. This module imports
numpy, so it is imported only when trials are sampled.
"""

from __future__ import annotations

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

    Each row is sorted in descending order by ``sorted`` and summed by
    ``accumulate``, which adds left to right like the scalar loop, so every
    prefix sum and comparison is the same float operation.
    """
    p_entries, q_entries = memoryview(p), memoryview(q)
    minus_slack = MAJORIZATION_SLACK.__rsub__  # s -> s - MAJORIZATION_SLACK
    return [
        not any(map(
            float.__lt__,
            accumulate(sorted(p_entries[row], reverse=True)),
            map(minus_slack, accumulate(sorted(q_entries[row], reverse=True))),
        ))
        for row in rows.slices
    ]


def measure_rows(values, rows: Rows):
    """H, VH and VJ of each distribution in the flat rows ``values``, as
    three arrays, each entry bitwise equal to that field of
    ``measure_all``.

    The logarithms are ``math.log`` with the scalar guard (a guarded entry
    takes log(1.0) = 0.0), each term is the same numpy product in the same
    order as in ``measure_all``, and each sum is one ``fsum`` per row. Rows
    with equal entries are summed in full; ``n * t`` gives the same float.
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
    """Consecutive trials t0, t0 + 1, ..., each drawn, negated and measured
    once, as float columns in trial order.

    ``columns[kind, field]`` holds H, VH or VJ of the sample ("p", only
    with ``before``), of its negation ("negated") and of its negated
    near-uniform blend ("blend", only with a ``blend`` weight w). The blend
    is (1 - w) * (1 / n) + w * p, renormalised. ``majorized`` holds
    ``majorizes(p, negate(p))`` (only with ``majorization``).
    """

    def __init__(self, seed, t0, ns, before, blend, majorization):
        rows = Rows(ns)
        self.n = rows.ns
        self.slices = rows.slices
        self._probs = {}
        p = sample_rows(seed, rows, range(t0, t0 + len(rows)))
        negated = distribution_rows(negate_rows(p, rows), rows)
        measured = {"negated": negated}
        if before:
            measured["p"] = p
        self.p, self.blend = p, None
        if blend is not None:
            near = rows.repeat((1.0 - blend) * (1.0 / self.n)) + blend * p
            self.blend = distribution_rows(near, rows, renormalize=True)
            measured["blend"] = distribution_rows(negate_rows(self.blend, rows), rows)
        self.columns = {
            (kind, field): column
            for kind, values in measured.items()
            for field, column in zip(("H", "VH", "VJ"), measure_rows(values, rows))
        }
        if majorization:
            self.majorized = majorizes_rows(p, negated, rows)

    def per_n(self, value):
        """The column that holds value(n) for each trial of n."""
        ns = self.n.tolist()
        values = {n: value(n) for n in set(ns)}
        return np.array(list(map(values.__getitem__, ns)))

    def probs(self, i: int, blend: bool = False) -> tuple[float, ...]:
        """The sample (or its blend) of the chunk's i-th trial, built once
        and shared by every claim that reports it."""
        if (i, blend) not in self._probs:
            rows = self.blend if blend else self.p
            self._probs[i, blend] = tuple(rows[self.slices[i]].tolist())
        return self._probs[i, blend]


def trial_chunks(seed, trials, n_min, n_max, *, before, blend, majorization):
    """``TrialChunk``s of trials 0, 1, ..., trials - 1 in order, trial t
    having n = n_min + t % (n_max - n_min + 1). A chunk's entries sum to
    at most ``CHUNK_ENTRIES``, unless its one trial alone exceeds it."""
    t0 = 0
    while t0 < trials:
        ns, entries = [], 0
        for t in range(t0, trials):
            n = n_min + t % (n_max - n_min + 1)
            if ns and entries + n > CHUNK_ENTRIES:
                break
            ns.append(n)
            entries += n
        yield TrialChunk(seed, t0, ns, before, blend, majorization)
        t0 += len(ns)
