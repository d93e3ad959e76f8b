"""JSON text of a long float64 array, byte for byte ``json.dumps`` of its
entries, computed on integer columns.

``json`` writes a finite float as ``float.__repr__``: the shortest decimal
that reads back as the same double, the one nearest to it when several
are that short, with ties to an even last digit, laid out as
``0.000ddd`` when the decimal point falls 0 to 3 places before the first
digit, and as ``d.ddde-05`` (``de-308`` for one digit) further out. For
the entries in the window [2**-1022, 1), the positive normal doubles
below 1, this module computes that decimal with Schubfach (R. Giulietti,
"The Schubfach way to render doubles", 2020; the same output contract as
Ryu, U. Adams, PLDI 2018) on numpy uint64 columns: three round-to-odd
products, of the scaled value and of its rounding interval's two bounds,
by a 126-bit approximation of 10**-k from a table built once per process.
Each decimal is written into a fixed-column byte matrix, zero where a
column is unused, and one select of the nonzero bytes joins the rows.
Every other entry (zeros, 1.0, subnormals, negatives, values above 1, inf
and nan) gets ``json``'s own text in its row, so the result equals
``json.dumps(list(x), separators=(",", ":"))`` by construction.

Every operand of a uint64 operation here is a uint64 array or scalar, or
a bool array: a uint64 next to an int64 array, or a uint64 scalar next
to a Python int under numpy < 2.0 (before NEP 50), promotes to float64
and would lose bits silently.
"""

from __future__ import annotations

import json
from functools import cache

import numpy as np

_U = np.uint64
_M32, _M63 = _U(2**32 - 1), _U(2**63 - 1)
# The window's bounds as float64 bit patterns, 2**-1022 and 1.0, and 0.5,
# which stands in for the other entries until their rows are replaced.
_LOW_BITS, _ONE_BITS = _U(0x0010000000000000), _U(0x3FF0000000000000)
_HALF_BITS = _U(0x3FE0000000000000)
# The window's binary exponents q = -1074..-53 give decimal exponents
# k = floor(log10(2**q)), or floor(log10(3/4 * 2**q)) at a power of two,
# with -k in _E_MIN.._E_MAX.
_E_MIN, _E_MAX = 16, 324
_POW10 = np.array([10**i for i in range(18)], dtype=np.uint64)
# Entries computed together, so that each temporary column stays at 16 kB:
# larger blocks measured slower.
_BLOCK = 2048
# A row of the byte matrix is 32 bytes, 8 uint32 words: the head (two zero
# bytes, '0' or the leading digit, '.'), 20 digit bytes in 5 words of 4,
# and the tail (for d.ddde-05: 'e', '-', the exponent's three digits with
# a zero byte for a leading 0; then ',').
_ROW_WORDS = 4  # uint64


@cache
def _tables():
    """(g1, and g1 and g0 in 32-bit halves, floor(log2 10**e)) for
    e = _E_MIN.._E_MAX, where g = g1 * 2**63 + g0 = floor(10**e / 2**r) + 1
    with r such that 2**125 <= 10**e / 2**r < 2**126."""
    g, log2 = [], []
    p = 10**_E_MIN
    for _ in range(_E_MIN, _E_MAX + 1):
        f = p.bit_length() - 1
        g.append((p >> (f - 125) if f >= 125 else p << (125 - f)) + 1)
        log2.append(f)
        p *= 10
    g1 = np.array([v >> 63 for v in g], dtype=np.uint64)
    g0 = np.array([v & (2**63 - 1) for v in g], dtype=np.uint64)
    return g1, g1 >> _U(32), g1 & _M32, g0 >> _U(32), g0 & _M32, np.array(log2)


@cache
def _layout_tables():
    """(head, digits, zeros, mask, tail): the byte matrix's pieces, built
    with numpy arithmetic.

    - head[2 * lead + dot]: the head word, '0' (lead 0) or the leading
      digit, then '.' when dot;
    - digits[w]: the 4 digit bytes of w < 10**4 as one uint32 word, and
      zeros[w] its trailing zero digits (4 for 0);
    - mask[:, n]: 5 words that keep the first n of 20 digit bytes;
    - tail[m]: 8 bytes, 'e-', the exponent m's digits and ',', or ','
      alone for m = 0."""
    pair = np.indices((10, 10)).reshape(2, -1).T  # the two digits of 0..99
    digits = np.empty((100, 100, 4), dtype=np.uint8)  # [w // 100, w % 100]
    digits[..., :2] = pair[:, None] + ord("0")
    digits[..., 2:] = pair + ord("0")
    pair_zeros = (pair[:, 1] == 0).astype(np.int8) + (pair[:, 0] + pair[:, 1] == 0)
    zeros = np.where(pair_zeros == 2, 2 + pair_zeros[:, None], pair_zeros).reshape(-1)
    head = np.zeros((20, 4), dtype=np.uint8)
    head[:, 2] = np.arange(20) // 2 + ord("0")
    head[1::2, 3] = ord(".")
    mask = np.where(np.arange(20) < np.arange(21)[:, None], 255, 0).astype(np.uint8)
    m = np.arange(_E_MAX + 1)
    tail = np.zeros((len(m), 8), dtype=np.uint8)
    tail[1:, 0] = ord("e")
    tail[1:, 1] = ord("-")
    tail[100:, 2] = m[100:] // 100 + ord("0")
    tail[1:, 3] = m[1:] // 10 % 10 + ord("0")
    tail[1:, 4] = m[1:] % 10 + ord("0")
    tail[:, 5] = ord(",")
    return (head.view(np.uint32)[:, 0], digits.view(np.uint32).reshape(-1), zeros,
            np.ascontiguousarray(mask.view(np.uint32).T), tail.view(np.uint64)[:, 0])


def _mulhi(a_hi, a_lo, b_hi, b_lo):
    """The high 64 bits of a * b, from the 32-bit halves of each."""
    lo_lo, lo_hi, hi_lo = a_lo * b_lo, a_lo * b_hi, a_hi * b_lo
    mid = (lo_lo >> _U(32)) + (lo_hi & _M32) + (hi_lo & _M32)
    return a_hi * b_hi + (lo_hi >> _U(32)) + (hi_lo >> _U(32)) + (mid >> _U(32))


def _rop(g, cp):
    """Schubfach's round-to-odd g * cp / 2**127, as Giulietti's ``rop``."""
    g1, g1_hi, g1_lo, g0_hi, g0_lo = g
    cp_hi, cp_lo = cp >> _U(32), cp & _M32
    x1 = _mulhi(g0_hi, g0_lo, cp_hi, cp_lo)
    y0 = g1 * cp  # mod 2**64
    y1 = _mulhi(g1_hi, g1_lo, cp_hi, cp_lo)
    z = (y0 >> _U(1)) + x1
    return (y1 + (z >> _U(63))) | (((z & _M63) + _M63) >> _U(63))


def _shortest(bits):
    """(d, k): for each double of the window (bits, its uint64 patterns)
    the shortest decimal d * 10**k that reads back as it, the nearest to
    it of those, ties to even d. d may end in zeros."""
    c = (bits & _U(2**52 - 1)) | _U(2**52)
    q = (bits >> _U(52)).astype(np.int64) - 1075
    # At a power of two (other than 2**-1022) the double below is half as
    # far as the double above.
    irregular = (c == _U(2**52)) & (q > -1074)
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    *g, log2 = _tables()
    e = -k - _E_MIN
    g = [column[e] for column in g]
    h = (q + log2[e] + 2).astype(np.uint64)
    cb = c << _U(2)
    # The rounding interval's lower bound, the value and the upper bound.
    vbl, vb, vbr = _rop(g, np.stack([cb - _U(2) + irregular, cb, cb + _U(2)]) << h)
    out = c & _U(1)  # an odd significand's interval is open
    s = vb >> _U(2)
    sp10 = s // _U(10) * _U(10)
    # Is u = (sp10, s), and is w = (sp10 + 10, s + 1), in the interval? At
    # most one multiple of 10 is; when exactly one is, it is the shorter
    # decimal.
    u4 = np.stack([sp10, s]) << _U(2)
    uin = vbl + out <= u4
    win = u4 + np.array([[40], [4]], dtype=np.uint64) + out <= vbr
    mid = u4[1] + _U(2)
    nearer_s = (vb < mid) | ((vb == mid) & ((s & _U(1)) == _U(0)))
    return np.where(uin[0] != win[0], np.where(uin[0], sp10, sp10 + _U(10)),
                    np.where(np.where(uin[1] != win[1], uin[1], nearer_s), s, s + _U(1))), k


def _fill(rows, bits):
    """Write the text and comma of each double of the window (bits, its
    uint64 patterns) into its row of rows (_ROW_WORDS uint64 words each)."""
    d, k = _shortest(bits)
    nd = np.searchsorted(_POW10, d, side="right")  # d's digit count
    decpt = k + nd  # the value is 0.ddd * 10**decpt
    D = d * _POW10[17 - nd]  # d's digits, left-aligned to 17
    fixed = decpt >= -3
    # The 20 digit bytes X, for 0.000ddd the zeros then d's digits, for
    # d.ddde-05 the digits after the first: X = V * 10**(16 - b).
    lead = np.where(fixed, _U(0), D // _U(10**16))
    V = D - lead * _U(10**16)
    b = np.where(fixed, 13 - decpt, 12)
    words = np.empty((5, len(bits)), dtype=np.uint16)  # X in words of 4 digits
    w = V // _POW10[b]
    words[0] = w
    r = (V - w * _POW10[b]) * _POW10[16 - b]
    for i, p in enumerate((_U(10**12), _U(10**8), _U(10**4)), 1):
        w = r // p
        words[i] = w
        r -= w * p
    words[4] = r
    head, digits, zeros, mask, tail = _layout_tables()
    # X's trailing zero digits, word by word from the right.
    z = zeros[words]
    run = np.logical_and.accumulate(words[::-1] == 0, axis=0)
    kept = 20 - z[4] - (run[:4] * z[3::-1]).sum(axis=0)
    row_words = rows.view(np.uint32)
    row_words[:, 0] = head[_U(2) * lead + (kept > 0)]
    row_words[:, 1:6] = (digits[words] & mask[:, kept]).T
    rows[:, 3] = tail[np.where(fixed, 0, 1 - decpt)]


def array_json(x: np.ndarray) -> str:
    """``json.dumps(list(x), separators=(",", ":"))`` of a nonempty,
    contiguous float64 array."""
    bits = x.view(np.uint64)
    window = (bits >= _LOW_BITS) & (bits < _ONE_BITS)
    inside = np.where(window, bits, _HALF_BITS)
    rows = np.empty((len(x), _ROW_WORDS), dtype=np.uint64)
    for i in range(0, len(x), _BLOCK):
        _fill(rows[i:i + _BLOCK], inside[i:i + _BLOCK])
    row_bytes = rows.view(np.uint8)
    if not window.all():
        at = np.flatnonzero(~window)
        values, inverse = np.unique(bits[at], return_inverse=True)
        texts = np.zeros((len(values), row_bytes.shape[1]), dtype=np.uint8)
        for text, v in zip(texts, values.view(np.float64).tolist()):
            encoded = json.dumps(v).encode() + b","
            text[1:len(encoded) + 1] = np.frombuffer(encoded, dtype=np.uint8)
        row_bytes[at] = texts[inverse.reshape(-1)]
    row_bytes[0, 0] = ord("[")  # every row's first byte is zero
    out = row_bytes[row_bytes != 0]
    out[-1] = ord("]")  # the last row's comma
    return str(out, "ascii")
