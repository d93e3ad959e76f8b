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

Each decimal, of 16 or 17 digits, is written into a row of four uint64
words: a head looked up by the layout (the comma, then ``0.``, the zeros
after the point and the leading digit, or the leading digit and ``.``),
the 16 digits after the leading one, looked up in 4-digit groups with
their trailing zeros blanked where no nonzero digit follows, shifted in
behind the head, and for ``d.ddde-05`` the exponent. Every byte a row
does not use is zero, and one select of the nonzero bytes joins the rows,
the first comma made ``[``. Every other entry (zeros, 1.0, subnormals,
negatives, values above 1, inf and nan) gets ``json``'s own text in its
row, so the result equals ``json.dumps(list(x), separators=(",", ":"))``
by construction.

Each step is one numpy operation over the whole point, in place on the
rows of one work array of 15 rows, allocated once per call. A fresh
temporary per step would be memory that glibc hands back to the system
once freed and page-faults in again on the next call. The engine writes
no point of more than ``claims.MAX_OUTCOMES`` entries, so the work array
holds at most 1.2 MB.

Every operand of a uint64 operation here is a uint64 array or scalar, or
a bool array: a uint64 next to an int64 array, or a uint64 scalar next
to a Python int under numpy < 2.0 (before NEP 50), promotes to float64
and would lose bits silently. Table indices are uint64 rows viewed as
intp, which holds the same small values.
"""

from __future__ import annotations

import json
from functools import cache

import numpy as np

_U = np.uint64
_M32, _M63 = _U(2**32 - 1), _U(2**63 - 1)
# The window's bounds as float64 bit patterns, 2**-1022 and 1.0.
_LOW_BITS, _ONE_BITS = _U(0x0010000000000000), _U(0x3FF0000000000000)
# The window's binary exponents q = -1074..-53 give decimal exponents
# k = floor(log10(2**q)), or floor(log10(3/4 * 2**q)) at a power of two,
# with -k in _E_MIN.._E_MAX.
_E_MIN, _E_MAX = 16, 324


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
    """(digits, head, tail): the row's pieces.

    - digits[w + 10000 * full]: the 4 digit bytes of w < 10**4 as one
      uint32 word, its trailing zero digits as zero bytes unless full;
    - head[lead + 10 * s + 50 * bare]: the head word, ',' and for s = 0 the
      leading digit and '.', no '.' when bare (no digit follows); for
      s = 1..4 '0.', s - 1 zeros and the leading digit;
    - tail[m]: 'e-' and the exponent m's digits in bytes 3..7, nothing for
      m < 5."""
    w = np.arange(10**4)
    four = np.stack([w // 1000, w // 100 % 10, w // 10 % 10, w % 10], axis=1).astype(np.uint8)
    kept = np.logical_or.accumulate(four[:, ::-1] != 0, axis=1)[:, ::-1]
    four += ord("0")
    digits = np.stack([four * kept, four])
    heads = [f",{lead}." if s == 0 else f",0.{'0' * (s - 1)}{lead}"
             for s in range(5) for lead in range(10)]
    heads += [f",{lead}" for lead in range(10)] + heads[10:]
    # m = 1 - decpt, at most 308 in the window.
    tails = [f"\0\0\0e-{m:02d}" if m >= 5 else "" for m in range(309)]
    return (digits.view(np.uint32).reshape(-1),
            *(np.frombuffer(b"".join(t.encode().ljust(8, b"\0") for t in texts), np.uint64)
              for texts in (heads, tails)))


def _mulhi(a_hi, a_lo, b_hi, b_lo, out, tmp):
    """out = the high 64 bits of a * b, from the 32-bit halves of each,
    for a < 2**63 and b < 2**60: then a_hi * b_lo + a_lo * b_hi plus the
    carry of a_lo * b_lo stays below 2**64."""
    np.multiply(a_lo, b_lo, out=out)
    out >>= _U(32)
    np.multiply(a_hi, b_lo, out=tmp)
    out += tmp
    np.multiply(a_lo, b_hi, out=tmp)
    out += tmp
    out >>= _U(32)
    np.multiply(a_hi, b_hi, out=tmp)
    out += tmp


def _rop(g, cp, lo, z, tmp, out):
    """out = Schubfach's round-to-odd g * cp / 2**127, as Giulietti's
    ``rop``, for cp < 2**60, which is left holding its high 32 bits; lo, z
    and tmp are scratch."""
    g1, g1_hi, g1_lo, g0_hi, g0_lo = g
    np.bitwise_and(cp, _M32, out=lo)
    np.multiply(g1, cp, out=z)  # y0 = g1 * cp mod 2**64
    cp >>= _U(32)
    _mulhi(g0_hi, g0_lo, cp, lo, out, tmp)  # x1
    z >>= _U(1)
    z += out
    _mulhi(g1_hi, g1_lo, cp, lo, out, tmp)  # y1
    np.right_shift(z, _U(63), out=tmp)
    out += tmp
    z &= _M63
    z += _M63
    z >>= _U(63)
    out |= z


def _shortest(bits, work):
    """The shortest decimal d * 10**-e of each double of the window (bits,
    its uint64 patterns) that reads back as it, the nearest to it of
    those, ties to even d, in rows of work: (d, e - _E_MIN). d has 16 or
    17 digits and may end in zeros. An entry outside the window is read
    as a double of the window, its exponent clipped into it."""
    (*g, vbl, vb, vbr, cb, cp, index, h, lo, z, tmp) = work
    np.bitwise_and(bits, _U(2**52 - 1), out=cb)
    irregular = cb == _U(0)
    cb |= _U(2**52)  # the significand c
    cb <<= _U(2)
    np.right_shift(bits, _U(52), out=cp)
    np.minimum(cp, _U(1022), out=cp)
    np.maximum(cp, _U(1), out=cp)  # the biased exponent, -q = 1075 - it
    # At a power of two (other than 2**-1022) the double below is half as
    # far as the double above.
    irregular &= cp > _U(1)
    np.subtract(_U(1075), cp, out=cp)
    # e = -k = ceil((-q * 661971961083 + irregular * 274743187321) / 2**41).
    np.multiply(cp, _U(661971961083), out=index)
    np.multiply(irregular, _U(274743187321), out=tmp)
    index += tmp
    index += _U(2**41 - 1)
    index >>= _U(41)
    index -= _U(_E_MIN)
    *tables, log2 = _tables()
    at = index.view(np.intp)
    for table, column in zip(tables, g):
        table.take(at, out=column, mode="clip")
    log2.take(at, out=h.view(np.intp), mode="clip")
    h += _U(2)
    h -= cp  # h = q + floor(log2 10**e) + 2, in 2..5
    # The rounding interval's lower bound, the value and the upper bound.
    np.subtract(cb, _U(2), out=cp)
    cp += irregular
    cp <<= h
    _rop(g, cp, lo, z, tmp, vbl)
    np.left_shift(cb, h, out=cp)
    _rop(g, cp, lo, z, tmp, vb)
    np.add(cb, _U(2), out=cp)
    cp <<= h
    _rop(g, cp, lo, z, tmp, vbr)
    s, sp10, u4, odd = g[:4]
    np.bitwise_and(bits, _U(1), out=odd)  # an odd c's interval is open
    vbl += odd
    np.right_shift(vb, _U(2), out=s)
    np.floor_divide(s, _U(10), out=sp10)
    sp10 *= _U(10)
    # Is u = (sp10, s), and is w = (sp10 + 10, s + 1), in the interval? At
    # most one multiple of 10 is; when exactly one is, it is the shorter
    # decimal.
    np.left_shift(sp10, _U(2), out=u4)
    u_in = vbl <= u4
    u4 += _U(40)
    u4 += odd
    w_in = u4 <= vbr
    np.left_shift(s, _U(2), out=u4)
    s_in = vbl <= u4
    u4 += _U(4)
    u4 += odd
    t_in = u4 <= vbr
    # s + 1 is nearer when vb - 4s = vb & 3 is 3, and as near at 2, where
    # the even one of s and s + 1 wins.
    vb &= _U(3)
    np.bitwise_and(s, _U(1), out=tmp)
    vb += tmp
    d = np.add(s, (s_in == t_in) & (vb > _U(2)) | t_in & ~s_in, out=cp)
    # Where exactly one of u and w is in, d is that one.
    np.multiply(w_in, _U(10), out=tmp)
    sp10 += tmp
    sp10 -= d
    sp10 *= u_in != w_in
    d += sp10
    return d, index


def _fill(d, t, work):
    """The rows of 4 uint64 words, in work[2:6], that hold the comma and
    text of each decimal d * 10**-(t + _E_MIN), d of 16 or 17 digits; d
    and t are work[9] and work[10], and work's other rows are free."""
    pair, groups, text = work[:2], work[2:6], work[6:8].view(np.uint32).reshape(4, -1)
    h, lead, y0, tmp = work[11:15]
    short = d < _U(10**16)
    np.multiply(d, _U(9), out=tmp)
    tmp *= short
    d += tmp  # d's 17 digits
    t += short  # t = 1 - decpt, for the value 0.ddd * 10**decpt
    s = np.multiply(t, t <= _U(4), out=h)  # the head's layout, 0 for d.ddde-05
    np.floor_divide(d, _U(10**16), out=lead)
    np.multiply(lead, _U(10**16), out=tmp)
    d -= tmp
    # The 16 digits after the leading one, as two 8-digit numbers, then the
    # table indices of their four 4-digit groups, each but the last full
    # when a nonzero digit follows it.
    np.floor_divide(d, _U(10**8), out=pair[0])
    np.multiply(pair[0], _U(10**8), out=tmp)
    np.subtract(d, tmp, out=pair[1])
    np.floor_divide(pair, _U(10**4), out=groups[0::2])
    np.multiply(groups[0::2], _U(10**4), out=groups[1::2])
    np.subtract(pair, groups[1::2], out=groups[1::2])
    np.bitwise_or(groups[1], pair[1], out=y0)
    for group, follow in (groups[0], y0), (groups[1], pair[1]), (groups[2], groups[3]):
        np.multiply(follow != _U(0), _U(10**4), out=tmp)
        group += tmp
    pair[0] |= pair[1]
    np.multiply(pair[0] == _U(0), _U(50), out=tmp)  # no '.' after a lone digit
    lead += tmp
    np.multiply(s, _U(10), out=tmp)
    lead += tmp
    digits, head, tail = _layout_tables()
    digits.take(groups.view(np.intp), out=text, mode="clip")
    for word, (first, last) in zip(pair, text.reshape(2, 2, -1)):
        np.left_shift(last, _U(32), out=word)
        word |= first
    # The digits start after the head's 3 + s bytes.
    left = np.left_shift(s, _U(3), out=h)
    left += _U(24)
    right = np.subtract(_U(64), left, out=d)
    rows = groups.reshape(-1, 4)  # the indices are spent
    head.take(lead.view(np.intp), out=rows[:, 0], mode="clip")
    np.left_shift(pair[0], left, out=y0)
    rows[:, 0] |= y0
    np.right_shift(pair[0], right, out=rows[:, 1])
    np.left_shift(pair[1], left, out=y0)
    rows[:, 1] |= y0
    np.right_shift(pair[1], right, out=rows[:, 2])
    tail.take(t.view(np.intp), out=y0, mode="clip")
    rows[:, 2] |= y0
    rows[:, 3] = 0  # room for json's longer texts, and the closing ']'
    return rows


def array_json(x: np.ndarray) -> str:
    """``json.dumps(list(x), separators=(",", ":"))`` of a nonempty,
    contiguous float64 array."""
    return str(_text(x.view(np.uint64)), "ascii")


def _text(bits):
    """The bytes of ``array_json``'s text, as a uint8 array, of the
    doubles whose uint64 patterns are bits; its work array is freed when
    it returns, before the text is copied into a str."""
    # _shortest uses every row and leaves d and e in rows 9 and 10; _fill
    # leaves the rows of text in rows 2 to 5, so rows 6 to 9 are free.
    work = np.empty((15, len(bits)), dtype=np.uint64)
    rows = _fill(*_shortest(bits, work), work)
    row_bytes = rows.view(np.uint8)
    window = (bits >= _LOW_BITS) & (bits < _ONE_BITS)
    if not window.all():
        at = np.flatnonzero(~window)
        values, inverse = np.unique(bits[at], return_inverse=True)
        texts = np.zeros((len(values), row_bytes.shape[1]), dtype=np.uint8)
        for text, v in zip(texts, values.view(np.float64).tolist()):
            encoded = b"," + json.dumps(v).encode()
            text[:len(encoded)] = np.frombuffer(encoded, dtype=np.uint8)
        row_bytes[at] = texts[inverse.reshape(-1)]
    row_bytes[0, 0] = ord("[")  # the first row's comma
    row_bytes[-1, -1] = ord("]")  # every row's last byte is zero
    keep = np.not_equal(row_bytes, 0, out=work[6:10].view(bool).reshape(row_bytes.shape))
    return row_bytes[keep]
