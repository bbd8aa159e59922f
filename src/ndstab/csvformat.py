"""CSV rows of floats formatted in numpy, byte for byte as ``'%.12g' % v``.

A value v with |v| in [1e-280, 1e280) has the decimal exponent e and the 12
significant digits D = rint(|v| * 10^(11 - e)), from one product with a
correctly rounded power of ten.  Its relative error is at most 2.3e-16, so D
is the one '%' prints unless the scaled value lies within 1e-15 of itself of
a half (4.5 times that error).  Those values, the non-finite ones and the
rest of the range go through '%'; zeros are formatted here.

Each value fills a slot of four 8-byte words, NUL-padded: the sign with the
"0." and leading zeros of a value in [0.0001, 1), the four groups of three
digits with the decimal point, and the exponent with the separator.  Every
word is read from a table, and the slots are joined with their NULs dropped.
The tables are built on the first call.
"""

from __future__ import annotations

import functools

import numpy as np

_POW_LO = -290     # the power table holds 10^_POW_LO .. 10^299
_EXP_LO = -300     # the exponent tables index e - _EXP_LO, for e <= 300
_EXP_SPAN = 601
_STAND_IN = 2e300  # |v| of every value not formatted here: exponent 300, printed as 0


@functools.cache
def _tables():
    pow10 = np.array([float(f"1e{k}") for k in range(_POW_LO, 300)])
    g = np.arange(1000)
    chars = np.stack((g // 100, g // 10 % 10, g % 10), axis=1).astype(np.uint8) + ord("0")
    # digit count up to a group's last nonzero digit, by group position (a zero prints one)
    last = np.where(g > 0, 3 * np.arange(4)[:, None] + 3 - (g % 10 == 0) - (g % 100 == 0), 0)
    last[0, 0] = 1
    # group words by variant 4 p + q: the group's first q digits, with a point
    # after the p-th of them (none for p = 0)
    words = np.zeros((4, 4, 1000, 4), np.uint8)
    for p in range(4):
        for q in range(p, 4):
            words[p, q, :, :p] = chars[:, :p]
            words[p, q, :, p + (p > 0):q + (p > 0)] = chars[:, p:q]
            if p:
                words[p, q, :, p] = ord(".")
    e = np.arange(_EXP_LO, _EXP_LO + _EXP_SPAN)
    # the class of an exponent: 0-15 positional (e = -4 .. 11), 16 e-style, 17 zero
    kind = np.where((e >= -4) & (e < 12), e + 4, 16)
    kind[e >= 290] = 17
    # per class and digit count: each group's variant, as an offset into the words
    c = np.arange(18)[:, None, None]
    n = np.arange(1, 13)[None, :, None]
    k = 3 * np.arange(4)
    fixed = (c >= 4) & (c < 16)
    keep = np.where(fixed, np.maximum(n, c - 3), np.where(c < 17, n, 0))
    point = np.where(fixed & (n > c - 3), c - 4, np.where((c == 16) & (n > 1), 0, -1))
    at = point - k
    var = 4 * np.where((at >= 0) & (at <= 2), at + 1, 0) + np.clip(keep - k, 0, 3)
    lead = [sign + ("0." + "0" * (-x - 1) if -4 <= x < 0 else "0" if x >= 290 else "")
            for sign in ("", "-") for x in e.tolist()]
    tail = [("" if -4 <= x < 12 or x >= 290 else "e%+03d" % x) + sep
            for x in e.tolist() for sep in (",", "\r\n")]
    return (pow10, last.ravel(), words.view(np.uint32).ravel(), 1000 * var.reshape(-1, 4),
            kind * 12 - 1, _words8(lead), _words8(tail))


def _words8(strings):
    return np.frombuffer("".join(s.ljust(8, "\0") for s in strings).encode(), np.uint64)


def format_rows(block: np.ndarray) -> bytes:
    """The CSV lines of a 2-D float block: each value as '%.12g' prints it,
    ',' between the columns and CRLF after each row."""
    pow10, last, words, var, klass, lead, tail = _tables()
    v = block.ravel()
    a = np.abs(v)
    ok = (a >= 1e-280) & (a < 1e280)
    m = np.where(ok, a, _STAND_IN)
    e = np.floor(np.log10(m)).astype(np.intp)
    s = m * np.take(pow10, 11 - _POW_LO - e)
    d = np.rint(s)
    # the estimate of e is one off near a power of ten
    off = np.flatnonzero((d < 1e11) | (d >= 1e12))
    if off.size:
        e[off] += np.where(d[off] < 1e11, -1, 1)
        s[off] = m[off] * pow10[11 - _POW_LO - e[off]]
        d[off] = np.rint(s[off])
    inexact = np.abs(s - d) >= 0.5 - 1e-15 * s
    # D = 1e11 is a carry or an e one too high: decide it again at e - 1
    one = np.flatnonzero(d == 1e11)
    if one.size:
        s1 = m[one] * pow10[12 - _POW_LO - e[one]]
        d1 = np.rint(s1)
        inexact[one] |= np.abs(s1 - d1) >= 0.5 - 1e-15 * s1
        below = d1 < 1e12
        e[one[below]] -= 1
        d[one[below]] = d1[below]
    hi, lo = np.divmod(d.astype(np.int64), 1_000_000)
    groups = np.empty((len(v), 4), np.intp)
    np.divmod(hi, 1000, out=(groups[:, 0], groups[:, 1]))
    np.divmod(lo, 1000, out=(groups[:, 2], groups[:, 3]))
    nl = np.take(last, groups + (0, 1000, 2000, 3000))
    digits = np.maximum(np.maximum(nl[:, 0], nl[:, 1]), np.maximum(nl[:, 2], nl[:, 3]))
    e -= _EXP_LO
    slots = np.empty((len(v), 4), np.uint64)
    slots[:, 0] = np.take(lead, np.signbit(v) * _EXP_SPAN + e)
    groups += np.take(var, np.take(klass, e) + digits, axis=0)
    slots.view(np.uint32)[:, 2:6] = np.take(words, groups)
    row_end = np.arange(block.shape[1]) == block.shape[1] - 1
    slots[:, 3] = np.take(tail, (2 * e).reshape(block.shape) + row_end).ravel()
    fall = np.flatnonzero(inexact | ~ok)
    fall = fall[v[fall] != 0.0]
    if fall.size:
        ends = row_end[fall % block.shape[1]].tolist()
        text = b"".join((b"%.12g" % x + (b"\r\n" if end else b",")).ljust(32, b"\0")
                        for x, end in zip(v[fall].tolist(), ends))
        slots[fall] = np.frombuffer(text, np.uint64).reshape(-1, 4)
    return slots.tobytes().translate(None, b"\0")
