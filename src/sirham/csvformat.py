"""Exact ``%.17g`` text of a float table, spelled by numpy in passes.

:func:`format_table` gives the bytes that ``"%.17g" % x`` gives for every
cell, joined by commas and newlines.  CPython spells 17 digits through
dtoa's bignum path (Gay, "Correctly rounded binary-decimal and
decimal-binary conversions", 1990) at about a microsecond a cell; here
each cell costs a few dozen float64 operations, table lookups and one
byte deletion, and no Python code runs per cell.

How a cell x with ``2**-1022 <= |x| < 1e16`` is spelled, for u = 2**-53:

* Exponent.  X, the decimal exponent, is guessed as
  ``floor(log(|x|) / ln 10)`` and never trusted: numpy's SIMD ``log``
  rounds differently on hosts with AVX-512.  With q = 16 - X, the
  double-double ``(h, l)`` is ``|x| * 2**q`` (exact) times ``5**q``, whose
  hi/lo pair comes exactly from Python ints, by Dekker's TwoProduct
  (Numer. Math. 18 (1971) 224).  The guess stands only where ``h + l``
  lies in [1e16, 1e17): ``(h - 1e16) + l < 0``, which catches ``h == 1e16``
  with ``l < 0``, or ``(h - 1e17) + l >= 0`` sends the cell to the
  fallback.  So one product is taken per cell.
* Error bound.  The pair of ``5**q`` is off by at most u**2 of it,
  Dekker's error term e of h is exact, and ``l = fl(e + fl(a lo))`` with
  ``a = |x| 2**q``.  So T = ``|x| 10**q`` differs from ``h + l`` by at most
  ``u**2 T + u |a lo| + u |e + a lo| <= 4 u**2 T (1 + 2u)``, below 5e-15
  for T < 1e17.  Where the guess stands, h lies in [1e16, 1e17], above
  2**53, so it is an integer, and the digits are ``N = h + rint(l)``: T
  rounded half to even wherever ``|l - rint(l)|`` is farther than ``TIE``
  (2**-40, about 9e-13, 100 times that error) from 1/2.
* Fallback.  ``"%.17g" % x`` itself spells every cell whose exponent
  guess misses, every cell within that bound of a tie, every cell whose
  digits carry to 1e17, and ±0.0, nan, ±inf, subnormals and
  ``|x| >= 1e16``.
* Layout.  N is split exactly into d0 and four four-digit groups.  Each
  cell gets a 48-byte slot of six words, each looked up in a small table:
  the sign, the ``0.000`` prefix (for -4 <= X < 0), d0 and a point; the
  four groups, each digit followed by a point; and ``e-XX`` (for X < -4)
  with the separator.  One mask a cell, looked up by the cut (after the
  last nonzero digit, or after digit X if that comes later) and by X,
  keeps the digits before the cut and the point after digit X, if a kept
  digit follows it.  The other bytes are NUL, and ``bytes.translate``
  deletes them.
* Passes.  A table is spelled ``BLOCK`` cells at a time, every step
  writing through ``out=`` into one set of work arrays that the process
  allocates at its first table and keeps, one call at a time (a lock
  serialises threads).  So a warm call allocates its
  text and, one ``CHUNK`` at a time, the slot bytes that ``translate``
  reads (copied into ``bytes``, whose ``translate`` is faster than
  ``bytearray``'s) and its output.

Only float64 arithmetic and comparisons, ``floor``, ``rint``, ``log``,
``signbit``, casts to ``intp``, ``take`` and one ``bitwise_and`` of the
slot words with their masks run over the cells.
"""

from __future__ import annotations

import functools
import itertools
import threading

import numpy as np

__all__ = ["format_table"]

#: cells spelled per pass.  A pass costs about 65 us however short (some
#: 70 numpy calls) and 0.1 us a cell (2-core x86-64, numpy 2.4), so at 4096
#: cells the fixed part is a seventh of a full pass.  Its work arrays
#: (``_tables``) then take 0.57 MB, allocated once per process.
BLOCK = 4096
#: slot bytes handed to ``translate`` at a time: 48 kB, below glibc's
#: 128 kB mmap threshold, so neither the copy nor its output is mapped
#: and faulted in afresh on every call
CHUNK = 1024
TIE = 2.0**-40
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter
_INV_LN10 = 0.43429448190325176
#: table column of decimal exponent X
_X0 = 400
_SLOT = 48
#: the cut each group's last nonzero digit implies, by group
_LAST_OFFSET = np.arange(0.0, 32.0, 8.0)[:, None]


#: one pass at a time in a process: the passes share the work arrays
_WORK_LOCK = threading.Lock()


def format_table(table: np.ndarray) -> str:
    """The rows of a (rows, columns) float64 table, each cell exactly
    ``"%.17g" % x``, cells joined by ``,`` and rows ended by ``\\n``."""
    cells = np.ravel(table)
    width = table.shape[1]
    with _WORK_LOCK:
        return "".join(
            [_pass(cells[k : k + BLOCK], k, width) for k in range(0, len(cells), BLOCK)]
        )


def _word(data: bytes) -> int:
    return int.from_bytes(data.ljust(8, b"\0"), "little")


@functools.cache
def _tables() -> tuple:
    """The lookup tables (about 200 kB) and the work arrays of a pass,
    built at the first call and reused by every later one.

    * ``scale[:, X + _X0]``: 2**q, then 5**q as its hi/lo pair and hi's
      Dekker halves, for q = 16 - X (q in 0..340);
    * ``by_x[:, X + _X0]``: kp - 63, where kp is the digit the point
      follows (17: none, the ``0.`` prefix holds it); the cut that keeps
      digits 0..X; and 10 times the prefix's length code;
    * ``last``: by v, the cut that group value v implies in the first group
      (-1000 if v is 0), the cut being the slot byte after the last digit
      kept;
    * ``groups``: by v, its four digits, each followed by a point;
    * ``masks[w, 18 kc + kp]``: the bytes of slot word w (0 to 4) kept at
      the cut 7 + 2 kc;
    * ``lead``: the first word, by 100 sign + 10 prefix + d0;
    * ``tail``: the exponent word, by X + _X0;
    * ``rows`` and ``flags``: the work arrays of a pass of ``BLOCK`` cells
      (138 bytes a cell): 17 rows of 8 bytes a cell, which each step of
      :func:`_pass` takes in turn as float64, intp, uint64 or slot bytes,
      and two boolean rows.  A pass of n cells uses the first 17 n items
      of the rows, so each of its rows is contiguous.
    """
    span = range(_X0 + 17)
    scale = np.empty((5, len(span)))
    by_x = np.empty((3, len(span)))
    tail = np.zeros(len(span), np.uint64)
    for col in span:
        x = col - _X0
        q = min(max(16 - x, 0), 340)
        five = 5**q
        hi = float(five)
        c = _SPLIT * hi
        hh = c - (c - hi)
        scale[:, col] = (2.0**q, hi, float(five - int(hi)), hh, hi - hh)
        by_x[:, col] = (
            (17 if -4 <= x < 0 else max(x, 0)) - 63,
            7 + 2 * max(x, 0),
            -10 * x if -4 <= x < 0 else 0,
        )
        if x < -4:
            tail[col] = _word(b"e-%02d" % -x)
    # digit by digit, so that building them takes no more than they keep
    v = np.arange(10_000.0)
    digit = np.empty_like(v)
    spelled = np.zeros((len(v), 8), np.uint8)
    last = np.full(len(v), -1000.0)
    for k in range(4):
        np.floor(v / 10.0 ** (3 - k), out=digit)
        np.fmod(digit, 10.0, out=digit)
        np.copyto(last, 9.0 + 2.0 * k, where=digit != 0.0)
        digit += 48.0
        spelled[:, 2 * k] = digit
    spelled[:, 1::2] = 46
    groups = spelled.view(np.uint64).ravel()
    # byte s of a slot is kept if it is the sign, the prefix or d0, a digit
    # before the cut, or the point after digit kp, if that comes before it
    s = np.arange(40.0).reshape(5, 1, 1, 8)
    kc, kp = np.arange(17.0).reshape(17, 1, 1), np.arange(18.0).reshape(18, 1)
    digit_kept = (s % 2.0 == 0.0) & (s < 7.0 + 2.0 * kc)
    point_kept = (s % 2.0 == 1.0) & (s == 7.0 + 2.0 * kp) & (kp < kc)
    kept = (s <= 6.0) | digit_kept | point_kept
    masks = np.where(kept, 255, 0).astype(np.uint8).view(np.uint64).reshape(5, 18 * 17)
    lead = np.zeros(200, np.uint64)
    for sign, prefix, d0 in itertools.product(range(2), range(5), range(10)):
        zeros = b"0." + b"0" * (prefix - 1) if prefix else b""
        lead[100 * sign + 10 * prefix + d0] = _word(
            (b"-" if sign else b"\0") + zeros.ljust(5, b"\0") + bytes([48 + d0, 46])
        )
    rows, flags = np.empty(17 * BLOCK), np.empty(2 * BLOCK, bool)
    return scale, by_x, last, groups, masks, lead, tail, rows, flags


def _pass(x: np.ndarray, start: int, width: int) -> str:
    """The text of ``x``, cells ``start`` to ``start + len(x)`` of a table
    ``width`` cells wide."""
    scale, by_x, last, groups, masks, lead, tail, rows, flags = _tables()
    n = len(x)
    f = rows[: 17 * n].reshape(17, n)
    u = f.view(np.uint64)
    bad, flag = flags[: 2 * n].reshape(2, n)
    col = f[15].view(np.intp)
    ax, c, r = f[0], f[1], f[0]
    two, hi, lo, hh, hl = f[2:7]
    a, ah, al, h, l = f[7:12]
    np.abs(x, out=ax)
    np.greater_equal(ax, 2.2250738585072014e-308, out=bad)
    np.less(ax, 1e16, out=flag)
    np.logical_and(bad, flag, out=bad)
    np.logical_not(bad, out=bad)
    np.copyto(ax, 1.0, where=bad)
    np.log(ax, out=c)
    c *= _INV_LN10
    np.floor(c, out=c)
    c += _X0
    np.copyto(col, c, casting="unsafe")
    scale.take(col, axis=1, out=f[2:7], mode="clip")
    # (h, l) = |x| 2**q 5**q by Dekker's TwoProduct
    np.multiply(ax, two, out=a)
    np.multiply(a, _SPLIT, out=c)
    np.subtract(c, a, out=ah)
    np.subtract(c, ah, out=ah)
    np.subtract(a, ah, out=al)
    np.multiply(a, hi, out=h)
    np.multiply(ah, hh, out=l)
    l -= h
    for p, q in ((ah, hl), (al, hh), (al, hl), (a, lo)):
        np.multiply(p, q, out=c)
        l += c
    # the guess stands only where h + l lies in [1e16, 1e17)
    np.subtract(h, 1e16, out=c)
    c += l
    np.less(c, 0.0, out=flag)
    np.logical_or(bad, flag, out=bad)
    np.subtract(h, 1e17, out=c)
    c += l
    np.greater_equal(c, 0.0, out=flag)
    np.logical_or(bad, flag, out=bad)
    np.rint(l, out=r)
    np.subtract(l, r, out=c)
    np.abs(c, out=c)
    np.greater(c, 0.5 - TIE, out=flag)
    np.logical_or(bad, flag, out=bad)
    # N = h + r as a2 1e8 + b, h an integer: every step is exact.  1e-8 and
    # 1e-4 round up, so floor(k 10**e 10**-e) is k for an integer k; the
    # first quotient may be one off, and the carry mends it.
    a2, half, b, d0 = f[2], f[3:5], f[4], f[5]
    np.multiply(h, 1e-8, out=a2)
    np.floor(a2, out=a2)
    np.multiply(a2, 1e8, out=c)
    np.subtract(h, c, out=b)
    b += r
    np.multiply(b, 1e-8, out=c)
    np.floor(c, out=c)
    a2 += c
    c *= 1e8
    b -= c
    np.greater_equal(a2, 1e9, out=flag)  # N carried to 1e17
    np.logical_or(bad, flag, out=bad)
    np.multiply(a2, 1e-8, out=d0)
    np.floor(d0, out=d0)
    np.multiply(d0, 1e8, out=c)
    np.subtract(a2, c, out=half[0])
    # the sign, the prefix and d0; then the exponent
    first = f[6]
    by_x[2].take(col, out=first, mode="clip")
    first += d0
    np.signbit(x, out=flag)
    np.add(first, 100.0, out=first, where=flag)
    np.copyto(f[7].view(np.intp), first, casting="unsafe")
    lead.take(f[7].view(np.intp), out=u[0], mode="clip")
    tail.take(col, out=u[16], mode="clip")
    quads = f[5:9]
    split = quads.reshape(2, 2, n)
    np.multiply(half, 1e-4, out=split[:, 0])
    np.floor(split[:, 0], out=split[:, 0])
    np.multiply(split[:, 0], 1e4, out=split[:, 1])
    np.subtract(half, split[:, 1], out=split[:, 1])
    qi = f[9:13].view(np.intp)
    np.copyto(qi, quads, casting="unsafe")
    groups.take(qi, out=u[1:5], mode="clip")
    # the cut: after the last nonzero digit, or after digit X if later
    cut, code = f[13], f[14]
    last.take(qi, out=quads, mode="clip")
    quads += _LAST_OFFSET
    np.maximum.reduce(quads, axis=0, out=cut)
    by_x[1].take(col, out=code, mode="clip")
    np.maximum(cut, code, out=cut)
    # each word's mask, by the cut and where the point goes
    by_x[0].take(col, out=code, mode="clip")
    np.multiply(cut, 9.0, out=cut)
    cut += code
    index = f[5].view(np.intp)
    np.copyto(index, cut, casting="unsafe")
    masks.take(index, axis=1, out=u[11:16], mode="clip")
    slot_words = u[5:11].reshape(n, 6)
    np.bitwise_and(u[0:5], u[11:16], out=slot_words[:, :5].T)
    slot_words[:, 5] = u[16]
    chars = slot_words.view(np.uint8)
    for k in np.flatnonzero(bad).tolist():
        chars[k, :45] = np.frombuffer((b"%.17g" % x[k]).ljust(45, b"\0"), np.uint8)
    chars[:, 45] = 44
    chars[(width - 1 - start) % width :: width, 45] = 10
    view = memoryview(chars.reshape(-1))
    return "".join(
        [
            bytes(view[k : k + _SLOT * CHUNK]).translate(None, b"\0").decode("ascii")
            for k in range(0, len(view), _SLOT * CHUNK)
        ]
    )
