"""Exact ``%.17g`` text of a float table, spelled by numpy in one pass.

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
* Layout.  N is split exactly into d0 and eight two-digit groups.  Each
  cell gets a 48-byte slot: sign, the ``0.000`` prefix (for -4 <= X < 0),
  d0 and its point slot, the eight groups with their point slots,
  ``e-XX`` (for X < -4) and the separator, each filled from small
  tables.  Trailing zeros and unused slots are NUL, and
  ``bytearray.translate`` deletes the NULs.

Only float64 arithmetic and comparisons, ``floor``, ``rint``, ``log``,
``signbit``, casts to ``intp`` and ``take`` run over the cells: no int64 or
small-integer arithmetic, whose loops would map more of numpy's code into a
process.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

__all__ = ["format_table"]

#: cells spelled per block: bounds the temporaries (about 300 bytes a cell).
#: Blocks of 2048 cells raised the benchmark's peak RSS by 0.1-0.35 MB on
#: the workloads that write CSVs, and made no op faster.
BLOCK = 1024
TIE = 2.0**-40
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter
_INV_LN10 = 0.43429448190325176
#: table column of decimal exponent X
_X0 = 400
_GROUP_OFFSET = np.arange(0.0, 800.0, 100.0)[:, None]


def format_table(table: np.ndarray) -> str:
    """The rows of a (rows, columns) float64 table, each cell exactly
    ``"%.17g" % x``, cells joined by ``,`` and rows ended by ``\\n``."""
    rows = max(1, BLOCK // table.shape[1])
    return "".join([_block(table[k : k + rows]) for k in range(0, len(table), rows)])


def _word(data: bytes) -> int:
    return int.from_bytes(data.ljust(8, b"\0"), "little")


@functools.cache
def _tables() -> tuple:
    """The lookup tables, built at first use (about 60 kB).

    * ``scale[:, X + _X0]``: 2**q, then 5**q as its hi/lo pair and hi's
      Dekker halves, for q = 16 - X (q in 0..340);
    * ``point[:, X + _X0]``: the digit after which the point goes (99:
      none, the ``0.`` prefix holds it) and the length code of that prefix;
    * ``last``: by 100 g + v, the index of the last nonzero digit that
      two-digit group g holding v implies (0 if v is 0);
    * ``groups``: by v + 100 (4 k + p), v's two digits and point slots,
      keeping both digits (k = 0), the first (1) or none (2), with the
      point after the first (p = 1) or the second digit (2) or nowhere;
    * ``state``: each group's ``100 (4 k + p)``, by 18 keep + point;
    * ``lead``: the first word, by 100 sign + 20 prefix + 2 d0 + point;
    * ``tail``: the exponent word, by X + _X0.
    """
    span = range(_X0 + 17)
    scale = np.empty((5, len(span)))
    point = np.zeros((2, len(span)))
    tail = np.zeros(len(span), np.int64)
    for col in span:
        x = col - _X0
        q = min(max(16 - x, 0), 340)
        five = 5**q
        hi = float(five)
        c = _SPLIT * hi
        hh = c - (c - hi)
        scale[:, col] = (2.0**q, hi, float(five - int(hi)), hh, hi - hh)
        point[:, col] = (x, 0) if x >= 0 else ((99, -x) if x >= -4 else (0, 0))
        if x < -4:
            tail[col] = _word(b"e-%02d" % -x)
    last = np.array(
        [2 * g + 2 - (v % 10 == 0) if v else 0 for g in range(8) for v in range(100)], float
    )
    groups = np.zeros(1200, np.uint32)
    for k, p, v in itertools.product(range(3), range(4), range(100)):
        pair = bytes([48 + v // 10, 46, 48 + v % 10, 46])
        keep = (k < 2, p == 1, k < 1, p == 2)
        groups[100 * (4 * k + p) + v] = _word(bytes(c * m for c, m in zip(pair, keep)))
    g = np.arange(8.0)[:, None]
    keep, pt = np.repeat(np.arange(17.0), 18), np.tile(np.arange(18.0), 17)
    state = 100 * (4 * np.clip(2 * g + 2 - keep, 0, 2) + np.clip(pt - 2 * g, 0, 3))
    lead = np.zeros(200, np.int64)
    for sign, prefix, d0, dot in itertools.product(range(2), range(5), range(10), range(2)):
        zeros = b"0." + b"0" * (prefix - 1) if prefix else b""
        lead[100 * sign + 20 * prefix + 2 * d0 + dot] = _word(
            (b"-" if sign else b"\0") + zeros.ljust(5, b"\0") + bytes([48 + d0, 46 * dot])
        )
    return scale, point, last, groups, state, lead, tail


def _product(ax: np.ndarray, col: np.ndarray, scale: np.ndarray):
    """``ax * 2**q * 5**q`` as the double-double ``(h, l)``, q by ``col``."""
    two, hi, lo, hh, hl = scale.take(col, axis=1)
    a = ax * two
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    h = a * hi
    return h, ((ah * hh - h) + ah * hl + al * hh) + al * hl + a * lo


def _digits(x: np.ndarray, scale: np.ndarray):
    """Each cell's decimal exponent, first digit and 16 other digits, as
    eight two-digit groups (8, n), and whether the fallback spells it.
    A cell the fallback spells reads placeholder digits: those of 1.0 for
    ±0.0, nan, ±inf, subnormals and huge cells, and d0 0 or 10 for a cell
    next to a power of ten whose exponent guess misses."""
    lowest, above = 1e16, 1e17
    ax = np.abs(x)
    bad = ~((ax >= 2.2250738585072014e-308) & (ax < lowest))
    np.copyto(ax, 1.0, where=bad)
    expo = np.floor(np.log(ax) * _INV_LN10)
    col = (expo + _X0).astype(np.intp)
    h, l = _product(ax, col, scale)
    bad |= ((h - lowest) + l < 0.0) | ((h - above) + l >= 0.0)
    r = np.rint(l)
    bad |= np.abs(l - r) > 0.5 - TIE
    # N = h + r as a 1e8 + b, h an integer: every step is exact
    a = np.floor(h / 1e8)
    b = (h - a * 1e8) + r
    carry = np.floor(b / 1e8)
    a += carry
    b -= carry * 1e8
    bad |= a >= 1e9  # N carried to 1e17
    d0 = np.floor(a / 1e8)
    half = np.empty((2, len(x)))
    np.subtract(a, d0 * 1e8, out=half[0])
    half[1] = b
    quad = np.empty((2, 2, len(x)))
    np.floor(half / 1e4, out=quad[:, 0])
    np.subtract(half, quad[:, 0] * 1e4, out=quad[:, 1])
    quad = quad.reshape(4, -1)
    pairs = np.empty((4, 2, len(x)))
    np.floor(quad / 100.0, out=pairs[:, 0])
    np.subtract(quad, pairs[:, 0] * 100.0, out=pairs[:, 1])
    return expo, d0, pairs.reshape(8, -1), bad


def _block(block: np.ndarray) -> str:
    """The text of the rows of ``block``."""
    scale, point, last_of, groups, state, lead, tail = _tables()
    x = block.ravel()
    n = len(x)
    expo, d0, pairs, bad = _digits(x, scale)
    if bad.any():
        expo[bad] = 0.0
    col = (expo + _X0).astype(np.intp)
    pt, prefix = point.take(col, axis=1)
    buf = pairs + _GROUP_OFFSET
    index = buf.astype(np.intp)
    last = last_of.take(index, out=buf).max(axis=0)
    # the point follows digit pt only if a nonzero digit follows it
    pt += 99.0 * np.maximum(pt - last + 1.0, 0.0)
    keep = np.maximum(last, expo)
    state.take((keep * 18.0 + np.minimum(pt, 17.0)).astype(np.intp), axis=1, out=buf)
    buf += pairs
    np.copyto(index, buf, casting="unsafe")
    del buf, pairs
    slots = bytearray(48 * n)
    words = np.frombuffer(slots, np.int64).reshape(n, 6)
    words.view(np.uint32)[:, 2:10] = groups.take(index).T
    first = d0 * 2.0 + (1.0 - np.minimum(pt, 1.0)) + 20.0 * prefix
    np.add(first, 100.0, out=first, where=np.signbit(x))
    words[:, 0] = lead.take(first.astype(np.intp))
    words[:, 5] = tail.take(col)
    chars = words.view(np.uint8)
    seps = np.full(block.shape[1], ord(","), np.uint8)
    seps[-1] = ord("\n")
    chars.reshape(block.shape + (48,))[:, :, 45] = seps
    for k in np.flatnonzero(bad).tolist():
        chars[k, :40] = np.frombuffer((b"%.17g" % x[k]).ljust(40, b"\0"), np.uint8)
    return slots.translate(None, b"\0").decode("ascii")
