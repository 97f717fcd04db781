"""CSV trace rows spelled by numpy, a block at a time, byte for byte as
``trace._CSV_ROW`` ("%d" and five "%.17g") spells them.

For each float the kernel finds the 17 correctly rounded significant digits
as an integer from a double-double product with a power of ten
(``_round17``), certifies them against a proven error bound, and looks the
text up in tables of four-digit groups; every row becomes a NUL-padded line
of a uint8 matrix, and one ``bytes.translate`` drops the padding.  A row
holding a value the kernel cannot certify is written by the template.

``ProbabilityTrace.to_csv`` imports this module on its first block of
``trace._CROSSOVER`` rows or more, so that importing the package or writing
a short trace neither compiles nor runs it.
"""

from __future__ import annotations

import functools

import numpy as np

from .trace import _CSV_ROW

_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter of a 53-bit significand
_LOW, _HIGH = 1e-280, 1e280  # the magnitudes _round17 certifies
_E_MIN, _E_MAX = -282, 282  # the decimal exponents the tables cover
_MARGIN = 2.0**-37  # 1024 times _round17's error bound, 2**-47
_TEN4, _TEN8, _TEN16, _TEN17 = (np.int64(10**k) for k in (4, 8, 16, 17))
_ONE, _TEN, _QUAD = np.int64(1), np.int64(10), np.int64(10_000)
_NUL, _DOT, _MINUS, _NEWLINE = (np.uint8(ord(c)) for c in "\0.-\n")
_ZERO_FIELD = np.frombuffer(b",0", np.uint8)  # a column of +0.0 entries
_GROUP_START = np.arange(1, 17, 4, dtype=np.int64)[:, None]  # of each group after d0


@functools.cache
def _tables() -> dict[str, np.ndarray]:
    """The kernel's lookup tables, built on first use.

    - ``powers`` (4, E): for each decimal exponent e of [_E_MIN, _E_MAX],
      P = 10**(16 - e) as P_hi, the two Veltkamp halves of P_hi, and P_lo.
      P_hi is P and P_lo is P - P_hi, each rounded once to the nearest
      double by Python's correctly rounded int / int division, so
      |P_lo| <= 2**-53 |P_hi| and |P - P_hi - P_lo| <= 2**-53 |P_lo|.
    - ``quads`` (5 * 10**4,): the four ASCII digits of 0000..9999 as one
      uint32 each, in five copies that keep the first 0..4 of them and pad
      the rest with NUL; ``zeros4``: the trailing zeros of 0000..9999.
    - ``head`` (20,): the first digit d as the bytes NUL, NUL, d, then NUL
      (entries 0..9) or '.' (entries 10..19).
    - ``prefix`` (by e, then sign) and ``suffix`` (by e): eight NUL-padded
      bytes before and after the digits, as "%.17g" spells them: the
      comma, "-", "0." to "0.000" for e in -4..-1, and "e-05" or "e+100"
      outside -4..16.
    - ``pow10``: 10**1 .. 10**19 as uint64, to count a time's digits.
    """
    exponents = range(_E_MIN, _E_MAX + 1)
    halves = []
    for e in exponents:
        num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        hi = num / den
        hi_num, hi_den = hi.as_integer_ratio()
        halves.append((hi, (num * hi_den - hi_num * den) / (den * hi_den)))
    hi, lo = np.array(halves, np.float64).T
    big = hi * _SPLIT
    hi_hi = big - (big - hi)

    def packed(texts, width: int, dtype) -> np.ndarray:
        return np.frombuffer(b"".join(t.encode().ljust(width, b"\0") for t in texts), dtype)

    quads = np.arange(10_000, dtype=np.int64)[:, None]
    scales = np.array([1000, 100, 10, 1], np.int64)
    digits = (quads // scales % _TEN).astype(np.uint8) + np.uint8(ord("0"))
    kept = np.where(np.arange(4) < np.arange(5)[:, None, None], digits, _NUL)
    tables = {
        "powers": np.stack([hi, hi_hi, hi - hi_hi, lo]),
        "quads": kept.view(np.uint32).ravel(),
        "zeros4": (quads % (_TEN * scales) == 0).sum(1, dtype=np.int8),
        "head": packed((f"\0\0{d}{point}" for point in ("", ".") for d in range(10)), 4, np.uint32),
        "prefix": packed(("," + sign + ("0." + "0" * (-e - 1) if -4 <= e < 0 else "")
                          for e in exponents for sign in ("", "-")), 8, np.uint64),
        "suffix": packed(("" if -4 <= e <= 16 else "e%+03d" % e for e in exponents), 8, np.uint64),
        "pow10": np.array([10**k for k in range(1, 20)], np.uint64),
    }
    for table in tables.values():  # shared by every call
        table.flags.writeable = False
    return tables


def _round17(ax: np.ndarray, e: np.ndarray, powers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """round(ax * 10**(16 - e)) as int64, and where that rounding is certain.

    ``ax`` is positive and within [_LOW, _HIGH], and ``e`` is within one of
    floor(log10(ax)) (or of that plus one), so V = ax * P, P = 10**(16 - e),
    lies in [1e15, 1e18) and P_hi <= 1e298.

    - Veltkamp's split (c = (2**27 + 1) a, a_hi = c - (c - a), a_lo = a -
      a_hi) writes each of ax and P_hi exactly as two halves of at most 26
      significant bits, since (2**27 + 1) * 1e298 does not overflow.
    - Dekker's two-product then gives h = fl(ax * P_hi) and its exact
      remainder r = ax * P_hi - h: the four half products are exact, and
      none underflows, as each is a multiple of ulp(ax) ulp(P_hi) >=
      2**-106 ax P_hi > 1e-17.
    - So V = h + r + ax P_lo + ax (P - P_hi - P_lo), and s = fl(r +
      fl(ax P_lo)) is kept.  Where the result is accepted V < 1e17 + 1/2 <
      2**57, so h is a whole number (V > 2**53), |r| <= ulp(h) / 2 <= 8 and
      |ax P_lo| <= 2**-53 * 2**57 = 16; the rounding of ax P_lo, the term
      ax (P - P_hi - P_lo) and the rounding of the sum (below 24) are each
      at most 2**-49, so |V - (h + s)| <= 3 * 2**-49 < 2**-47.
    - round(V) is h + rint(s) wherever s lies more than _MARGIN (1024 times
      that bound) from a half-integer, the only place where the error could
      change the rounding; the rest, exact ties among them, is uncertain.
    """
    index = e - _E_MIN
    p_hi, p_hi_hi, p_hi_lo, p_lo = (row.take(index) for row in powers)
    h = ax * p_hi
    big = ax * _SPLIT
    ax_hi = big - (big - ax)
    ax_lo = ax - ax_hi
    r = ((ax_hi * p_hi_hi - h) + ax_hi * p_hi_lo + ax_lo * p_hi_hi) + ax_lo * p_hi_lo
    s = r + ax * p_lo
    whole = np.rint(s)
    return h.astype(np.int64) + whole.astype(np.int64), np.abs(s - whole) < 0.5 - _MARGIN


def _significand(ax: np.ndarray, powers: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17 significant digits of each positive ``ax`` that "%.17g" writes,
    as an int64 in [1e16, 1e17), their decimal exponent e (the value is
    digits * 10**(e - 16)), and where both are certain.

    e is the least exponent whose rounding stays below 1e17: floor(log10)
    unless the rounding carries into a new digit.  np.log10's guess is
    moved by one while the digits fall outside [1e16, 1e17); digits of
    exactly 1e16 may still belong to e - 1, which is tried once.  Any
    uncertain rounding along the way makes the result uncertain.
    """
    e = np.floor(np.log10(ax)).astype(np.int64)
    digits, certain = _round17(ax, e, powers)
    for _ in range(3):
        up, down = digits >= _TEN17, digits < _TEN16
        redo = np.flatnonzero(up | down)
        if not len(redo):
            break
        e[redo] += up[redo].astype(np.int64) - down[redo].astype(np.int64)
        digits[redo], sure = _round17(ax[redo], e[redo], powers)
        certain[redo] &= sure
    edge = np.flatnonzero(digits == _TEN16)
    if len(edge):
        below, sure = _round17(ax[edge], e[edge] - _ONE, powers)
        certain[edge] &= sure
        lower = below < _TEN17
        e[edge[lower]] -= _ONE
        digits[edge[lower]] = below[lower]
    certain &= (digits >= _TEN16) & (digits < _TEN17)
    return digits, e, certain


def _float_fields(x: np.ndarray, tables: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(len(x), 36) uint8: a comma and each value as "%.17g" spells it,
    NUL-padded, and where that spelling is certain: zeros always are, other
    values where _significand certifies them, and nan, inf and magnitudes
    outside [_LOW, _HIGH] never.

    The 36 bytes are the prefix (8), the first digit with a point slot after
    it (4), four groups of four digits (16) and the suffix (8).  A point
    after a later digit (e from 1 to 15, with a fraction) moves the digits
    before it one place left, into the slot.
    """
    ax = np.abs(x)
    zero = ax == 0.0
    guarded = (ax >= _LOW) & (ax <= _HIGH)
    # 2.0 stands in for the rest: its digits, 2e16 at e = 0, need no retry
    digits, e, certain = _significand(np.where(guarded, ax, 2.0), tables["powers"])
    certain &= guarded
    certain |= zero
    digits[zero] = 0  # spelled "0" at e = 0
    top = digits // _TEN8  # the first nine digits
    low = digits - top * _TEN8
    groups = np.stack([top // _TEN4 % _TEN4, top % _TEN4, low // _TEN4, low % _TEN4])
    tails = tables["zeros4"].take(groups)
    zeros = tails[0]  # trailing zeros of the 16 digits after the first
    for tail in tails[1:]:
        zeros = tail + np.where(tail == np.int8(4), zeros, np.int8(0))
    fixed = (e >= -4) & (e <= 16)
    whole = np.where(fixed, e + _ONE, _ONE)  # digits before the point; <= 0 for 0.000ddd
    keep = np.maximum(np.subtract(np.int64(17), zeros, dtype=np.int64), whole)  # digits written
    quads = np.clip(keep - _GROUP_START, 0, 4)  # digits kept of each group
    quads *= _QUAD
    quads += groups  # the groups' entries in tables["quads"]
    point = np.where((whole == _ONE) & (keep > _ONE), _TEN, np.int64(0))  # after d0
    prefix = tables["prefix"].take(2 * (e - _E_MIN) + np.signbit(x))
    fields = np.empty((len(x), 9), np.uint32)
    fields[:, :2] = prefix.view(np.uint32).reshape(-1, 2)
    fields[:, 2] = tables["head"].take(top // _TEN8 + point)
    fields[:, 3:7] = tables["quads"].take(quads).T
    fields[:, 7:] = tables["suffix"].take(e - _E_MIN).view(np.uint32).reshape(-1, 2)
    inner = np.flatnonzero((whole > _ONE) & (keep > whole))
    if len(inner):
        _move_point(fields, inner, whole[inner])
    return fields.view(np.uint8), certain


def _move_point(fields: np.ndarray, rows: np.ndarray, whole: np.ndarray) -> None:
    """Put the point of ``fields[rows]`` after digit ``whole`` (2 to 16)."""
    text = fields[rows, 2:7].view(np.uint8)  # NUL, NUL, d0, NUL, d1 .. d16
    digits = np.concatenate([text[:, 2:3], text[:, 4:]], 1)
    moved = np.zeros_like(text)
    moved[:, 2:19] = digits
    np.copyto(moved[:, 3:], digits, where=np.arange(17) >= whole[:, None])
    moved[np.arange(len(rows)), 2 + whole] = _DOT
    fields[rows, 2:7] = moved.view(np.uint32)


def _time_field(times: np.ndarray, tables: dict[str, np.ndarray]) -> np.ndarray:
    """(len(times), 1 + 4k) uint8: each int64 time in decimal, NUL-padded on
    the left, in the fewest 4-digit groups k that hold them all."""
    negative = times < 0
    magnitude = times.astype(np.uint64)  # -2**63 to 2**63, two's complement
    magnitude = np.where(negative, ~magnitude + np.uint64(1), magnitude)
    digits = np.searchsorted(tables["pow10"], magnitude, side="right") + 1
    width = 4 * ((int(digits.max()) + 3) // 4)
    groups = np.stack([magnitude // np.uint64(10**k) % np.uint64(10_000)
                       for k in range(width - 4, -1, -4)], 1).astype(np.int64)
    text = tables["quads"].take(groups + 4 * _QUAD).view(np.uint8)
    field = np.empty((len(times), width + 1), np.uint8)
    field[:, 0] = np.where(negative, _MINUS, _NUL)
    field[:, 1:] = np.where(np.arange(width) >= width - digits[:, None], text, _NUL)
    return field


def csv_rows(block: list[np.ndarray]) -> str:
    """The CSV rows of ``block`` (at least one row: the int64 times, then
    five float64 columns), byte for byte as ``_CSV_ROW`` writes them.

    A column of +0.0 entries (the imaginary parts of a real walk) is ",0"
    in every row.  A row with a value the kernel cannot certify (see
    ``_float_fields``) is written by ``_CSV_ROW`` in its place.
    """
    rows = len(block[0])
    tables = _tables()
    times, *floats = block
    live = [j for j, col in enumerate(floats) if col.view(np.int64).any()]
    parts = [_time_field(times, tables)]
    certain = np.ones(rows, bool)
    if live:
        fields, sure = _float_fields(np.stack([floats[j] for j in live], 1).ravel(), tables)
        fields = fields.reshape(rows, len(live), -1)
        certain = sure.reshape(rows, len(live)).all(1)
    for j in range(len(floats)):
        parts.append(fields[:, live.index(j)] if j in live
                     else np.broadcast_to(_ZERO_FIELD, (rows, len(_ZERO_FIELD))))
    parts.append(np.broadcast_to(_NEWLINE, (rows, 1)))
    lines = np.concatenate(parts, 1)
    fallback = np.flatnonzero(~certain)
    lines[fallback] = _NUL
    text = lines.tobytes().translate(None, b"\0").decode("ascii")
    if not len(fallback):
        return text
    ends = np.cumsum(np.count_nonzero(lines, 1))[fallback].tolist()
    pieces, start = [], 0
    for end, row in zip(ends, zip(*(col[fallback].tolist() for col in block))):
        pieces += [text[start:end], _CSV_ROW % row]
        start = end
    pieces.append(text[start:])
    return "".join(pieces)
