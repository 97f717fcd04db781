"""Trace text spelled by numpy, a block at a time: CSV rows byte for byte
as ``trace._CSV_ROW`` ("%d" and five "%.17g") spells them, and the items of
a JSON float column byte for byte as ``trace._JSON_ITEMS`` (``repr``) does.

For each float the kernel finds the 17 correctly rounded significant digits
as an integer from a double-double product with a power of ten
(``_round17``), certifies them against a proven error bound, and looks the
text up in tables of four-digit groups; every value becomes a NUL-padded
line of a uint8 matrix, and one ``bytes.translate`` drops the padding.  For
JSON, ``_shortest`` first cuts the 17 digits to the fewest that read back
as the same float, as ``repr`` does.  A value the kernel cannot certify is
spelled by the template or the encoder it stands in for.

``ProbabilityTrace.to_csv`` imports this module on its first block of
``trace._CROSSOVER`` rows or more, and ``to_json`` on its first float block
of ``trace._JSON_CROSSOVER`` values or more, so that importing the package
or writing a short trace neither compiles nor runs it.
"""

from __future__ import annotations

import functools

import numpy as np

from .trace import _CSV_ROW, _JSON_ITEMS, _JSON_SEPARATOR

_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter of a 53-bit significand
_LOW, _HIGH = 1e-280, 1e280  # the magnitudes _round17 certifies
_E_MIN, _E_MAX = -282, 282  # the decimal exponents the tables cover
_MARGIN = 2.0**-37  # 1024 times _round17's error bound, 2**-47
_TEN4, _TEN8, _TEN16, _TEN17 = (np.int64(10**k) for k in (4, 8, 16, 17))
_ONE, _TEN, _HUNDRED, _QUAD = (np.int64(10**k) for k in (0, 1, 2, 4))
_NUL, _DOT, _MINUS, _NEWLINE = (np.uint8(ord(c)) for c in "\0.-\n")
_ZERO_FIELD = np.frombuffer(b",0", np.uint8)  # a column of +0.0 entries
_MANTISSA = np.int64(2**52 - 1)  # the fraction bits of a float64
_EXPONENT = np.int64(0x7FF << 52)  # and its exponent bits
_HALF_ULP = np.int64(53 << 52)  # 53 in the exponent bits: a float64's half ulp is 2**-53 of it
# by spelling: the separator before each value, the last exponent written
# positionally, and what follows an integral positional value
_STYLES = {"csv": (",", 16, ""), "json": (_JSON_SEPARATOR, 15, ".0")}
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
    - ``csv_prefix`` (by e, then sign) and ``csv_suffix`` (by e, then
      whether a positional value is integral): the bytes before and after
      the digits as "%.17g" spells them, NUL-padded to 8: the comma, "-",
      "0." to "0.000" for e in -4..-1, and "e-05" or "e+100" outside
      -4..16.  ``json_prefix`` and ``json_suffix`` are the same as ``repr``
      spells a JSON item: ",\n   " in place of the comma (12 bytes), an
      exponent outside -4..15, and ".0" after an integral positional value.
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
        "pow10": np.array([10**k for k in range(1, 20)], np.uint64),
    }
    for style, (separator, last, point) in _STYLES.items():
        width = 4 * ((len(separator) + 9) // 4)  # the separator, "-0.000", whole words
        tables[f"{style}_prefix"] = packed(
            (separator + sign + ("0." + "0" * (-e - 1) if -4 <= e < 0 else "")
             for e in exponents for sign in ("", "-")), width, f"V{width}")
        tables[f"{style}_suffix"] = packed(
            ("e%+03d" % e if not -4 <= e <= last else point if integral else ""
             for e in exponents for integral in (False, True)), 8, "V8")
    for table in tables.values():  # shared by every call
        table.flags.writeable = False
    return tables


def _round17(ax: np.ndarray, e: np.ndarray,
             powers: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """round(ax * 10**(16 - e)) as int64, where that rounding is certain, and
    the residual f: V = ax * 10**(16 - e) is the rounding plus f, to within
    2**-47.

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
      The residual s - rint(s) is exact, as both lie within 16 of each other.
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
    s -= whole
    return h.astype(np.int64) + whole.astype(np.int64), np.abs(s) < 0.5 - _MARGIN, s


def _significand(ax: np.ndarray, powers: np.ndarray) -> tuple[np.ndarray, ...]:
    """The 17 significant digits of each positive ``ax`` that "%.17g" writes,
    as an int64 in [1e16, 1e17), their decimal exponent e (the value is
    digits * 10**(e - 16)), where both are certain, and ``_round17``'s
    residual of the digits.

    e is the least exponent whose rounding stays below 1e17: floor(log10)
    unless the rounding carries into a new digit.  np.log10's guess is
    moved by one while the digits fall outside [1e16, 1e17); digits of
    exactly 1e16 may still belong to e - 1, which is tried once.  Any
    uncertain rounding along the way makes the result uncertain.
    """
    e = np.floor(np.log10(ax)).astype(np.int64)
    digits, certain, residual = _round17(ax, e, powers)
    for _ in range(3):
        up, down = digits >= _TEN17, digits < _TEN16
        redo = np.flatnonzero(up | down)
        if not len(redo):
            break
        e[redo] += up[redo].astype(np.int64) - down[redo].astype(np.int64)
        digits[redo], sure, residual[redo] = _round17(ax[redo], e[redo], powers)
        certain[redo] &= sure
    edge = np.flatnonzero(digits == _TEN16)
    if len(edge):
        below, sure, rest = _round17(ax[edge], e[edge] - _ONE, powers)
        certain[edge] &= sure
        lower = below < _TEN17
        e[edge[lower]] -= _ONE
        digits[edge[lower]] = below[lower]
        residual[edge[lower]] = rest[lower]
    certain &= (digits >= _TEN16) & (digits < _TEN17)
    return digits, e, certain, residual


def _shortest(ax: np.ndarray, digits: np.ndarray, e: np.ndarray, residual: np.ndarray,
              powers: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The digits ``repr`` writes for each ``ax`` of ``_significand``'s
    certain ``digits`` D, ``e`` and ``residual`` f: the fewest that read
    back as ax, and of those the nearest, laid out as D is (k digits C as
    C * 10**(17 - k), and e up one where C carries to 10**k); and where
    they are certain.

    In units of D's last digit, V = ax * 10**(16 - e) = D + f, and H is
    half the gap between ax and its neighbours.  The nearest k-digit
    decimal is the multiple of M = 10**(17 - k) nearest V, and it reads
    back as ax where it lies within H of V, as every decimal in that open
    or closed interval does; so k digits suffice where the nearest do, and
    where k - 1 do.  H lies between 2**-54 V > 1/2 (so D itself reads back)
    and 2**-53 V < 12, below M / 2 for every M >= 100.  So for k <= 15 the
    only candidate is the multiple of 100 nearest V, B = D - (D mod 100) or
    B + 100, and it serves every k down to the one where it stops being a
    multiple of M: where it lies within H, repr writes it with its trailing
    zeros dropped; else the multiple of 10 nearest V, where that lies within
    H; else D.  The distances come from D's last two digits and f, exact to
    2**-46; each is taken where it lies more than _MARGIN from H, and the
    choice between two multiples of 10 where V lies more than _MARGIN from
    halfway.  The rest is uncertain, and so is an exact power of two, whose
    gap below is half the one above.
    """
    bits = ax.view(np.int64)
    # half an ulp is the float64 of ax's exponent less 53, with no fraction
    gap = ((bits & _EXPONENT) - _HALF_ULP).view(np.float64) * powers[0].take(e - _E_MIN)
    base = digits // _HUNDRED
    base *= _HUNDRED
    last2 = (digits - base).astype(np.float64)  # D mod 100
    tens = np.floor(last2 * 0.1) * 10.0  # exact: 0.1 rounds up, by less than 1e-18
    last1 = last2 - tens  # D mod 10
    v100, v10 = last2 + residual, last1 + residual  # V less D rounded down to 100, to 10
    miss100 = np.minimum(np.abs(v100), 100.0 - v100)
    miss10 = np.minimum(np.abs(v10), 10.0 - v10)
    fits100, fits10 = miss100 < gap, miss10 < gap
    certain = (bits & _MANTISSA) != 0
    certain &= np.abs(miss100 - gap) > _MARGIN
    certain &= np.abs(miss10 - gap) > _MARGIN
    certain &= ~fits10 | (np.abs(v10 - 5.0) > _MARGIN)
    step = np.where(fits10, tens + np.where(v10 > 5.0, 10.0, 0.0), last2)
    step[fits100] = np.where(v100[fits100] > 50.0, 100.0, 0.0)
    out = base + step.astype(np.int64)
    carry = out == _TEN17
    out[carry] = _TEN16
    return out, e + carry, certain


def _float_fields(x: np.ndarray, tables: dict[str, np.ndarray],
                  style: str = "csv") -> tuple[np.ndarray, np.ndarray]:
    """(len(x), W) uint8: each value after its separator, NUL-padded, as
    "%.17g" (style "csv") or ``repr`` (style "json") spells it, and where
    that spelling is certain: zeros always are, other values where
    _significand (and for JSON _shortest) certifies them, and nan, inf and
    magnitudes outside [_LOW, _HIGH] never.

    The W bytes are the prefix (8 or 12), the first digit with a point slot
    after it (4), four groups of four digits (16) and the suffix (8).  A
    point after a later digit (e from 1 to 15, with a fraction) moves the
    digits before it one place left, into the slot.
    """
    last = _STYLES[style][1]
    prefix = tables[style + "_prefix"]
    ax = np.abs(x)
    zero = ax == 0.0
    guarded = (ax >= _LOW) & (ax <= _HIGH)
    # 2.0 stands in for the rest: its digits, 2e16 at e = 0, need no retry
    ax = np.where(guarded, ax, 2.0)
    digits, e, certain, residual = _significand(ax, tables["powers"])
    if style == "json":
        digits, e, sure = _shortest(ax, digits, e, residual, tables["powers"])
        certain &= sure
    certain &= guarded
    certain |= zero
    digits[zero] = 0  # spelled "0" at e = 0
    top = digits // _TEN8  # the first nine digits
    low = digits - top * _TEN8
    first, top4, low4 = top // _TEN8, top // _TEN4, low // _TEN4  # ("%" is slower)
    groups = np.stack([top4 - first * _TEN4, top - top4 * _TEN4, low4, low - low4 * _TEN4])
    tails = tables["zeros4"].take(groups)
    zeros = tails[0]  # trailing zeros of the 16 digits after the first
    for tail in tails[1:]:
        zeros = tail + np.where(tail == np.int8(4), zeros, np.int8(0))
    fixed = (e >= -4) & (e <= last)
    whole = np.where(fixed, e + _ONE, _ONE)  # digits before the point; <= 0 for 0.000ddd
    keep = np.maximum(np.subtract(np.int64(17), zeros, dtype=np.int64), whole)  # digits written
    quads = np.clip(keep - _GROUP_START, 0, 4)  # digits kept of each group
    quads *= _QUAD
    quads += groups  # the groups' entries in tables["quads"]
    point = np.where((whole == _ONE) & (keep > _ONE), _TEN, np.int64(0))  # after d0
    index = 2 * (e - _E_MIN)
    fields = np.empty(len(x), [("prefix", prefix.dtype), ("digits", np.uint32, 5),
                               ("suffix", "V8")])
    fields["prefix"] = prefix.take(index + np.signbit(x))
    text = fields["digits"]
    text[:, 0] = tables["head"].take(first + point)
    text[:, 1:] = tables["quads"].take(quads).T
    fields["suffix"] = tables[style + "_suffix"].take(index + (fixed & (keep == whole)))
    inner = np.flatnonzero((whole > _ONE) & (keep > whole))
    if len(inner):
        _move_point(text, inner, whole[inner])
    return fields.view(np.uint8).reshape(len(x), -1), certain


def _move_point(digits: np.ndarray, rows: np.ndarray, whole: np.ndarray) -> None:
    """Put the point of ``digits[rows]`` (the head and the four groups of
    ``_float_fields``) after digit ``whole`` (2 to 16)."""
    text = digits[rows].view(np.uint8)  # NUL, NUL, d0, NUL, d1 .. d16
    shifted = np.concatenate([text[:, 2:3], text[:, 4:]], 1)
    moved = np.zeros_like(text)
    moved[:, 2:19] = shifted
    np.copyto(moved[:, 3:], shifted, where=np.arange(17) >= whole[:, None])
    moved[np.arange(len(rows)), 2 + whole] = _DOT
    digits[rows] = moved.view(np.uint32)


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
    fallback = np.flatnonzero(~certain)
    return _joined(np.concatenate(parts, 1), fallback, map(
        _CSV_ROW.__mod__, zip(*(col[fallback].tolist() for col in block))))


def json_items(col: np.ndarray) -> str:
    """The items of the float64 column ``col`` (at least one value), each
    after the separator ",\n   ", byte for byte as ``_JSON_ITEMS`` spells
    them in the layout of json.dump(..., indent=1): ``repr``, or NaN,
    Infinity and -Infinity.

    A column of +0.0 entries is "0.0" throughout.  A value the kernel
    cannot certify (see ``_float_fields``) is spelled by ``_JSON_ITEMS``.
    """
    if not col.view(np.int64).any():
        return (_JSON_SEPARATOR + "0.0") * len(col)
    fields, certain = _float_fields(col, _tables(), "json")
    fallback = np.flatnonzero(~certain)
    return _joined(fields, fallback,
                   (_JSON_SEPARATOR + _JSON_ITEMS.encode(x) for x in col[fallback].tolist()))


def _joined(lines: np.ndarray, fallback: np.ndarray, spelled) -> str:
    """The text of the NUL-padded uint8 ``lines``, each of ``fallback``'s
    lines replaced by the next text of ``spelled``."""
    lines[fallback] = _NUL
    text = lines.tobytes().translate(None, b"\0").decode("ascii")
    if not len(fallback):
        return text
    ends = np.cumsum(np.count_nonzero(lines, 1))[fallback].tolist()
    pieces, start = [], 0
    for end, piece in zip(ends, spelled):
        pieces += [text[start:end], piece]
        start = end
    pieces.append(text[start:])
    return "".join(pieces)
