import io
import json
import math
import re
import struct
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import trace_reference

import starclique as sc
from starclique import json_columns
from starclique.modes import MODES
from starclique.csv_rows import _float_fields, _tables, csv_rows, json_items
from starclique.trace import (
    _BLOCK, _CROSSOVER, _JSON_CROSSOVER, COLUMNS, ProbabilityTrace, trace_metadata,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # the property test below needs the test extra
    given = None


def _awkward_trace() -> ProbabilityTrace:
    # values chosen to stress shortest-representation round-tripping
    times = np.arange(4, dtype=np.int64)
    p = np.array([1 / 3, 0.1, 5e-324, 1.0 - 1e-16])
    clique = np.array([0.1 + 0.2j, -1 / 7 + 0j, 1e-300 - 1e-17j, 0.0j])
    star = np.array([0.0j, 0.3 - 0.4j, complex(-0.0, 0.0), 1e-15 + 1j * (1 / 9)])
    meta = {"n": "100", "m": "10", "alpha": "0.5", "mode": "collapsed"}
    return ProbabilityTrace(
        times=times, p_hub=p, psi_clique_in=clique, psi_star_in=star, metadata=meta
    )


_SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 5e-324]


def _pair(re, im) -> np.ndarray:
    # re + 1j * im would turn an infinite part into a NaN one
    out = np.asarray(re, dtype=np.float64).astype(np.complex128)
    out.imag = im
    return out


def _with_special_amplitudes(trace: ProbabilityTrace) -> ProbabilityTrace:
    # amplitudes no walk produces, still written and read like any float
    special = np.array(_SPECIAL)
    return ProbabilityTrace(
        times=np.arange(len(trace) + len(special), dtype=np.int64),
        p_hub=np.concatenate([trace.p_hub, np.full(len(special), 0.25)]),
        psi_clique_in=np.concatenate([trace.psi_clique_in, _pair(special, special[::-1])]),
        psi_star_in=np.concatenate([trace.psi_star_in, _pair(special[::-1], special)]),
        metadata=trace.metadata,
    )


def _random_trace(rows: int) -> ProbabilityTrace:
    rng = np.random.default_rng(rows)
    amplitudes = rng.standard_normal((4, rows)) * 10.0 ** rng.integers(-300, 3, (4, rows))
    amplitudes[:, :5] = _SPECIAL[:rows]
    return ProbabilityTrace(
        times=np.arange(rows, dtype=np.int64) + 7,
        p_hub=rng.random(rows),
        psi_clique_in=_pair(amplitudes[0], amplitudes[1]),
        psi_star_in=_pair(amplitudes[2], amplitudes[3]),
        metadata={"n": "100", "m": "10", "mode": "collapsed"},
    )


def _assert_same_trace(parsed: ProbabilityTrace, trace: ProbabilityTrace) -> None:
    # bit for bit, so a -0.0 must survive; every NaN here is the plain one
    for name in ("times", "p_hub", "psi_clique_in", "psi_star_in"):
        got, want = getattr(parsed, name), getattr(trace, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert parsed.metadata == trace.metadata


@pytest.mark.parametrize(
    "trace",
    [
        _with_special_amplitudes(_awkward_trace()),
        _random_trace(0),
        ProbabilityTrace(
            times=np.arange(2, dtype=np.int64),
            p_hub=np.array([0.0, 1.0]),
            psi_clique_in=np.array([1.0 + 0j, 0.5j]),
            psi_star_in=np.zeros(2, dtype=np.complex128),
            metadata={"note": "a=b=c", "label": "Szegedy–Grover ψ, α = ½", "": "x=y"},
        ),
    ],
    ids=["special-values", "no-rows", "metadata-text"],
)
def test_writers_match_row_at_a_time_reference(trace):
    for write, reference in (
        (trace.to_csv, trace_reference.to_csv),
        (trace.to_json, trace_reference.to_json),
    ):
        got, want = io.StringIO(), io.StringIO()
        write(got)
        reference(trace, want)
        assert got.getvalue() == want.getvalue()


def _walk_trace(rows: int) -> ProbabilityTrace:
    # a real walk: both imaginary columns are +0.0 throughout
    return sc.hub_trace("collapsed", 1000, 31, rows - 1, sc.LeafPhase.REVERSAL)


_EDGES = [0, 1, _CROSSOVER - 1, _CROSSOVER, _BLOCK - 1, _BLOCK, _BLOCK + 1,
          _BLOCK + _CROSSOVER - 1, _BLOCK + _CROSSOVER]


@pytest.mark.parametrize("rows", _EDGES)
@pytest.mark.parametrize("build", [_random_trace, _walk_trace], ids=["random", "walk"])
def test_csv_writer_matches_reference_at_block_edges(rows, build):
    # below _CROSSOVER rows a block goes through the "%" template, from it on
    # through the numpy kernel; each block is written on its own
    trace = build(rows) if rows else _random_trace(0)
    got, want = io.StringIO(), io.StringIO()
    trace.to_csv(got)
    trace_reference.to_csv(trace, want)
    assert got.getvalue() == want.getvalue()


def test_the_kernel_module_loads_only_for_a_long_block():
    # a fresh interpreter per writer: importing the CLI and writing a trace
    # shorter than the writer's crossover never compiles or imports csv_rows;
    # a longer one does
    for writer, crossover in (("to_csv", _CROSSOVER), ("to_json", _JSON_CROSSOVER)):
        code = (
            f"import io, sys; sys.path.insert(0, {str(Path(sc.__file__).parents[1])!r}); "
            "import starclique as sc, starclique.cli; "
            "print('starclique.csv_rows' in sys.modules); "
            "write = lambda rows: sc.hub_trace('closed', 100, 10, rows - 1, "
            f"sc.LeafPhase.REVERSAL).{writer}(io.StringIO()); "
            f"write({crossover - 1}); print('starclique.csv_rows' in sys.modules); "
            f"write({crossover}); print('starclique.csv_rows' in sys.modules)"
        )
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             timeout=60)
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == ["False", "False", "True"], writer


def _kernel_text(values, times=None) -> str:
    """What the kernel writes for a block of at least _CROSSOVER rows that
    holds every one of ``values`` in every float column, checked against
    the reference spelling."""
    values = np.asarray(values, np.float64)
    rows = max(len(values), _CROSSOVER)
    floats = [np.resize(np.roll(values, 7 * j), rows) for j in range(5)]
    if times is None:
        times = np.arange(rows)
    block = [np.resize(np.asarray(times, np.int64), rows), *floats]
    want = "".join(trace_reference.csv_row(*row) for row in zip(*block))
    got = csv_rows(block)
    assert got == want
    return got


def test_csv_kernel_hands_17_digit_ties_to_the_template():
    # k / 4 for odd k in [4e15, 9e15) is exact, and ten times it ends in .5:
    # "%.17g" rounds such a tie to the even digit
    rng = np.random.default_rng(31)
    k = 2 * rng.integers(2 * 10**15, 45 * 10**14, 2000) + 1
    ties = np.concatenate([k / 4, -k / 4, [1000000000000000.25, 1000000000000000.75]])
    text = _kernel_text(ties)
    assert ",1000000000000000.2," in text and ",1000000000000000.8," in text


def _near_ties(count: int) -> list[float]:
    """Doubles x below 1e-3 whose x * 10**(16 - e), e = floor(log10(x)),
    lies within 2**-48 of a half-integer but not on it.

    x = m / 2**(K + p) with p = 16 - e; the fraction of x * 10**p is then
    (m * 5**p mod 2**K) / 2**K, so m is solved for a fraction 1/2 + d / 2**K.
    """
    found = []
    for p in range(20, 60):
        for bits in range(round(2.32 * p) - 2, round(2.32 * p) + 1):
            inverse = pow(5**p, -1, 2**bits)
            for d in (d for step in range(1, 2**13) for d in (step, -step)):
                m = (2 ** (bits - 1) + d) * inverse % 2**bits
                if not 2**52 <= m < 2**53:
                    continue
                whole, rest = divmod(m * 10**p, 2 ** (bits + p))
                off = abs(2 * rest - 2 ** (bits + p)) / 2 ** (bits + p + 1)
                if 10**16 <= whole < 10**17 and 0 < off < 2**-48:
                    found.append(math.ldexp(m, -(bits + p)))
                    if len(found) == count:
                        return found
    return found


def test_csv_kernel_hands_near_ties_to_the_template():
    # within 2**-48 of a tie, the kernel's error bound of 2**-47 could round
    # either way; certified blindly, some of these rows come out wrong
    near = _near_ties(150)
    assert len(near) == 150
    _kernel_text(near + [-x for x in near])


def _is_tie(x: float) -> bool:
    """Whether |x| lies exactly halfway between two 17-digit decimals."""
    exponent = int(("%.16e" % x).split("e")[1])
    num, den = abs(x).as_integer_ratio()
    if exponent <= 16:
        num *= 10 ** (16 - exponent)
    else:
        den *= 10 ** (exponent - 16)
    return (2 * num) % den == 0 and (2 * num // den) % 2 == 1


def _neighbours(x: float, steps: int = 3) -> list[float]:
    down, up, out = x, x, [x]
    for _ in range(steps):
        down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
        out += [float(down), float(up)]
    return out


def test_csv_kernel_carries_a_rounding_into_the_next_power_of_ten():
    # the doubles nearest 1e-243 or 1e-79 lie below them, yet round to
    # 17 digits as 1 followed by zeros, one exponent up
    values = []
    for k in range(-300, 301):
        values += _neighbours(float(f"1e{k}"))
        values += [float(f"9.9999999999999999e{k - 1}"), float(f"9.99999999999999995e{k - 1}")]
    values = np.array(values)
    text = _kernel_text(np.concatenate([values, -values]))
    assert ",1e-243," in text and ",1e-79," in text
    for k in (243, 79):
        num, den = float(f"1e-{k}").as_integer_ratio()
        assert num * 10**k < den  # below 10**-k, exactly
    # np.log10 misjudges the exponent next to a power of ten; the kernel
    # corrects it rather than handing these to the template, all but the
    # exact 17-digit ties (999999999999999.875 and the like) and one value
    # that is a tie at log10's first guess of its exponent, 15
    inside = values[(values >= 1e-280) & (values <= 1e280)]
    ties = np.array([_is_tie(x) for x in inside.tolist()])
    handed_over = inside[~_float_fields(inside, _tables())[1] & ~ties]
    assert ties.any() and handed_over.tolist() == [999999999999999.75]


@pytest.mark.parametrize("edge", [1e-5, 1e-4, 1e16, 1e17, 1e280, 1e-280],
                         ids=["e-5", "e-4", "e16", "e17", "guard-high", "guard-low"])
def test_csv_kernel_at_exponent_switches_and_its_guard(edge):
    # %g switches between 0.000ddd, ddd.ddd and d.ddde+XX at these powers;
    # beyond 1e280 either way, values go to the template
    values = _neighbours(edge, 5) + _neighbours(edge * 1.5, 2) + _neighbours(edge * 9.99, 2)
    _kernel_text(values + [-v for v in values])


def test_csv_kernel_spells_subnormals_and_non_finite_values():
    specials = [5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1e-310,
                np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 0.25, -1.0]
    text = _kernel_text(specials)
    assert ",nan," in text and ",-inf," in text and ",-0," in text
    assert ",4.9406564584124654e-324," in text


def test_csv_kernel_writes_every_int64_time():
    times = [-2**63, -2**63 + 1, -10**18, -1, 0, 1, 9999, 10000, 10**18, 2**63 - 1]
    text = _kernel_text([0.5, -0.0], times)
    assert text.startswith("-9223372036854775808,")
    assert "\n9223372036854775807," in text


if given is not None:

    def _bits_to_float(bits: int) -> float:
        return struct.unpack("<d", struct.pack("<Q", bits))[0]

    @settings(max_examples=60, deadline=None, database=None)
    @given(rows=st.lists(st.tuples(
        st.integers(-2**63, 2**63 - 1),
        *[st.one_of(st.integers(0, 2**64 - 1).map(_bits_to_float), st.floats())] * 5,
    ), min_size=1, max_size=40))
    def test_csv_kernel_spells_any_float64_bit_pattern(rows):
        # each drawn row repeats to fill a kernel-sized block
        times, *floats = zip(*rows)
        block = [np.resize(np.array(col, dtype), _CROSSOVER)
                 for col, dtype in zip([times, *floats], [np.int64] + [np.float64] * 5)]
        want = "".join(trace_reference.csv_row(*row) for row in zip(*block))
        assert csv_rows(block) == want


def _json_kernel_text(values) -> str:
    """What the JSON kernel writes for a column of at least _JSON_CROSSOVER
    values that holds every one of ``values``, checked against ``repr`` (the
    C encoder's spelling) value by value, and the whole trace through
    ``to_json`` against ``trace_reference.to_json`` and read back bit-exact."""
    values = np.asarray(values, np.float64)
    col = np.resize(values, max(len(values), _JSON_CROSSOVER))
    got = json_items(col)
    assert got == "".join(",\n   " + json.dumps(x) for x in col.tolist())
    assert all(json.dumps(x) == repr(x) for x in col.tolist() if math.isfinite(x))
    trace = ProbabilityTrace(
        times=np.arange(len(col), dtype=np.int64) - 3,
        p_hub=np.full(len(col), 0.5),
        psi_clique_in=_pair(col, np.roll(col, 7)),
        psi_star_in=_pair(-col, np.zeros(len(col))),
        metadata={"mode": "collapsed"},
    )
    text, want = io.StringIO(), io.StringIO()
    trace.to_json(text)
    trace_reference.to_json(trace, want)
    assert text.getvalue() == want.getvalue()
    _assert_reads_back(text.getvalue(), trace)
    return got


def _assert_reads_back(text: str, trace: ProbabilityTrace) -> None:
    """``from_json`` reads ``text`` back as ``trace`` bit for bit, but for
    NaN: JSON has one, so every NaN reads back as np.nan."""
    def canonical(col):
        col = np.array(col, np.complex128)
        col.real[np.isnan(col.real)] = np.nan
        col.imag[np.isnan(col.imag)] = np.nan
        return col

    want = ProbabilityTrace(trace.times, trace.p_hub, canonical(trace.psi_clique_in),
                            canonical(trace.psi_star_in), trace.metadata)
    _assert_same_trace(ProbabilityTrace.from_json(io.StringIO(text)), want)


def _json_certain(values) -> np.ndarray:
    return _float_fields(np.asarray(values, np.float64), _tables(), "json")[1]


def _handed_to_encoder(x: float) -> bool:
    """Whether the JSON kernel must hand ``x`` to the encoder: x a power of
    two (the gap below it is half the one above), or its shortest digits
    hang on an exact tie: x halfway between two 17-digit decimals, the
    nearest 15- or 16-digit decimal exactly half an ulp away (round-half-
    even decides whether it reads back as x), or x halfway between two
    16-digit decimals that both lie within half an ulp."""
    if _is_tie(x) or math.frexp(x)[0] in (0.5, -0.5):
        return True
    half, exact = Fraction(math.ulp(x)) / 2, abs(Fraction(x))
    exponent = int(("%.16e" % x).split("e")[1])  # of the 17 digits
    for k in (15, 16):
        unit = Fraction(10) ** (exponent + 1 - k)
        frac = exact / unit - math.floor(exact / unit)
        if min(frac, 1 - frac) * unit == half or (frac == Fraction(1, 2) and unit / 2 < half):
            return True
    return False


def test_json_kernel_spells_random_bit_patterns():
    # every exponent, nan payloads among them; the kernel certifies every
    # value in its guard but exact ties
    rng = np.random.default_rng(32)
    bits = rng.integers(0, 2**64, 5000, dtype=np.uint64).view(np.float64)
    _json_kernel_text(bits)
    guarded = np.abs(bits)
    guarded = bits[(guarded >= 1e-280) & (guarded <= 1e280)]
    assert len(guarded) > 2500
    assert (~_json_certain(guarded)).tolist() == [_handed_to_encoder(x) for x in guarded.tolist()]


def test_json_kernel_spells_walk_amplitudes_itself():
    # the values a trace holds: every one certified, none handed back
    trace = _walk_trace(3 * _JSON_CROSSOVER)
    for col in (trace.p_hub, trace.psi_clique_in.real, trace.psi_star_in.real):
        _json_kernel_text(col[1:])
        assert _json_certain(col[1:]).all()


def test_json_kernel_hands_powers_of_two_to_the_encoder():
    # the gap below 2**k is half the one above, which the kernel does not model
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    _json_kernel_text(np.concatenate([powers, -powers]))
    assert not _json_certain(powers).any()


def test_json_kernel_writes_integral_floats_with_a_point_zero():
    values = [1.0, 2.0, 3.0, 10.0, 123.0, 1e15, 999999999999999.0, 2.0**53 + 2,
              1e16, 1.5e16, 2.0**53 * 3, 1e17, 12345678901234567e3]
    text = _json_kernel_text(values + [-v for v in values])
    for spelled in ("1.0", "3.0", "123.0", "1000000000000000.0", "9007199254740994.0",
                    "1e+16", "1.5e+16", "-1e+17"):
        assert f",\n   {spelled}," in text
    assert _json_certain([v for v in values if v not in (1.0, 2.0)]).all()


@pytest.mark.parametrize("edge", [1e-5, 1e-4, 1e15, 1e16, 1e280, 1e-280],
                         ids=["e-5", "e-4", "e15", "e16", "guard-high", "guard-low"])
def test_json_kernel_at_exponent_switches_and_its_guard(edge):
    # repr writes 0.0001 but 1e-05, 999999999999999.9 but 1e+16; beyond 1e280
    # either way, values go to the encoder
    values = _neighbours(edge, 5) + _neighbours(edge * 1.5, 2) + _neighbours(edge * 9.99, 2)
    _json_kernel_text(values + [-v for v in values])


def test_json_kernel_spells_extremes_subnormals_and_non_finite_values():
    specials = [5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                2.2250738585072009e-308, 2.2250738585072014e-308, 1e-310,
                np.nan, np.inf, -np.inf, 0.0, -0.0, 0.1, -2.5]
    text = _json_kernel_text(specials)
    for spelled in ("5e-324", "1.7976931348623157e+308", "NaN", "-Infinity", "-0.0", "0.0"):
        assert f",\n   {spelled}," in text


def test_json_kernel_writes_a_column_of_positive_zeros_as_a_constant():
    assert json_items(np.zeros(_JSON_CROSSOVER)) == ",\n   0.0" * _JSON_CROSSOVER
    _json_kernel_text(np.zeros(_JSON_CROSSOVER))
    _json_kernel_text(np.full(_JSON_CROSSOVER, -0.0))


def _with_shortest_digits(count: int, k: int, rng) -> list[float]:
    """Random doubles whose repr has exactly k significant digits."""
    found = []
    while len(found) < count:
        x = float("%.*e" % (k - 1, rng.random() * 10.0 ** rng.integers(-30, 30)))
        digits = repr(x).split("e")[0].replace("-", "").replace(".", "").strip("0")
        if len(digits) == k and x != 0.0:
            found.append(x)
    return found


@pytest.mark.parametrize("k", [1, 2, 8, 15, 16, 17])
def test_json_kernel_finds_the_shortest_digits(k):
    # and certifies every value but powers of two and exact ties
    values = _with_shortest_digits(400, k, np.random.default_rng(k))
    _json_kernel_text(values + [-v for v in values])
    assert (~_json_certain(values)).tolist() == list(map(_handed_to_encoder, values))


def test_json_kernel_carries_a_rounding_into_the_next_power_of_ten():
    # the doubles next to 10**k, and those whose shortest digits are all 9s
    values = []
    for k in range(-300, 301):
        values += _neighbours(float(f"1e{k}"))
        values += [float(f"9.9999999999999999e{k - 1}"), float(f"9.999999999999999e{k - 1}")]
    values = np.array(values)
    text = _json_kernel_text(np.concatenate([values, -values]))
    assert ",\n   1e-243," in text and ",\n   0.0001," in text
    assert ",\n   1e+16," in text and ",\n   1e+280," in text
    # the kernel itself spells all of these in its guard but 1.0 and exact ties
    inside = values[(values >= 1e-280) & (values <= 1e280)]
    handed_over = inside[~_json_certain(inside)].tolist()
    assert all(_handed_to_encoder(x) for x in handed_over) and len(handed_over) < len(inside) / 100


def _round_trip_ties(count: int) -> list[float]:
    """Doubles x in [2**54, 2**57) with a multiple of 10 exactly half an ulp
    away: the nearest 16-digit decimal reads back as x only if x's
    significand is even.  With ulp u (4, 8 or 16), x = 10 j - u / 2."""
    found = []
    for shift, u in ((54, 4), (55, 8), (56, 16)):
        start = 2**shift // 10 + 1
        for j in range(start, start + 10 * count):
            x = 10 * j - u // 2
            if x % u == 0 and x < 2 ** (shift + 1) and len(found) < 3 * count:
                found.append(float(x))
    return found


def test_json_kernel_hands_near_ties_to_the_encoder():
    # a candidate exactly on the rounding boundary (round-half-even decides),
    # 17-digit ties, doubles within 2**-48 of a 17-digit tie, and doubles
    # halfway between two 16-digit decimals that both read back (k / 4 for
    # odd k in [2**51, 4e15): 2.5 k has its last digit 5 in units of 0.01,
    # and half an ulp is 0.0625)
    boundary = _round_trip_ties(100)
    assert len(boundary) == 300
    rng = np.random.default_rng(33)
    k = 2 * rng.integers(2 * 10**15, 45 * 10**14, 500) + 1
    halfway = (2 * rng.integers(2**50 + 1, 2 * 10**15, 500) + 1) / 4
    near = _near_ties(60)
    values = boundary + (k / 4).tolist() + halfway.tolist() + near
    _json_kernel_text(values + [-v for v in values])
    assert not _json_certain(boundary + halfway.tolist()).any()
    assert all(map(_handed_to_encoder, boundary + halfway.tolist()))


@pytest.mark.parametrize("rows", sorted(set(_EDGES) | {
    _JSON_CROSSOVER - 1, _JSON_CROSSOVER, _BLOCK + _JSON_CROSSOVER - 1, _BLOCK + _JSON_CROSSOVER}))
@pytest.mark.parametrize("build", [_random_trace, _walk_trace], ids=["random", "walk"])
def test_json_writer_matches_reference_at_block_edges(rows, build):
    # float blocks below _JSON_CROSSOVER values go through the C encoder, from
    # it on through the kernel; times always through the encoder
    trace = build(rows) if rows else _random_trace(0)
    got, want = io.StringIO(), io.StringIO()
    trace.to_json(got)
    trace_reference.to_json(trace, want)
    assert got.getvalue() == want.getvalue()
    _assert_reads_back(got.getvalue(), trace)


def _json_document(**columns) -> io.StringIO:
    cols = {"t": [0, 1], "p_vstar": [0.5, 0.25], "re_psi_clique_in": [0.5, 0.1],
            "im_psi_clique_in": [0, 0], "re_psi_star_in": [0.1, 0.2], "im_psi_star_in": [0, 0]}
    return io.StringIO(json.dumps({"metadata": {}, "columns": {**cols, **columns}}))


@pytest.mark.parametrize("times", [[0, 1.5], [0, 1.0], [0, 2**63], [0, "1"]],
                         ids=["fraction", "float", "beyond-int64", "string"])
def test_json_reader_refuses_a_time_that_is_not_an_int64_integer(times):
    # numpy would truncate 1.5 to 1; the CSV reader refuses such a row too
    with pytest.raises(ValueError, match="^column t holds a time"):
        ProbabilityTrace.from_json(_json_document(t=times))
    assert ProbabilityTrace.from_json(_json_document(t=[-2**63, 2**63 - 1])).times.tolist() == [
        -2**63, 2**63 - 1]


@pytest.mark.parametrize("name", COLUMNS)
def test_json_reader_refuses_columns_of_different_lengths(name):
    # a one-value column would be broadcast over the others
    with pytest.raises(ValueError, match=f"^column {name} is shorter than column "):
        ProbabilityTrace.from_json(_json_document(**{name: [0]}))


@pytest.mark.parametrize("name", COLUMNS)
def test_json_reader_names_a_missing_column(name):
    # json.load's dict raised KeyError('<name>'); the CSV reader, too, says what is wrong
    payload = json.loads(_json_document().getvalue())
    del payload["columns"][name]
    with pytest.raises(ValueError, match=f"^missing column {name}$"):
        ProbabilityTrace.from_json(io.StringIO(json.dumps(payload)))


_NAN_BITS = [0xFFF8000000000000, 0x7FF8000000000001, 0xFFF0000000000001, 0x7FF8000000000000]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_every_nan_reads_back_as_the_plain_nan(fmt):
    # "%.17g" spells every NaN nan and JSON NaN, so a sign bit or a payload
    # is lost; every other value, -0.0, subnormals and infinities included,
    # keeps its bits
    nans = np.array(_NAN_BITS, dtype=np.uint64).view(np.float64)
    trace = ProbabilityTrace(
        times=np.arange(4, dtype=np.int64), p_hub=np.array([0.25, 0.0, 1.0, 5e-324]),
        psi_clique_in=_pair(nans, [1.5, -0.0, 5e-324, np.inf]),
        psi_star_in=_pair([-0.0, 0.1, -np.inf, 1 / 3], nans[::-1]),
    )
    buffer = io.StringIO()
    getattr(trace, f"to_{fmt}")(buffer)
    parsed = getattr(ProbabilityTrace, f"from_{fmt}")(io.StringIO(buffer.getvalue()))
    assert parsed.p_hub.tobytes() == trace.p_hub.tobytes()
    for name in ("psi_clique_in", "psi_star_in"):
        want = getattr(trace, name).view(np.float64)
        got = getattr(parsed, name).view(np.float64).view(np.uint64)
        nan = np.isnan(want)
        assert (got[~nan] == want[~nan].view(np.uint64)).all(), name
        assert (got[nan] == 0x7FF8000000000000).all(), name


# a trace document as to_json lays it out, and variants of it
_JSON_TEXT = json.dumps({"metadata": {"n": "3"}, "columns": {
    name: [0, 1] if name == "t" else [0.5, 0.25] for name in COLUMNS}}, indent=1)
_COLUMNS_AT = _JSON_TEXT.index('"columns"')


def _with_columns(columns: str) -> str:
    return '{"metadata": {}, "columns": {%s}}' % columns


_GOOD = ", ".join(f'"{name}": [0, 1]' if name == "t" else f'"{name}": [0.5, 0.25]'
                  for name in COLUMNS)

#: Documents json.loads refuses: the JSON reader must raise its error.
_MALFORMED = {
    "truncated": _JSON_TEXT[:-3],
    "trailing-data": _JSON_TEXT + "x",
    "second-document": _JSON_TEXT + "{}",
    "missing-colon": _JSON_TEXT.replace('"t":', '"t"'),
    "missing-comma": _JSON_TEXT.replace("],", "]", 1),
    "missing-comma-in-column": _JSON_TEXT.replace("0.5,", "0.5", 1),
    "semicolon-for-comma": _JSON_TEXT.replace("],", "];", 1),
    "equals-for-colon": _JSON_TEXT.replace('"t":', '"t"='),
    "trailing-comma-in-column": '{"columns": {"t": [1,]}}',
    "trailing-comma-in-columns": _with_columns(_GOOD + ","),
    "trailing-comma-at-top": '{"columns": {}, }',
    "top-level-array": "[1, 2",
    "empty": "",
    "whitespace": " \n\t",
    "byte-order-mark": "\ufeff" + _JSON_TEXT,
    "single-quotes": "{'columns': {}}",
    "unquoted-name": '{"columns": {t: [0]}}',
    "unterminated-name": '{"colu',
    "invalid-escape": '{"col\\x": 1}',
    "control-character": '{"a\nb": 1}',
    "bare-word": _with_columns('"t": [0, nan]'),
}


@pytest.mark.parametrize("text", list(_MALFORMED.values()), ids=list(_MALFORMED))
def test_json_reader_raises_json_errors(text):
    # the column-at-a-time walk accepts nothing json.loads refuses, and what
    # it refuses json.loads parses again, for json's own error.  On a trailing
    # comma the C scanner raises StopIteration(21), which must not get out
    with pytest.raises(Exception) as want:
        json.loads(text)
    with pytest.raises(Exception) as got:
        ProbabilityTrace.from_json(io.StringIO(text))
    assert (got.type, str(got.value)) == (want.type, str(want.value))


def test_json_reader_raises_json_errors_on_every_truncation():
    for end in range(len(_JSON_TEXT)):
        text = _JSON_TEXT[:end]
        with pytest.raises(json.JSONDecodeError) as want:
            json.loads(text)
        with pytest.raises(json.JSONDecodeError) as got:
            ProbabilityTrace.from_json(io.StringIO(text))
        assert str(got.value) == str(want.value), end


#: Documents json.loads reads: the JSON reader must return or raise what the
#: same checks return or raise on json.loads' lists.
_ODD = {
    "as-written": _JSON_TEXT,
    "crlf-and-tabs": _JSON_TEXT.replace("\n", "\r\n\t"),
    "no-whitespace": json.dumps(json.loads(_JSON_TEXT), separators=(",", ":")),
    "repeated-column": _with_columns('"t": [5, 6, 7], ' + _GOOD),
    "repeated-columns": '{"metadata": {}, "columns": {"t": [9]}, "columns": {%s}}' % _GOOD,
    "repeated-metadata": '{"metadata": {"a": "1"}, "columns": {%s}, "metadata": {"b": 2}}' % _GOOD,
    "nan-and-infinity": _with_columns(_GOOD.replace("[0.5, 0.25]", "[NaN, -Infinity]")
                                      .replace('"p_vstar": [NaN, -Infinity]', '"p_vstar": [0, 1]')),
    "infinite-probability": _with_columns(_GOOD.replace('"p_vstar": [0.5, 0.25]',
                                                        '"p_vstar": [Infinity, 0]')),
    "column-a-number": _with_columns(_GOOD.replace("[0.5, 0.25]", "5", 1)),
    "column-an-object": _with_columns(_GOOD.replace("[0.5, 0.25]", '{"a": [1]}', 1)),
    "column-a-string": _with_columns(_GOOD.replace("[0.5, 0.25]", '"ab"', 1)),
    "string-in-a-float-column": _with_columns(_GOOD.replace("[0.5, 0.25]", '[0.5, "x"]', 1)),
    "string-in-the-time-column": _with_columns(_GOOD.replace("[0, 1]", '[0, "1"]')),
    "nested-lists": _with_columns(_GOOD.replace("[0.5, 0.25]", "[[0.5], [0.25]]", 1)),
    "ragged-lists": _with_columns(_GOOD.replace("[0.5, 0.25]", "[[0.5], [0.25, 1]]", 1)),
    "null-in-a-column": _with_columns(_GOOD.replace("[0.5, 0.25]", "[null, 0.25]", 1)),
    "extra-column": _with_columns(_GOOD + ', "extra": [1, 2, 3]'),
    "no-rows": _with_columns(", ".join(f'"{name}": []' for name in COLUMNS)),
    "missing-column": _with_columns(_GOOD.replace('"im_psi_star_in"', '"other"')),
    "no-columns": '{"metadata": {}}',
    "columns-a-list": '{"metadata": {}, "columns": [1]}',
    "no-metadata": '{"columns": {%s}}' % _GOOD,
    "metadata-a-list": '{"metadata": [1], "columns": {%s}}' % _GOOD,
    "top-level-array": "[1, 2]",
    "top-level-string": '"columns"',
}


def _outcome(text: str):
    try:
        trace = ProbabilityTrace.from_json(io.StringIO(text))
    except Exception as exc:
        return type(exc), str(exc)
    return trace.metadata, [(getattr(trace, name).dtype, getattr(trace, name).tobytes())
                            for name in ("times", "p_hub", "psi_clique_in", "psi_star_in")]


@pytest.mark.parametrize("text", list(_ODD.values()), ids=list(_ODD))
def test_json_reader_reads_as_json_loads_would(text, monkeypatch):
    got = _outcome(text)
    monkeypatch.setattr(json_columns, "load_columns", lambda text, convert: json.loads(text))
    assert got == _outcome(text)


def test_json_columns_are_converted_as_they_are_scanned():
    # each list of "columns" goes to the conversion at once, in document
    # order; other values, and lists elsewhere, are json.loads' own
    text = ('{"metadata": {"a": [1]}, "columns": {"t": [0], "x": 5, "t": [1, 2], '
            '"y": [NaN]}, "other": [3]}')
    calls = []

    def convert(name, values):
        calls.append((name, values))
        return f"converted {name}"

    document = json_columns.load_columns(text, convert)
    assert calls[:2] == [("t", [0]), ("t", [1, 2])] and calls[2][0] == "y"
    assert math.isnan(calls[2][1][0])
    assert document == {"metadata": {"a": [1]}, "other": [3],
                        "columns": {"t": "converted t", "x": 5, "y": "converted y"}}
    assert list(document["columns"]) == ["t", "x", "y"]


def test_json_read_holds_one_column_list_at_a_time(tmp_path, monkeypatch):
    # json.load held all six columns as lists of Python floats, 32 bytes a
    # value, before any became an array.  Now reading the text costs its
    # bytes and its str at once, and parsing it the arrays and one list.
    trace = sc.hub_trace("closed", 1000, 31, 33_000 - 1, sc.LeafPhase.REVERSAL)
    path = tmp_path / "trace.json"
    with open(path, "w") as stream:
        trace.to_json(stream)

    def read():
        with open(path) as stream:
            tracemalloc.start()
            try:
                return ProbabilityTrace.from_json(stream), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    parsed, peak = read()
    _assert_same_trace(parsed, trace)
    monkeypatch.setattr(json_columns, "load_columns", lambda text, convert: json.loads(text))
    whole, whole_peak = read()  # the reader before: json.load, then the columns
    _assert_same_trace(whole, trace)
    size = path.stat().st_size
    arrays = sum(getattr(parsed, name).nbytes for name in ("times", "p_hub", "psi_clique_in", "psi_star_in"))
    one_list = 32 * len(parsed)
    assert peak < 1.1 * max(2 * size, size + arrays + one_list), (peak, size, arrays)
    assert peak <= 0.75 * whole_peak, (peak, whole_peak)


if given is not None:

    @settings(max_examples=60, deadline=None, database=None)
    @given(values=st.lists(st.one_of(st.integers(0, 2**64 - 1).map(_bits_to_float), st.floats()),
                           min_size=1, max_size=40))
    def test_json_kernel_spells_any_float64_bit_pattern(values):
        _json_kernel_text(values)


# the edges of one and of two write blocks, and a trace of four blocks and a bit
@pytest.mark.parametrize("rows", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                                  2 * _BLOCK - 1, 2 * _BLOCK, 2 * _BLOCK + 1, 4 * _BLOCK + 3])
def test_round_trips_across_blocks_are_exact(rows):
    trace = _random_trace(rows)
    for write, parse in (
        (trace.to_csv, ProbabilityTrace.from_csv),
        (trace.to_json, ProbabilityTrace.from_json),
    ):
        buffer = io.StringIO()
        write(buffer)
        _assert_same_trace(parse(io.StringIO(buffer.getvalue())), trace)


def test_csv_reader_skips_comments_and_blank_lines_and_takes_crlf():
    trace = _random_trace(2 * _BLOCK + 3)
    clean = io.StringIO()
    trace.to_csv(clean)
    lines = clean.getvalue().splitlines()
    messy = []
    for i, line in enumerate(lines):
        messy.append(line)
        if i % 1000 == 999:
            messy.append("# mode=collapsed")  # a metadata line repeated mid-data
        if i % 777 == 5:
            messy.extend(["", "   "])
    parsed = ProbabilityTrace.from_csv(io.StringIO("\r\n".join(messy) + "\r\n", newline=""))
    _assert_same_trace(parsed, trace)


@pytest.mark.parametrize("before", [1, 8202])  # good rows before the bad one
@pytest.mark.parametrize(
    "row, fields", [("3,0.5,0,0,0", 5), ("3,0.5,0,0,0,0,0", 7), ("3", 1)]
)
def test_rejects_row_without_six_fields(row, fields, before):
    good = "2,0.5,0,0,0,0\n"
    text = f"# n=3\n{','.join(COLUMNS)}\n{good * before}{row}\n{good}"
    line = 3 + before
    with pytest.raises(ValueError, match=f"^line {line} has {fields} fields, expected 6$"):
        ProbabilityTrace.from_csv(io.StringIO(text))


_HEADER = "# n=3\n" + ",".join(COLUMNS) + "\n"
_GOOD_ROW = "2,0.5,0,0,0,0\n"


def test_csv_reader_counts_comment_and_blank_lines_in_a_field_count_error():
    # line 1 metadata, 2 header, 3 row, 4-7 comment and blank lines, 8 row, 9 bad
    text = f"{_HEADER}{_GOOD_ROW}# a comment\n   \n\n\t\n{_GOOD_ROW}3,0.5,0\n{_GOOD_ROW}"
    with pytest.raises(ValueError, match="^line 9 has 3 fields, expected 6$"):
        ProbabilityTrace.from_csv(io.StringIO(text))


class _Unseekable(io.StringIO):
    def seekable(self) -> bool:
        return False


@pytest.mark.parametrize(
    "row, column",
    [("2,0.5,abc,0,0,0", 3), ("2,1_0,0,0,0,0", 2), ("2.0,0.5,0,0,0,0", 1),
     ("9223372036854775808,0.5,0,0,0,0", 1), ("2,0.5,,0,0,0", 3)],
    ids=["word", "underscore", "fractional-time", "time-beyond-int64", "empty-field"],
)
def test_csv_reader_rejects_a_field_numpy_cannot_parse(row, column):
    # six fields, so the error is numpy's own; float() took 1_0 as 10.0.
    # numpy counts its rows from the first data row, skipping comment and
    # blank lines; a seekable stream is re-read to name the file line
    for between, line in (("", 4), ("# a comment\n\n  \n", 7)):
        text = f"{_HEADER}{_GOOD_ROW}{between}{row}\n{_GOOD_ROW}"
        with pytest.raises(ValueError, match=f"^line {line}, column {column}: could not convert "):
            ProbabilityTrace.from_csv(io.StringIO(text))
        with pytest.raises(ValueError, match="could not convert"):
            ProbabilityTrace.from_csv(_Unseekable(text))


def test_csv_reader_on_an_unseekable_stream_still_refuses_a_short_row():
    with pytest.raises(ValueError):
        ProbabilityTrace.from_csv(_Unseekable(f"{_HEADER}{_GOOD_ROW}3,0.5\n"))


def test_csv_metadata_is_the_block_before_the_column_header():
    text = f"# m=2\n\n{_HEADER}# n=4\n# extra=1\n{_GOOD_ROW}# m=5\n{_GOOD_ROW}"
    parsed = ProbabilityTrace.from_csv(io.StringIO(text))
    assert parsed.metadata == {"m": "2", "n": "3"}
    assert parsed.times.tolist() == [2, 2]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "tail", ["", "\n", "# a comment\n   \n", "\r\n# n=4"],
    ids=["nothing", "blank-line", "comment-and-spaces", "crlf-and-comment"],
)
def test_csv_reader_reads_zero_rows_without_a_warning(tail):
    parsed = ProbabilityTrace.from_csv(io.StringIO(_HEADER + tail, newline=""))
    assert len(parsed) == 0 and parsed.metadata == {"n": "3"}
    dtypes = [parsed.times.dtype, parsed.p_hub.dtype, parsed.psi_clique_in.dtype,
              parsed.psi_star_in.dtype]
    assert dtypes == [np.int64, np.float64, np.complex128, np.complex128]


def test_csv_read_peaks_below_two_and_a_half_times_its_arrays(tmp_path):
    # a file, not a StringIO, whose first read would lay out all its text at once
    trace = _random_trace(50_000)
    path = tmp_path / "trace.csv"
    with open(path, "w") as stream:
        trace.to_csv(stream)
    with open(path) as stream:
        tracemalloc.start()
        try:
            parsed = ProbabilityTrace.from_csv(stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    _assert_same_trace(parsed, trace)
    arrays = sum(getattr(parsed, name).nbytes for name in ("times", "p_hub", "psi_clique_in", "psi_star_in"))
    assert peak < 2.5 * arrays, (peak, arrays)


@pytest.mark.parametrize(
    "metadata",
    [{"a=b": "c"}, {"a": "x "}, {" a": "x"}, {"a": "x\ny"}, {"a\rb": "c"}],
    ids=["equals-in-key", "value-trailing-space", "key-leading-space", "value-line-break",
         "key-carriage-return"],
)
def test_to_csv_refuses_metadata_that_reads_back_changed(metadata):
    # written unchecked, the first four read back as {'a': 'b=c'}, {'a': 'x'},
    # {'a': 'x'} and an "unexpected columns" error; nothing may be written first
    trace = _random_trace(3)
    trace = ProbabilityTrace(trace.times, trace.p_hub, trace.psi_clique_in, trace.psi_star_in,
                             metadata={"n": "3", **metadata})
    (key,) = metadata
    buffer = io.StringIO()
    with pytest.raises(ValueError, match=f"^metadata key {re.escape(repr(key))} cannot be written"):
        trace.to_csv(buffer)
    assert buffer.getvalue() == ""
    trace.to_json(buffer)  # JSON carries any string
    _assert_same_trace(ProbabilityTrace.from_json(io.StringIO(buffer.getvalue())), trace)


def test_csv_round_trip_is_exact():
    trace = _awkward_trace()
    buffer = io.StringIO()
    trace.to_csv(buffer)
    parsed = ProbabilityTrace.from_csv(io.StringIO(buffer.getvalue()))
    assert np.array_equal(parsed.times, trace.times)
    assert np.array_equal(parsed.p_hub, trace.p_hub)
    assert np.array_equal(parsed.psi_clique_in, trace.psi_clique_in)
    assert np.array_equal(parsed.psi_star_in, trace.psi_star_in)
    assert parsed.metadata == trace.metadata


def test_json_round_trip_is_exact():
    trace = _awkward_trace()
    buffer = io.StringIO()
    trace.to_json(buffer)
    parsed = ProbabilityTrace.from_json(io.StringIO(buffer.getvalue()))
    assert np.array_equal(parsed.times, trace.times)
    assert np.array_equal(parsed.p_hub, trace.p_hub)
    assert np.array_equal(parsed.psi_clique_in, trace.psi_clique_in)
    assert np.array_equal(parsed.psi_star_in, trace.psi_star_in)
    # bit for bit, so a -0.0 real part must keep its sign
    assert parsed.psi_star_in.tobytes() == trace.psi_star_in.tobytes()
    assert parsed.metadata == trace.metadata


def test_rejects_probability_outside_unit_interval():
    times = np.arange(2, dtype=np.int64)
    zeros = np.zeros(2, dtype=np.complex128)
    with pytest.raises(ValueError):
        ProbabilityTrace(
            times=times,
            p_hub=np.array([0.5, 1.5]),
            psi_clique_in=zeros,
            psi_star_in=zeros,
        )
    with pytest.raises(ValueError):
        ProbabilityTrace(
            times=times,
            p_hub=np.array([-0.5, 0.5]),
            psi_clique_in=zeros,
            psi_star_in=zeros,
        )
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match=r"^p_vstar outside \[0, 1\]$"):
            ProbabilityTrace(
                times=times,
                p_hub=np.array([bad, 0.5]),
                psi_clique_in=zeros,
                psi_star_in=zeros,
            )


def test_rejects_mismatched_columns():
    with pytest.raises(ValueError):
        ProbabilityTrace(
            times=np.arange(3, dtype=np.int64),
            p_hub=np.zeros(2),
            psi_clique_in=np.zeros(3, dtype=np.complex128),
            psi_star_in=np.zeros(3, dtype=np.complex128),
        )


def test_rejects_wrong_header():
    with pytest.raises(ValueError):
        ProbabilityTrace.from_csv(io.StringIO("a,b\n1,2\n"))
    with pytest.raises(ValueError):
        ProbabilityTrace.from_csv(io.StringIO("# n=3\n"))


def test_library_and_cli_traces_share_one_metadata_builder():
    keys = ["n", "m", "alpha", "mode", "leaf_phase", "version"]
    full = sc.hub_trace("full", 7, 2, 3, sc.LeafPhase.PLAIN)
    ops = sc.build_reduced_operators(7, 2)
    reduced = sc.evolve_collapsed(ops, sc.collapsed_initial_state(7, 2), 3)
    assert full.metadata == trace_metadata(7, 2, "full", sc.LeafPhase.PLAIN)
    assert reduced.metadata == trace_metadata(7, 2, "collapsed", sc.LeafPhase.REVERSAL)
    for trace in (full, reduced):
        assert list(trace.metadata) == keys
        assert trace.metadata["alpha"] == ""
        assert trace.metadata["version"] == sc.__version__
    assert trace_metadata(7, 2, "closed", sc.LeafPhase.REVERSAL, 0.5)["alpha"] == "0.5"


@pytest.mark.parametrize(
    "mode, m, leaf_phase, alpha, problem",
    [
        ("closed", 5, "plain", 0.5, "closed mode does not evaluate the plain walk"),
        ("asymptotic", 5, "plain", 0.5, "asymptotic mode does not evaluate the plain walk"),
        ("asymptotic", 5, "reversal", None, "asymptotic mode requires alpha"),
        ("asymptotic", 7, "reversal", 0.5, "m = 7 is not the leaf count 5 of alpha"),
        ("full", 7, "reversal", 0.5, "m = 7 is not the leaf count 5 of alpha"),
    ],
    ids=["closed-plain", "asymptotic-plain", "no-alpha", "asymptotic-m", "full-m"],
)
def test_hub_trace_refuses_a_trace_it_would_mislabel(mode, m, leaf_phase, alpha, problem):
    # unchecked, the closed form ignored the phase and returned the reversal
    # series labelled plain, and the asymptotic series took m from alpha
    with pytest.raises(ValueError, match=f"^{problem}$"):
        sc.hub_trace(mode, 30, m, 10, sc.LeafPhase(leaf_phase), alpha)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "times, problem",
    [
        ([1.5], "whole numbers"),
        (np.array([0.0, 2.7]), "whole numbers"),
        ([np.nan], "whole numbers"),
        (np.array([2**63], dtype=np.uint64), r"below 2\*\*63"),
    ],
    ids=["fraction", "float-array", "nan", "uint64-2**63"],
)
@pytest.mark.parametrize("mode", list(MODES))
def test_series_reject_fractional_and_wrapping_step_counts(mode, times, problem):
    # a fraction was truncated to the row before it, and a uint64 count
    # beyond int64 wrapped and was reported as negative; every mode's series
    # reads its times through trace.step_counts
    with pytest.raises(ValueError, match=f"^step counts must be {problem}$"):
        MODES[mode].series(100, 10, sc.LeafPhase.REVERSAL, 0.5)(times)


@pytest.mark.parametrize("mode", list(MODES))
def test_series_read_whole_and_unsigned_step_counts_as_integers(mode):
    series = MODES[mode].series(100, 10, sc.LeafPhase.REVERSAL, 0.5)
    want = series(np.array([0, 2, 3], dtype=np.int64))
    for times in ([0.0, 2.0, 3.0], np.array([0, 2, 3], dtype=np.uint64)):
        for got, expected in zip(series(times), want):
            assert np.array_equal(got, expected)


def test_closed_form_probability_rejects_a_fractional_time():
    with pytest.raises(ValueError, match="^step counts must be whole numbers$"):
        sc.closed_form_probability(100, 10, 2.7)


# numpy's arange takes its length as a float, which wraps to 0 rows from
# 2**63 - 512 on; the traces were empty, with no error
_NEAR_2_63 = [2**63 - 513, 2**63 - 2, 2**63 - 1]


def _never(times):
    raise AssertionError("no series may run")


@pytest.mark.parametrize("t_max", _NEAR_2_63)
def test_from_series_rejects_row_counts_arange_cannot_lay_out(t_max):
    with pytest.raises(ValueError, match="arange"):
        ProbabilityTrace.from_series(_never, t_max, {})
    ops = sc.build_reduced_operators(10, 2)
    with pytest.raises(ValueError, match="arange"):
        sc.evolve_collapsed(ops, sc.collapsed_initial_state(10, 2), t_max)


def test_from_series_rejects_a_last_step_beyond_int64():
    with pytest.raises(ValueError, match=r"beyond 2\*\*63 - 1"):
        ProbabilityTrace.from_series(_never, 2**63, {})
    ops = sc.build_reduced_operators(10, 2)
    with pytest.raises(ValueError, match=r"beyond 2\*\*63 - 1"):
        sc.evolve_collapsed(ops, sc.collapsed_initial_state(10, 2), 2**63)
