import dataclasses
import io

import numpy as np
import pytest
import trace_reference

import starclique as sc
from starclique.trace import _BLOCK, COLUMNS, ProbabilityTrace, trace_metadata


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
    # bit for bit, so a -0.0 and each NaN payload must survive
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


@pytest.mark.parametrize("rows", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
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


@pytest.mark.parametrize("before", [1, _BLOCK + 10])  # good rows before the bad one
@pytest.mark.parametrize(
    "row, fields", [("3,0.5,0,0,0", 5), ("3,0.5,0,0,0,0,0", 7), ("3", 1)]
)
def test_rejects_row_without_six_fields(row, fields, before):
    good = "2,0.5,0,0,0,0\n"
    text = f"# n=3\n{','.join(COLUMNS)}\n{good * before}{row}\n{good}"
    line = 3 + before
    with pytest.raises(ValueError, match=f"^line {line} has {fields} fields, expected 6$"):
        ProbabilityTrace.from_csv(io.StringIO(text))


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
    graph = sc.build_graph(7, 2)
    full = sc.evolve(graph, 3, sc.LeafPhase.PLAIN)
    ops = sc.build_reduced_operators(7, 2)
    reduced = sc.evolve_collapsed(ops, sc.collapsed_initial_state(7, 2), 3)
    assert full.metadata == trace_metadata(7, 2, "full", sc.LeafPhase.PLAIN)
    assert reduced.metadata == trace_metadata(7, 2, "collapsed", sc.LeafPhase.REVERSAL)
    for trace in (full, reduced):
        assert list(trace.metadata) == keys
        assert trace.metadata["alpha"] == ""
        assert trace.metadata["version"] == sc.__version__
    assert trace_metadata(7, 2, "closed", sc.LeafPhase.REVERSAL, 0.5)["alpha"] == "0.5"


# every evaluator's series, each reading its times through trace.step_counts
_SERIES = {
    "spectral": lambda times: sc.spectral.hub_series(100, 10, times),
    "collapsed": lambda times: sc.collapsed.hub_series(
        sc.build_reduced_operators(100, 10), sc.collapsed_initial_state(100, 10), times
    ),
    "full": lambda times: sc.full_walk.hub_series(
        sc.build_graph(10, 3), sc.LeafPhase.REVERSAL, times
    ),
    "asymptotic": lambda times: sc.asymptotics.hub_series(100, 0.5, times),
}


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
@pytest.mark.parametrize("series", list(_SERIES))
def test_series_reject_fractional_and_wrapping_step_counts(series, times, problem):
    # a fraction was truncated to the row before it, and a uint64 count
    # beyond int64 wrapped and was reported as negative
    with pytest.raises(ValueError, match=f"^step counts must be {problem}$"):
        _SERIES[series](times)


@pytest.mark.parametrize("series", list(_SERIES))
def test_series_read_whole_and_unsigned_step_counts_as_integers(series):
    want = _SERIES[series](np.array([0, 2, 3], dtype=np.int64))
    for times in ([0.0, 2.0, 3.0], np.array([0, 2, 3], dtype=np.uint64)):
        for got, expected in zip(_SERIES[series](times), want):
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
    for start, t_max in ((0, 2**63), (10, 2**63 - 10), (2**63 - 1, 1)):
        with pytest.raises(ValueError, match=r"beyond 2\*\*63 - 1"):
            ProbabilityTrace.from_series(_never, t_max, {}, start)
    ops = sc.build_reduced_operators(10, 2)
    late = dataclasses.replace(sc.collapsed_initial_state(10, 2), time=10)
    with pytest.raises(ValueError, match=r"beyond 2\*\*63 - 1"):
        sc.evolve_collapsed(ops, late, 2**63 - 10)
