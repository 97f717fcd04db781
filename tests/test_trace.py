import io

import numpy as np
import pytest

from starclique.trace import ProbabilityTrace


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
