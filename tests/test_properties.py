"""Property tests over random (N, m, t); skipped without hypothesis."""

import io

import numpy as np
import pytest

from arc_table import arc_amplitudes
import starclique as sc
from starclique.graph import ArcClass, LeafPhase
from starclique.modes import MODES
from starclique.trace import ProbabilityTrace, hub_probability

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.settings(max_examples=20, deadline=None, database=None)
@hypothesis.given(n=st.integers(3, 2000), m=st.integers(1, 10**6), t=st.integers(0, 300))
def test_two_plane_series_matches_iteration(n, m, t):
    iterated = MODES["collapsed"].series(n, m, LeafPhase.REVERSAL)([t])
    p, clique_in, star_in = sc.EigenbasisEvaluator(n, m).hub_series([t])
    assert 0.0 <= p[0] <= 1.0 + 1e-15
    assert abs(p[0] - iterated[0][0]) < 1e-12
    assert abs(clique_in[0] - iterated[1][0]) < 1e-12
    assert abs(star_in[0] - iterated[2][0]) < 1e-12


@hypothesis.settings(max_examples=25, deadline=None, database=None)
@hypothesis.given(
    n=st.integers(3, 10**4), m_exponent=st.floats(0, 2), t=st.integers(0, 400)
)
def test_state_series_is_unit_and_matches_iteration(n, m_exponent, t):
    m = max(1, int(n**m_exponent))
    times = np.arange(t + 1)
    states = sc.EigenbasisEvaluator(n, m).state_series(times)
    assert np.abs(np.linalg.norm(states, axis=1) - 1.0).max() <= 1e-14
    iterated = MODES["collapsed"].series(n, m, LeafPhase.REVERSAL)(times)
    series = (
        hub_probability(states[:, ArcClass.CLIQUE_IN], states[:, ArcClass.STAR_IN]),
        states[:, ArcClass.CLIQUE_IN],
        states[:, ArcClass.STAR_IN],
    )
    for got, want in zip(series, iterated):
        assert np.abs(got - want).max() <= 1e-12


def _random_state(n, m, seed, real):
    """A random unit arc-space state, float64 or complex128."""
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(n * n + 2 * m)
    if not real:
        psi = psi + 1j * rng.standard_normal(psi.size)
    clique = psi[: n * n].reshape(n, n)  # a view: the fill writes psi
    np.fill_diagonal(clique, 0.0)
    psi /= np.linalg.norm(psi)
    return sc.WalkState(clique, psi[n * n : n * n + m], psi[n * n + m :])


@hypothesis.settings(max_examples=40, deadline=None, database=None)
@hypothesis.given(
    n=st.integers(3, 40),
    m=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
    real=st.booleans(),
    phase=st.sampled_from(LeafPhase),
)
def test_step_preserves_norm(n, m, seed, real, phase):
    state = _random_state(n, m, seed, real)
    out = sc.step(state, phase)
    assert out.clique.dtype == state.clique.dtype
    assert abs(np.linalg.norm(arc_amplitudes(out)) - 1.0) <= 1e-12


@hypothesis.settings(max_examples=20, deadline=None, database=None)
@hypothesis.given(
    n=st.integers(3, 40),
    m=st.integers(1, 60),
    t=st.integers(0, 200),
    phase=st.sampled_from(LeafPhase),
)
def test_full_series_from_uniform_start_matches_iteration(n, m, t, phase):
    times = np.arange(t + 1)
    full = MODES["full"].series(n, m, phase)(times)
    iterated = MODES["collapsed"].series(n, m, phase)(times)
    assert full[0].min() >= 0.0 and full[0].max() <= 1.0
    for got, want in zip(full, iterated):
        assert np.abs(got - want).max() <= 1e-12


@hypothesis.settings(max_examples=50, deadline=None, database=None)
@hypothesis.given(
    n=st.integers(3, 10**6),
    m=st.integers(1, 10**6),
    seed=st.integers(0, 2**32 - 1),
    phase=st.sampled_from(LeafPhase),
)
def test_reduced_step_preserves_norm(n, m, seed, phase):
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    psi /= np.linalg.norm(psi)
    out = sc.build_reduced_operators(n, m, phase).evolution @ psi
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-14


@hypothesis.settings(max_examples=25, deadline=None, database=None)
@hypothesis.given(
    n=st.integers(3, 10**6),
    m=st.integers(1, 10**6),
    t=st.integers(0, 2000),
    phase=st.sampled_from(LeafPhase),
)
def test_reduced_series_probability_in_unit_interval(n, m, t, phase):
    p = MODES["collapsed"].series(n, m, phase)(np.arange(t + 1))[0]
    assert p.min() >= 0.0 and p.max() <= 1.0 + 1e-14


@hypothesis.settings(max_examples=50, deadline=None, database=None)
@hypothesis.given(
    n=st.integers(3, 10**12),
    alpha=st.floats(0, 2),
    times=st.lists(st.integers(0, 10**9), max_size=50),
)
def test_asymptotic_series_probability_in_unit_interval(n, alpha, times):
    p = sc.asymptotics.hub_series(n, alpha, times)[0]
    assert ((p >= 0.0) & (p <= 1.0)).all()


@hypothesis.settings(max_examples=100, deadline=None, database=None)
@hypothesis.given(
    n=st.integers(3, 10**6), m=st.integers(1, 4999), more=st.integers(0, 4999)
)
def test_optimal_time_does_not_increase_with_leaves(n, m, more):
    assert sc.optimal_time_exact(n, m + more) <= sc.optimal_time_exact(n, m)


_amplitude = st.floats(allow_nan=False, width=64)


@hypothesis.settings(max_examples=50, deadline=None, database=None)
@hypothesis.given(
    rows=st.lists(
        st.tuples(
            st.integers(-(2**63), 2**63 - 1), st.floats(0, 1),
            _amplitude, _amplitude, _amplitude, _amplitude,
        ),
        max_size=40,
    ),
    metadata=st.dictionaries(
        st.from_regex(r"[A-Za-z0-9_]+", fullmatch=True),
        st.from_regex(r"[A-Za-z0-9_.=+-]*", fullmatch=True),
        max_size=4,
    ),
)
def test_trace_round_trips_are_exact(rows, metadata):
    # bit for bit, -0.0 and infinities included
    columns = np.array(rows, dtype=object).reshape(-1, 6).T
    clique_in = columns[2].astype(np.float64).astype(np.complex128)
    clique_in.imag = columns[3].astype(np.float64)
    star_in = columns[4].astype(np.float64).astype(np.complex128)
    star_in.imag = columns[5].astype(np.float64)
    trace = ProbabilityTrace(
        times=columns[0].astype(np.int64), p_hub=columns[1].astype(np.float64),
        psi_clique_in=clique_in, psi_star_in=star_in, metadata=metadata,
    )
    for write, parse in (
        (trace.to_csv, ProbabilityTrace.from_csv),
        (trace.to_json, ProbabilityTrace.from_json),
    ):
        buffer = io.StringIO()
        write(buffer)
        parsed = parse(io.StringIO(buffer.getvalue()))
        for name in ("times", "p_hub", "psi_clique_in", "psi_star_in"):
            got, want = getattr(parsed, name), getattr(trace, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        assert parsed.metadata == trace.metadata
