"""Property tests over random (N, m, t); skipped without hypothesis."""

import numpy as np
import pytest

import starclique as sc
from starclique.full_walk import arc_amplitudes
from starclique.graph import ArcClass, LeafPhase
from starclique.trace import hub_probability

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.settings(max_examples=20, deadline=None, database=None)
@hypothesis.given(n=st.integers(3, 2000), m=st.integers(1, 10**6), t=st.integers(0, 300))
def test_two_plane_series_matches_iteration(n, m, t):
    iterated = sc.collapsed.hub_series(
        sc.build_reduced_operators(n, m), sc.collapsed_initial_state(n, m), [t]
    )
    p, clique_in, star_in = sc.spectral.hub_series(n, m, [t])
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
    iterated = sc.collapsed.hub_series(
        sc.build_reduced_operators(n, m), sc.collapsed_initial_state(n, m), times
    )
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
    g = sc.build_graph(n, m)
    state = _random_state(n, m, seed, real)
    out = sc.step(g, state, phase)
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
    full = sc.full_walk.hub_series(sc.build_graph(n, m), None, phase, times)
    iterated = sc.collapsed.hub_series(
        sc.build_reduced_operators(n, m, phase), sc.collapsed_initial_state(n, m), times
    )
    assert full[0].min() >= 0.0 and full[0].max() <= 1.0
    for got, want in zip(full, iterated):
        assert np.abs(got - want).max() <= 1e-12
