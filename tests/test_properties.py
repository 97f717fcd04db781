"""Property tests over random (N, m, t); skipped without hypothesis."""

import numpy as np
import pytest

import starclique as sc
from starclique.graph import ArcClass
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
