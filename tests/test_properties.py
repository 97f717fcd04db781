"""Property tests over random (N, m, t); skipped without hypothesis."""

import pytest

import starclique as sc

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
