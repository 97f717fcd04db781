import math

import collapsed_reference
import numpy as np
import pytest

import starclique as sc
from starclique.collapsed import _BLOCK
from starclique.graph import ArcClass, LeafPhase
from starclique.trace import hub_probability
from starclique.verify import conjugated_reduced_operator


def test_boundary_rows_smallest():
    ops = sc.build_reduced_operators(3, 1)
    clique_row = np.array([math.sqrt(0.5), 0, math.sqrt(0.5), 0, 0])
    hub_row = np.array([0, math.sqrt(2 / 3), 0, math.sqrt(1 / 3), 0])
    assert np.allclose(ops.boundary[0], clique_row, atol=1e-15)
    assert np.allclose(ops.boundary[2], hub_row, atol=1e-15)
    assert np.all(ops.boundary[1] == 0)


@pytest.mark.parametrize("n,m", [(3, 1), (10, 3), (100, 10)])
def test_discriminant_block_entries(n, m):
    ops = sc.build_reduced_operators(n, m)
    t = ops.discriminant
    assert t[0, 0] == pytest.approx((n - 2) / (n - 1), rel=1e-15)
    assert t[0, 2] == pytest.approx(1 / math.sqrt(n + m - 1), rel=1e-15)
    assert t[2, 2] == 0.0
    assert np.all(t[1, :] == 0) and np.all(t[:, 1] == 0)
    assert np.allclose(t, t.T, atol=0)


def test_discriminant_block_smallest():
    t = sc.build_reduced_operators(3, 1).discriminant
    assert t[0, 0] == pytest.approx(0.5, abs=1e-15)
    assert t[0, 2] == pytest.approx(0.5773502691896258, abs=1e-15)  # 1/sqrt(3)


def test_shift_matrix_is_involution():
    ops = sc.build_reduced_operators(6, 2)
    assert np.array_equal(ops.shift @ ops.shift, np.eye(5))


@pytest.mark.parametrize("n,m", [(3, 1), (10, 3), (100, 100)])
def test_boundary_row_norms(n, m):
    rev = sc.build_reduced_operators(n, m, LeafPhase.REVERSAL)
    assert np.allclose(rev.boundary @ rev.boundary.T, np.diag([1.0, 0.0, 1.0]), atol=1e-15)
    plain = sc.build_reduced_operators(n, m, LeafPhase.PLAIN)
    assert np.allclose(plain.boundary @ plain.boundary.T, np.eye(3), atol=1e-15)


@pytest.mark.parametrize("n", [3, 10, 100])
@pytest.mark.parametrize("m", [1, 10, 100])
@pytest.mark.parametrize("phase", [LeafPhase.REVERSAL, LeafPhase.PLAIN])
def test_evolution_is_orthogonal(n, m, phase):
    u = sc.build_reduced_operators(n, m, phase).evolution
    assert np.abs(u.T @ u - np.eye(5)).max() < 1e-14


@pytest.mark.parametrize("n,m", [(3, 1), (7, 3), (12, 5)])
@pytest.mark.parametrize("phase", [LeafPhase.REVERSAL, LeafPhase.PLAIN])
def test_reduced_matches_conjugated_full_operator(n, m, phase):
    # closed-form entries against collapse . step . lift on the real graph
    graph = sc.build_graph(n, m)
    conjugated = conjugated_reduced_operator(graph, phase)
    ops = sc.build_reduced_operators(n, m, phase)
    assert np.abs(conjugated - ops.evolution).max() < 1e-13


def test_collapsed_initial_state_values():
    state = sc.collapsed_initial_state(3, 1)
    assert np.allclose(
        state.amplitudes.real, [0.57735, 0.57735, 0.57735, 0, 0], atol=1e-5
    )
    for n in (3, 10, 1000):
        amps = sc.collapsed_initial_state(n, 1).amplitudes
        assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("n,m", [(3, 1), (50, 7), (200, 14)])
def test_collapsed_initial_state_matches_collapse(n, m):
    g = sc.build_graph(n, m)
    via_graph = sc.collapse(g, sc.initial_state(g)).amplitudes
    closed = sc.collapsed_initial_state(n, m).amplitudes
    assert np.abs(via_graph - closed).max() < 1e-14


def test_evolve_collapsed_start_and_peak():
    ops = sc.build_reduced_operators(100, 1)
    trace = sc.evolve_collapsed(ops, sc.collapsed_initial_state(100, 1), 200)
    assert trace.p_hub[0] == pytest.approx(0.01, abs=1e-14)
    assert abs(int(np.argmax(trace.p_hub)) - 111) <= 2


def test_evolve_collapsed_rejects_negative_steps():
    ops = sc.build_reduced_operators(5, 2)
    with pytest.raises(ValueError):
        sc.evolve_collapsed(ops, sc.collapsed_initial_state(5, 2), -1)


@pytest.mark.parametrize("phase", [LeafPhase.REVERSAL, LeafPhase.PLAIN])
def test_collapsed_matches_full_walk(phase):
    n, m = 10, 3
    g = sc.build_graph(n, m)
    full = sc.evolve(g, 300, phase)
    ops = sc.build_reduced_operators(n, m, phase)
    reduced = sc.evolve_collapsed(ops, sc.collapsed_initial_state(n, m), 300)
    assert np.abs(full.p_hub - reduced.p_hub).max() < 1e-10


def test_success_probability_examples():
    def success(amplitudes):
        return hub_probability(amplitudes[ArcClass.CLIQUE_IN], amplitudes[ArcClass.STAR_IN])

    assert success(sc.collapsed_initial_state(25, 4).amplitudes) == pytest.approx(
        1 / 25, abs=1e-15
    )
    rng = np.random.default_rng(2)
    z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    z /= np.linalg.norm(z)
    assert success(z) <= 1.0 + 1e-12
    loaded = np.array([0, 1 / math.sqrt(2), 0, 1 / math.sqrt(2), 0], dtype=complex)
    assert success(loaded) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("n", [3, 10, 100, 1000])
def test_spectrum_confinement(n):
    # reversal-mode eigenvalues are exp(+-i theta_1), exp(+-i theta_2), -1
    for m in sorted({1, math.isqrt(n), n}):
        ops = sc.build_reduced_operators(n, m)
        ang = sc.discriminant_angles(n, m)
        values = np.linalg.eigvals(ops.evolution)
        targets = [
            np.exp(1j * ang.theta_1),
            np.exp(-1j * ang.theta_1),
            np.exp(1j * ang.theta_2),
            np.exp(-1j * ang.theta_2),
            -1.0 + 0.0j,
        ]
        remaining = list(range(5))
        worst = 0.0
        for target in targets:
            j = min(remaining, key=lambda idx: abs(values[idx] - target))
            worst = max(worst, abs(values[j] - target))
            remaining.remove(j)
        assert worst < 1e-10


@pytest.mark.parametrize("n,m", [(3, 1), (10, 3), (100, 10), (1000, 31)])
def test_discriminant_block_eigenvalues_match_angles(n, m):
    ops = sc.build_reduced_operators(n, m)
    block = ops.discriminant[np.ix_([0, 2], [0, 2])]
    low, high = np.linalg.eigvalsh(block)
    ang = sc.discriminant_angles(n, m)
    assert abs(high - ang.cos_theta_1) < 1e-12
    assert abs(low - ang.cos_theta_2) < 1e-12


def test_evolution_reversible():
    ops = sc.build_reduced_operators(40, 9)
    rng = np.random.default_rng(4)
    z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    back = ops.evolution.T @ (ops.evolution @ z)
    assert np.abs(back - z).max() < 1e-14


def test_real_dynamics():
    ops = sc.build_reduced_operators(50, 7)
    psi = sc.collapsed_initial_state(50, 7).amplitudes
    for _ in range(500):
        psi = ops.evolution @ psi
    assert np.abs(psi.imag).max() < 1e-12


def _assert_matches_reference(ops, state, times, tol):
    got = sc.collapsed.hub_series(ops, state, times)
    want = collapsed_reference.hub_series(ops, state, times)
    for column, reference in zip(got, want):
        assert column.shape == reference.shape and column.dtype == reference.dtype
        assert np.abs(column - reference).max(initial=0.0) <= tol


_EPS = np.finfo(np.float64).eps


@pytest.mark.parametrize("rows", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
@pytest.mark.parametrize("phase", [LeafPhase.REVERSAL, LeafPhase.PLAIN])
def test_block_kernel_matches_step_loop_dense(rows, phase):
    # the kernel rounds differently from the loop: O(t eps) after t steps
    ops = sc.build_reduced_operators(57, 9, phase)
    start = sc.collapsed_initial_state(57, 9)
    _assert_matches_reference(ops, start, np.arange(rows), rows * _EPS)


@pytest.mark.parametrize("phase", [LeafPhase.REVERSAL, LeafPhase.PLAIN])
def test_block_kernel_matches_step_loop_sparse(phase):
    # gaps longer than a block, a repeated time, and no row at t = 0
    times = [5, _BLOCK + 3, 4 * _BLOCK, 4 * _BLOCK + 1, 9 * _BLOCK + 17,
             9 * _BLOCK + 17, 20 * _BLOCK - 1]
    ops = sc.build_reduced_operators(10, 3, phase)
    start = sc.collapsed_initial_state(10, 3)
    _assert_matches_reference(ops, start, times, times[-1] * _EPS)
    # a row does not depend on which other rows were asked for
    dense = sc.collapsed.hub_series(ops, start, np.arange(times[-1] + 1))
    sparse = sc.collapsed.hub_series(ops, start, times)
    for column, full in zip(sparse, dense):
        assert np.array_equal(column, full[times])


def test_block_kernel_empty_and_zero_times():
    ops = sc.build_reduced_operators(57, 9)
    # -0.0 parts, which a product with the identity would turn into +0.0
    amplitudes = np.array([0.6, complex(-0.0, 0.5), 0.3j, complex(-0.0, -0.0), 0.1])
    start = sc.CollapsedState(amplitudes=amplitudes)
    _assert_matches_reference(ops, start, [], 0.0)
    p, clique_in, star_in = sc.collapsed.hub_series(ops, start, [0])
    assert clique_in.tobytes() == amplitudes[ArcClass.CLIQUE_IN].tobytes()
    assert star_in.tobytes() == amplitudes[ArcClass.STAR_IN].tobytes()
    assert p[0] == abs(amplitudes[ArcClass.CLIQUE_IN]) ** 2


@pytest.mark.parametrize("j", range(5))
def test_block_kernel_on_complex_eigenbasis_starts(j):
    # an eigenvector start keeps its hub probability at every step
    ops = sc.build_reduced_operators(57, 9)
    vectors = sc.EigenbasisEvaluator(57, 9).eigenpairs()[1]
    start = sc.CollapsedState(amplitudes=vectors[:, j].copy())
    rows = 3 * _BLOCK + 5
    _assert_matches_reference(ops, start, np.arange(rows), rows * _EPS)
    p = sc.collapsed.hub_series(ops, start, np.arange(rows))[0]
    assert np.ptp(p) <= rows * _EPS


@pytest.mark.parametrize("n,m", [(10**4, 1), (57, 9)])
@pytest.mark.parametrize("phase", [LeafPhase.REVERSAL, LeafPhase.PLAIN])
def test_block_kernel_matches_step_loop_long(n, m, phase):
    ops = sc.build_reduced_operators(n, m, phase)
    start = sc.collapsed_initial_state(n, m)
    _assert_matches_reference(ops, start, np.arange(5 * 10**4 + 1), 1e-13)


@pytest.mark.parametrize("n,m", [(3, 1), (57, 9), (10**4, 1), (10**6, 1000)])
def test_block_kernel_is_as_accurate_as_step_loop(n, m):
    # both iterate the same rounded operator; against the closed form the
    # kernel's error stays of the loop's order (measured ratio at most 2.2)
    times = np.arange(5 * 10**4 + 1)
    ops = sc.build_reduced_operators(n, m)
    start = sc.collapsed_initial_state(n, m)
    exact = sc.spectral.hub_series(n, m, times)[0]
    kernel = np.abs(sc.collapsed.hub_series(ops, start, times)[0] - exact).max()
    loop = np.abs(collapsed_reference.hub_series(ops, start, times)[0] - exact).max()
    assert kernel <= 4 * loop + 1e-15


@pytest.mark.parametrize("n,m", [(3, 1), (57, 9), (10**4, 100)])
def test_reduced_iteration_drift_from_closed_form(n, m):
    # the iteration drifts linearly in t from the closed form; its stated
    # range: at most 3.8e-12 after 5e4 steps (measured), held to 1e-11
    times = np.arange(5 * 10**4 + 1)
    ops = sc.build_reduced_operators(n, m)
    got = sc.collapsed.hub_series(ops, sc.collapsed_initial_state(n, m), times)
    for column, exact in zip(got, sc.spectral.hub_series(n, m, times)):
        assert np.abs(column - exact).max() < 1e-11


@pytest.mark.parametrize("bad", [[-1], [2**63], [4, 3]])
def test_reduced_series_rejects_bad_step_counts(bad):
    ops = sc.build_reduced_operators(5, 2)
    with pytest.raises(ValueError, match="^step counts must be"):
        sc.collapsed.hub_series(ops, sc.collapsed_initial_state(5, 2), bad)
