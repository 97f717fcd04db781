import math

import numpy as np
import pytest

import starclique as sc
from starclique.asymptotics import Branch, theory_exponent


def test_branch_classification():
    assert Branch.of(0.0) is Branch.SUB
    assert Branch.of(0.99) is Branch.SUB
    assert Branch.of(1.0) is Branch.CRITICAL
    assert Branch.of(1.5) is Branch.SUPER
    with pytest.raises(ValueError):
        Branch.of(-0.5)


def test_theta1_approx_examples():
    assert sc.theta1_approx(100, 0.0) == pytest.approx(0.014142, abs=1e-5)
    assert sc.theta1_approx(100, 1.0) == pytest.approx(0.1, abs=1e-3)


@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_theta1_approx_close_to_exact(alpha):
    n = 10**6
    m = sc.leaves_from_alpha(n, alpha)
    exact = sc.discriminant_angles(n, m).theta_1
    approx = sc.theta1_approx(n, alpha)
    assert abs(approx - exact) / exact < 0.01


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.5])
def test_cos_estimate_consistency(alpha):
    # 1 - cos(theta_1), exact over estimated, tends to 1
    n = 10**6
    m = sc.leaves_from_alpha(n, alpha)
    exact = sc.discriminant_angles(n, m).cos_theta_1
    estimate = sc.cos_theta1_approx(n, alpha)
    ratio = (1.0 - exact) / (1.0 - estimate)
    assert abs(ratio - 1.0) < 0.02


def test_coefficient_estimates_sub_branch():
    n = 10**6
    est = sc.coefficient_estimates(n, 0.0, t=0)
    assert est.branch is Branch.SUB
    assert est.c1 == pytest.approx(1000 / math.sqrt(2), rel=1e-12)
    exact_c1 = sc.closed_form_amplitudes(n, 1, 0).coefficients.c1
    assert abs(exact_c1 - est.c1) / est.c1 < 0.01


def test_coefficient_estimates_critical_branch():
    n = 10**6
    m = sc.leaves_from_alpha(n, 1.0)
    theta_1 = sc.discriminant_angles(n, m).theta_1
    t = round(math.pi / (2 * theta_1))  # sin(t theta_1) ~ 1
    exact = sc.closed_form_amplitudes(n, m, t).coefficients
    assert abs(exact.k1 - 0.5) / 0.5 < 0.01
    assert abs(exact.s1 - 0.5) / 0.5 < 0.01
    est = sc.coefficient_estimates(n, 1.0, t)
    assert est.k1 == pytest.approx(0.5 * math.sin(t * theta_1), rel=1e-12)
    assert est.s1 == pytest.approx(0.5 * math.sin(t * theta_1), rel=1e-12)


def test_coefficient_estimates_remainder_bounds():
    n = 10**4
    est = sc.coefficient_estimates(n, 2.0, t=0)
    assert est.branch is Branch.SUPER
    assert est.r_clique_bound < 0.1
    assert est.r_star_bound < 1e-3


def test_probability_approx_values():
    assert sc.probability_approx(100, 0.0, 0) == 0.0
    assert sc.probability_approx(100, 0.0, 111) == pytest.approx(0.5, abs=1e-3)


def test_probability_approx_tracks_collapsed_oracle():
    # light version of the envelope acceptance check, one alpha
    n, alpha = 10**4, 1.0
    m = sc.leaves_from_alpha(n, alpha)
    t_opt = sc.optimal_time_exact(n, m)
    ops = sc.build_reduced_operators(n, m)
    trace = sc.evolve_collapsed(ops, sc.collapsed_initial_state(n, m), 10 * t_opt)
    envelope = np.array(
        [sc.probability_approx(n, alpha, int(t)) for t in trace.times]
    )
    assert np.abs(envelope - trace.p_hub).max() < 0.05


def test_optimal_time_exact_examples():
    assert sc.optimal_time_exact(100, 1) == 111
    assert sc.optimal_time_exact(100, 10) == 36
    assert sc.optimal_time_exact(100, 100) == 15


def test_optimal_time_branch_examples():
    assert sc.optimal_time_branch(100, 0.0) == 111  # floor(1.11072 * 100)
    assert sc.optimal_time_branch(100, 1.0) == 15   # floor(pi/2 * 10)


@pytest.mark.parametrize("n", [100, 256, 1000, 4096, 10000])
@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0])
def test_branch_and_exact_times_agree(n, alpha):
    m = sc.leaves_from_alpha(n, alpha)
    assert abs(sc.optimal_time_exact(n, m) - sc.optimal_time_branch(n, alpha)) <= 2


def test_optimal_time_monotone_in_alpha():
    n = 10**4
    alphas = [0.25 * k for k in range(9)]
    times = [sc.optimal_time_exact(n, sc.leaves_from_alpha(n, a)) for a in alphas]
    assert all(a >= b for a, b in zip(times, times[1:]))
    plateau = times[alphas.index(2.0)]
    for alpha, t in zip(alphas, times):
        if alpha >= 1.25:
            assert t / plateau >= 0.9


def test_theory_exponent_branches():
    assert theory_exponent(0.0) == 1.0
    assert theory_exponent(0.5) == 0.75
    assert theory_exponent(1.0) == 0.5  # the transition point takes the sub form
    assert theory_exponent(1.7) == 0.5


POWER_GRID = [2**k for k in (8, 10, 12, 14, 16)]


@pytest.mark.parametrize(
    "alpha,expected",
    [(0.0, 1.0), (1.0, 0.5), (2.0, 0.5)],
)
def test_exponent_fit_matches_theory(alpha, expected):
    fit = sc.exponent_fit(alpha, POWER_GRID)
    assert abs(fit.fitted_exponent - expected) < 0.05
    assert fit.theory_exponent == expected
    assert fit.fit_residual >= 0.0
    sizes = [s[0] for s in fit.samples]
    assert sizes == sorted(sizes)
    assert len(set(sizes)) == len(sizes)


def test_exponent_fit_rejects_degenerate_grid():
    with pytest.raises(ValueError):
        sc.exponent_fit(0.5, [1024])
    with pytest.raises(ValueError):
        sc.exponent_fit(0.5, [1024, 1024])


@pytest.mark.parametrize("bad", [[-3], [5, -1], [2**63]])
def test_asymptotic_series_rejects_bad_step_counts(bad):
    # the validator every evaluator shares: 0 <= t < 2**63
    with pytest.raises(ValueError, match="^step counts must be"):
        sc.asymptotics.hub_series(100, 0.5, bad)


@pytest.mark.parametrize("t", [-1, 2**63])
def test_probability_approx_rejects_bad_step_count(t):
    with pytest.raises(ValueError, match="^step counts must be"):
        sc.probability_approx(100, 0.5, t)


def test_asymptotic_series_reads_int64_step_counts_exactly():
    # below 2**53 an int64 count converts to float exactly: same rows as
    # evaluating at the float times
    times = np.array([0, 1, 7, 12345, 2**52 + 1], dtype=np.int64)
    theta_1 = sc.discriminant_angles(100, 10).theta_1
    p = sc.asymptotics.hub_series(100, 0.5, times)[0]
    oscillation = np.sin(times.astype(np.float64) * theta_1)
    assert np.array_equal(p, 0.5 * oscillation * oscillation)
