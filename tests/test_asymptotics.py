import math

import numpy as np
import pytest

import starclique as sc
from starclique.asymptotics import QUOTIENT_ERROR, Branch, theory_exponent
from starclique.audit import TABULATED_SECOND_OFFSET, _oscillator_coefficients


def test_branch_classification():
    assert Branch.of(0.0) is Branch.SUB
    assert Branch.of(0.99) is Branch.SUB
    assert Branch.of(1.0) is Branch.CRITICAL
    assert Branch.of(1.5) is Branch.SUPER
    with pytest.raises(ValueError):
        Branch.of(-0.5)


def test_theta1_approx_examples():
    # the branch angles sqrt(2) N^((alpha-2)/2) and N^(-1/2) that
    # optimal_time_branch reads, through floor(pi / (2 theta))
    assert sc.optimal_time_branch(100, 0.0) == math.floor(math.pi / (2 * 0.014142))
    assert sc.optimal_time_branch(100, 1.0) == math.floor(math.pi / (2 * 0.1))


@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_theta1_approx_close_to_exact(alpha):
    # the branch angle against the exact one, through the optimal times
    n = 10**6
    m = sc.leaves_from_alpha(n, alpha)
    exact = sc.optimal_time_exact(n, m)
    approx = sc.optimal_time_branch(n, alpha)
    assert abs(approx - exact) / exact < 0.01


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.5])
def test_cos_estimate_consistency(alpha):
    # 1 - cos(theta_1), exact over the branch estimate, tends to 1; the
    # estimate is the angle pi / (2 t) of the branch time t
    n = 10**6
    m = sc.leaves_from_alpha(n, alpha)
    exact = sc.discriminant_angles(n, m).cos_theta_1
    theta = math.pi / (2 * sc.optimal_time_branch(n, alpha))
    ratio = (1.0 - exact) / (2.0 * math.sin(0.5 * theta) ** 2)
    assert abs(ratio - 1.0) < 0.02


def _tabulated(n, m, t):
    """The audit's oscillator coefficients at time t, tabulated offset."""
    return _oscillator_coefficients(
        n, m, sc.discriminant_angles(n, m), t, TABULATED_SECOND_OFFSET
    )


def test_coefficient_estimates_sub_branch():
    # below the transition the leading-order clique amplitude is c1 k1,
    # c1 = N^(1/2) / sqrt(2) and k1 = sin(t theta_1) / N
    n, t = 10**6, 1000
    assert Branch.of(0.0) is Branch.SUB
    theta_1 = sc.discriminant_angles(n, 1).theta_1
    clique_in = sc.asymptotics.hub_series(n, 0.0, [t])[1][0]
    c1 = clique_in.real / (math.sin(t * theta_1) / n)
    assert c1 == pytest.approx(1000 / math.sqrt(2), rel=1e-12)
    exact_c1 = _tabulated(n, 1, 0).c1
    assert abs(exact_c1 - c1) / c1 < 0.01


def test_coefficient_estimates_critical_branch():
    n = 10**6
    m = sc.leaves_from_alpha(n, 1.0)
    theta_1 = sc.discriminant_angles(n, m).theta_1
    t = round(math.pi / (2 * theta_1))  # sin(t theta_1) ~ 1
    exact = _tabulated(n, m, t)
    assert abs(exact.k1 - 0.5) / 0.5 < 0.01
    assert abs(exact.s1 - 0.5) / 0.5 < 0.01
    # c1 = 1 at the transition, so the amplitudes are k1 and -s1
    _, clique_in, star_in = sc.asymptotics.hub_series(n, 1.0, [t])
    assert clique_in[0].real == pytest.approx(0.5 * math.sin(t * theta_1), rel=1e-12)
    assert star_in[0].real == pytest.approx(-0.5 * math.sin(t * theta_1), rel=1e-12)


def test_coefficient_estimates_remainder_bounds():
    n = 10**4
    assert Branch.of(2.0) is Branch.SUPER
    exact = _tabulated(n, sc.leaves_from_alpha(n, 2.0), 0)
    assert abs(exact.r_clique) < 0.1
    assert abs(exact.r_star) < 1e-3


def test_probability_approx_values():
    p = sc.asymptotics.hub_series(100, 0.0, [0, 111])[0]
    assert p[0] == 0.0
    assert p[1] == pytest.approx(0.5, abs=1e-3)


def test_probability_approx_tracks_collapsed_oracle():
    # light version of the envelope acceptance check, one alpha
    n, alpha = 10**4, 1.0
    m = sc.leaves_from_alpha(n, alpha)
    t_opt = sc.optimal_time_exact(n, m)
    trace = sc.hub_trace("collapsed", n, m, 10 * t_opt, sc.LeafPhase.REVERSAL)
    envelope = sc.asymptotics.hub_series(n, alpha, trace.times)[0]
    assert np.abs(envelope - trace.p_hub).max() < 0.05


def test_optimal_time_exact_examples():
    assert sc.optimal_time_exact(100, 1) == 111
    assert sc.optimal_time_exact(100, 10) == 36
    assert sc.optimal_time_exact(100, 100) == 15
    # beyond 2^53, where a float64 floor is off by up to 196
    assert sc.optimal_time_exact(7 * 10**18, 1) == 7775045141777140932
    assert sc.optimal_time_exact(2**53 + 1, 1) == 10004482972370377
    assert sc.optimal_time_exact(17782794100389228, 1) == 19751718125350638


def _reference_optimal_time(mp, n, m):
    """floor(pi / (2 theta_1)) at 120 digits, theta_1 = acos(cos(theta_1))
    taken as 2 asin(sqrt((1 - cos(theta_1)) / 2))."""
    with mp.workdps(120):
        big_n, big_m = mp.mpf(n), mp.mpf(m)
        trace = (big_n - 2) / (big_n - 1)
        cos_1 = (trace + mp.sqrt(trace * trace + 4 / (big_n + big_m - 1))) / 2
        theta_1 = 2 * mp.asin(mp.sqrt((1 - cos_1) / 2))
        return int(mp.floor(mp.pi / (2 * theta_1)))


@pytest.mark.parametrize(
    "n", [3, 4, 10, 100, 10**3, 10**4, 10**6, 10**9, 10**12, 10**14, 10**15,
          10**16, 17782794100389228, 2**53 + 1, 10**17, 10**18, 7 * 10**18]
)
def test_optimal_time_exact_matches_120_digit_reference(n):
    mp = pytest.importorskip("mpmath")
    for m in sorted({1, math.isqrt(n), n, n * n}):
        assert sc.optimal_time_exact(n, m) == _reference_optimal_time(mp, n, m), (n, m)


def test_optimal_time_exact_near_an_integer():
    # pi / (2 theta_1) lies 1.3e-5 above an integer, closer than float64
    # resolves at 3.3e13: the float quotient floors one below it
    mp = pytest.importorskip("mpmath")
    n = 30000000000490
    quotient = math.pi / (2 * sc.discriminant_angles(n, 1).theta_1)
    assert math.ceil(quotient) - quotient < quotient * QUOTIENT_ERROR
    assert sc.optimal_time_exact(n, 1) == _reference_optimal_time(mp, n, 1) == 33321622036732


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
        sc.asymptotics.hub_series(100, 0.5, [t])


def test_asymptotic_series_reads_int64_step_counts_exactly():
    # below 2**53 an int64 count converts to float exactly: same rows as
    # evaluating at the float times
    times = np.array([0, 1, 7, 12345, 2**52 + 1], dtype=np.int64)
    theta_1 = sc.discriminant_angles(100, 10).theta_1
    p = sc.asymptotics.hub_series(100, 0.5, times)[0]
    oscillation = np.sin(times.astype(np.float64) * theta_1)
    assert np.array_equal(p, 0.5 * oscillation * oscillation)
