import math

import numpy as np
import pytest

import starclique as sc
from starclique import audit
from starclique import spectral as sp
from starclique.graph import ArcClass, LeafPhase
from starclique.modes import MODES


GRID = [(3, 1), (10, 3), (100, 1), (100, 10), (100, 100), (1000, 31)]


@pytest.mark.parametrize("n,m", GRID)
def test_angles_against_symmetric_eigensolve(n, m):
    # independent oracle: eigendecomposition of the 2x2 discriminant block
    block = np.array(
        [
            [(n - 2) / (n - 1), 1 / math.sqrt(n + m - 1)],
            [1 / math.sqrt(n + m - 1), 0.0],
        ]
    )
    low, high = np.linalg.eigvalsh(block)
    ang = sc.discriminant_angles(n, m)
    assert ang.cos_theta_1 == pytest.approx(high, abs=1e-14)
    assert ang.cos_theta_2 == pytest.approx(low, abs=1e-14)
    assert 0 < ang.theta_1 < ang.theta_2 < math.pi
    assert ang.theta_1 == pytest.approx(math.acos(high), rel=1e-9)
    assert ang.theta_2 == pytest.approx(math.acos(low), rel=1e-12)


def test_angle_frozen_examples():
    ang = sc.discriminant_angles(3, 1)
    assert ang.cos_theta_1 == pytest.approx(0.879153, abs=1e-6)
    assert ang.cos_theta_2 == pytest.approx(-0.379153, abs=1e-6)

    ang = sc.discriminant_angles(100, 1)
    assert ang.cos_theta_1 == pytest.approx(0.9999000, abs=1e-7)
    assert ang.theta_1 == pytest.approx(0.014142, rel=1e-4)

    ang = sc.discriminant_angles(100, 100)
    assert ang.cos_theta_1 == pytest.approx(0.9949496, abs=1e-6)
    # the 0.100502 reference is the small-angle value sqrt(2(1-cos));
    # the definitional arccos gives 0.1005449
    assert ang.theta_1 == pytest.approx(0.100502, rel=1e-3)
    assert ang.theta_1 == pytest.approx(math.acos(ang.cos_theta_1), rel=1e-12)


@pytest.mark.parametrize("n,m", GRID + [(10**6, 1), (10**6, 1000)])
def test_root_identities(n, m):
    ang = sc.discriminant_angles(n, m)
    assert abs(ang.cos_theta_1 + ang.cos_theta_2 - (n - 2) / (n - 1)) < 1e-12
    assert abs(ang.cos_theta_1 * ang.cos_theta_2 + 1.0 / (n + m - 1)) < 1e-12


def test_discriminant_eigenvectors_residuals_and_orthogonality():
    # in vertex-class order (clique, leaves, hub) the eigenvector for
    # cos(theta_x) is (cos(theta_x), 0, 1/sqrt(N+m-1)), of squared norm
    # vector_normalization_sq: the vectors the eigenbasis is built on
    n, m = 100, 10
    ops = sc.build_reduced_operators(n, m)
    ang = sc.discriminant_angles(n, m)
    f1, f2 = (
        np.array([cos_x, 0.0, 1 / math.sqrt(n + m - 1)])
        / math.sqrt(sp.vector_normalization_sq(n, m, x))
        for x, cos_x in ((1, ang.cos_theta_1), (2, ang.cos_theta_2))
    )
    assert np.linalg.norm(ops.discriminant @ f1 - ang.cos_theta_1 * f1) < 1e-12
    assert np.linalg.norm(ops.discriminant @ f2 - ang.cos_theta_2 * f2) < 1e-12
    assert abs(np.dot(f1, f2)) < 1e-12
    assert np.linalg.norm(f1) == pytest.approx(1.0, abs=1e-14)
    assert np.linalg.norm(f2) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("n,m", GRID)
def test_vector_normalization_identity(n, m):
    ang = sc.discriminant_angles(n, m)
    for x, cos_x in ((1, ang.cos_theta_1), (2, ang.cos_theta_2)):
        stored = sp.vector_normalization_sq(n, m, x)
        assert stored == pytest.approx(cos_x**2 + 1.0 / (n + m - 1), abs=1e-14)


@pytest.mark.parametrize("n,m", [(3, 1), (100, 10), (10**4, 100)])
def test_walk_eigensystem_core(n, m):
    report = sc.walk_eigensystem(n, m)
    ang = sc.discriminant_angles(n, m)
    values = [pair.value for pair in report.eigenpairs]
    expected = [
        np.exp(1j * ang.theta_1),
        np.exp(-1j * ang.theta_1),
        np.exp(1j * ang.theta_2),
        np.exp(-1j * ang.theta_2),
        -1.0,
    ]
    assert np.allclose(values, expected, atol=1e-14)
    assert max(report.residuals) < 1e-10
    # inside the numeric domain the eigensolver agrees with the analytic pairs
    assert all(pair.in_domain for pair in report.eigenpairs)
    assert report.numeric_deviation < 1e-12
    vectors = np.column_stack([p.vector for p in report.eigenpairs])
    gram = vectors.conj().T @ vectors
    assert np.abs(gram - np.eye(5)).max() < 1e-10
    for pair in report.eigenpairs:
        assert np.linalg.norm(pair.vector) == pytest.approx(1.0, abs=1e-12)
    # completeness: the collapsed initial state lies in the span
    weights = vectors.conj().T @ sc.collapsed_initial_state(n, m).amplitudes
    assert np.sum(np.abs(weights) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_flip_eigenvector_smallest():
    report = sc.walk_eigensystem(3, 1)
    flip = report.eigenpairs[4].vector.real
    scaled = flip / flip[ArcClass.CLIQUE_INTERIOR] * -1.0
    expected = np.array([-1.0, 1.0, 1.0, -math.sqrt(2), -math.sqrt(2)])
    assert np.allclose(scaled, expected, atol=1e-12)


def test_flip_eigenvector_component_ratio():
    n, m = 11, 4
    report = sc.walk_eigensystem(n, m)
    flip = report.eigenpairs[4].vector.real
    ratio = flip[ArcClass.CLIQUE_IN] / flip[ArcClass.CLIQUE_INTERIOR]
    assert ratio == pytest.approx(-math.sqrt(n - 2), rel=1e-12)


def test_rotating_closed_form_star_component():
    # the outgoing star component before the global prefactor is sqrt(m)/(N+m-1)
    n, m = 100, 10
    ang = sc.discriminant_angles(n, m)
    vec = audit.rotating_eigenvector_closed_form(n, m, 1, 1)
    prefactor = math.sqrt(2.0 * sp.vector_normalization_sq(n, m, 1)) * abs(
        math.sin(ang.theta_1)
    )
    assert vec[ArcClass.STAR_OUT] * prefactor == pytest.approx(
        math.sqrt(m) / (n + m - 1), rel=1e-12
    )


def test_rotating_closed_forms_are_unit_norm():
    for n, m in [(10, 3), (100, 10)]:
        for x in (1, 2):
            for sign in (1, -1):
                vec = audit.rotating_eigenvector_closed_form(n, m, x, sign)
                assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)


def test_sign_swap_detected_with_tiny_deviation():
    # the closed-form rotating vectors are exact eigenvectors, but of the
    # conjugate eigenvalue relative to their label
    report = sc.audit_closed_forms(10, 3).report
    for pair in report.eigenpairs[:4]:
        assert pair.sign_swapped
        assert pair.closed_form_deviation < 1e-10
    assert report.eigenpairs[4].closed_form_deviation < 1e-10
    assert any("trade places" in flag for flag in report.formula_flags)


def test_flip_normalization_exact_vs_expansion():
    n, m = 10, 3
    pattern = sp.flip_eigenvector_pattern(n, m)
    exact = sp.flip_normalization_sq(n, m)
    assert exact == pytest.approx(float(pattern @ pattern), rel=1e-14)
    # the expansion form differs in a subleading term (2(N-1) vs 2(N-2))
    expansion = audit.flip_normalization_sq_expansion(n, m)
    assert expansion - exact == pytest.approx(2.0, abs=1e-9)
    unit = pattern / math.sqrt(exact)
    assert np.linalg.norm(unit) == pytest.approx(1.0, abs=1e-14)


def test_evaluator_amplitudes_at_time_zero():
    n, m = 100, 10
    state = sc.EigenbasisEvaluator(n, m).state_series([0])[0]
    assert state[ArcClass.CLIQUE_IN] == pytest.approx(1 / math.sqrt(n), abs=1e-12)
    assert abs(state[ArcClass.STAR_IN]) < 1e-12


def test_closed_form_amplitudes_t0_within_remainder():
    # the oscillator expansion carries an o(1) remainder; it shrinks with N
    devs = []
    for n in (100, 1000, 10000):
        m = sc.leaves_from_alpha(n, 0.5)
        coeff = audit._oscillator_coefficients(
            n, m, sc.discriminant_angles(n, m), 0, audit.TABULATED_SECOND_OFFSET
        )
        clique_in, star_in = audit._expansion(coeff, 0)
        dev = max(abs(clique_in - 1 / math.sqrt(n)), abs(star_in))
        devs.append(dev)
    assert devs[0] < 0.5
    assert devs[2] < 0.05
    assert devs[0] > devs[1] > devs[2]


def test_derived_offset_matches_reference_exactly():
    # the audit's expansion with the derived offset, both amplitudes, t = 0..200
    for n, m in [(3, 1), (10, 3), (100, 10)]:
        assert sc.audit_closed_forms(n, m).corrected_amplitude_deviation < 1e-12


@pytest.mark.parametrize("n", [10, 100, 1000])
def test_eigenbasis_matches_iteration(n):
    for m in sorted({1, math.isqrt(n), n}):
        evaluator = sc.EigenbasisEvaluator(n, m)
        trace = sc.hub_trace("collapsed", n, m, 1000, LeafPhase.REVERSAL)
        series = evaluator.state_series(np.arange(1001))
        p_closed = (
            np.abs(series[:, ArcClass.CLIQUE_IN]) ** 2
            + np.abs(series[:, ArcClass.STAR_IN]) ** 2
        )
        assert np.abs(p_closed - trace.p_hub).max() < 1e-10


def test_closed_form_probability_values():
    assert sc.closed_form_probability(100, 10, 0) == pytest.approx(0.01, abs=1e-12)
    with pytest.raises(ValueError):
        sc.closed_form_probability(100, 10, -1)


def test_probability_near_half_at_optimal_time():
    n, m = 10**4, 1
    t_opt = sc.optimal_time_exact(n, m)
    state = sc.EigenbasisEvaluator(n, m).state_series([t_opt])[0]
    star_sq = abs(state[ArcClass.STAR_IN]) ** 2
    clique_sq = abs(state[ArcClass.CLIQUE_IN]) ** 2
    assert abs(star_sq - 0.5) < 0.02
    assert clique_sq < 0.02
    assert abs(sc.closed_form_probability(n, m, t_opt) - 0.5) < 0.02


def test_parity_terms_match_flip_contribution():
    for n, m in [(10, 3), (100, 10)]:
        audit = sc.audit_closed_forms(n, m)
        assert audit.parity_term_deviation < 1e-12


def test_audit_reports_expected_flags():
    audit = sc.audit_closed_forms(100, 10)
    assert audit.corrected_amplitude_deviation < 1e-11
    assert audit.amplitude_deviation > 1e-3  # the tabulated offset is o(1) off
    assert audit.beta_sq_relative_gap > 1e-8
    text = "\n".join(audit.flagged)
    assert "trade places" in text
    assert "normalization" in text
    assert "oscillator expansion" in text


def test_negative_time_rejected():
    # the closed-form amplitudes come from the eigenbasis evaluator
    with pytest.raises(ValueError):
        sc.EigenbasisEvaluator(10, 3).state_series([-1])


# ---------------------------------------------------------------------------
# two-plane closed form


def _reference_state(mp, n, m, t):
    """M^t psi0 at 50 digits, M built from exact integers and raised by
    repeated squaring: independent of every closed form."""
    with mp.workdps(50):
        big_n, big_m = mp.mpf(n), mp.mpf(m)
        boundary = mp.zeros(3, 5)
        boundary[0, 0] = mp.sqrt((big_n - 2) / (big_n - 1))
        boundary[0, 2] = 1 / mp.sqrt(big_n - 1)
        boundary[2, 1] = mp.sqrt((big_n - 1) / (big_n + big_m - 1))
        boundary[2, 3] = mp.sqrt(big_m / (big_n + big_m - 1))
        shift = mp.zeros(5, 5)
        for i, j in ((0, 0), (1, 2), (2, 1), (3, 4), (4, 3)):
            shift[i, j] = 1
        power = shift * (2 * boundary.T * boundary - mp.eye(5))
        root_n = mp.sqrt(big_n)
        psi = mp.matrix([mp.sqrt(big_n - 2) / root_n, 1 / root_n, 1 / root_n, 0, 0])
        while t:
            if t & 1:
                psi = power * psi
            power = power * power
            t >>= 1
        return [float(psi[k]) for k in range(5)]


def _reference_probability(mp, n, m, t):
    psi = _reference_state(mp, n, m, t)
    return psi[ArcClass.CLIQUE_IN] ** 2 + psi[ArcClass.STAR_IN] ** 2


@pytest.mark.parametrize("exponent", range(3, 19))
def test_two_plane_optimal_probability_matches_50_digit_reference(exponent):
    mp = pytest.importorskip("mpmath")
    n = 10**exponent
    for m in sorted({1, math.isqrt(n), n}):
        t_opt = sc.optimal_time_exact(n, m)
        p = sp.EigenbasisEvaluator(n, m).hub_series([t_opt])[0][0]
        assert abs(p - _reference_probability(mp, n, m, t_opt)) < 1e-10
        assert sc.closed_form_probability(n, m, t_opt) == p


@pytest.mark.parametrize("exponent", range(3, 19))
def test_evaluator_state_matches_50_digit_reference(exponent):
    # every component to a relative 1e-10, or to 1e-15 absolute below that
    mp = pytest.importorskip("mpmath")
    n = 10**exponent
    for m in sorted({1, math.isqrt(n), n}):
        evaluator = sc.EigenbasisEvaluator(n, m)
        for t in (0, 1, sc.optimal_time_exact(n, m)):
            want = np.array(_reference_state(mp, n, m, t))
            got = evaluator.state_series([t])[0]
            assert got.shape == (5,)
            assert (np.abs(got - want) <= np.maximum(1e-10 * np.abs(want), 1e-15)).all()


def test_evaluators_use_no_linear_algebra(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("linear algebra on the evaluator path")

    monkeypatch.setattr(sp, "build_reduced_operators", forbidden)
    for name in ("eig", "eigh", "eigvals", "norm", "solve", "inv"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    evaluator = sc.EigenbasisEvaluator(10**6, 1000)
    evaluator.state_series(range(5))
    evaluator.eigenpairs()
    evaluator.hub_series([0, 7])
    sc.closed_form_probability(10**6, 1000, 7)


@pytest.mark.parametrize(
    "n,m", [(3, 1), (3, 10**12), (4, 1), (10, 3), (100, 10), (1000, 1000), (57, 3000)]
)
def test_two_plane_series_matches_iteration(n, m):
    times = np.arange(401)
    iterated = MODES["collapsed"].series(n, m, LeafPhase.REVERSAL)(times)
    closed = sp.EigenbasisEvaluator(n, m).hub_series(times)
    for got, want in zip(closed, iterated):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.abs(got - want).max() < 1e-12


def test_two_plane_series_takes_times_in_any_order():
    times = [400, 0, 7, 7, 3]
    evaluator = sp.EigenbasisEvaluator(100, 10)
    p, clique_in, star_in = evaluator.hub_series(times)
    full = evaluator.hub_series(range(401))
    assert np.array_equal(p, full[0][times])
    assert np.array_equal(star_in, full[2][times])
    assert p[1] == pytest.approx(0.01, abs=1e-15)


def test_two_plane_series_rejects_negative_times():
    with pytest.raises(ValueError):
        sp.EigenbasisEvaluator(100, 10).hub_series([3, -1])
    with pytest.raises(ValueError):
        sp.EigenbasisEvaluator(100, 10).hub_series([2**63])


def test_cos_theta_2_matches_50_digit_reference():
    mp = pytest.importorskip("mpmath")
    for n in (10**12, 10**15, 10**17):
        with mp.workdps(50):
            trace = mp.mpf(n - 2) / (n - 1)
            want = (trace - mp.sqrt(trace * trace + mp.mpf(4) / n)) / 2
        got = sc.discriminant_angles(n, 1).cos_theta_2
        assert abs((got - float(want)) / float(want)) < 1e-15

