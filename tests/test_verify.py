"""The random-state checks of ``verify.run_checks`` catch faulty steps, and
every check is held to its one fixed tolerance."""

import dataclasses
import inspect
import tracemalloc

import numpy as np
import pytest

import starclique as sc
from starclique import cli, full_walk, verify
from starclique.cli import main
from starclique.graph import LeafPhase


def _check(report, name):
    (check,) = [c for c in report.checks if c.name == name]
    return check


def _inject(monkeypatch, fault, only=None):
    # the step kernel, rewriting a copy of each (a, b, star_in, star_out) it
    # yields (in leaf phase ``only``, if given): the random-state checks read
    # these vectors, and so does the public step that the dense route runs
    advance = full_walk._advance

    def faulty(n, m, state, leaf_phase, steps, columns=None):
        for vectors in advance(n, m, state, leaf_phase, steps, columns):
            if only in (None, leaf_phase):
                vectors = fault(*(vector.copy() for vector in vectors))
            yield vectors

    monkeypatch.setattr(full_walk, "_advance", faulty)


def _scaled(a, b, star_in, star_out):
    # off by 1e-9 in scale
    return tuple(vector * (1 + 1e-9) for vector in (a, b, star_in, star_out))


def _leaf_flipped(a, b, star_in, star_out):
    # a sign flip on one leaf's amplitude: unitary, but it singles out one
    # leaf, so the step no longer commutes with class averaging
    star_in[0] *= -1
    return a, b, star_in, star_out


def _nan_arc(a, b, star_in, star_out):
    # on an arc into a leaf, which the hub probe of the full trace leaves out
    star_out[0] = np.nan
    return a, b, star_in, star_out


def _stars_unswapped(a, b, star_in, star_out):
    # a shift that leaves the star vectors where the coin put them
    return a, b, star_out, star_in


def _clique_untransposed(a, b, star_in, star_out):
    # a shift that leaves the clique block untransposed: 1aᵀ + b1ᵀ read as
    # its transpose, a and b exchanged
    return b, a, star_in, star_out


def _arc_norm(*states):
    # Euclidean norm of one state, or of the difference of two, arc by arc
    blocks = [(s.clique, s.star_in, s.star_out) for s in states]
    parts = blocks[0] if len(blocks) == 1 else [x - y for x, y in zip(*blocks)]
    return np.sqrt(sum(np.vdot(p, p).real for p in parts))


def _dense_deviations(n, m, state, leaf_phase, other_phase):
    # one state's two deviations by the dense route: the public step, lift
    # and collapse, and arc-wise differences of whole states
    fw = full_walk
    stepped = fw.step(state, leaf_phase)
    left = fw.step(fw.lift(n, m, fw.collapse(state)), leaf_phase)
    right = fw.lift(n, m, fw.collapse(stepped))
    unitarity = np.max([abs(_arc_norm(out) - 1.0)
                        for out in (stepped, fw.step(state, other_phase))])
    return _arc_norm(left, right), unitarity


_OTHER = {LeafPhase.REVERSAL: LeafPhase.PLAIN, LeafPhase.PLAIN: LeafPhase.REVERSAL}


def test_non_unitary_step_fails_unitarity(monkeypatch):
    # the scaled vectors carry part of each stepped state's norm, so its
    # norm moves by a fraction of 1e-9, still far above 1e-12; the dense
    # route reads the same deviation from the same faulty kernel
    _inject(monkeypatch, _scaled)
    report = verify.run_checks(20, 4, 30, seed=3)
    check = _check(report, "unitarity")
    assert not check.passed
    assert 1e-11 < check.max_deviation < 1e-9
    dense = max(_dense_deviations(20, 4, state, LeafPhase.REVERSAL, LeafPhase.PLAIN)[1]
                for state in verify.random_walk_states(20, 4, verify.RANDOM_STATES, 3))
    assert check.max_deviation == pytest.approx(dense, rel=1e-3)


def test_non_unitary_step_in_the_other_phase_fails_unitarity(monkeypatch):
    # unitarity is checked in both leaf phases, not only the one verified
    _inject(monkeypatch, _scaled, only=LeafPhase.PLAIN)
    report = verify.run_checks(20, 4, 30, seed=3, leaf_phase=LeafPhase.REVERSAL)
    assert not _check(report, "unitarity").passed
    assert report.checks[0].passed  # the reversal-phase trace is sound


def test_asymmetric_step_fails_commutation(monkeypatch):
    _inject(monkeypatch, _leaf_flipped)
    report = verify.run_checks(20, 4, 30, seed=3)
    assert not _check(report, "projection_commutation").passed
    assert _check(report, "unitarity").passed


@pytest.mark.parametrize("fault", [_stars_unswapped, _clique_untransposed])
@pytest.mark.parametrize("phase", [LeafPhase.REVERSAL, LeafPhase.PLAIN])
def test_broken_shift_fails_the_remaining_checks(monkeypatch, fault, phase):
    # a broken shift fails the checks that step the walk, with no check of
    # the shift on its own
    _inject(monkeypatch, fault)
    report = verify.run_checks(20, 4, 30, seed=3, leaf_phase=phase)
    assert not report.passed
    for name in ("full_vs_collapsed_probability", "reduced_operator_conjugation"):
        assert not _check(report, name).passed


def test_faulty_kernel_column_sums_fail_unitarity(monkeypatch):
    # both steps of a state share the kernel's one read of its block, and
    # the check reads the block's column sums apart from it, so a fault in
    # the kernel's read shows
    column_sums = full_walk._column_sums
    monkeypatch.setattr(full_walk, "_column_sums", lambda state: column_sums(state) * (1 + 1e-9))
    report = verify.run_checks(20, 4, 30, seed=3)
    check = _check(report, "unitarity")
    assert not check.passed and 1e-11 < check.max_deviation < 1e-8
    assert report.checks[0].passed  # the uniform start reads no block


def test_nan_step_fails_the_random_state_checks(monkeypatch):
    # a NaN deviation must fail its check, not read as 0
    _inject(monkeypatch, _nan_arc)
    report = verify.run_checks(20, 4, 30, seed=3)
    for name in ("projection_commutation", "unitarity"):
        check = _check(report, name)
        assert not check.passed and np.isnan(check.max_deviation)


@pytest.mark.parametrize("n,m", [(20, 4), (57, 9), (100, 100)])
@pytest.mark.parametrize("phase", [LeafPhase.REVERSAL, LeafPhase.PLAIN])
@pytest.mark.parametrize("fault", [None, _leaf_flipped])
def test_structured_deviations_match_the_dense_route(monkeypatch, n, m, phase, fault):
    # per state, the structured checks read what the dense route reads, on a
    # sound kernel and on one that breaks the class symmetry
    if fault is not None:
        _inject(monkeypatch, fault)
    worst = 0.0
    for state in verify.random_walk_states(n, m, verify.RANDOM_STATES, seed=n + m):
        got = verify._random_state_deviations(n, m, state, phase, _OTHER[phase])
        want = _dense_deviations(n, m, state, phase, _OTHER[phase])
        assert np.abs(np.subtract(got, want)).max() <= 1e-13
        worst = max(worst, got[0])
    assert (worst > 1e-3) == (fault is not None)  # the fault shows


@pytest.mark.parametrize("n,m", [(3, 1), (20, 4), (57, 9), (100, 100)])
@pytest.mark.parametrize("phase", [LeafPhase.REVERSAL, LeafPhase.PLAIN])
def test_conjugated_operator_matches_the_dense_route(n, m, phase):
    # the class sums read from the stepped vectors against the public lift,
    # step and collapse of each class basis state
    dense = np.column_stack([
        full_walk.collapse(full_walk.step(full_walk.lift(n, m, sc.CollapsedState(e)), phase))
        .amplitudes for e in np.eye(5, dtype=np.complex128)
    ])
    assert np.abs(verify.conjugated_reduced_operator(n, m, phase) - dense).max() <= 1e-14


# every check's name and tolerance, in report order, as run_checks(20, 4, 30,
# seed=3) reported them when the thresholds were still keyword arguments,
# less shift_involution, which compared each state with itself
_PARENT_CHECKS = [
    ("full_vs_collapsed_probability", 1e-10),
    ("projection_commutation", 1e-12),
    ("unitarity", 1e-12),
    ("reduced_operator_conjugation", 1e-13),
    ("spectral_residuals", 1e-10),
    ("numeric_eigenvectors", 1e-10),
    ("eigenbasis_vs_iteration", 1e-10),
    ("discriminant_identities", 1e-12),
    ("collapse_lift_roundtrip", 1e-14),
]


def test_report_names_order_and_tolerances_are_fixed():
    report = verify.run_checks(20, 4, 30, seed=3)
    assert [(c.name, c.tolerance) for c in report.checks] == _PARENT_CHECKS
    assert list(verify.TOLERANCES.items()) == _PARENT_CHECKS
    assert report.passed


def test_run_checks_takes_no_threshold():
    params = list(inspect.signature(verify.run_checks).parameters)
    assert params == [
        "n_clique", "n_leaves", "steps", "seed", "leaf_phase", "inject_leaf_phase_flip"
    ]


def test_spectrum_and_verify_share_the_spectral_gates():
    assert verify.TOLERANCES["spectral_residuals"] is sc.spectral.RESIDUAL_TOLERANCE
    assert verify.TOLERANCES["numeric_eigenvectors"] is sc.spectral.NUMERIC_TOLERANCE


def test_pass_rule_at_the_tolerance():
    # a deviation equal to its tolerance fails a strict check ...
    assert not verify.judge("unitarity", 1e-12).passed
    assert not verify.judge("spectral_residuals", sc.spectral.RESIDUAL_TOLERANCE).passed
    # ... and passes the numeric-eigenvector check, as in ``spectrum``
    assert verify.judge("numeric_eigenvectors", sc.spectral.NUMERIC_TOLERANCE).passed
    assert not verify.judge("numeric_eigenvectors", np.nextafter(1e-10, 1.0)).passed


@pytest.mark.parametrize("name", list(verify.TOLERANCES))
def test_nan_deviation_fails_every_check(name):
    check = verify.judge(name, float("nan"), "detail")
    assert not check.passed and np.isnan(check.max_deviation)
    assert check.detail == "detail"


def test_random_states_are_drawn_one_at_a_time():
    n = 200
    verify.run_checks(20, 3, 5)  # imports and caches outside the measurement
    tracemalloc.start()
    try:
        verify.run_checks(n, 17, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one complex N x N buffer and fixed costs, 1.24 copies of the arcs;
    # all 20 states held at once take 20
    assert peak <= 1.5 * 16 * n * n


def test_random_state_checks_hold_three_copies():
    # the draw's buffer and no other N x N array, about 1.06 complex copies
    # of the arcs at N = 400 (2.06 with the retired involution's difference)
    n = 400
    verify.run_checks(20, 3, 5)  # imports and caches outside the measurement
    tracemalloc.start()
    try:
        verify.run_checks(n, 20, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * 16 * n * n


def test_random_states_are_the_listed_draws():
    # the states, in order, of one generator drawing one centred uniform
    # block of complex amplitudes per state, scaled as doubles
    rng = np.random.default_rng(5)
    size = 81 + 8
    drawn = verify.random_walk_states(9, 4, 3, seed=5)
    for _ in range(3):
        flat = rng.random(2 * size) - 0.5
        psi = flat.view(np.complex128)
        np.fill_diagonal(psi[:81].reshape(9, 9), 0.0)
        flat /= np.linalg.norm(flat)
        state = next(drawn)
        got = np.concatenate([state.clique.ravel(), state.star_in, state.star_out])
        assert np.array_equal(got, psi)
    assert next(drawn, None) is None


def _drawn(n, m, seed):
    # each state copied as it is drawn: the next draw overwrites it
    return [np.concatenate([s.clique.ravel(), s.star_in, s.star_out])
            for s in verify.random_walk_states(n, m, verify.RANDOM_STATES, seed)]


def test_random_states_are_distinct_unit_states_that_repeat():
    flat = _drawn(12, 5, seed=9)
    for vector in flat:
        assert np.linalg.norm(vector) == pytest.approx(1.0, abs=1e-15)
        assert not vector[:144:13].any()  # the clique diagonal
        assert np.count_nonzero(vector) == vector.size - 12  # every arc off the diagonal
    assert len({vector.tobytes() for vector in flat}) == len(flat)
    for vector, again in zip(flat, _drawn(12, 5, seed=9)):
        assert np.array_equal(vector, again)


# a NaN deviation fails each gate that reduces several deviations, wherever
# it falls among them (the builtin max keeps a NaN only when it comes first)


def test_nan_lift_fails_collapse_lift_roundtrip(monkeypatch):
    lift = full_walk.lift

    def faulty(n, m, state):
        out = lift(n, m, state)
        clique = out.clique.copy()
        clique[2, 3] = np.nan  # an interior clique arc
        return sc.WalkState(clique, out.star_in, out.star_out)

    monkeypatch.setattr(full_walk, "lift", faulty)
    check = _check(verify.run_checks(20, 4, 30, seed=3), "collapse_lift_roundtrip")
    assert not check.passed and np.isnan(check.max_deviation)


class _NanProduct(float):
    """A root whose product with the other comes out NaN; its sum does not."""

    def __mul__(self, other):
        return float("nan")


def test_nan_root_product_fails_discriminant_identities(monkeypatch):
    angles = verify.discriminant_angles

    def faulty(n_clique, n_leaves):
        ang = angles(n_clique, n_leaves)
        return ang._replace(cos_theta_1=_NanProduct(ang.cos_theta_1))

    monkeypatch.setattr(verify, "discriminant_angles", faulty)
    check = _check(verify.run_checks(20, 4, 30, seed=3), "discriminant_identities")
    assert not check.passed and np.isnan(check.max_deviation)


def _nan_second_residual(report):
    return dataclasses.replace(report, residuals=(report.residuals[0], np.nan, *report.residuals[2:]))


def test_nan_residual_fails_spectral_residuals(monkeypatch):
    eigensystem = verify.walk_eigensystem
    monkeypatch.setattr(
        verify, "walk_eigensystem", lambda n, m: _nan_second_residual(eigensystem(n, m))
    )
    check = _check(verify.run_checks(20, 4, 30, seed=3), "spectral_residuals")
    assert not check.passed and np.isnan(check.max_deviation)


def test_nan_residual_fails_spectrum(tmp_path, capsys, monkeypatch):
    audit = cli.audit_closed_forms

    def faulty(n_clique, n_leaves):
        got = audit(n_clique, n_leaves)
        return dataclasses.replace(got, report=_nan_second_residual(got.report))

    monkeypatch.setattr(cli, "audit_closed_forms", faulty)
    out = tmp_path / "spectrum.json"
    assert main(["spectrum", "--n", "100", "--m", "10", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("spectral residual nan exceeds") and err.count("\n") == 1
    assert not out.exists()
