"""The random-state checks of ``verify.run_checks`` catch faulty steps."""

import numpy as np
import pytest

import starclique as sc
from starclique import full_walk, verify
from starclique.graph import LeafPhase


def _check(report, name):
    (check,) = [c for c in report.checks if c.name == name]
    return check


def test_non_unitary_step_fails_unitarity(monkeypatch):
    # a step off by 1e-9 in scale: the norm moves by 1e-9, far above 1e-12
    step = full_walk.step

    def faulty(graph, state, leaf_phase=LeafPhase.REVERSAL):
        out = step(graph, state, leaf_phase)
        scale = 1 + 1e-9
        return sc.WalkState(out.clique * scale, out.star_in * scale,
                            out.star_out * scale, out.time)

    monkeypatch.setattr(full_walk, "step", faulty)
    report = verify.run_checks(20, 4, 30, seed=3)
    check = _check(report, "unitarity")
    assert not check.passed
    assert check.max_deviation == pytest.approx(1e-9, rel=1e-3)


def test_asymmetric_step_fails_commutation(monkeypatch):
    # a sign flip on one interior clique arc is unitary but singles out
    # two vertices, so the step no longer commutes with class averaging
    step = full_walk.step

    def faulty(graph, state, leaf_phase=LeafPhase.REVERSAL):
        out = step(graph, state, leaf_phase)
        clique = out.clique.copy()
        clique[1, 2] *= -1
        return sc.WalkState(clique, out.star_in, out.star_out, out.time)

    monkeypatch.setattr(full_walk, "step", faulty)
    report = verify.run_checks(20, 4, 30, seed=3)
    assert not _check(report, "projection_commutation").passed
    assert _check(report, "unitarity").passed


def test_nan_step_fails_the_random_state_checks(monkeypatch):
    # a NaN deviation must fail its check, not read as 0
    step = full_walk.step

    def faulty(graph, state, leaf_phase=LeafPhase.REVERSAL):
        out = step(graph, state, leaf_phase)
        clique = out.clique.copy()
        clique[1, 2] = np.nan
        return sc.WalkState(clique, out.star_in, out.star_out, out.time)

    monkeypatch.setattr(full_walk, "step", faulty)
    report = verify.run_checks(20, 4, 30, seed=3)
    for name in ("projection_commutation", "unitarity"):
        check = _check(report, name)
        assert not check.passed and np.isnan(check.max_deviation)


_complex_states = verify.random_walk_states


def _real_states(graph, count, seed):
    states = []
    for state in _complex_states(graph, count, seed):
        arrays = [a.real.copy() for a in (state.clique, state.star_in, state.star_out)]
        norm = np.sqrt(sum(np.vdot(a, a) for a in arrays))
        states.append(sc.WalkState(*(a / norm for a in arrays)))
    return states


@pytest.mark.parametrize("real", [False, True])
def test_shift_involution_reads_zero(monkeypatch, real):
    if real:
        monkeypatch.setattr(verify, "random_walk_states", _real_states)
    report = verify.run_checks(15, 6, 20, seed=8)
    check = _check(report, "shift_involution")
    assert check.passed and check.max_deviation == 0.0
    assert _check(report, "unitarity").passed
    assert _check(report, "projection_commutation").passed
