"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single summary line (visible with ``pytest -s`` or on
failure) so a reviewer can read the pass/fail state per criterion directly.
"""

import math

import numpy as np

from arc_table import arc_amplitudes
import starclique as sc
from starclique.graph import ArcClass, LeafPhase
from starclique.verify import random_walk_states


def _report(number: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} {status} [{name}] {detail}")
    assert passed, f"criterion {number} ({name}): {detail}"


def _m_grid(n: int) -> list[int]:
    return sorted({1, math.isqrt(n), n})


def test_criterion_1_oracle_equivalence():
    """Full arc-space walk and reduced iteration agree to 1e-10 over 1000 steps."""
    worst = 0.0
    worst_at = None
    for n in (3, 10, 50, 100, 200):
        for m in _m_grid(n):
            graph = sc.build_graph(n, m)
            full = sc.evolve(graph, 1000)
            ops = sc.build_reduced_operators(n, m)
            reduced = sc.evolve_collapsed(ops, sc.collapsed_initial_state(n, m), 1000)
            dev = float(np.abs(full.p_hub - reduced.p_hub).max())
            if dev > worst:
                worst, worst_at = dev, (n, m)
    _report(
        1, "oracle equivalence", worst < 1e-10,
        f"max |p_full - p_collapsed| = {worst:.3e} at (N, m) = {worst_at}",
    )


def test_criterion_2_projection_commutation():
    """Step and class projection commute to 1e-12 on 100 random states."""
    worst = 0.0
    for n in (5, 20, 50):
        for m in (1, 4, 20):
            graph = sc.build_graph(n, m)
            for state in random_walk_states(graph, 100, seed=0):
                left = sc.step(graph, sc.lift(graph, sc.collapse(graph, state)))
                right = sc.lift(graph, sc.collapse(graph, sc.step(graph, state)))
                dev = float(np.linalg.norm(arc_amplitudes(left) - arc_amplitudes(right)))
                worst = max(worst, dev)
    _report(2, "projection commutation", worst < 1e-12, f"max norm = {worst:.3e}")


def test_criterion_3_spectrum():
    """Numeric eigenvalues match the closed-form angles; root identities hold."""
    worst_eig = 0.0
    worst_identity = 0.0
    for n in (3, 10, 100, 10**4, 10**6):
        for m in _m_grid(n):
            ang = sc.discriminant_angles(n, m)
            values = np.linalg.eigvals(
                sc.build_reduced_operators(n, m).evolution
            )
            targets = [
                np.exp(1j * ang.theta_1),
                np.exp(-1j * ang.theta_1),
                np.exp(1j * ang.theta_2),
                np.exp(-1j * ang.theta_2),
                -1.0 + 0.0j,
            ]
            remaining = list(range(5))
            for target in targets:
                j = min(remaining, key=lambda idx: abs(values[idx] - target))
                worst_eig = max(worst_eig, abs(values[j] - target))
                remaining.remove(j)
            worst_identity = max(
                worst_identity,
                abs(ang.cos_theta_1 + ang.cos_theta_2 - (n - 2) / (n - 1)),
                abs(ang.cos_theta_1 * ang.cos_theta_2 + 1.0 / (n + m - 1)),
            )
    _report(
        3, "spectrum", worst_eig < 1e-10 and worst_identity < 1e-12,
        f"max eigenvalue deviation = {worst_eig:.3e}, "
        f"max identity deviation = {worst_identity:.3e}",
    )


def test_criterion_4_probability_plateau():
    """p at the optimal time sits in [0.45, 0.55] at N = 10^4 for every alpha."""
    n = 10**4
    values = {}
    for alpha in (0.0, 0.5, 1.0, 1.5, 2.0):
        m = sc.leaves_from_alpha(n, alpha)
        t_opt = sc.optimal_time_exact(n, m)
        ops = sc.build_reduced_operators(n, m)
        psi = sc.collapsed_initial_state(n, m).amplitudes
        for _ in range(t_opt):
            psi = ops.evolution @ psi
        values[alpha] = float(
            abs(psi[ArcClass.CLIQUE_IN]) ** 2 + abs(psi[ArcClass.STAR_IN]) ** 2
        )
    ok = all(0.45 <= p <= 0.55 for p in values.values())
    detail = ", ".join(f"alpha={a}: p={p:.4f}" for a, p in values.items())
    _report(4, "probability plateau", ok, detail)


def test_criterion_5_scaling_exponents():
    """Log-log fits of the optimal time reproduce the phase-diagram exponents."""
    grid = [2**k for k in (8, 10, 12, 14, 16)]
    expected = {0.0: 1.0, 0.5: 0.75, 1.0: 0.5, 1.5: 0.5, 2.0: 0.5}
    fits = {alpha: sc.exponent_fit(alpha, grid) for alpha in expected}
    ok = all(
        abs(fit.fitted_exponent - expected[alpha]) < 0.05
        for alpha, fit in fits.items()
    )
    detail = ", ".join(
        f"alpha={a}: {fit.fitted_exponent:.3f} (theory {expected[a]})"
        for a, fit in fits.items()
    )
    _report(5, "scaling exponents", ok, detail)


def test_criterion_6_envelope():
    """sin^2(t theta_1)/2 envelopes the collapsed trace within 0.05."""
    n = 10**4
    worst = 0.0
    worst_alpha = None
    for alpha in (0.0, 0.5, 1.0, 1.5):
        m = sc.leaves_from_alpha(n, alpha)
        theta_1 = sc.discriminant_angles(n, m).theta_1
        t_opt = sc.optimal_time_exact(n, m)
        ops = sc.build_reduced_operators(n, m)
        trace = sc.evolve_collapsed(
            ops, sc.collapsed_initial_state(n, m), 10 * t_opt
        )
        envelope = 0.5 * np.sin(trace.times * theta_1) ** 2
        dev = float(np.abs(envelope - trace.p_hub).max())
        if dev > worst:
            worst, worst_alpha = dev, alpha
    _report(
        6, "probability envelope", worst < 0.05,
        f"max |envelope - p| = {worst:.4f} at alpha = {worst_alpha}",
    )


def test_criterion_7_trace_peaks():
    """Collapsed traces at N = 100 peak at the expected times and heights."""
    expectations = {0.0: 111, 0.5: 36, 1.0: 15}
    details = []
    ok = True
    for alpha, expected_peak in expectations.items():
        m = sc.leaves_from_alpha(100, alpha)
        t_opt = sc.optimal_time_exact(100, m)
        ops = sc.build_reduced_operators(100, m)
        # window of one envelope period: the quasi-periodic later peaks can
        # edge higher, so the peak is read off the first period
        trace = sc.evolve_collapsed(
            ops, sc.collapsed_initial_state(100, m), 2 * t_opt
        )
        peak_at = int(np.argmax(trace.p_hub))
        peak = float(trace.p_hub[peak_at])
        ok = ok and abs(peak_at - expected_peak) <= 2 and 0.35 <= peak <= 0.65
        details.append(
            f"alpha={alpha}: peak {peak:.3f} at t={peak_at} (expect {expected_peak}+-2)"
        )
    _report(7, "trace peaks", ok, "; ".join(details))


def test_criterion_8_plain_baseline():
    """Without phase reversal the hub probability stays below 10/N."""
    details = []
    ok = True
    for n in (50, 100, 200):
        t_max = int(50 * math.sqrt(n))
        ops = sc.build_reduced_operators(n, 1, LeafPhase.PLAIN)
        trace = sc.evolve_collapsed(ops, sc.collapsed_initial_state(n, 1), t_max)
        peak = float(trace.p_hub.max())
        ok = ok and peak < 10.0 / n
        details.append(f"N={n}: max p = {peak:.4f} (bound {10.0 / n:.3f})")
    _report(8, "plain baseline", ok, "; ".join(details))


def test_criterion_9_closed_form_audit():
    """The closed-form transcriptions are audited against the numeric
    reference; deviations are reported, and the suite's pass/fail rests on
    the reference evaluator (criteria 1-7), not on the transcriptions."""
    audit = sc.audit_closed_forms(100, 10)
    lines = [f"  flagged: {flag}" for flag in audit.flagged]
    # the audit must have examined the known candidates
    found_beta = audit.beta_sq_relative_gap > 1e-8
    found_amplitude = audit.amplitude_deviation > 1e-8
    # the reference side itself must be consistent
    reference_ok = (
        max(audit.report.residuals) < 1e-10
        and audit.parity_term_deviation < 1e-12
        and audit.corrected_amplitude_deviation < 1e-11
        and all(p.closed_form_deviation < 1e-10 for p in audit.report.eigenpairs)
    )
    detail = (
        f"{len(audit.flagged)} flagged components "
        f"(normalization gap {audit.beta_sq_relative_gap:.2e}, "
        f"amplitude gap {audit.amplitude_deviation:.2e}, "
        f"corrected {audit.corrected_amplitude_deviation:.2e}); "
        f"reference residual {max(audit.report.residuals):.2e}"
    )
    print("\n".join(lines))
    _report(
        9, "closed-form audit", reference_ok and found_beta and found_amplitude,
        detail,
    )
