"""Cross-evaluator verification harness.

Runs the consistency checks that tie the three evaluators together on one
parameter point: full arc-space evolution against the reduced iteration,
the reduced operator against the conjugated full operator, commutation of
the evolution with the class-averaging projection, unitarity, shift
involution, the residuals of the analytic eigenpairs, the numeric
eigenvectors against them inside their domain, and the eigenbasis
evaluator against plain iteration.  Each check is held to one fixed
tolerance in ``TOLERANCES``.  Used by the command-line ``verify`` command
and by the tests.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterator

import numpy as np

from . import collapsed as cw
from . import full_walk as fw
from .graph import HUB, GluedGraph, LeafPhase, build_graph
from .spectral import (
    NUMERIC_TOLERANCE,
    RESIDUAL_TOLERANCE,
    EigenbasisEvaluator,
    discriminant_angles,
    walk_eigensystem,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_deviation: float
    tolerance: float
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    n_clique: int
    n_leaves: int
    steps: int
    seed: int
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n_clique,
            "m": self.n_leaves,
            "steps": self.steps,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [asdict(c) for c in self.checks],
        }


#: How many random unit states the random-state checks draw.
RANDOM_STATES = 20

#: Every check's fixed tolerance, in the order ``run_checks`` reports them.
#: A check passes when its deviation is below its tolerance; the checks in
#: INCLUSIVE pass at it too, so shift_involution, a largest difference held
#: to 0, passes only at exactly 0.  A NaN deviation fails every check.
TOLERANCES = {
    "full_vs_collapsed_probability": 1e-10,
    "projection_commutation": 1e-12,
    "unitarity": 1e-12,
    "shift_involution": 0.0,
    "reduced_operator_conjugation": 1e-13,
    "spectral_residuals": RESIDUAL_TOLERANCE,
    "numeric_eigenvectors": NUMERIC_TOLERANCE,
    "eigenbasis_vs_iteration": 1e-10,
    "discriminant_identities": 1e-12,
    "collapse_lift_roundtrip": 1e-14,
}
INCLUSIVE = frozenset({"shift_involution", "numeric_eigenvectors"})


def judge(name: str, deviation: float, detail: str = "") -> CheckResult:
    """Check ``name``'s result at ``deviation``, held to its tolerance."""
    deviation, tolerance = float(deviation), TOLERANCES[name]
    passed = deviation <= tolerance if name in INCLUSIVE else deviation < tolerance
    return CheckResult(name, passed, deviation, tolerance, detail)


def random_walk_states(
    graph: GluedGraph, count: int, seed: int
) -> Iterator[fw.WalkState]:
    """Random unit states on the arc space, drawn one at a time from one
    generator, so a caller that keeps none holds one state at a time.

    Each state is one block of 2(N^2 + 2m) uniform doubles, centred and read
    as complex amplitudes, so both parts of every arc are uniform on
    [-1/2, 1/2); the clique diagonal is then zeroed and the doubles scaled in
    place to a unit state.  The checks it feeds are identities that hold for
    every state, so any seeded draw with a density exercises them, and one
    uniform block costs a fifth of a Gaussian pair.  ``run_checks`` checks
    each state on the structured kernel and holds about two complex copies
    of the arcs at its peak (``tracemalloc``: 2.1 at N = 400): a state, and
    either the one before it while it is drawn or the involution's
    difference."""
    rng = np.random.default_rng(seed)
    n, m = graph.n_clique, graph.n_leaves
    size = n * n + 2 * m
    for _ in range(count):
        flat = rng.random(2 * size)
        flat -= 0.5
        psi = flat.view(np.complex128)
        clique = psi[: n * n].reshape(n, n)  # a view: the fill writes psi
        np.fill_diagonal(clique, 0.0)
        flat /= np.linalg.norm(flat)
        yield fw.WalkState(clique, psi[n * n : n * n + m], psi[n * n + m :])


def _random_state_deviations(
    graph: GluedGraph, state: fw.WalkState, leaf_phase: LeafPhase, other_phase: LeafPhase
) -> tuple[float, float, float]:
    """One state's projection-commutation, unitarity (the worse of the two
    leaf phases) and shift-involution deviations, on the structured kernel.

    A step from the state's block X (zero diagonal, as every ``WalkState``'s)
    leaves b1ᵀ - Xᵀ off the diagonal, with a = 0 (``full_walk._advance``), so
    its squared norm is (N-1)|b|^2 - 2 Re<b, cs> + |X|^2 plus the star's, cs
    being X's column sums, and its class sums follow from b, cs and X's
    hub-row sum.  The lift of five class amplitudes is an ``_Affine`` start
    and a step from it another, so the commutation's two sides differ by
    O(N + m) vectors.  X is read by reductions (its column sums, here and
    in each step, and its squared norm) and by the involution's compare,
    whose difference is the one N x N array built."""
    n = graph.n_clique
    x = state.clique
    columns = np.add.reduce(x, axis=0)
    hub_row = x[HUB].sum()
    flat = x.ravel(order="K")
    x_norm2 = np.vdot(flat, flat).real
    interior = columns.sum() - columns[HUB] - hub_row
    class_sums = (interior, columns[HUB], hub_row, state.star_in.sum(), state.star_out.sum())

    unitarity = 0.0
    for phase in (other_phase, leaf_phase):  # the step in leaf_phase is kept
        _, b, star_in, star_out = next(fw._advance(graph, state, phase, (1,)))
        norm2 = ((n - 1) * np.vdot(b, b) - 2 * np.vdot(columns, b) + x_norm2
                 + np.vdot(star_in, star_in) + np.vdot(star_out, star_out)).real
        unitarity = np.maximum(unitarity, abs(np.sqrt(norm2) - 1.0))

    b_rest = b.sum() - b[HUB]
    stepped_sums = (
        (n - 2) * b_rest - interior,
        b_rest - hub_row,
        (n - 1) * b[HUB] - columns[HUB],
        star_in.sum(),
        star_out.sum(),
    )
    left = next(fw._advance(graph, fw._lifted(graph, class_sums), leaf_phase, (1,)))
    right = fw._lifted(graph, stepped_sums)
    a_diff, b_diff, in_diff, out_diff = (l - r for l, r in zip(left, right))
    stars = (np.vdot(in_diff, in_diff) + np.vdot(out_diff, out_diff)).real
    commutation = np.sqrt(fw._off_diagonal_square(a_diff, b_diff) + stars)

    involution = 0.0
    twice = fw.shift(graph, fw.shift(graph, state))
    for again, once in zip((twice.clique, twice.star_in, twice.star_out),
                           (state.clique, state.star_in, state.star_out)):
        parts = (again - once).view(np.float64)  # real and imaginary parts apart
        involution = np.maximum(involution, np.abs(parts, out=parts).max())
    return commutation, unitarity, involution


def _random_state_checks(
    graph: GluedGraph, leaf_phase: LeafPhase, other_phase: LeafPhase, seed: int
) -> list[CheckResult]:
    """On ``RANDOM_STATES`` random unit states: commutation of the step with
    the class-averaging projection, unitarity in both leaf phases, and the
    shift's involution, each at its worst state.  np.maximum keeps a NaN
    deviation, which the builtin max would drop.  No state outlives the
    call."""
    worst = np.zeros(3)
    for state in random_walk_states(graph, RANDOM_STATES, seed):
        worst = np.maximum(worst, _random_state_deviations(graph, state, leaf_phase, other_phase))
    commutation, unitarity, involution = worst
    return [
        judge("projection_commutation", commutation, f"{RANDOM_STATES} random unit states"),
        judge("unitarity", unitarity),
        judge("shift_involution", involution, "bitwise equality required"),
    ]


def conjugated_reduced_operator(
    graph: GluedGraph, leaf_phase: LeafPhase
) -> np.ndarray:
    """The 5x5 matrix obtained by sandwiching one full step between lift and
    collapse; must reproduce the closed-form reduced operator."""
    matrix = np.zeros((5, 5), dtype=np.complex128)
    for j in range(5):
        basis = np.zeros(5, dtype=np.complex128)
        basis[j] = 1.0
        lifted = fw.lift(graph, cw.CollapsedState(amplitudes=basis))
        # the step inline, so that no stepped block outlives its column
        matrix[:, j] = fw.collapse(graph, fw.step(graph, lifted, leaf_phase)).amplitudes
    return matrix


def run_checks(
    n_clique: int,
    n_leaves: int,
    steps: int,
    seed: int = 0,
    leaf_phase: LeafPhase = LeafPhase.REVERSAL,
    inject_leaf_phase_flip: bool = False,
) -> VerificationReport:
    """Run every cross check on one (N, m) point, each held to its fixed
    tolerance in ``TOLERANCES``.

    ``inject_leaf_phase_flip`` is a self-test hook: it flips the leaf phase
    in the full evolution only, which must make the cross checks fail.
    """
    graph = build_graph(n_clique, n_leaves)
    other_phase = LeafPhase.PLAIN if leaf_phase is LeafPhase.REVERSAL else LeafPhase.REVERSAL
    full_phase = other_phase if inject_leaf_phase_flip else leaf_phase

    # full evolution vs reduced iteration
    full_trace = fw.evolve(graph, steps, full_phase)
    ops = cw.build_reduced_operators(n_clique, n_leaves, leaf_phase)
    start = cw.collapsed_initial_state(n_clique, n_leaves)
    reduced_trace = cw.evolve_collapsed(ops, start, steps)
    checks = [
        judge(
            "full_vs_collapsed_probability",
            np.abs(full_trace.p_hub - reduced_trace.p_hub).max(),
            f"max |p_full - p_collapsed| over {steps + 1} rows",
        )
    ]

    checks += _random_state_checks(graph, leaf_phase, other_phase, seed)

    # closed-form reduced operator vs conjugated full operator
    conjugated = conjugated_reduced_operator(graph, leaf_phase)
    checks.append(
        judge("reduced_operator_conjugation", np.abs(conjugated - ops.evolution).max())
    )

    # the analytic eigenpairs (reversal spectrum): residuals, and the
    # numeric eigenvectors inside their domain
    spectrum = walk_eigensystem(n_clique, n_leaves)
    checked = sum(pair.in_domain for pair in spectrum.eigenpairs)
    checks += [
        judge("spectral_residuals", np.max(spectrum.residuals)),
        judge(
            "numeric_eigenvectors",
            spectrum.numeric_deviation,
            f"{checked} of 5 analytic pairs inside the numeric domain",
        ),
    ]

    times = np.arange(steps + 1)
    reversal_p = reduced_trace.p_hub
    if leaf_phase is not LeafPhase.REVERSAL:
        reversal = cw.build_reduced_operators(n_clique, n_leaves, LeafPhase.REVERSAL)
        reversal_p = cw.hub_series(reversal, start, times)[0]
    evaluator = EigenbasisEvaluator(n_clique, n_leaves)
    checks.append(
        judge(
            "eigenbasis_vs_iteration",
            np.abs(evaluator.hub_series(times)[0] - reversal_p).max(),
            "reversal-mode reduced trace vs spectral evaluator",
        )
    )

    # discriminant identities: root sum and product
    ang = discriminant_angles(n_clique, n_leaves)
    sum_dev = abs(ang.cos_theta_1 + ang.cos_theta_2 - (n_clique - 2) / (n_clique - 1))
    prod_dev = abs(
        ang.cos_theta_1 * ang.cos_theta_2 + 1.0 / (n_clique + n_leaves - 1)
    )
    checks.append(
        judge(
            "discriminant_identities",
            np.maximum(sum_dev, prod_dev),
            "root sum (N-2)/(N-1); root product -1/(N+m-1)",
        )
    )

    # collapse/lift round trip is the identity on the class-uniform space
    basis = np.eye(5, dtype=np.complex128)
    dev = 0.0
    for j in range(5):
        state = cw.CollapsedState(amplitudes=basis[:, j].copy())
        back = fw.collapse(graph, fw.lift(graph, state)).amplitudes
        dev = np.maximum(dev, np.abs(back - basis[:, j]).max())
    checks.append(judge("collapse_lift_roundtrip", dev))

    return VerificationReport(
        n_clique=n_clique,
        n_leaves=n_leaves,
        steps=steps,
        seed=seed,
        checks=tuple(checks),
    )
