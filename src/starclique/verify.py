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

import math
from dataclasses import asdict, dataclass
from typing import Iterator

import numpy as np

from . import collapsed as cw
from . import full_walk as fw
from .graph import GluedGraph, LeafPhase, build_graph
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
#: INCLUSIVE pass at it too, so shift_involution, a largest magnitude held
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
    generator, so a caller that keeps none holds one state at a time."""
    rng = np.random.default_rng(seed)
    n, m = graph.n_clique, graph.n_leaves
    size = n * n + 2 * m
    for _ in range(count):
        psi = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        clique = psi[: n * n].reshape(n, n)  # a view: the fill writes psi
        np.fill_diagonal(clique, 0.0)
        psi /= np.linalg.norm(psi)
        yield fw.WalkState(clique, psi[n * n : n * n + m], psi[n * n + m :])


def _differences(a: fw.WalkState, b: fw.WalkState) -> tuple[np.ndarray, ...]:
    """Arc-wise differences of two states, block by block (the zero
    diagonals of the clique blocks add nothing)."""
    return (a.clique - b.clique, a.star_in - b.star_in, a.star_out - b.star_out)


def _norm(*blocks: np.ndarray) -> float:
    """Euclidean norm over all entries of the blocks, in any memory order."""
    total = 0.0
    for block in blocks:
        flat = block.ravel(order="K")  # a view for either orientation of a block
        total += float(np.vdot(flat, flat).real)
    return math.sqrt(total)


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
        stepped = fw.step(graph, lifted, leaf_phase)
        matrix[:, j] = fw.collapse(graph, stepped).amplitudes
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
    full_trace = fw.evolve(graph, None, steps, full_phase)  # the uniform start
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

    # on random unit states: commutation of the step with the class-averaging
    # projection, unitarity in both leaf phases, and the shift's involution;
    # np.maximum keeps a NaN deviation, which the builtin max would drop
    commutation = unitarity = involution = 0.0
    for state in random_walk_states(graph, RANDOM_STATES, seed):
        stepped = fw.step(graph, state, leaf_phase)
        left = fw.step(graph, fw.lift(graph, fw.collapse(graph, state)), leaf_phase)
        right = fw.lift(graph, fw.collapse(graph, stepped))
        commutation = np.maximum(commutation, _norm(*_differences(left, right)))
        for out in (stepped, fw.step(graph, state, other_phase)):
            norm = _norm(out.clique, out.star_in, out.star_out)
            unitarity = np.maximum(unitarity, abs(norm - 1.0))
        for difference in _differences(fw.shift(graph, fw.shift(graph, state)), state):
            involution = np.maximum(involution, np.abs(difference).max())
    checks += [
        judge("projection_commutation", commutation, f"{RANDOM_STATES} random unit states"),
        judge("unitarity", unitarity),
        judge("shift_involution", involution, "bitwise equality required"),
    ]

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
        judge("spectral_residuals", max(spectrum.residuals)),
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
            max(sum_dev, prod_dev),
            "root sum (N-2)/(N-1); root product -1/(N+m-1)",
        )
    )

    # collapse/lift round trip is the identity on the class-uniform space
    basis = np.eye(5, dtype=np.complex128)
    dev = 0.0
    for j in range(5):
        state = cw.CollapsedState(amplitudes=basis[:, j].copy())
        back = fw.collapse(graph, fw.lift(graph, state)).amplitudes
        dev = max(dev, float(np.abs(back - basis[:, j]).max()))
    checks.append(judge("collapse_lift_roundtrip", dev))

    return VerificationReport(
        n_clique=n_clique,
        n_leaves=n_leaves,
        steps=steps,
        seed=seed,
        checks=tuple(checks),
    )
