"""Cross-evaluator verification harness.

Runs the consistency checks that tie the three evaluators together on one
parameter point: full arc-space evolution against the reduced iteration,
the reduced operator against the conjugated full operator, commutation of
the evolution with the class-averaging projection, unitarity, the
residuals of the analytic eigenpairs, the numeric eigenvectors against
them inside their domain, and the eigenbasis evaluator against plain
iteration.  Each check is held to one fixed tolerance in ``TOLERANCES``.
Used by the command-line ``verify`` command and by the tests.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterator

import numpy as np

from . import collapsed as cw
from . import full_walk as fw
from .graph import HUB, LeafPhase, class_sizes
from .modes import hub_trace
from .spectral import (
    NUMERIC_TOLERANCE,
    RESIDUAL_TOLERANCE,
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
#: INCLUSIVE pass at it too, as in ``spectrum``.  A NaN deviation fails
#: every check.
TOLERANCES = {
    "full_vs_collapsed_probability": 1e-10,
    "projection_commutation": 1e-12,
    "unitarity": 1e-12,
    "reduced_operator_conjugation": 1e-13,
    "spectral_residuals": RESIDUAL_TOLERANCE,
    "numeric_eigenvectors": NUMERIC_TOLERANCE,
    "eigenbasis_vs_iteration": 1e-10,
    "discriminant_identities": 1e-12,
    "collapse_lift_roundtrip": 1e-14,
}
INCLUSIVE = frozenset({"numeric_eigenvectors"})

#: The modes whose traces the trace checks compare, built as ``simulate``
#: builds them: the oracle, the reduced iteration and the closed form.
_ORACLE, _REDUCED, _CLOSED = "full", "collapsed", "closed"


def judge(name: str, deviation: float, detail: str = "") -> CheckResult:
    """Check ``name``'s result at ``deviation``, held to its tolerance."""
    deviation, tolerance = float(deviation), TOLERANCES[name]
    passed = deviation <= tolerance if name in INCLUSIVE else deviation < tolerance
    return CheckResult(name, passed, deviation, tolerance, detail)


def random_walk_states(n: int, m: int, count: int, seed: int) -> Iterator[fw.WalkState]:
    """Random unit states on the arc space of sizes (N, m), drawn one at a
    time from one generator into one buffer: each draw overwrites the state
    yielded before it, so a caller that keeps a state copies it.

    Each state is one block of 2(N^2 + 2m) uniform doubles, centred and read
    as complex amplitudes, so both parts of every arc are uniform on
    [-1/2, 1/2); the clique diagonal is then zeroed and the doubles scaled in
    place to a unit state.  The checks it feeds are identities that hold for
    every state, so any seeded draw with a density exercises them, and one
    uniform block costs a fifth of a Gaussian pair.  ``run_checks`` checks
    each state on the structured kernel and holds about one complex copy of
    the arcs at its peak, the buffer (``tracemalloc``: 1.06 at N = 400)."""
    class_sizes(n, m)
    rng = np.random.default_rng(seed)
    flat = np.empty(2 * (n * n + 2 * m))
    psi = flat.view(np.complex128)
    clique = psi[: n * n].reshape(n, n)  # a view: the fill writes psi
    state = fw.WalkState(clique, psi[n * n : n * n + m], psi[n * n + m :])
    for _ in range(count):
        rng.random(out=flat)
        flat -= 0.5
        np.fill_diagonal(clique, 0.0)
        flat /= np.linalg.norm(flat)
        yield state


def _random_state_deviations(
    n: int, m: int, state: fw.WalkState, leaf_phase: LeafPhase, other_phase: LeafPhase
) -> tuple[float, float]:
    """One state's projection-commutation and unitarity (the worse of the two
    leaf phases) deviations, on the structured kernel.

    A step from the state's block X (zero diagonal, as every ``WalkState``'s)
    leaves b1ᵀ - Xᵀ off the diagonal, with a = 0 (``full_walk._advance``), so
    its squared norm is (N-1)|b|^2 - 2 Re<b, cs> + |X|^2 plus the star's, cs
    being X's column sums, and its class sums follow from b, cs and X's
    hub-row sum.  The lift of five class amplitudes is an ``_Affine`` start
    and a step from it another, so the commutation's two sides differ by
    O(N + m) vectors.  X is read by the kernel's column sums, which both
    steps share, and apart from the kernel by the check's own column sums
    and squared norm; no N x N array is built."""
    x = state.clique
    columns = np.add.reduce(x, axis=0)
    hub_row = x[HUB].sum()
    flat = x.ravel(order="K")
    x_norm2 = np.vdot(flat, flat).real
    interior = columns.sum() - columns[HUB] - hub_row
    class_sums = (interior, columns[HUB], hub_row, state.star_in.sum(), state.star_out.sum())

    unitarity, kernel_columns = 0.0, fw._column_sums(state)
    for phase in (other_phase, leaf_phase):  # the step in leaf_phase is kept
        _, b, star_in, star_out = next(fw._advance(n, m, state, phase, (1,), kernel_columns))
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
    left = next(fw._advance(n, m, fw._lifted(n, m, class_sums), leaf_phase, (1,)))
    right = fw._lifted(n, m, stepped_sums)
    a_diff, b_diff, in_diff, out_diff = (l - r for l, r in zip(left, right))
    stars = (np.vdot(in_diff, in_diff) + np.vdot(out_diff, out_diff)).real
    commutation = np.sqrt(fw._off_diagonal_square(a_diff, b_diff) + stars)
    return commutation, unitarity


def _random_state_checks(
    n: int, m: int, leaf_phase: LeafPhase, other_phase: LeafPhase, seed: int
) -> list[CheckResult]:
    """On ``RANDOM_STATES`` random unit states: commutation of the step with
    the class-averaging projection, and unitarity in both leaf phases, each
    at its worst state.  np.maximum keeps a NaN deviation, which the builtin
    max would drop.  No state outlives the call."""
    worst = np.zeros(2)
    for state in random_walk_states(n, m, RANDOM_STATES, seed):
        worst = np.maximum(worst, _random_state_deviations(n, m, state, leaf_phase, other_phase))
    commutation, unitarity = worst
    return [
        judge("projection_commutation", commutation, f"{RANDOM_STATES} random unit states"),
        judge("unitarity", unitarity),
    ]


def conjugated_reduced_operator(n: int, m: int, leaf_phase: LeafPhase) -> np.ndarray:
    """The 5x5 matrix obtained by sandwiching one full step between lift and
    collapse; must reproduce the closed-form reduced operator.

    The lift of each class basis state is an ``_Affine`` start, so its step
    is O(N + m) and the stepped block 1aᵀ + b1ᵀ is collapsed from a and b.
    With Σ' a sum off the hub, its interior arcs sum to (N-2)(Σ'a + Σ'b),
    the arcs into the hub to (N-1)a[HUB] + Σ'b and those out of it to
    Σ'a + (N-1)b[HUB]."""
    scale = np.sqrt(np.asarray(class_sizes(n, m), dtype=np.float64))
    matrix = np.zeros((5, 5), dtype=np.complex128)
    for j, sums in enumerate(np.diag(scale)):  # the class sums of each lift
        start = fw._lifted(n, m, sums)
        a, b, star_in, star_out = next(fw._advance(n, m, start, leaf_phase, (1,)))
        a_rest, b_rest = a.sum() - a[HUB], b.sum() - b[HUB]
        matrix[:, j] = ((n - 2) * (a_rest + b_rest), (n - 1) * a[HUB] + b_rest,
                        a_rest + (n - 1) * b[HUB], star_in.sum(), star_out.sum())
    return matrix / scale[:, None]


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
    other_phase = LeafPhase.PLAIN if leaf_phase is LeafPhase.REVERSAL else LeafPhase.REVERSAL
    full_phase = other_phase if inject_leaf_phase_flip else leaf_phase

    # full evolution vs reduced iteration
    full_p = hub_trace(_ORACLE, n_clique, n_leaves, steps, full_phase).p_hub
    reduced_p = hub_trace(_REDUCED, n_clique, n_leaves, steps, leaf_phase).p_hub
    checks = [
        judge(
            "full_vs_collapsed_probability",
            np.abs(full_p - reduced_p).max(),
            f"max |p_full - p_collapsed| over {steps + 1} rows",
        )
    ]

    checks += _random_state_checks(n_clique, n_leaves, leaf_phase, other_phase, seed)

    # closed-form reduced operator vs conjugated full operator
    conjugated = conjugated_reduced_operator(n_clique, n_leaves, leaf_phase)
    ops = cw.build_reduced_operators(n_clique, n_leaves, leaf_phase)
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

    reversal_p = reduced_p
    if leaf_phase is not LeafPhase.REVERSAL:
        reversal_p = hub_trace(_REDUCED, n_clique, n_leaves, steps, LeafPhase.REVERSAL).p_hub
    closed_p = hub_trace(_CLOSED, n_clique, n_leaves, steps, LeafPhase.REVERSAL).p_hub
    checks.append(
        judge(
            "eigenbasis_vs_iteration",
            np.abs(closed_p - reversal_p).max(),
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
    dev = 0.0
    for basis in np.eye(5, dtype=np.complex128):  # one lifted block at a time
        back = fw.collapse(fw.lift(n_clique, n_leaves, cw.CollapsedState(amplitudes=basis)))
        dev = np.maximum(dev, np.abs(back.amplitudes - basis).max())
    checks.append(judge("collapse_lift_roundtrip", dev))

    return VerificationReport(
        n_clique=n_clique,
        n_leaves=n_leaves,
        steps=steps,
        seed=seed,
        checks=tuple(checks),
    )
