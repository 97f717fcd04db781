"""Closed-form spectral engine for the reduced walk.

The 3x3 discriminant matrix has a 2x2 nonzero block whose eigenvalues
cos(theta_1) > cos(theta_2) generate the whole reduced spectrum
{exp(+-i theta_1), exp(+-i theta_2), -1}.  This module evaluates those
angles in closed form, builds both the closed-form eigenvectors and a
numerically diagonalized eigensystem, and provides three evaluators for
the hub-bound amplitudes at time t:

* the *two-plane closed form* ``hub_series``: Szegedy's spectral lemma
  turns the walk into two plane rotations plus the flip eigenvector, with
  no eigensolver and no iteration; exact to about 1e-16 up to N = 1e18,
  it answers ``closed_form_probability`` and ``optimal-time``;
* the *eigenbasis evaluator* (numeric cross-check): project the initial
  state onto the five numeric eigenpairs, advance the phases, recombine;
* the *closed-form oscillator expansion*: the explicit c/k/s/r coefficient
  formulas.  Two of its phase offsets deviate from the exact eigenbasis
  expansion by O(sin theta), so it is exact only up to o(1); the audit
  quantifies this and also checks the variant with the derived offset.

``audit_closed_forms`` reports every closed-form component that deviates
from the numeric reference, so transcription quirks can never silently
corrupt downstream results.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .collapsed import build_reduced_operators, collapsed_initial_state
from .graph import ArcClass, LeafPhase, class_sizes
from .trace import HubSeries, hub_probability

#: Relative deviation above which a closed-form component gets flagged.
FLAG_TOLERANCE = 1e-8

#: Second phase offset (in units of theta_x) of the oscillator expansion as
#: tabulated.  The offset that reproduces the eigenbasis expansion exactly
#: is -1/2; the difference is O(sin theta_x) and vanishes for large cliques.
TABULATED_SECOND_OFFSET = 1.5
DERIVED_SECOND_OFFSET = -0.5


class DiscriminantAngles(NamedTuple):
    cos_theta_1: float
    cos_theta_2: float
    theta_1: float
    theta_2: float


def discriminant_angles(n_clique: int, n_leaves: int) -> DiscriminantAngles:
    """Eigenvalue angles of the discriminant's nonzero 2x2 block.

    The block is [[(N-2)/(N-1), 1/sqrt(N+m-1)], [1/sqrt(N+m-1), 0]], so
    cos(theta_x) = ((N-2) +- sqrt((N-2)^2 + 4(N-1)^2/(N+m-1))) / (2(N-1)).
    theta_1 is computed through the cancellation-free form of
    1 - cos(theta_1), because the optimal running time floor(pi/(2 theta_1))
    is integer-sensitive when theta_1 is tiny.  cos(theta_2) comes from the
    root product cos(theta_1) cos(theta_2) = -1/(N+m-1); the difference
    form above cancels and loses every digit near N = 1e17.
    """
    class_sizes(n_clique, n_leaves)
    n, m = n_clique, n_leaves
    trace = (n - 2) / (n - 1)
    coupling_sq = 1.0 / (n + m - 1)
    disc = trace * trace + 4.0 * coupling_sq
    if disc < 0:  # provably nonnegative on this family; corruption guard
        raise ArithmeticError(f"negative discriminant {disc} for N={n}, m={m}")
    root = math.sqrt(disc)
    cos_1 = 0.5 * (trace + root)
    cos_2 = -1.0 / ((n + m - 1) * cos_1)
    # 1 - cos_1 without cancellation: 1 - trace - coupling_sq equals
    # m / ((N-1)(N+m-1)) identically.
    one_minus_cos_1 = (2.0 * m / ((n - 1) * (n + m - 1))) / ((2.0 - trace) + root)
    theta_1 = 2.0 * math.asin(math.sqrt(0.5 * one_minus_cos_1))
    theta_2 = math.acos(cos_2)
    return DiscriminantAngles(cos_1, cos_2, theta_1, theta_2)


def _hub_weight_sq(n: int, m: int) -> float:
    return 1.0 / (n + m - 1)


def vector_normalization_sq(n_clique: int, n_leaves: int, x: int) -> float:
    """Squared normalization of a discriminant eigenvector:
    cos(theta_x)^2 + 1/(N+m-1)."""
    ang = discriminant_angles(n_clique, n_leaves)
    cos_x = ang.cos_theta_1 if x == 1 else ang.cos_theta_2
    return cos_x * cos_x + _hub_weight_sq(n_clique, n_leaves)


def discriminant_eigenvectors(
    n_clique: int, n_leaves: int
) -> tuple[np.ndarray, np.ndarray]:
    """Unit eigenvectors of the discriminant for cos(theta_1), cos(theta_2).

    In vertex-class order (clique, leaves, hub) the eigenvector for
    cos(theta_x) is proportional to (cos(theta_x), 0, 1/sqrt(N+m-1)).
    """
    ang = discriminant_angles(n_clique, n_leaves)
    hub = math.sqrt(_hub_weight_sq(n_clique, n_leaves))
    out = []
    for x, cos_x in ((1, ang.cos_theta_1), (2, ang.cos_theta_2)):
        vec = np.array([cos_x, 0.0, hub], dtype=np.float64)
        out.append(vec / math.sqrt(vector_normalization_sq(n_clique, n_leaves, x)))
    return out[0], out[1]


# ---------------------------------------------------------------------------
# closed-form eigenvectors of the reduced step operator


def flip_eigenvector_pattern(n_clique: int, n_leaves: int) -> np.ndarray:
    """Unnormalized closed-form eigenvector for the eigenvalue -1.

    Components (-1, sqrt(N-2), sqrt(N-2), -sqrt((N-1)(N-2)/m),
    -sqrt((N-1)(N-2)/m)) in arc-class order.
    """
    n, m = n_clique, n_leaves
    clique_side = math.sqrt(n - 2)
    star_side = -math.sqrt((n - 1) * (n - 2) / m)
    return np.array([-1.0, clique_side, clique_side, star_side, star_side])


def flip_normalization_sq(n_clique: int, n_leaves: int) -> float:
    """Exact squared norm of the flip-eigenvector pattern:
    1 + 2(N-2) + 2(N-1)(N-2)/m."""
    n, m = n_clique, n_leaves
    return 1.0 + 2.0 * (n - 2) + 2.0 * (n - 1) * (n - 2) / m


def flip_normalization_sq_expansion(n_clique: int, n_leaves: int) -> float:
    """Expansion form of the flip normalization, 1 + 2(N-1) + 2(N-1)(N-2)/m.

    Differs from the exact norm in a subleading term; kept only so the audit
    can report the gap.  Never used to normalize anything.
    """
    n, m = n_clique, n_leaves
    return 1.0 + 2.0 * (n - 1) + 2.0 * (n - 1) * (n - 2) / m


def rotating_eigenvector_closed_form(
    n_clique: int, n_leaves: int, x: int, sign: int
) -> np.ndarray:
    """Closed-form rotating eigenvector, unit norm, as tabulated.

    ``x`` selects the branch (1 or 2), ``sign`` the label +-1.  Note: under
    the arc-labeling convention of this package the vector labeled
    exp(+i theta_x) is in fact the eigenvector of exp(-i theta_x); the
    labels trade places because inverting every arc transposes the step
    operator.  ``audit_closed_forms`` records the swap.
    """
    if x not in (1, 2) or sign not in (1, -1):
        raise ValueError(f"x must be 1 or 2 and sign +-1, got x={x}, sign={sign}")
    n, m = n_clique, n_leaves
    ang = discriminant_angles(n, m)
    cos_x = ang.cos_theta_1 if x == 1 else ang.cos_theta_2
    theta_x = ang.theta_1 if x == 1 else ang.theta_2
    phase = cmath.exp(sign * 1j * theta_x)
    hub_frac = (n - 1) / (n + m - 1)
    star_frac = math.sqrt(m) / (n + m - 1)
    vec = np.array(
        [
            math.sqrt((n - 2) / (n - 1)) * cos_x * (1.0 - phase),
            (cos_x - phase * hub_frac) / math.sqrt(n - 1),
            (hub_frac - cos_x * phase) / math.sqrt(n - 1),
            -phase * star_frac,
            star_frac,
        ],
        dtype=np.complex128,
    )
    norm_sq = vector_normalization_sq(n, m, x)
    return vec / (math.sqrt(2.0 * norm_sq) * abs(math.sin(theta_x)))


# ---------------------------------------------------------------------------
# numeric eigensystem


@dataclass(frozen=True, eq=False)
class EigenPair:
    """One numeric eigenpair plus its closed-form comparison.

    ``closed_form_deviation`` is the max-abs component difference between
    the best-matching closed-form vector and this (phase-aligned) numeric
    one; ``sign_swapped`` is True when that best match carries the opposite
    rotation label.
    """

    value: complex
    vector: np.ndarray  # complex128 (5,), unit norm
    residual: float
    closed_form_deviation: float
    component_deviations: np.ndarray  # float64 (5,)
    sign_swapped: bool


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Spectral data of the reduced step operator under phase reversal.

    Eigenpairs are ordered (exp(+i theta_1), exp(-i theta_1),
    exp(+i theta_2), exp(-i theta_2), -1).  Downstream consumers always use
    the numeric eigenvectors; the closed-form comparisons are diagnostics.
    """

    n_clique: int
    n_leaves: int
    cos_theta_1: float
    cos_theta_2: float
    theta_1: float
    theta_2: float
    alpha_1_sq: float
    alpha_2_sq: float
    beta_sq: float
    eigenpairs: tuple[EigenPair, ...]
    residuals: tuple[float, ...]
    formula_flags: tuple[str, ...]
    evaluator: EigenbasisEvaluator = field(repr=False)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n_clique,
            "m": self.n_leaves,
            "cos_theta_1": self.cos_theta_1,
            "cos_theta_2": self.cos_theta_2,
            "theta_1": self.theta_1,
            "theta_2": self.theta_2,
            "alpha_1_sq": self.alpha_1_sq,
            "alpha_2_sq": self.alpha_2_sq,
            "beta_sq": self.beta_sq,
            "eigenpairs": [
                {
                    "value_re": pair.value.real,
                    "value_im": pair.value.imag,
                    "vector_re": [float(v) for v in pair.vector.real],
                    "vector_im": [float(v) for v in pair.vector.imag],
                    "residual": pair.residual,
                    "closed_form_deviation": pair.closed_form_deviation,
                    "component_deviations": [
                        float(v) for v in pair.component_deviations
                    ],
                    "sign_swapped": pair.sign_swapped,
                }
                for pair in self.eigenpairs
            ],
            "residuals": list(self.residuals),
            "formula_flags": list(self.formula_flags),
        }


def _symmetrize_pair(vector: np.ndarray) -> np.ndarray:
    """Restore exact conjugate-pair structure of a rotating eigenvector.

    For a real orthogonal matrix the real and imaginary parts of a rotating
    eigenvector are orthogonal with equal norms 1/sqrt(2); the numeric
    output can miss this by ~eps/gap when the two angles nearly coincide.
    A symmetric orthogonalization inside the (exactly invariant) pair plane
    fixes it without disturbing the residual.
    """
    basis = np.column_stack([vector.real, vector.imag])
    gram = basis.T @ basis
    evals, evecs = np.linalg.eigh(gram)
    if evals[0] <= 0:  # degenerate plane; leave the vector alone
        return vector
    inv_sqrt = evecs @ np.diag(1.0 / np.sqrt(evals)) @ evecs.T
    fixed = basis @ inv_sqrt / math.sqrt(2.0)
    return fixed[:, 0] + 1j * fixed[:, 1]


def _canonical_phase(vector: np.ndarray) -> np.ndarray:
    k = int(np.argmax(np.abs(vector)))
    phase = vector[k] / abs(vector[k])
    return vector / phase


def _match_closed_form(
    n: int, m: int, x: int, numeric_sign: int, vector: np.ndarray
) -> tuple[float, np.ndarray, bool]:
    """Compare a numeric rotating eigenvector against both closed-form labels."""
    best: tuple[float, np.ndarray, bool] | None = None
    for sign in (numeric_sign, -numeric_sign):
        candidate = rotating_eigenvector_closed_form(n, m, x, sign)
        overlap = np.vdot(vector, candidate)
        if abs(overlap) > 0:
            aligned = vector * (overlap / abs(overlap))
        else:
            aligned = vector
        diffs = np.abs(candidate - aligned)
        dev = float(diffs.max())
        if best is None or dev < best[0]:
            best = (dev, diffs, sign != numeric_sign)
    assert best is not None
    return best


def walk_eigensystem(n_clique: int, n_leaves: int) -> SpectrumReport:
    """Numerically diagonalize the reduced step operator (phase reversal).

    The five eigenvalues are matched to {exp(+-i theta_1),
    exp(+-i theta_2), -1}; each numeric eigenvector is compared against the
    closed-form expressions and any component deviating by more than
    FLAG_TOLERANCE is flagged in the report (never raised: downstream code
    uses the numeric vectors regardless).
    """
    n, m = n_clique, n_leaves
    evaluator = EigenbasisEvaluator(n, m)
    ang = discriminant_angles(n, m)
    pairs: list[EigenPair] = []
    flags: list[str] = []
    swap_seen = False
    for slot, value in enumerate(evaluator._values.tolist()):
        fixed = evaluator._vectors[:, slot]
        if slot < 4:
            x = 1 if slot < 2 else 2
            numeric_sign = 1 if slot % 2 == 0 else -1
            dev, comp, swapped = _match_closed_form(n, m, x, numeric_sign, fixed)
            swap_seen = swap_seen or swapped
        else:
            candidate = flip_eigenvector_pattern(n, m)
            candidate = candidate / np.linalg.norm(candidate)
            comp = np.abs(candidate - fixed.real)
            dev = float(comp.max())
            swapped = False
        pairs.append(
            EigenPair(
                value=value,
                vector=fixed,
                residual=evaluator.residuals[slot],
                closed_form_deviation=dev,
                component_deviations=comp,
                sign_swapped=swapped,
            )
        )
        if dev > FLAG_TOLERANCE:
            flags.append(
                f"eigenvector for {value:+.6g}: closed form deviates by {dev:.3e}"
            )

    if swap_seen:
        flags.append(
            "rotating closed-form eigenvectors match the conjugate eigenvalue: "
            "the +-theta labels trade places under the arc-labeling convention"
        )

    beta_sq = flip_normalization_sq(n, m)
    beta_gap = abs(beta_sq - flip_normalization_sq_expansion(n, m)) / beta_sq
    if beta_gap > FLAG_TOLERANCE:
        flags.append(
            "flip-eigenvector normalization: expansion value differs from the "
            f"exact squared norm by relative {beta_gap:.3e}; the exact norm is "
            "what makes the vector unit length"
        )

    return SpectrumReport(
        n_clique=n,
        n_leaves=m,
        cos_theta_1=ang.cos_theta_1,
        cos_theta_2=ang.cos_theta_2,
        theta_1=ang.theta_1,
        theta_2=ang.theta_2,
        alpha_1_sq=vector_normalization_sq(n, m, 1),
        alpha_2_sq=vector_normalization_sq(n, m, 2),
        beta_sq=beta_sq,
        eigenpairs=tuple(pairs),
        residuals=evaluator.residuals,
        formula_flags=tuple(flags),
        evaluator=evaluator,
    )


# ---------------------------------------------------------------------------
# amplitude evaluators


@dataclass(frozen=True)
class OscillatorCoefficients:
    """Coefficients of the closed-form expansion of the hub-bound amplitudes.

    c_x weighs the rotating pair x; k_x and s_x are its clique-side and
    star-side oscillations at the given time; r_clique and r_star are the
    parity ((-1)^t) contributions of the flip eigenvector.
    """

    c1: float
    c2: float
    k1: float
    k2: float
    s1: float
    s2: float
    r_clique: float
    r_star: float


@dataclass(frozen=True, eq=False)
class AmplitudePair:
    """The two collapsed amplitudes feeding the hub probability at a time t."""

    psi_clique_in: complex
    psi_star_in: complex
    coefficients: OscillatorCoefficients

    @property
    def probability(self) -> float:
        return hub_probability(self.psi_clique_in, self.psi_star_in)


def _oscillator_coefficients(
    n: int, m: int, ang: DiscriminantAngles, t: int, second_offset: float
) -> OscillatorCoefficients:
    """The expansion coefficients at time t, given the angles of (N, m)."""
    hub_weight = 1.0 / (n + m - 1)
    cs, ks, ss = [], [], []
    for cos_x, theta_x in (
        (ang.cos_theta_1, ang.theta_1),
        (ang.cos_theta_2, ang.theta_2),
    ):
        alpha_sq = cos_x * cos_x + hub_weight  # vector_normalization_sq
        sin_x = math.sin(theta_x)
        cs.append(
            2.0
            * math.sin(theta_x / 2.0)
            * (cos_x + hub_weight)
            / (alpha_sq * sin_x * sin_x * math.sqrt(n))
        )
        ks.append(
            cos_x * math.sin(t * theta_x + theta_x / 2.0)
            - (n - 1) * hub_weight * math.sin(t * theta_x + second_offset * theta_x)
        )
        ss.append(
            math.sqrt(m * (n - 1))
            * hub_weight
            * math.sin(t * theta_x + second_offset * theta_x)
        )
    beta_sq = flip_normalization_sq(n, m)
    r_clique = (n - 2) / (beta_sq * math.sqrt(n))
    r_star = (n - 2) / beta_sq * math.sqrt((n - 1) / (n * m))
    return OscillatorCoefficients(
        c1=cs[0], c2=cs[1], k1=ks[0], k2=ks[1], s1=ss[0], s2=ss[1],
        r_clique=r_clique, r_star=r_star,
    )


def closed_form_amplitudes(
    n_clique: int,
    n_leaves: int,
    t: int,
    second_offset: float = TABULATED_SECOND_OFFSET,
) -> AmplitudePair:
    """Hub-bound amplitudes from the closed-form oscillator expansion.

    With the tabulated second phase offset (the default) this is accurate
    up to o(1); passing DERIVED_SECOND_OFFSET makes it agree with the
    eigenbasis evaluator to machine precision.  Acceptance-grade answers
    should come from ``EigenbasisEvaluator`` either way.
    """
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    ang = discriminant_angles(n_clique, n_leaves)
    return _closed_form_pair(n_clique, n_leaves, ang, t, second_offset)


def _closed_form_pair(
    n: int, m: int, ang: DiscriminantAngles, t: int, second_offset: float
) -> AmplitudePair:
    coeff = _oscillator_coefficients(n, m, ang, t, second_offset)
    parity = -1.0 if t % 2 else 1.0
    clique_in = coeff.c1 * coeff.k1 + coeff.c2 * coeff.k2 + parity * coeff.r_clique
    star_in = -(coeff.c1 * coeff.s1 + coeff.c2 * coeff.s2) - parity * coeff.r_star
    return AmplitudePair(
        psi_clique_in=complex(clique_in),
        psi_star_in=complex(star_in),
        coefficients=coeff,
    )


class EigenbasisEvaluator:
    """Exact amplitude evaluator: expand the initial state in the five
    eigenpairs of the reduced step operator and advance the phases.

    Immutable after construction and therefore safe to share across
    threads; evaluation at any time is O(1).  Construction does numeric
    work only; ``walk_eigensystem`` holds the closed-form comparisons.
    """

    def __init__(self, n_clique: int, n_leaves: int):
        self.n_clique = n_clique
        self.n_leaves = n_leaves
        ops = build_reduced_operators(n_clique, n_leaves, LeafPhase.REVERSAL)
        ang = discriminant_angles(n_clique, n_leaves)
        values, vectors = np.linalg.eig(ops.evolution)

        targets = [
            cmath.exp(1j * ang.theta_1),
            cmath.exp(-1j * ang.theta_1),
            cmath.exp(1j * ang.theta_2),
            cmath.exp(-1j * ang.theta_2),
            -1.0 + 0.0j,
        ]
        remaining = list(range(5))
        chosen: list[int] = []
        for target in targets:
            j = min(remaining, key=lambda idx: abs(values[idx] - target))
            chosen.append(j)
            remaining.remove(j)

        # The -theta vector is the exact conjugate of the +theta one, so each
        # rotating pair is exactly mutually orthogonal by construction.
        fixed_vectors: list[np.ndarray] = [np.empty(0)] * 5
        for base_slot in (0, 2):
            raw = vectors[:, chosen[base_slot]]
            plus = _canonical_phase(_symmetrize_pair(raw / np.linalg.norm(raw)))
            fixed_vectors[base_slot] = plus
            fixed_vectors[base_slot + 1] = np.conj(plus)
        raw = vectors[:, chosen[4]]
        flip = _canonical_phase(raw / np.linalg.norm(raw))
        flip = flip.real.astype(np.complex128)  # the -1 eigenvector is real
        flip /= np.linalg.norm(flip)
        if flip[ArcClass.CLIQUE_IN].real < 0:
            flip = -flip
        fixed_vectors[4] = flip

        #: |E v - lambda v| per eigenpair, in eigenpair order.
        self.residuals = tuple(
            float(np.linalg.norm(ops.evolution @ vector - target * vector))
            for target, vector in zip(targets, fixed_vectors)
        )
        self._vectors = np.column_stack(fixed_vectors)
        self._values = np.array(targets, dtype=np.complex128)
        psi0 = collapsed_initial_state(n_clique, n_leaves).amplitudes
        self._weights = self._vectors.conj().T @ psi0

    def state(self, t: int) -> np.ndarray:
        """Collapsed state after t steps, shape (5,)."""
        return self._vectors @ (self._values**t * self._weights)

    def state_series(self, times: Sequence[int]) -> np.ndarray:
        """Collapsed states for every requested time, shape (len(times), 5)."""
        ts = np.asarray(times)
        phases = self._values[None, :] ** ts[:, None]
        return (phases * self._weights[None, :]) @ self._vectors.T

    def hub_series(self, times: Sequence[int]) -> HubSeries:
        """Hub series at every requested time."""
        states = self.state_series(times)
        clique_in = states[:, ArcClass.CLIQUE_IN]
        star_in = states[:, ArcClass.STAR_IN]
        return hub_probability(clique_in, star_in), clique_in, star_in

    def amplitudes(self, t: int) -> AmplitudePair:
        psi = self.state(t)
        return AmplitudePair(
            psi_clique_in=complex(psi[ArcClass.CLIQUE_IN]),
            psi_star_in=complex(psi[ArcClass.STAR_IN]),
            coefficients=_oscillator_coefficients(
                self.n_clique,
                self.n_leaves,
                discriminant_angles(self.n_clique, self.n_leaves),
                t,
                TABULATED_SECOND_OFFSET,
            ),
        )

    def probability(self, t: int) -> float:
        psi = self.state(t)
        return float(hub_probability(psi[ArcClass.CLIQUE_IN], psi[ArcClass.STAR_IN]))

    def flip_contribution(self, t: int) -> tuple[complex, complex]:
        """The -1 eigenpair's share of the two hub-bound amplitudes at t."""
        j = 4  # flip eigenpair slot
        term = self._values[j] ** t * self._weights[j] * self._vectors[:, j]
        return complex(term[ArcClass.CLIQUE_IN]), complex(term[ArcClass.STAR_IN])


def hub_series(n_clique: int, n_leaves: int, times: Sequence[int]) -> HubSeries:
    """Hub series of the phase-reversal walk in closed form, O(1) per time.

    The reduced step is S (2 A A^T - I), with A the 5x2 matrix of the
    clique and hub boundary rows and D = A^T S A the discriminant block
    (Szegedy's spectral lemma).  For a unit eigenvector v of D with
    eigenvalue cos(theta) the step maps the plane {Av, SAv} into itself,
    turning its orthonormal pair e+ = (Av + SAv) / (2 cos(theta/2)),
    e- = (Av - SAv) / (2 sin(theta/2)) by -theta.  The start state is
    symmetric under S, so psi0 = sum_v w_v (Av + SAv) + r0 with
    w = (I + D)^-1 A^T psi0 and r0 its part on the flip eigenvector, and

        psi_t = sum_v 2 cos(theta/2) w_v (cos(t theta) e+ - sin(t theta) e-)
                + (-1)^t r0.

    The coefficients and the components of e+ and e- are O(1), and every
    sum and difference in them is written so that it does not cancel, so
    the result stays exact in float64 up to N = 1e18, where theta_1 is
    about 1e-18; there is no iteration and no eigensolver.  Times are
    step counts from 0 to 2^63 - 1 in any order; the phases t theta are
    rounded once, so beyond t = 2^53 they carry a relative error of about
    1e-16.
    """
    try:
        steps = np.asarray(times, dtype=np.int64)
    except OverflowError:
        raise ValueError("step counts must be below 2**63") from None
    if (steps < 0).any():
        raise ValueError("step counts must be nonnegative")
    n, m = n_clique, n_leaves
    ang = discriminant_angles(n, m)
    hub_weight = _hub_weight_sq(n, m)  # c^2, c = 1/sqrt(N+m-1)
    clique_share = (n - 1) / (n + m - 1)  # c^2 (N-1)
    star_share = m / (n + m - 1)  # 1 - c^2 (N-1)
    overlap = math.sqrt((n - 1) / n)  # A^T psi0 = overlap * (1, c)
    sin_half_1 = math.sin(0.5 * ang.theta_1)
    one_minus_cos_1 = 2.0 * sin_half_1 * sin_half_1
    cos_1 = ang.cos_theta_1
    # Per plane: cos, theta, sin(theta/2), cos + c^2, c^2 (N-1) + cos and
    # c^2 (N-1) - cos, the sums and differences written so that none
    # cancels, through cos_2 = -c^2/cos_1 and cos_1 - (N-2)/(N-1) = c^2/cos_1.
    planes = (
        (cos_1, ang.theta_1, sin_half_1, cos_1 + hub_weight,
         clique_share + cos_1, one_minus_cos_1 - star_share),
        (ang.cos_theta_2, ang.theta_2, math.sin(0.5 * ang.theta_2),
         -hub_weight * one_minus_cos_1 / cos_1,
         hub_weight * ((n - 3) + clique_share / cos_1) / cos_1,
         clique_share - ang.cos_theta_2),
    )
    phases = steps.astype(np.float64)
    clique_in = np.zeros(len(steps))
    star_in = np.zeros(len(steps))
    for cos_x, theta_x, sin_half, cos_plus_c2, clique_plus, clique_minus in planes:
        norm = math.sqrt(cos_x * cos_x + hub_weight)  # |(cos, c)|
        weight = overlap * cos_plus_c2 / (norm * (1.0 + cos_x))
        # plus_*: Av + SAv = 2 cos(theta/2) e+, minus_*: 2 cos(theta/2) e-,
        # both read at CLIQUE_IN and STAR_IN
        plus_clique = clique_plus / (norm * math.sqrt(n - 1))
        plus_star = hub_weight * math.sqrt(m) / norm
        turn = math.cos(0.5 * theta_x) / sin_half
        minus_clique = turn * clique_minus / (norm * math.sqrt(n - 1))
        minus_star = turn * plus_star
        cos_t = np.cos(phases * theta_x)
        sin_t = np.sin(phases * theta_x)
        clique_in += weight * (cos_t * plus_clique - sin_t * minus_clique)
        star_in += weight * (cos_t * plus_star - sin_t * minus_star)
    # r0 = <f, psi0> f / |f|^2 for the flip pattern f, <f, psi0> = sqrt((N-2)/N)
    flip = flip_eigenvector_pattern(n, m) * (
        math.sqrt((n - 2) / n) / flip_normalization_sq(n, m)
    )
    parity = np.where(steps % 2 == 1, -1.0, 1.0)
    clique_in += parity * flip[ArcClass.CLIQUE_IN]
    star_in += parity * flip[ArcClass.STAR_IN]
    clique_in = clique_in.astype(np.complex128)
    star_in = star_in.astype(np.complex128)
    return hub_probability(clique_in, star_in), clique_in, star_in


def reference_amplitudes(n_clique: int, n_leaves: int, t: int) -> AmplitudePair:
    """One-shot eigenbasis evaluation; build an EigenbasisEvaluator for loops."""
    return EigenbasisEvaluator(n_clique, n_leaves).amplitudes(t)


def closed_form_probability(n_clique: int, n_leaves: int, t: int) -> float:
    """Hub probability at time t, the one row of ``hub_series`` at t.

    O(1) at any clique size: no eigensolver and no iteration, exact to
    about 1e-16 up to N = 1e18 (checked against a 50-digit reference).
    """
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    return float(hub_series(n_clique, n_leaves, [t])[0][0])


# ---------------------------------------------------------------------------
# audit


@dataclass(frozen=True, eq=False)
class ClosedFormAudit:
    """Per-component comparison of every closed form against the numeric
    eigendecomposition.  ``flagged`` lists everything beyond FLAG_TOLERANCE."""

    n_clique: int
    n_leaves: int
    report: SpectrumReport
    beta_sq_exact: float
    beta_sq_expansion: float
    beta_sq_relative_gap: float
    amplitude_deviation: float
    corrected_amplitude_deviation: float
    parity_term_deviation: float
    flagged: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n_clique,
            "m": self.n_leaves,
            "beta_sq_exact": self.beta_sq_exact,
            "beta_sq_expansion": self.beta_sq_expansion,
            "beta_sq_relative_gap": self.beta_sq_relative_gap,
            "amplitude_deviation": self.amplitude_deviation,
            "corrected_amplitude_deviation": self.corrected_amplitude_deviation,
            "parity_term_deviation": self.parity_term_deviation,
            "flagged": list(self.flagged),
        }


def audit_closed_forms(
    n_clique: int, n_leaves: int, times: Sequence[int] | None = None
) -> ClosedFormAudit:
    """Audit the closed-form transcriptions against the eigenbasis reference.

    Checks, over the sampled times: the oscillator expansion with the
    tabulated and with the derived second phase offset, and the parity
    terms against the flip eigenvector's exact contribution.  Eigenvector
    component deviations come from ``walk_eigensystem``, whose evaluator
    serves as the reference, so one call diagonalizes once.
    """
    n, m = n_clique, n_leaves
    if times is None:
        times = range(201)
    report = walk_eigensystem(n, m)
    evaluator = report.evaluator
    flags = list(report.formula_flags)

    ang = discriminant_angles(n, m)
    amp_dev = 0.0
    corrected_dev = 0.0
    parity_dev = 0.0
    for t in times:
        exact = evaluator.state(int(t))
        exact_pair = (exact[ArcClass.CLIQUE_IN], exact[ArcClass.STAR_IN])
        for offset, bucket in (
            (TABULATED_SECOND_OFFSET, "tabulated"),
            (DERIVED_SECOND_OFFSET, "derived"),
        ):
            pair = _closed_form_pair(n, m, ang, int(t), offset)
            dev = max(
                abs(pair.psi_clique_in - exact_pair[0]),
                abs(pair.psi_star_in - exact_pair[1]),
            )
            if bucket == "tabulated":
                amp_dev = max(amp_dev, dev)
            else:
                corrected_dev = max(corrected_dev, dev)
        coeff = _oscillator_coefficients(n, m, ang, int(t), TABULATED_SECOND_OFFSET)
        parity = -1.0 if t % 2 else 1.0
        flip_clique, flip_star = evaluator.flip_contribution(int(t))
        parity_dev = max(
            parity_dev,
            abs(parity * coeff.r_clique - flip_clique),
            abs(-parity * coeff.r_star - flip_star),
        )

    if amp_dev > FLAG_TOLERANCE:
        flags.append(
            f"oscillator expansion deviates from the eigenbasis by up to "
            f"{amp_dev:.3e} over the sampled times; with the derived second "
            f"phase offset (-theta/2) the deviation is {corrected_dev:.3e}"
        )
    if parity_dev > FLAG_TOLERANCE:
        flags.append(
            f"parity terms deviate from the flip-eigenvector contribution "
            f"by {parity_dev:.3e}"
        )

    beta_expansion = flip_normalization_sq_expansion(n, m)
    return ClosedFormAudit(
        n_clique=n,
        n_leaves=m,
        report=report,
        beta_sq_exact=report.beta_sq,
        beta_sq_expansion=beta_expansion,
        beta_sq_relative_gap=abs(report.beta_sq - beta_expansion) / report.beta_sq,
        amplitude_deviation=amp_dev,
        corrected_amplitude_deviation=corrected_dev,
        parity_term_deviation=parity_dev,
        flagged=tuple(flags),
    )
