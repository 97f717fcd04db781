"""Spectral engine for the reduced phase-reversal walk.

The 3x3 discriminant matrix has a 2x2 nonzero block whose eigenvalues
cos(theta_1) > cos(theta_2) generate the whole reduced spectrum
{exp(+-i theta_1), exp(+-i theta_2), -1}.  Szegedy's spectral lemma gives
every eigenpair in closed form: the reduced step turns each of two planes
by its angle theta_x and flips the sign of one more vector.

* ``EigenbasisEvaluator`` holds that analytic two-plane eigenbasis.  It is
  the one implementation behind ``hub_series``, ``closed_form_probability``
  and ``simulate --mode closed``: cos(t theta_x) and sin(t theta_x) terms
  with O(1) coefficients written without cancellation, no eigensolver and
  no iteration, exact to about 1e-16 up to N = 1e18.
* ``walk_eigensystem`` is the only numeric code.  It reports the analytic
  eigenpairs with their residuals against the float64 step and their
  deviation from one numeric eigendecomposition.  That deviation is held
  to NUMERIC_TOLERANCE only inside the numeric domain, where
  NUMERIC_MARGIN times its predicted size eps / (2 sin theta_1) stays
  within it; outside, the report flags it.
* The closed-form oscillator expansion (the explicit c/k/s/r coefficient
  formulas) has two phase offsets that deviate from the exact expansion
  by O(sin theta), so it is exact only up to o(1).

``audit_closed_forms`` reports every transcribed closed form that deviates
from the analytic eigenbasis, so transcription quirks can never silently
corrupt downstream results.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .collapsed import build_reduced_operators
from .graph import HUB_BOUND, ArcClass, LeafPhase, class_sizes
from .trace import HubSeries, hub_probability, step_counts

#: Relative deviation above which a closed-form component gets flagged.
FLAG_TOLERANCE = 1e-8

#: Largest residual |E v - lambda v| of an analytic eigenpair against the
#: float64 step; ``spectrum`` and ``verify`` fail at or beyond it.
RESIDUAL_TOLERANCE = 1e-10

#: Largest max-abs deviation allowed between a numeric eigenvector and its
#: analytic pair inside the numeric domain; ``spectrum`` and ``verify``
#: fail beyond it.
NUMERIC_TOLERANCE = 1e-10

#: The numeric domain is where NUMERIC_MARGIN times the predicted deviation
#: eps / (2 sin theta_1) stays within NUMERIC_TOLERANCE.  Over 120 000
#: random (N, m) with N from 3 to 2e18, the numeric eigensolver's vectors
#: deviated from the analytic pairs by at most 6.3 times the prediction.
NUMERIC_MARGIN = 20.0

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
# the analytic eigenbasis


class EigenbasisEvaluator:
    """The phase-reversal walk in its analytic eigenbasis.

    The reduced step is S (2 A A^T - I), with A the 5x2 matrix of the
    clique and hub boundary rows and D = A^T S A the discriminant block
    (Szegedy's spectral lemma).  For a unit eigenvector v of D with
    eigenvalue cos(theta) the step maps the plane {Av, SAv} into itself:
    it takes the orthonormal pair e+ = (Av + SAv) / (2 cos(theta/2)),
    e- = (Av - SAv) / (2 sin(theta/2)) to cos(theta) e+ - sin(theta) e-
    and sin(theta) e+ + cos(theta) e-, so (e+ +- i e-) / sqrt(2) are its
    eigenvectors for exp(+-i theta).  The normalised
    ``flip_eigenvector_pattern`` f is the fifth, for -1.  The start state
    is symmetric under S, so psi0 = sum_v w_v (Av + SAv) + r0 with
    w = (I + D)^-1 A^T psi0 and r0 its part on f, and

        psi_t = sum_v 2 cos(theta/2) w_v (cos(t theta) e+ - sin(t theta) e-)
                + (-1)^t r0.

    The coefficients and the components of e+ and e- are O(1), and every
    sum and difference in them is written so that it does not cancel, so
    the states stay exact in float64 up to N = 1e18, where theta_1 is
    about 1e-18.  Construction is scalar arithmetic with no linear
    algebra, evaluation is O(1) per time, and the object is immutable, so
    it is safe to share across threads.  Times are step counts from 0 to
    2^63 - 1 in any order; the phases t theta are rounded once, so beyond
    t = 2^53 they carry a relative error of about 1e-16.
    """

    def __init__(self, n_clique: int, n_leaves: int):
        n, m = n_clique, n_leaves
        ang = discriminant_angles(n, m)
        hub_weight = _hub_weight_sq(n, m)  # c^2, c = 1/sqrt(N+m-1)
        clique_share = (n - 1) / (n + m - 1)  # c^2 (N-1)
        star_share = m / (n + m - 1)  # 1 - c^2 (N-1)
        overlap = math.sqrt((n - 1) / n)  # A^T psi0 = overlap * (1, c)
        sin_half_1 = math.sin(0.5 * ang.theta_1)
        one_minus_cos_1 = 2.0 * sin_half_1 * sin_half_1
        cos_1 = ang.cos_theta_1
        # Per plane: cos, theta, cos + c^2, c^2 (N-1) + cos and
        # c^2 (N-1) - cos, the sums and differences written so that none
        # cancels, through cos_2 = -c^2/cos_1 and cos_1 - (N-2)/(N-1) = c^2/cos_1.
        planes = (
            (cos_1, ang.theta_1, cos_1 + hub_weight,
             clique_share + cos_1, one_minus_cos_1 - star_share),
            (ang.cos_theta_2, ang.theta_2, -hub_weight * one_minus_cos_1 / cos_1,
             hub_weight * ((n - 3) + clique_share / cos_1) / cos_1,
             clique_share - ang.cos_theta_2),
        )
        interior = math.sqrt((n - 2) / (n - 1))
        root_clique = math.sqrt(n - 1)
        star = hub_weight * math.sqrt(m)
        weights, plus, minus = [], [], []
        for cos_x, theta_x, cos_plus_c2, clique_plus, clique_minus in planes:
            norm = math.sqrt(cos_x * cos_x + hub_weight)  # |(cos, c)|
            cos_half, sin_half = math.cos(0.5 * theta_x), math.sin(0.5 * theta_x)
            # the start state's weight on e+, 2 cos(theta/2) w_v
            weights.append(overlap * cos_plus_c2 / (norm * cos_half))
            # e+ = (Av + SAv) / (2 cos(theta/2)), e- = (Av - SAv) / (2 sin(theta/2))
            side, scale = clique_plus / root_clique, 2.0 * norm * cos_half
            plus.append([2.0 * cos_x * interior / scale, side / scale, side / scale,
                         star / scale, star / scale])
            side, scale = clique_minus / root_clique, 2.0 * norm * sin_half
            minus.append([0.0, side / scale, -side / scale,
                          star / scale, -star / scale])
        beta = math.sqrt(flip_normalization_sq(n, m))
        flip = (flip_eigenvector_pattern(n, m) / beta).tolist()
        self.n_clique = n
        self.n_leaves = m
        self._thetas = np.array([ang.theta_1, ang.theta_2])
        # psi_t = (cos(t theta), sin(t theta), (-1)^t) * _weights @ _basis,
        # the basis rows e+ of both planes, e- of both planes and f
        flip_weight = math.sqrt((n - 2) / n) / beta  # <f, psi0>
        self._weights = np.array(weights + [-w for w in weights] + [flip_weight])
        self._basis = np.array(plus + minus + [flip])

    def eigenpairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The eigenvalues (exp(+i theta_1), exp(-i theta_1), exp(+i theta_2),
        exp(-i theta_2), -1) and their unit eigenvectors as columns."""
        values, vectors = [], []
        for theta, plus, minus in zip(self._thetas, self._basis[:2], self._basis[2:4]):
            for sign in (1.0, -1.0):
                values.append(complex(math.cos(theta), sign * math.sin(theta)))
                vectors.append((plus + sign * 1j * minus) / math.sqrt(2.0))
        values.append(-1.0 + 0.0j)
        vectors.append(self._basis[4].astype(np.complex128))
        return np.array(values), np.column_stack(vectors)

    def _series(self, times: Sequence[int], columns) -> np.ndarray:
        # the rows (cos(t theta), sin(t theta), (-1)^t) * _weights, written
        # in place, then contracted with the requested columns of _basis
        steps = step_counts(times)
        phases = steps[:, None] * self._thetas
        coefficients = np.empty((len(steps), 5))
        np.cos(phases, out=coefficients[:, :2])
        np.sin(phases, out=coefficients[:, 2:4])
        coefficients[:, 4] = 1 - 2 * (steps % 2)
        coefficients *= self._weights
        return (coefficients @ self._basis[:, columns]).astype(np.complex128)

    def state_series(self, times: Sequence[int]) -> np.ndarray:
        """Collapsed states for every requested time, shape (len(times), 5)."""
        return self._series(times, slice(None))

    def hub_series(self, times: Sequence[int]) -> HubSeries:
        """Hub series at every requested time, from the two hub-bound
        components alone."""
        hub = self._series(times, HUB_BOUND)
        clique_in, star_in = hub[:, 0], hub[:, 1]
        return hub_probability(clique_in, star_in), clique_in, star_in


def hub_series(n_clique: int, n_leaves: int, times: Sequence[int]) -> HubSeries:
    """Hub series of the phase-reversal walk in closed form, O(1) per time:
    the ``EigenbasisEvaluator`` series, with no eigensolver and no iteration."""
    return EigenbasisEvaluator(n_clique, n_leaves).hub_series(times)


def closed_form_probability(n_clique: int, n_leaves: int, t: int) -> float:
    """Hub probability at time t, the one row of ``hub_series`` at t.

    O(1) at any clique size: no eigensolver and no iteration, exact to
    about 1e-16 up to N = 1e18 (checked against a 50-digit reference).
    """
    return float(hub_series(n_clique, n_leaves, [t])[0][0])


# ---------------------------------------------------------------------------
# numeric cross-check


@dataclass(frozen=True, eq=False)
class EigenPair:
    """One analytic eigenpair with its residual and its cross-checks.

    ``numeric_deviation`` is the max-abs gap to the phase-aligned
    numeric eigenvector of the nearest numeric eigenvalue and
    ``predicted_bound`` = eps / (2 sin theta_1) its expected size;
    ``in_domain`` is True where NUMERIC_MARGIN times that bound stays
    within NUMERIC_TOLERANCE.  ``closed_form_deviation`` is the max-abs
    component gap to the best-matching tabulated closed-form vector, and
    ``sign_swapped`` is True when that match carries the opposite rotation
    label.
    """

    value: complex
    vector: np.ndarray  # complex128 (5,), unit norm
    residual: float
    numeric_deviation: float
    predicted_bound: float
    in_domain: bool
    closed_form_deviation: float
    component_deviations: np.ndarray  # float64 (5,)
    sign_swapped: bool


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Spectral data of the reduced step operator under phase reversal.

    Eigenpairs are ordered (exp(+i theta_1), exp(-i theta_1),
    exp(+i theta_2), exp(-i theta_2), -1).  Their vectors are the analytic
    two-plane ones that every evaluator uses; the numeric eigensolver and
    the tabulated closed forms are compared against them as diagnostics.
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

    @property
    def numeric_deviation(self) -> float:
        """The largest numeric deviation inside the numeric domain, 0.0 when
        no pair is inside it."""
        return max(
            (pair.numeric_deviation for pair in self.eigenpairs if pair.in_domain),
            default=0.0,
        )

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
                    "numeric_deviation": pair.numeric_deviation,
                    "predicted_bound": pair.predicted_bound,
                    "in_domain": pair.in_domain,
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


def _aligned_gap(reference: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """|reference - vector| per component, after turning ``vector`` by the
    global phase that best aligns it with ``reference``."""
    overlap = np.vdot(vector, reference)
    if abs(overlap) > 0:
        vector = vector * (overlap / abs(overlap))
    return np.abs(reference - vector)


def _match_closed_form(
    n: int, m: int, x: int, sign: int, vector: np.ndarray
) -> tuple[float, np.ndarray, bool]:
    """Compare a rotating eigenvector against both closed-form labels."""
    best: tuple[float, np.ndarray, bool] | None = None
    for label in (sign, -sign):
        diffs = _aligned_gap(rotating_eigenvector_closed_form(n, m, x, label), vector)
        dev = float(diffs.max())
        if best is None or dev < best[0]:
            best = (dev, diffs, label != sign)
    assert best is not None
    return best


def walk_eigensystem(n_clique: int, n_leaves: int) -> SpectrumReport:
    """The analytic eigensystem of the reduced step (phase reversal) and
    its numeric cross-checks.

    Residuals |E v - lambda v| are taken against the float64 step E, and
    one numeric eigendecomposition of E gives each pair's numeric deviation.
    Each vector is also compared against the tabulated closed forms.  Any
    closed-form component deviating by more than FLAG_TOLERANCE, and a
    numeric check outside its domain, are flagged in the report, never
    raised: the vectors reported are the analytic ones regardless.
    """
    n, m = n_clique, n_leaves
    ang = discriminant_angles(n, m)
    values, vectors = EigenbasisEvaluator(n, m).eigenpairs()
    evolution = build_reduced_operators(n, m, LeafPhase.REVERSAL).evolution
    residuals = np.linalg.norm(evolution @ vectors - vectors * values, axis=0)
    numeric_values, numeric_vectors = np.linalg.eig(evolution)
    bound = float(np.finfo(np.float64).eps) / (2.0 * math.sin(ang.theta_1))
    in_domain = NUMERIC_MARGIN * bound <= NUMERIC_TOLERANCE
    flip = flip_eigenvector_pattern(n, m)
    flip /= np.linalg.norm(flip)  # the exact norm is the audited transcription
    pairs: list[EigenPair] = []
    flags: list[str] = []
    swap_seen = False
    for slot, value in enumerate(values.tolist()):
        vector = vectors[:, slot]
        if slot < 4:
            x = 1 if slot < 2 else 2
            sign = 1 if slot % 2 == 0 else -1
            dev, comp, swapped = _match_closed_form(n, m, x, sign, vector)
            swap_seen = swap_seen or swapped
        else:
            comp = _aligned_gap(flip, vector)
            dev, swapped = float(comp.max()), False
        nearest = numeric_vectors[:, np.argmin(np.abs(numeric_values - value))]
        pairs.append(
            EigenPair(
                value=value,
                vector=vector,
                residual=float(residuals[slot]),
                numeric_deviation=float(_aligned_gap(vector, nearest).max()),
                predicted_bound=bound,
                in_domain=in_domain,
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
    if not in_domain:
        worst = max(pair.numeric_deviation for pair in pairs)
        flags.append(
            f"numeric eigenvectors out of domain: predicted deviation "
            f"{bound:.3e} times {NUMERIC_MARGIN:g} exceeds {NUMERIC_TOLERANCE:g}; "
            f"the numeric eigenvectors deviate by up to {worst:.3e}, unchecked"
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
        residuals=tuple(float(r) for r in residuals),
        formula_flags=tuple(flags),
    )


# ---------------------------------------------------------------------------
# closed-form oscillator expansion


@dataclass(frozen=True)
class OscillatorCoefficients:
    """Coefficients of the closed-form expansion of the hub-bound amplitudes.

    c_x weighs the rotating pair x; k_x and s_x are its clique-side and
    star-side oscillations at the given time (arrays when the time is);
    r_clique and r_star are the parity ((-1)^t) contributions of the flip
    eigenvector.
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
    """The two hub-bound amplitudes of the oscillator expansion at a time t,
    with the coefficients they come from."""

    psi_clique_in: complex
    psi_star_in: complex
    coefficients: OscillatorCoefficients


def _oscillator_coefficients(
    n: int, m: int, ang: DiscriminantAngles, t, second_offset: float
) -> OscillatorCoefficients:
    """The expansion coefficients at time t (an int or an array of them),
    given the angles of (N, m)."""
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
            cos_x * np.sin(t * theta_x + theta_x / 2.0)
            - (n - 1) * hub_weight * np.sin(t * theta_x + second_offset * theta_x)
        )
        ss.append(
            math.sqrt(m * (n - 1))
            * hub_weight
            * np.sin(t * theta_x + second_offset * theta_x)
        )
    beta_sq = flip_normalization_sq(n, m)
    r_clique = (n - 2) / (beta_sq * math.sqrt(n))
    r_star = (n - 2) / beta_sq * math.sqrt((n - 1) / (n * m))
    return OscillatorCoefficients(
        c1=cs[0], c2=cs[1], k1=ks[0], k2=ks[1], s1=ss[0], s2=ss[1],
        r_clique=r_clique, r_star=r_star,
    )


def _expansion(coeff: OscillatorCoefficients, t):
    """The expansion's two hub-bound amplitudes at t (an int or an array)."""
    parity = np.where(np.asarray(t) % 2 == 1, -1.0, 1.0)
    clique_in = coeff.c1 * coeff.k1 + coeff.c2 * coeff.k2 + parity * coeff.r_clique
    star_in = -(coeff.c1 * coeff.s1 + coeff.c2 * coeff.s2) - parity * coeff.r_star
    return clique_in, star_in


def closed_form_amplitudes(n_clique: int, n_leaves: int, t: int) -> AmplitudePair:
    """Hub-bound amplitudes from the closed-form oscillator expansion.

    With its tabulated second phase offset this is accurate only up to
    o(1); ``audit_closed_forms`` reports how far it and the derived offset
    lie from the eigenbasis.  Acceptance-grade answers come from
    ``EigenbasisEvaluator``.
    """
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    ang = discriminant_angles(n_clique, n_leaves)
    coeff = _oscillator_coefficients(n_clique, n_leaves, ang, t, TABULATED_SECOND_OFFSET)
    clique_in, star_in = _expansion(coeff, t)
    return AmplitudePair(
        psi_clique_in=complex(clique_in),
        psi_star_in=complex(star_in),
        coefficients=coeff,
    )


# ---------------------------------------------------------------------------
# audit


@dataclass(frozen=True, eq=False)
class ClosedFormAudit:
    """Per-component comparison of every closed form against the analytic
    eigenbasis.  ``flagged`` lists everything beyond FLAG_TOLERANCE."""

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


def _max_gap(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.abs(got - want).max(initial=0.0))


def audit_closed_forms(n_clique: int, n_leaves: int) -> ClosedFormAudit:
    """Audit the closed-form transcriptions against the eigenbasis.

    Checks, over the times 0 to 200: the oscillator expansion with the
    tabulated and with the derived second phase offset, and the parity
    terms against the flip eigenvector's exact contribution.  Eigenvector
    component deviations come from ``walk_eigensystem``.
    """
    n, m = n_clique, n_leaves
    steps = np.arange(201)
    report = walk_eigensystem(n, m)
    flags = list(report.formula_flags)

    evaluator = EigenbasisEvaluator(n, m)
    exact = evaluator.state_series(steps)
    exact_pair = (exact[:, ArcClass.CLIQUE_IN], exact[:, ArcClass.STAR_IN])
    ang = discriminant_angles(n, m)
    tabulated = _oscillator_coefficients(n, m, ang, steps, TABULATED_SECOND_OFFSET)
    derived = _oscillator_coefficients(n, m, ang, steps, DERIVED_SECOND_OFFSET)
    amp_dev, corrected_dev = (
        max(_max_gap(got, want) for got, want in zip(_expansion(coeff, steps), exact_pair))
        for coeff in (tabulated, derived)
    )
    # the -1 eigenpair's share of the two hub-bound amplitudes, (-1)^t w f
    parity = 1 - 2 * (steps % 2)
    share, flip = parity * evaluator._weights[4], evaluator._basis[4]
    parity_dev = max(
        _max_gap(parity * tabulated.r_clique, share * flip[ArcClass.CLIQUE_IN]),
        _max_gap(-parity * tabulated.r_star, share * flip[ArcClass.STAR_IN]),
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
