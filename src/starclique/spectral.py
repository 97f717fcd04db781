"""Spectral engine for the reduced phase-reversal walk.

The 3x3 discriminant matrix has a 2x2 nonzero block whose eigenvalues
cos(theta_1) > cos(theta_2) generate the whole reduced spectrum
{exp(+-i theta_1), exp(+-i theta_2), -1}.  Szegedy's spectral lemma gives
every eigenpair in closed form: the reduced step turns each of two planes
by its angle theta_x and flips the sign of one more vector.

* ``EigenbasisEvaluator`` holds that analytic two-plane eigenbasis.  Its
  ``hub_series`` is the one implementation behind
  ``closed_form_probability`` and ``simulate --mode closed``:
  cos(t theta_x) and sin(t theta_x) terms with O(1) coefficients written
  without cancellation, no eigensolver and no iteration, exact to about
  1e-16 up to N = 1e18.
* ``walk_eigensystem`` is the only numeric code.  It reports the analytic
  eigenpairs with their residuals against the float64 step and their
  deviation from one numeric eigendecomposition.  That deviation is held
  to NUMERIC_TOLERANCE only inside the numeric domain, where
  NUMERIC_MARGIN times its predicted size eps / (2 sin theta_1) stays
  within it; outside, the report flags it.

The transcribed closed forms of the paper, and their audit against this
eigenbasis, live in ``audit``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .collapsed import build_reduced_operators
from .graph import HUB_BOUND, LeafPhase, class_sizes
from .trace import HubSeries, hub_probability, step_counts

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


# ---------------------------------------------------------------------------
# the flip eigenvector, for the eigenvalue -1


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


def closed_form_probability(n_clique: int, n_leaves: int, t: int) -> float:
    """Hub probability at time t, the one row of the
    ``EigenbasisEvaluator`` series at t.

    O(1) at any clique size: no eigensolver and no iteration, exact to
    about 1e-16 up to N = 1e18 (checked against a 50-digit reference).
    """
    return float(EigenbasisEvaluator(n_clique, n_leaves).hub_series([t])[0][0])


# ---------------------------------------------------------------------------
# numeric cross-check


@dataclass(frozen=True, eq=False)
class EigenPair:
    """One analytic eigenpair with its residual and its numeric cross-check.

    ``numeric_deviation`` is the max-abs gap to the phase-aligned
    numeric eigenvector of the nearest numeric eigenvalue and
    ``predicted_bound`` = eps / (2 sin theta_1) its expected size;
    ``in_domain`` is True where NUMERIC_MARGIN times that bound stays
    within NUMERIC_TOLERANCE.
    """

    value: complex
    vector: np.ndarray  # complex128 (5,), unit norm
    residual: float
    numeric_deviation: float
    predicted_bound: float
    in_domain: bool


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Spectral data of the reduced step operator under phase reversal.

    Eigenpairs are ordered (exp(+i theta_1), exp(-i theta_1),
    exp(+i theta_2), exp(-i theta_2), -1).  Their vectors are the analytic
    two-plane ones that every evaluator uses; the numeric eigensolver is
    compared against them as a diagnostic.  ``formula_flags`` lists what
    the report cannot vouch for: from ``walk_eigensystem``, a numeric check
    outside its domain.  The audited report (``ClosedFormAudit.report``)
    lists, in order, each eigenvector that deviates from its closed form,
    the rotation-label swap, that numeric-domain flag and the flip
    normalization's; the oscillator-expansion and parity flags are in
    ``ClosedFormAudit.flagged`` only.
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


def _aligned_gap(reference: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """|reference - vector| per component, after turning ``vector`` by the
    global phase that best aligns it with ``reference``."""
    overlap = np.vdot(vector, reference)
    if abs(overlap) > 0:
        vector = vector * (overlap / abs(overlap))
    return np.abs(reference - vector)


def walk_eigensystem(n_clique: int, n_leaves: int) -> SpectrumReport:
    """The analytic eigensystem of the reduced step (phase reversal) and
    its numeric cross-checks.

    Residuals |E v - lambda v| are taken against the float64 step E, and
    one numeric eigendecomposition of E gives each pair's numeric deviation.
    A numeric check outside its domain is flagged in the report, never
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
    pairs = []
    for slot, value in enumerate(values.tolist()):
        vector = vectors[:, slot]
        nearest = numeric_vectors[:, np.argmin(np.abs(numeric_values - value))]
        pairs.append(
            EigenPair(
                value=value,
                vector=vector,
                residual=float(residuals[slot]),
                numeric_deviation=float(_aligned_gap(vector, nearest).max()),
                predicted_bound=bound,
                in_domain=in_domain,
            )
        )
    flags = []
    if not in_domain:
        worst = max(pair.numeric_deviation for pair in pairs)
        flags.append(
            f"numeric eigenvectors out of domain: predicted deviation "
            f"{bound:.3e} times {NUMERIC_MARGIN:g} exceeds {NUMERIC_TOLERANCE:g}; "
            f"the numeric eigenvectors deviate by up to {worst:.3e}, unchecked"
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
        beta_sq=flip_normalization_sq(n, m),
        eigenpairs=tuple(pairs),
        residuals=tuple(float(r) for r in residuals),
        formula_flags=tuple(flags),
    )
