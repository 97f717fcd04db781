"""Large-clique estimates: branch formulas, optimal times, exponent fits.

The leaf-count exponent alpha splits the family into three regimes with a
phase transition at alpha = 1: below it the optimal running time scales as
N^((2-alpha)/2); at and above it the scaling saturates at sqrt(N).  This
module carries the leading-order estimates for the principal angle and the
expansion coefficients, the exact and branch closed forms of the optimal
time, and the log-log exponent fit used for the phase diagram.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .graph import leaves_from_alpha
from .spectral import (
    TABULATED_SECOND_OFFSET,
    _oscillator_coefficients,
    discriminant_angles,
)
from .trace import HubSeries, step_counts


class Branch(Enum):
    SUB = "sub"            # 0 <= alpha < 1
    CRITICAL = "critical"  # alpha = 1
    SUPER = "super"        # alpha > 1

    @classmethod
    def of(cls, alpha: float) -> "Branch":
        """The regime of leaf exponent ``alpha``, the one split at alpha = 1
        that every branch formula reads.  A NaN compares false with every
        bound and falls in SUPER; a negative alpha is an error."""
        if alpha < 0:
            raise ValueError(f"alpha must be nonnegative, got {alpha}")
        if alpha < 1:
            return cls.SUB
        return cls.CRITICAL if alpha == 1 else cls.SUPER


def cos_theta1_approx(n_clique: int, alpha: float) -> float:
    """Leading-order estimate of cos(theta_1) per branch:
    1 - N^(alpha-2), 1 - 1/(2N), 1 - 1/N."""
    branch = Branch.of(alpha)
    if n_clique < 3:
        raise ValueError(f"n_clique must be at least 3, got {n_clique}")
    n = float(n_clique)
    if branch is Branch.SUB:
        return 1.0 - n ** (alpha - 2.0)
    if branch is Branch.CRITICAL:
        return 1.0 - 0.5 / n
    return 1.0 - 1.0 / n


def theta1_approx(n_clique: int, alpha: float) -> float:
    """Small-angle estimate of the principal angle, via the branch cosine.

    Evaluates sqrt(1 - c^2) for the branch estimate c, which reproduces
    sqrt(2) N^((alpha-2)/2), N^(-1/2) and sqrt(2) N^(-1/2) to leading order.
    """
    c = cos_theta1_approx(n_clique, alpha)
    return math.sqrt((1.0 - c) * (1.0 + c))


def probability_approx(n_clique: int, alpha: float, t: int) -> float:
    """Leading-order hub probability sin^2(t theta_1) / 2, with the exact
    principal angle for m = floor(N^alpha) and the o(1) remainder dropped."""
    return float(hub_series(n_clique, alpha, [t])[0][0])


def optimal_time_exact(n_clique: int, n_leaves: int) -> int:
    """floor(pi / (2 theta_1)) with the exact principal angle."""
    theta_1 = discriminant_angles(n_clique, n_leaves).theta_1
    return int(math.floor(math.pi / (2.0 * theta_1)))


def optimal_time_branch(n_clique: int, alpha: float) -> int:
    """Three-branch closed form of the optimal running time.

    floor(pi/(2 sqrt(2)) N^((2-alpha)/2)) below the transition,
    floor(pi/2 sqrt(N)) at it, floor(pi/(2 sqrt(2)) sqrt(N)) above it.
    """
    branch = Branch.of(alpha)
    if n_clique < 3:
        raise ValueError(f"n_clique must be at least 3, got {n_clique}")
    n = float(n_clique)
    if branch is Branch.SUB:
        return int(math.floor(math.pi / (2.0 * math.sqrt(2.0)) * n ** ((2.0 - alpha) / 2.0)))
    if branch is Branch.CRITICAL:
        return int(math.floor(math.pi / 2.0 * math.sqrt(n)))
    return int(math.floor(math.pi / (2.0 * math.sqrt(2.0)) * math.sqrt(n)))


@dataclass(frozen=True)
class CoefficientEstimates:
    """Branch leading terms of the expansion coefficients at time t, plus
    magnitude bounds on everything that is o(1).

    The bounds are computed from the exact spectral quantities: the second
    rotating pair's products are bounded by |c2| times the phase-free
    suprema of k2 and s2, and the parity magnitudes are exact.
    """

    branch: Branch
    c1: float
    k1: float
    s1: float
    c2k2_bound: float
    c2s2_bound: float
    r_clique_bound: float
    r_star_bound: float


def _leading_scales(n: float, alpha: float) -> tuple[float, ...]:
    """Branch leading terms (c1, k1 / sin(t theta_1), s1 / sin(t theta_1))."""
    branch = Branch.of(alpha)
    if branch is Branch.SUB:
        c1 = n ** ((1.0 - alpha) / 2.0) / math.sqrt(2.0)
        return c1, n ** (alpha - 1.0), n ** ((alpha - 1.0) / 2.0)
    if branch is Branch.CRITICAL:
        return 1.0, 0.5, 0.5
    return 1.0 / math.sqrt(2.0), 1.0, 0.0


def coefficient_estimates(n_clique: int, alpha: float, t: int) -> CoefficientEstimates:
    """Leading-order c1, k1, s1 at time t and o(1) bounds for the rest."""
    branch = Branch.of(alpha)
    m = leaves_from_alpha(n_clique, alpha)
    ang = discriminant_angles(n_clique, m)
    oscillation = math.sin(t * ang.theta_1)
    c1, k_scale, s_scale = _leading_scales(float(n_clique), alpha)
    exact = _oscillator_coefficients(n_clique, m, ang, t, TABULATED_SECOND_OFFSET)
    hub_weight = 1.0 / (n_clique + m - 1)
    k2_sup = abs(ang.cos_theta_2) + (n_clique - 1) * hub_weight
    s2_sup = math.sqrt(m * (n_clique - 1)) * hub_weight
    return CoefficientEstimates(
        branch=branch,
        c1=c1,
        k1=k_scale * oscillation,
        s1=s_scale * oscillation,
        c2k2_bound=abs(exact.c2) * k2_sup,
        c2s2_bound=abs(exact.c2) * s2_sup,
        r_clique_bound=abs(exact.r_clique),
        r_star_bound=abs(exact.r_star),
    )


def hub_series(n_clique: int, alpha: float, times: Sequence[int]) -> HubSeries:
    """Leading-order hub series: p = sin^2(t theta_1) / 2 and the amplitudes
    c1 k1 and -c1 s1, whose squared moduli sum to (1 + N^(alpha-1)) p
    below the transition."""
    c1, k_scale, s_scale = _leading_scales(float(n_clique), alpha)
    theta_1 = discriminant_angles(n_clique, leaves_from_alpha(n_clique, alpha)).theta_1
    oscillation = np.sin(step_counts(times) * theta_1)
    clique_in = (c1 * (k_scale * oscillation)).astype(np.complex128)
    star_in = (-c1 * (s_scale * oscillation)).astype(np.complex128)
    return 0.5 * oscillation * oscillation, clique_in, star_in


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares scaling exponent of the optimal time against N.

    ``fitted_exponent`` is the slope of log(t_opt) on log(N);
    ``theory_exponent`` is (2 - alpha)/2 up to the transition and 1/2
    beyond it.  The gap between the two is reported, never clamped.
    """

    alpha: float
    samples: tuple[tuple[int, int], ...]  # (N, t_opt), strictly increasing N
    fitted_exponent: float
    fit_residual: float
    theory_exponent: float


def theory_exponent(alpha: float) -> float:
    """(2 - alpha)/2 up to the transition (where both forms give 1/2), else 1/2."""
    return 0.5 if Branch.of(alpha) is Branch.SUPER else (2.0 - alpha) / 2.0


def exponent_fit(alpha: float, n_values: Sequence[int]) -> ExponentFit:
    """Fit the optimal-time scaling exponent over a grid of clique sizes.

    Ordinary least squares on log-log points with equal weights;
    ``fit_residual`` is the RMS residual of the fit.  Rejects fewer than
    two distinct clique sizes.
    """
    distinct = sorted(set(int(n) for n in n_values))
    if len(distinct) < 2:
        raise ValueError("exponent fit needs at least 2 distinct clique sizes")
    samples = tuple(
        (n, optimal_time_exact(n, leaves_from_alpha(n, alpha))) for n in distinct
    )
    log_n = np.log([s[0] for s in samples])
    log_t = np.log([s[1] for s in samples])
    slope, intercept = np.polyfit(log_n, log_t, 1)
    predicted = slope * log_n + intercept
    residual = float(np.sqrt(np.mean((log_t - predicted) ** 2)))
    return ExponentFit(
        alpha=alpha,
        samples=samples,
        fitted_exponent=float(slope),
        fit_residual=residual,
        theory_exponent=theory_exponent(alpha),
    )
