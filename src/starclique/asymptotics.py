"""Large-clique estimates: branch formulas, optimal times, exponent fits.

The leaf-count exponent alpha splits the family into three regimes with a
phase transition at alpha = 1: below it the optimal running time scales as
N^((2-alpha)/2); at and above it the scaling saturates at sqrt(N).  This
module carries the leading-order hub series, the exact and branch closed
forms of the optimal time, and the log-log exponent fit used for the phase
diagram.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_FLOOR, Decimal, localcontext
from enum import Enum
from typing import Sequence

import numpy as np

from .graph import _validate_alpha, class_sizes, leaves_from_alpha
from .spectral import discriminant_angles
from .trace import HubSeries, step_counts

#: Relative error bound of pi / (2 theta_1) in float64.  The quotient takes
#: about ten rounded operations on (N, m), none of which cancels, so 2^-46
#: (128 units in the last place) bounds it with room to spare.
QUOTIENT_ERROR = 2.0**-46

#: pi to 60 significant digits, for the exact floor.
_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494")


class Branch(Enum):
    SUB = "sub"            # 0 <= alpha < 1
    CRITICAL = "critical"  # alpha = 1
    SUPER = "super"        # alpha > 1

    @classmethod
    def of(cls, alpha: float) -> "Branch":
        """The regime of leaf exponent ``alpha``, the one split at alpha = 1
        that every branch formula reads.  Refuses an alpha outside the
        domain of ``leaves_from_alpha``."""
        _validate_alpha(alpha)
        if alpha < 1:
            return cls.SUB
        return cls.CRITICAL if alpha == 1 else cls.SUPER


def optimal_time_exact(n_clique: int, n_leaves: int) -> int:
    """floor(pi / (2 theta_1)) with the exact principal angle, exact at
    every size.

    The float64 quotient is floored where QUOTIENT_ERROR keeps it clear of
    an integer, which holds nearly always below t_opt = 1e12 and never from
    2^45 (3.5e13) on; elsewhere the floor is taken at 45 digits.
    """
    theta_1 = discriminant_angles(n_clique, n_leaves).theta_1
    quotient = math.pi / (2.0 * theta_1)
    t = math.floor(quotient)
    slack = quotient * QUOTIENT_ERROR
    if quotient - t > slack and t + 1 - quotient > slack:
        return t
    return _decimal_optimal_time(n_clique, n_leaves)


def _decimal_optimal_time(n_clique: int, n_leaves: int) -> int:
    """floor(pi / (4 asin(sin(theta_1 / 2)))) at 45 significant digits,
    with 1 - cos(theta_1) in the cancellation-free form of
    ``discriminant_angles`` and asin by its Taylor series."""
    with localcontext() as ctx:
        ctx.prec = 45
        n, m = Decimal(n_clique), Decimal(n_leaves)
        trace = (n - 2) / (n - 1)
        root = (trace * trace + 4 / (n + m - 1)).sqrt()
        one_minus_cos_1 = 2 * m / ((n - 1) * (n + m - 1)) / ((2 - trace) + root)
        x = (one_minus_cos_1 / 2).sqrt()  # sin(theta_1 / 2), at most 1/2
        # asin(x) = sum over k of (2k)! / (4^k k!^2) x^(2k+1) / (2k+1)
        x_sq, power, total, k = x * x, x, x, 0
        while True:
            k += 1
            power = power * x_sq * (2 * k - 1) / (2 * k)
            step = total + power / (2 * k + 1)
            if step == total:
                break
            total = step
        return int((_PI / (4 * total)).to_integral_value(rounding=ROUND_FLOOR))


def optimal_time_branch(n_clique: int, alpha: float) -> int:
    """Three-branch closed form of the optimal running time.

    floor(pi/(2 sqrt(2)) N^((2-alpha)/2)) below the transition,
    floor(pi/2 sqrt(N)) at it, floor(pi/(2 sqrt(2)) sqrt(N)) above it.
    """
    branch = Branch.of(alpha)
    # refuses N outside the domain; the formula reads no leaf count, and the
    # one an alpha taken from m implies can round past the float range
    class_sizes(n_clique, 1)
    n = float(n_clique)
    if branch is Branch.SUB:
        return int(math.floor(math.pi / (2.0 * math.sqrt(2.0)) * n ** ((2.0 - alpha) / 2.0)))
    if branch is Branch.CRITICAL:
        return int(math.floor(math.pi / 2.0 * math.sqrt(n)))
    return int(math.floor(math.pi / (2.0 * math.sqrt(2.0)) * math.sqrt(n)))


def hub_series(n_clique: int, alpha: float, times: Sequence[int]) -> HubSeries:
    """Leading-order hub series: p = sin^2(t theta_1) / 2 and the amplitudes
    c1 k1 and -c1 s1, whose squared moduli sum to (1 + N^(alpha-1)) p
    below the transition."""
    branch = Branch.of(alpha)
    # c1, and k1 and s1 over sin(t theta_1), per branch
    if branch is Branch.SUB:
        n = float(n_clique)
        c1 = n ** ((1.0 - alpha) / 2.0) / math.sqrt(2.0)
        k_scale, s_scale = n ** (alpha - 1.0), n ** ((alpha - 1.0) / 2.0)
    elif branch is Branch.CRITICAL:
        c1, k_scale, s_scale = 1.0, 0.5, 0.5
    else:
        c1, k_scale, s_scale = 1.0 / math.sqrt(2.0), 1.0, 0.0
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
    fitted_exponent: float
    theory_exponent: float
    fit_residual: float
    samples: tuple[tuple[int, int], ...]  # (N, t_opt), strictly increasing N


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
        fitted_exponent=float(slope),
        theory_exponent=theory_exponent(alpha),
        fit_residual=residual,
        samples=samples,
    )
