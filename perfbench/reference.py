"""Independent 50-digit references for the reduced walk, built with mpmath.

The reduced step operator S (2 B^T B - I) is assembled from exact integers
at 50 significant digits and diagonalized with ``mpmath.eig``.  Nothing here
calls into ``starclique``, so a float64 defect in the package cannot leak
into its own reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp

DIGITS = 50


@dataclass(frozen=True)
class WalkReference:
    n: int
    m: int
    theta_1: float
    theta_2: float
    t_opt: int
    p_at_t_opt: float


def exact_leaves(n: int, alpha: float) -> int:
    """floor(N**alpha) for the exponents the workloads draw, in integers."""
    if alpha == 0:
        return 1
    if alpha == 0.5:
        return max(1, math.isqrt(n))
    if alpha == 1:
        return n
    if alpha == 1.5:
        return math.isqrt(n**3)
    if alpha == 2:
        return n * n
    raise ValueError(f"no exact leaf count for alpha={alpha}")


def _operator(n: int, m: int):
    n, m = mp.mpf(n), mp.mpf(m)
    boundary = mp.zeros(3, 5)
    boundary[0, 0] = mp.sqrt((n - 2) / (n - 1))
    boundary[0, 2] = 1 / mp.sqrt(n - 1)
    boundary[2, 1] = mp.sqrt((n - 1) / (n + m - 1))
    boundary[2, 3] = mp.sqrt(m / (n + m - 1))
    shift = mp.zeros(5, 5)
    for i, j in ((0, 0), (1, 2), (2, 1), (3, 4), (4, 3)):
        shift[i, j] = 1
    return shift * (2 * boundary.T * boundary - mp.eye(5))


def theta_1(n: int, m: int) -> mp.mpf:
    """Principal angle from the cancellation-free form of 1 - cos(theta_1)."""
    with mp.workdps(DIGITS):
        n, m = mp.mpf(n), mp.mpf(m)
        trace = (n - 2) / (n - 1)
        root = mp.sqrt(trace * trace + 4 / (n + m - 1))
        one_minus = (2 * m / ((n - 1) * (n + m - 1))) / ((2 - trace) + root)
        return 2 * mp.asin(mp.sqrt(one_minus / 2))


def optimal_time(n: int, m: int) -> int:
    with mp.workdps(DIGITS):
        return int(mp.floor(mp.pi / (2 * theta_1(n, m))))


def walk_reference(n: int, m: int) -> WalkReference:
    """Angles, optimal time and p(t_opt) from the 50-digit eigensystem."""
    with mp.workdps(DIGITS):
        values, vectors = mp.eig(_operator(n, m))
        nf = mp.mpf(n)
        psi0 = mp.matrix([mp.sqrt((nf - 2) / nf), 1 / mp.sqrt(nf), 1 / mp.sqrt(nf), 0, 0])
        weights = mp.lu_solve(vectors, psi0)
        tiny = mp.mpf(10) ** (10 - DIGITS)
        angles = sorted(
            abs(mp.arg(v))
            for v in values
            if mp.im(v) > tiny  # one of each conjugate pair; drops -1
        )
        if len(angles) != 2:
            raise ArithmeticError(f"expected two rotating pairs for N={n}, m={m}")
        t_opt = int(mp.floor(mp.pi / (2 * angles[0])))
        psi = vectors * mp.matrix([values[i] ** t_opt * weights[i] for i in range(5)])
        p = abs(psi[1]) ** 2 + abs(psi[3]) ** 2
        return WalkReference(
            n=n,
            m=m,
            theta_1=float(angles[0]),
            theta_2=float(angles[1]),
            t_opt=t_opt,
            p_at_t_opt=float(p),
        )
