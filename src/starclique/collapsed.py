"""Exact 5-dimensional reduced dynamics on the arc-class space.

The walk started from the uniform clique state never leaves the span of the
five class-uniform vectors, so the full evolution collapses to a 5x5
orthogonal matrix.  This module builds that matrix from closed-form entries
(validated against the conjugated full operator in the test suite) and
iterates it, which keeps clique sizes of 10^6 and beyond on a desk.

``hub_series`` iterates in blocks of ``_BLOCK`` steps: the powers
M^0 .. M^(B-1) of the step operator are built once per call by successive
5x5 products, every row of a block is one of those powers applied to the
block's start state, and the next block starts one step after the block's
last state.  Each row is thus M^k applied to a state reached by stepping,
with k < B.  Its rounding error is of the same order as that of stepping
one step at a time, O(t eps) after t steps: both lie about as far from
the closed form, and within 1.3e-13 of each other, over 5e4 steps.

Validated step range: the iteration drifts from the closed form
(``EigenbasisEvaluator.hub_series``) linearly in t, mostly through the
rounded entries of the operator it iterates.  Measured at (N, m) = (57, 9), the
hub series is 3.8e-12 from the closed form after 5e4 steps and 3.1e-11
after 4e5; the tests hold the gap after 5e4 steps below 1e-11 at (3, 1),
(57, 9) and (1e4, 100).  A longer run adds about 8e-17 per step.

Class order is fixed everywhere as
(CLIQUE_INTERIOR, CLIQUE_IN, CLIQUE_OUT, STAR_IN, STAR_OUT);
vertex-class order for the boundary operator is
(ordinary clique vertices, leaves, hub).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .graph import HUB_BOUND, INVERSE_CLASS, ArcClass, LeafPhase, class_sizes
from .trace import (
    HubSeries,
    ProbabilityTrace,
    hub_probability,
    step_counts,
    trace_metadata,
)


@dataclass(frozen=True, eq=False)
class CollapsedState:
    """Five complex amplitudes indexed by ArcClass."""

    amplitudes: np.ndarray  # complex128, shape (5,)

    def __post_init__(self) -> None:
        if self.amplitudes.shape != (5,):
            raise ValueError(f"expected 5 amplitudes, got {self.amplitudes.shape}")


@dataclass(frozen=True, eq=False)
class ReducedOperators:
    """The reduced walk operators on the class space.

    ``shift`` is the arc-inversion permutation (an involution), ``boundary``
    maps arc classes to vertex classes, ``evolution`` is the one-step
    operator shift @ (2 boundary* boundary - I), and ``discriminant`` is the
    symmetric 3x3 matrix boundary @ shift @ boundary* whose eigenvalues
    generate the walk's spectrum.
    """

    n_clique: int
    n_leaves: int
    leaf_phase: LeafPhase
    shift: np.ndarray        # float64, (5, 5)
    boundary: np.ndarray     # float64, (3, 5)
    evolution: np.ndarray    # float64, (5, 5)
    discriminant: np.ndarray  # float64, (3, 3)


_BLOCK = 256  # steps per stacked product of step powers in hub_series

#: Arc-inversion permutation on the five classes: row c picks class
#: INVERSE_CLASS[c].
_SHIFT = np.eye(5)[list(INVERSE_CLASS)]


def build_reduced_operators(
    n_clique: int, n_leaves: int, leaf_phase: LeafPhase = LeafPhase.REVERSAL
) -> ReducedOperators:
    """Build the reduced operators from closed-form entries.

    The boundary row for an ordinary clique vertex is
    (sqrt((N-2)/(N-1)), 0, 1/sqrt(N-1), 0, 0): an interior clique arc and a
    hub-to-clique arc arrive there.  The hub row is
    (0, sqrt((N-1)/(N+m-1)), 0, sqrt(m/(N+m-1)), 0).  The leaf row is zero
    under phase reversal and picks up the single hub-to-leaf arc,
    (0, 0, 0, 0, 1), in plain mode.
    """
    class_sizes(n_clique, n_leaves)  # validates the parameter ranges
    n, m = n_clique, n_leaves
    boundary = np.zeros((3, 5), dtype=np.float64)
    boundary[0, ArcClass.CLIQUE_INTERIOR] = math.sqrt((n - 2) / (n - 1))
    boundary[0, ArcClass.CLIQUE_OUT] = 1.0 / math.sqrt(n - 1)
    boundary[2, ArcClass.CLIQUE_IN] = math.sqrt((n - 1) / (n + m - 1))
    boundary[2, ArcClass.STAR_IN] = math.sqrt(m / (n + m - 1))
    if leaf_phase is LeafPhase.PLAIN:
        boundary[1, ArcClass.STAR_OUT] = 1.0
    evolution = _SHIFT @ (2.0 * boundary.T @ boundary - np.eye(5))
    discriminant = boundary @ _SHIFT @ boundary.T
    return ReducedOperators(
        n_clique=n,
        n_leaves=m,
        leaf_phase=leaf_phase,
        shift=_SHIFT.copy(),
        boundary=boundary,
        evolution=evolution,
        discriminant=discriminant,
    )


def collapsed_initial_state(n_clique: int, n_leaves: int) -> CollapsedState:
    """Collapse of the uniform clique state: (sqrt((N-2)/N), 1/sqrt(N), 1/sqrt(N), 0, 0)."""
    class_sizes(n_clique, n_leaves)
    n = n_clique
    amplitudes = np.zeros(5, dtype=np.complex128)
    amplitudes[ArcClass.CLIQUE_INTERIOR] = math.sqrt((n - 2) / n)
    amplitudes[ArcClass.CLIQUE_IN] = 1.0 / math.sqrt(n)
    amplitudes[ArcClass.CLIQUE_OUT] = 1.0 / math.sqrt(n)
    return CollapsedState(amplitudes=amplitudes)


def ascending_steps(times) -> np.ndarray:
    """Step counts of an iterative backend's rows, as int64; one pass
    visits them all."""
    steps = step_counts(times)
    if (np.diff(steps) < 0).any():
        raise ValueError("step counts must be ascending")
    return steps


def hub_series(ops: ReducedOperators, state: CollapsedState, times) -> HubSeries:
    """Hub series after each of the ascending step counts ``times`` from
    ``state``, iterating the reduced step operator a block of steps at a
    time; only the requested rows are kept."""
    steps = ascending_steps(times)
    evolution = ops.evolution
    psi = state.amplitudes  # no product below writes to its input
    hub = np.empty((len(steps), 2), dtype=np.complex128)
    if len(steps):
        span = min(_BLOCK, int(steps[-1]) + 1)
        powers = np.empty((span, 5, 5))
        powers[0] = np.eye(5)
        for k in range(1, span):
            np.matmul(evolution, powers[k - 1], out=powers[k])
        last = powers[-1]
        # the hub-bound rows of every power, stacked: row 2k + j is row j of M^k
        hub_rows = powers[:, HUB_BOUND].reshape(-1, 5).astype(np.result_type(powers, psi))
        block, offset = np.divmod(steps, span)
        bounds = (np.flatnonzero(np.diff(block)) + 1).tolist()
        done = 0
        for lo, hi in zip([0, *bounds], [*bounds, len(steps)]):
            for _ in range(int(block[lo]) - done):
                psi = evolution @ (last @ psi)
            done = int(block[lo])
            rows = offset[lo:hi]
            amps = (hub_rows[: 2 * int(rows[-1]) + 2] @ psi).reshape(-1, 2)
            amps[0] = psi[HUB_BOUND]  # a block's first row is its start state
            hub[lo:hi] = amps[rows]
    clique_in, star_in = hub[:, 0], hub[:, 1]
    return hub_probability(clique_in, star_in), clique_in, star_in


def evolve_collapsed(
    ops: ReducedOperators, state: CollapsedState, t_max: int
) -> ProbabilityTrace:
    """Iterate the reduced step operator, recording the hub trace.

    Returns a trace of length ``t_max + 1`` whose row ``t`` holds the state
    after ``t`` applications of the evolution.
    """
    metadata = trace_metadata(ops.n_clique, ops.n_leaves, "collapsed", ops.leaf_phase)
    series = partial(hub_series, ops, state)
    return ProbabilityTrace.from_series(series, t_max, metadata)
