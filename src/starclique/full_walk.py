"""Full arc-space evolution of the coined walk: the brute-force oracle.

One step applies the vertex-local diffusion coin (a reflection about the
per-vertex uniform incoming state) followed by the arc-inversion shift.
Under phase reversal the coin has no support on the leaves, so amplitude
bounced back from a leaf picks up a minus sign; in plain mode the leaves
carry the ordinary degree-1 coin (+1).

Everything here is a pure function of its inputs; a state can be handed
between threads and parameter sweeps can run concurrently on independent
(graph, state) pairs.  Cost is O(arc_count) per step with no operator
matrix ever materialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .collapsed import CollapsedState, ascending_steps
from .graph import ArcClass, GluedGraph, LeafPhase, class_sizes
from .trace import HubSeries, ProbabilityTrace


@dataclass(frozen=True, eq=False)
class WalkState:
    """One complex amplitude per arc, plus a step counter."""

    amplitudes: np.ndarray  # complex128, shape (arc_count,)
    time: int = 0


def initial_state(graph: GluedGraph) -> WalkState:
    """Uniform state on the clique arcs: 1/sqrt(N(N-1)) there, 0 on the star."""
    n = graph.n_clique
    amplitudes = np.zeros(graph.arc_count, dtype=np.complex128)
    amplitudes[: n * (n - 1)] = 1.0 / math.sqrt(n * (n - 1))
    return WalkState(amplitudes=amplitudes, time=0)


def shift(graph: GluedGraph, amplitudes: np.ndarray) -> np.ndarray:
    """Arc-inversion shift; applying it twice returns the input exactly."""
    return amplitudes[graph.inverse]


def _incoming_sums(graph: GluedGraph, amplitudes: np.ndarray) -> np.ndarray:
    """Per-vertex sum of amplitudes over incoming arcs."""
    nv = graph.n_vertices
    return np.bincount(
        graph.terminus, weights=amplitudes.real, minlength=nv
    ) + 1j * np.bincount(graph.terminus, weights=amplitudes.imag, minlength=nv)


def step(
    graph: GluedGraph,
    state: WalkState,
    leaf_phase: LeafPhase = LeafPhase.REVERSAL,
) -> WalkState:
    """Advance the walk by one step (coin, then shift).

    Grouped by terminus, the coin sends each amplitude to
    2/deg(v) * (incoming sum at v) - itself wherever the coin has support,
    and to minus itself on the leaves under phase reversal.
    """
    psi = state.amplitudes
    if psi.shape != (graph.arc_count,):
        raise ValueError(
            f"state has {psi.shape} amplitudes, graph has {graph.arc_count} arcs"
        )
    sums = _incoming_sums(graph, psi)
    factor = 2.0 / graph.degree
    if leaf_phase is LeafPhase.REVERSAL:
        factor[graph.n_clique:] = 0.0  # coin support excludes the leaves
    term = graph.terminus
    coined = factor[term] * sums[term] - psi
    return WalkState(amplitudes=coined[graph.inverse], time=state.time + 1)


def vertex_probability(graph: GluedGraph, state: WalkState, vertex: int) -> float:
    """Probability of finding the walker at ``vertex``: sum of |amplitude|^2
    over arcs terminating there."""
    if not 0 <= vertex < graph.n_vertices:
        raise ValueError(f"unknown vertex id {vertex}")
    mask = graph.terminus == vertex
    return float(np.sum(np.abs(state.amplitudes[mask]) ** 2))


def _class_amplitudes(graph: GluedGraph, amplitudes: np.ndarray) -> np.ndarray:
    # pairwise summation over contiguous class slices keeps the projection
    # accurate to ~log(class size) ulps even for very large classes
    sizes = class_sizes(graph.n_clique, graph.n_leaves)
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    ordered = amplitudes[graph.class_order]
    sums = np.array(
        [ordered[bounds[c] : bounds[c + 1]].sum() for c in range(5)],
        dtype=np.complex128,
    )
    return sums / np.sqrt(np.asarray(sizes, dtype=np.float64))


def collapse(graph: GluedGraph, state: WalkState) -> CollapsedState:
    """Project onto the class-uniform space: per class, sum / sqrt(size)."""
    return CollapsedState(
        amplitudes=_class_amplitudes(graph, state.amplitudes), time=state.time
    )


def lift(graph: GluedGraph, state: CollapsedState) -> WalkState:
    """Adjoint of collapse: spread each class amplitude uniformly over the class.

    lift(collapse(psi)) is the orthogonal projection onto the class-uniform
    space; it fixes any class-uniform state exactly.
    """
    sizes = np.asarray(class_sizes(graph.n_clique, graph.n_leaves), dtype=np.float64)
    per_arc = state.amplitudes / np.sqrt(sizes)
    return WalkState(amplitudes=per_arc[graph.arc_class], time=state.time)


def hub_series(
    graph: GluedGraph, state: WalkState, leaf_phase: LeafPhase, times
) -> HubSeries:
    """Hub series after each of the ascending step counts ``times`` from
    ``state``; p_hub is measured on the arcs into the hub."""
    steps = ascending_steps(times)
    hub_in = np.flatnonzero(graph.terminus == graph.hub)
    p = np.empty(len(steps), dtype=np.float64)
    clique_in = np.empty(len(steps), dtype=np.complex128)
    star_in = np.empty(len(steps), dtype=np.complex128)
    current = state  # step() never writes to its input
    done = 0
    for row, t in enumerate(steps):
        for _ in range(t - done):
            current = step(graph, current, leaf_phase)
        done = t
        p[row] = float(np.sum(np.abs(current.amplitudes[hub_in]) ** 2))
        classes = _class_amplitudes(graph, current.amplitudes)
        clique_in[row] = classes[ArcClass.CLIQUE_IN]
        star_in[row] = classes[ArcClass.STAR_IN]
    return p, clique_in, star_in


def evolve(
    graph: GluedGraph,
    state: WalkState,
    t_max: int,
    leaf_phase: LeafPhase = LeafPhase.REVERSAL,
) -> ProbabilityTrace:
    """Run ``t_max`` steps, recording the hub probability and the collapsed
    amplitudes on the two hub-bound classes at every step (t_max + 1 rows)."""
    metadata = {
        "n": str(graph.n_clique),
        "m": str(graph.n_leaves),
        "mode": "full",
        "leaf_phase": leaf_phase.value,
    }
    series = partial(hub_series, graph, state, leaf_phase)
    return ProbabilityTrace.from_series(series, t_max, metadata, state.time)
