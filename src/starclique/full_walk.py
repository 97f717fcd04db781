"""Full arc-space evolution of the coined walk: the brute-force oracle.

One step applies the vertex-local diffusion coin (a reflection about the
per-vertex uniform incoming state) followed by the arc-inversion shift.
Under phase reversal the coin has no support on the leaves, so amplitude
bounced back from a leaf picks up a minus sign; in plain mode the leaves
carry the ordinary degree-1 coin (+1).

The clique is complete, so its arc amplitudes form one N x N block
``clique[u, w]`` (arc u -> w, zero diagonal) and the star's form two
length-m vectors.  No per-arc index table is needed: incoming sums are
column sums, the coin subtracts the block from one row of per-vertex
values, and the shift is a transpose.  A step is one pass over the block,
updated in place on a private copy; no operator matrix is materialized.

From the uniform start the walk is real (a real coin, leaf phase +-1), so
``initial_state`` is float64 and the oracle runs in real arithmetic: half
the bytes of a complex block per step.  The step, shift, probability and
projection work for any dtype, so complex states evolve as before.
``hub_series`` and ``evolve`` take ``None`` for the uniform start and then
build it themselves, so a run holds one N x N block.

The public functions never write to their inputs; a state can be handed
between threads and parameter sweeps can run concurrently on independent
(graph, state) pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .collapsed import CollapsedState, ascending_steps
from .graph import HUB, ArcClass, GluedGraph, LeafPhase, class_sizes
from .trace import HubSeries, ProbabilityTrace


@dataclass(frozen=True, eq=False)
class WalkState:
    """Arc amplitudes in the structured layout, plus a step counter.

    ``clique[u, w]`` is the amplitude on the clique arc u -> w (vertex ids
    as in ``graph``; the diagonal is zero), ``star_in[j]`` the amplitude on
    the arc from leaf j into the hub and ``star_out[j]`` on the arc back.
    """

    clique: np.ndarray    # float64 or complex128, shape (n_clique, n_clique)
    star_in: np.ndarray   # same dtype, shape (n_leaves,)
    star_out: np.ndarray  # same dtype, shape (n_leaves,)
    time: int = 0


def initial_state(graph: GluedGraph) -> WalkState:
    """Uniform state on the clique arcs: 1/sqrt(N(N-1)) there, 0 on the star.
    Real (float64): the walk from it stays real."""
    n, m = graph.n_clique, graph.n_leaves
    clique = np.full((n, n), 1.0 / math.sqrt(n * (n - 1)))
    np.fill_diagonal(clique, 0.0)
    return WalkState(clique, np.zeros(m), np.zeros(m))


def arc_amplitudes(state: WalkState) -> np.ndarray:
    """Every arc amplitude in one vector: the clique arcs in origin-major,
    terminus-minor order, then the leaf-to-hub and the hub-to-leaf arcs."""
    off_diagonal = ~np.eye(state.clique.shape[0], dtype=bool)
    return np.concatenate([state.clique[off_diagonal], state.star_in, state.star_out])


def shift(graph: GluedGraph, state: WalkState) -> WalkState:
    """Arc-inversion shift: the transposed block, the star vectors swapped.
    Applying it twice returns the input exactly."""
    return WalkState(state.clique.T, state.star_out, state.star_in, state.time)


def _private_copy(graph: GluedGraph, state: WalkState) -> WalkState:
    """A copy of ``state`` whose clique block ``_advance`` may overwrite."""
    n, m = graph.n_clique, graph.n_leaves
    shapes = (state.clique.shape, state.star_in.shape, state.star_out.shape)
    if shapes != ((n, n), (m,), (m,)):
        raise ValueError(f"state has shapes {shapes}, graph needs {((n, n), (m,), (m,))}")
    return WalkState(state.clique.copy(), state.star_in, state.star_out, state.time)


def _advance(graph: GluedGraph, state: WalkState, leaf_phase: LeafPhase) -> WalkState:
    """One step (coin, then shift) that overwrites ``state.clique``.

    The coin sends the clique arc u -> w to g[w] - clique[u, w], with g the
    incoming sums times 2/deg; the shift then reads the block transposed.
    The star vectors are never written; the new ones are fresh arrays.
    """
    n, m = graph.n_clique, graph.n_leaves
    clique = state.clique
    sums = clique.sum(axis=0)
    sums[HUB] += state.star_in.sum()
    g = sums * (2.0 / (n - 1))
    g[HUB] = sums[HUB] * (2.0 / (n - 1 + m))
    np.subtract(g, clique, out=clique)
    np.fill_diagonal(clique, 0.0)
    bounced = -state.star_out if leaf_phase is LeafPhase.REVERSAL else state.star_out.copy()
    return WalkState(clique.T, bounced, g[HUB] - state.star_in, state.time + 1)


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
    return _advance(graph, _private_copy(graph, state), leaf_phase)


def vertex_probability(graph: GluedGraph, state: WalkState, vertex: int) -> float:
    """Probability of finding the walker at ``vertex``: sum of |amplitude|^2
    over arcs terminating there."""
    if not 0 <= vertex < graph.n_vertices:
        raise ValueError(f"unknown vertex id {vertex}")
    if vertex >= graph.n_clique:
        return float(abs(state.star_out[vertex - graph.n_clique]) ** 2)
    incoming = state.clique[:, vertex]
    if vertex == HUB:
        incoming = np.concatenate([incoming, state.star_in])
    return float(np.vdot(incoming, incoming).real)


def collapse(graph: GluedGraph, state: WalkState) -> CollapsedState:
    """Project onto the class-uniform space: per class, sum / sqrt(size)."""
    block = state.clique
    sums = np.array(
        [
            block[1:, 1:].sum(),  # the zero diagonal adds nothing
            block[1:, HUB].sum(),
            block[HUB, 1:].sum(),
            state.star_in.sum(),
            state.star_out.sum(),
        ],
        dtype=np.complex128,
    )
    sizes = np.asarray(class_sizes(graph.n_clique, graph.n_leaves), dtype=np.float64)
    return CollapsedState(amplitudes=sums / np.sqrt(sizes), time=state.time)


def lift(graph: GluedGraph, state: CollapsedState) -> WalkState:
    """Adjoint of collapse: spread each class amplitude uniformly over the class.

    lift(collapse(psi)) is the orthogonal projection onto the class-uniform
    space; it fixes any class-uniform state exactly.
    """
    n, m = graph.n_clique, graph.n_leaves
    sizes = np.asarray(class_sizes(n, m), dtype=np.float64)
    per_arc = state.amplitudes / np.sqrt(sizes)
    clique = np.full((n, n), per_arc[ArcClass.CLIQUE_INTERIOR], dtype=np.complex128)
    clique[1:, HUB] = per_arc[ArcClass.CLIQUE_IN]
    clique[HUB, 1:] = per_arc[ArcClass.CLIQUE_OUT]
    np.fill_diagonal(clique, 0.0)
    return WalkState(
        clique,
        np.full(m, per_arc[ArcClass.STAR_IN]),
        np.full(m, per_arc[ArcClass.STAR_OUT]),
        state.time,
    )


def hub_series(
    graph: GluedGraph, state: WalkState | None, leaf_phase: LeafPhase, times
) -> HubSeries:
    """Hub series after each of the ascending step counts ``times`` from
    ``state``; p_hub is measured on the arcs into the hub.  The walk runs on
    one private copy of ``state``, advanced in place; ``None`` starts from
    ``initial_state(graph)``, built here and advanced without a copy."""
    steps = ascending_steps(times)
    p = np.empty(len(steps), dtype=np.float64)
    clique_in = np.empty(len(steps), dtype=np.complex128)
    star_in = np.empty(len(steps), dtype=np.complex128)
    if state is None:
        current = initial_state(graph)
    else:
        current = _private_copy(graph, state)
    done = 0
    for row, t in enumerate(steps):
        for _ in range(t - done):
            current = _advance(graph, current, leaf_phase)
        done = t
        p[row] = vertex_probability(graph, current, HUB)
        # the two hub-bound class amplitudes of collapse(), without its block sum
        clique_in[row] = current.clique[1:, HUB].sum() / math.sqrt(graph.n_clique - 1)
        star_in[row] = current.star_in.sum() / math.sqrt(graph.n_leaves)
    return p, clique_in, star_in


def evolve(
    graph: GluedGraph,
    state: WalkState | None,
    t_max: int,
    leaf_phase: LeafPhase = LeafPhase.REVERSAL,
) -> ProbabilityTrace:
    """Run ``t_max`` steps, recording the hub probability and the collapsed
    amplitudes on the two hub-bound classes at every step (t_max + 1 rows).
    ``None`` is the uniform start, as in ``hub_series``."""
    metadata = {
        "n": str(graph.n_clique),
        "m": str(graph.n_leaves),
        "mode": "full",
        "leaf_phase": leaf_phase.value,
    }
    series = partial(hub_series, graph, state, leaf_phase)
    start = 0 if state is None else state.time
    return ProbabilityTrace.from_series(series, t_max, metadata, start)
