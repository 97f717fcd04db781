"""Full arc-space evolution of the coined walk: the brute-force oracle.

One step applies the vertex-local diffusion coin (a reflection about the
per-vertex uniform incoming state) followed by the arc-inversion shift.
Under phase reversal the coin has no support on the leaves, so amplitude
bounced back from a leaf picks up a minus sign; in plain mode the leaves
carry the ordinary degree-1 coin (+1).

The clique is complete, so its arc amplitudes form one N x N block
``clique[u, w]`` (arc u -> w, zero diagonal) and the star's form two
length-m vectors.  No per-arc index table is needed: the incoming sums are
one BLAS matrix-vector product ``ones @ clique``, the coin subtracts the
block from one row of per-vertex values, and the shift is a transpose.  A
step is one product and one pass over the block, updated in place on a
private copy; no operator matrix is materialized.  One kernel, ``_advance``,
runs every step for ``step``, ``hub_series`` and ``evolve``.

The BLAS sums round differently from numpy's pairwise column sums, so
full-mode traces change in their last digits: by at most 2.4e-13 over N
from 3 to 2192, both leaf phases and 250 steps (at (1000, 31), where the
BLAS series is 3.2e-14 from the closed form and the pairwise one 2.1e-13).

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
from .trace import HubSeries, ProbabilityTrace, trace_metadata


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


def shift(graph: GluedGraph, state: WalkState) -> WalkState:
    """Arc-inversion shift: the transposed block, the star vectors swapped.
    Applying it twice returns the input exactly."""
    return WalkState(state.clique.T, state.star_out, state.star_in, state.time)


def _private_arrays(graph: GluedGraph, state: WalkState):
    """C-contiguous copies of the state's arrays, in one dtype, that the
    kernel may overwrite."""
    n, m = graph.n_clique, graph.n_leaves
    shapes = (state.clique.shape, state.star_in.shape, state.star_out.shape)
    if shapes != ((n, n), (m,), (m,)):
        raise ValueError(f"state has shapes {shapes}, graph needs {((n, n), (m,), (m,))}")
    arrays = (state.clique, state.star_in, state.star_out)
    dtype = np.result_type(*arrays, np.float64)
    return tuple(np.array(a, dtype, order="C") for a in arrays)


def _advance(graph: GluedGraph, state: WalkState | None, leaf_phase: LeafPhase, steps):
    """The step kernel: yield ``(clique, star_in, star_out)`` after each of
    the ascending step counts ``steps``, advancing one private copy of
    ``state`` in place (``None``: the uniform start, built here and advanced
    without a copy).  The yielded arrays are the kernel's own and change on
    the next step.

    The coin sends the clique arc u -> w to g[w] - clique[u, w], with g the
    incoming sums (one BLAS product ``ones @ clique``) times 2/deg; the
    shift then reads the block transposed and swaps the star vectors, each
    rewritten in place.  The block keeps its memory, so its diagonal is the
    same strided view in either orientation.
    """
    n, m = graph.n_clique, graph.n_leaves
    if state is None:
        start = initial_state(graph)
        clique, star_in, star_out = start.clique, start.star_in, start.star_out
    else:
        clique, star_in, star_out = _private_arrays(graph, state)
    ones = np.ones(n, dtype=clique.dtype)
    g = np.empty(n, dtype=clique.dtype)
    diagonal = clique.reshape(-1)[:: n + 1]  # a view: the block is C-contiguous
    clique_factor, hub_factor = 2.0 / (n - 1), 2.0 / (n - 1 + m)
    reverse = leaf_phase is LeafPhase.REVERSAL
    done = 0
    for t in steps:
        for _ in range(t - done):
            np.matmul(ones, clique, out=g)
            g_hub = (g[HUB] + star_in.sum()) * hub_factor
            g *= clique_factor
            g[HUB] = g_hub
            np.subtract(g, clique, out=clique)
            diagonal.fill(0.0)
            np.subtract(g_hub, star_in, out=star_in)  # coined at the hub
            if reverse:
                np.negative(star_out, out=star_out)  # bounced off a leaf
            clique, star_in, star_out = clique.T, star_out, star_in
        done = t
        yield clique, star_in, star_out


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
    clique, star_in, star_out = next(_advance(graph, state, leaf_phase, (1,)))
    return WalkState(clique, star_in, star_out, state.time + 1)


def _hub_probability(clique: np.ndarray, star_in: np.ndarray) -> float:
    """Probability on the arcs into the hub: its clique column and the star."""
    incoming = clique[:, HUB]
    return float((np.vdot(incoming, incoming) + np.vdot(star_in, star_in)).real)


def vertex_probability(graph: GluedGraph, state: WalkState, vertex: int) -> float:
    """Probability of finding the walker at ``vertex``: sum of |amplitude|^2
    over arcs terminating there."""
    if not 0 <= vertex < graph.n_vertices:
        raise ValueError(f"unknown vertex id {vertex}")
    if vertex >= graph.n_clique:
        return float(abs(state.star_out[vertex - graph.n_clique]) ** 2)
    if vertex == HUB:
        return _hub_probability(state.clique, state.star_in)
    incoming = state.clique[:, vertex]
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
    in_norm, star_norm = math.sqrt(graph.n_clique - 1), math.sqrt(graph.n_leaves)
    for row, (clique, leaves_in, _) in enumerate(_advance(graph, state, leaf_phase, steps)):
        p[row] = _hub_probability(clique, leaves_in)
        # the two hub-bound class amplitudes of collapse(), without its block sum
        clique_in[row] = clique[1:, HUB].sum() / in_norm
        star_in[row] = leaves_in.sum() / star_norm
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
    metadata = trace_metadata(graph.n_clique, graph.n_leaves, "full", leaf_phase)
    series = partial(hub_series, graph, state, leaf_phase)
    start = 0 if state is None else state.time
    return ProbabilityTrace.from_series(series, t_max, metadata, start)
