"""Dense N x N step kernel of the arc-space walk, for tests.

The reference the structured kernel of ``starclique.full_walk`` is checked
against.  It stores the whole clique block and advances a private copy in
place: the incoming sums are one BLAS product ``ones @ clique``, the coin
subtracts the block from one row of per-vertex values, and the shift is a
transpose.  Like the structured kernel, and unlike ``arc_table``, it counts
a start's clique diagonal in the first step's incoming sums and zeroes it
after.
"""

import math

import numpy as np

from starclique.collapsed import ascending_steps
from starclique.full_walk import WalkState
from starclique.graph import HUB, LeafPhase


def _private_arrays(graph, state):
    """C-contiguous copies of the state's arrays, in one dtype, that the
    kernel may overwrite."""
    n, m = graph.n_clique, graph.n_leaves
    shapes = (state.clique.shape, state.star_in.shape, state.star_out.shape)
    if shapes != ((n, n), (m,), (m,)):
        raise ValueError(f"state has shapes {shapes}, graph needs {((n, n), (m,), (m,))}")
    arrays = (state.clique, state.star_in, state.star_out)
    dtype = np.result_type(*arrays, np.float64)
    return tuple(np.array(a, dtype, order="C") for a in arrays)


def advance(graph, state, leaf_phase, steps):
    """Yield ``(clique, star_in, star_out)`` after each of the ascending step
    counts ``steps``, advancing one private copy of ``state`` in place.  The
    yielded arrays are the kernel's own and change on the next step.

    The coin sends the clique arc u -> w to g[w] - clique[u, w], with g the
    incoming sums times 2/deg; the shift then reads the block transposed and
    swaps the star vectors.
    """
    n, m = graph.n_clique, graph.n_leaves
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


def step(graph, state, leaf_phase):
    clique, star_in, star_out = next(advance(graph, state, leaf_phase, (1,)))
    return WalkState(clique.copy(), star_in.copy(), star_out.copy(), state.time + 1)


def hub_row(graph, clique, star_in):
    """p_hub on the arcs into the hub, |clique[:, HUB]|^2 + |star_in|^2, and
    the two hub-bound class amplitudes of one state, as
    ``full_walk.hub_series`` reports them."""
    incoming = clique[:, HUB]
    p = (np.vdot(incoming, incoming) + np.vdot(star_in, star_in)).real
    return (p, incoming[1:].sum() / math.sqrt(graph.n_clique - 1),
            star_in.sum() / math.sqrt(graph.n_leaves))


def hub_series(graph, state, leaf_phase, times):
    """``hub_row`` after each of the ascending step counts ``times``."""
    steps = ascending_steps(times)
    rows = [hub_row(graph, clique, star_in)
            for clique, star_in, _ in advance(graph, state, leaf_phase, steps)]
    return [np.array(column) for column in zip(*rows)]
