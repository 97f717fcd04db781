"""Dense N x N step kernel of the arc-space walk, for tests.

The reference the structured kernel of ``starclique.full_walk`` is checked
against.  It stores the whole clique block and advances a private copy in
place: the incoming sums are one BLAS product ``ones @ clique``, the coin
subtracts the block from one row of per-vertex values, and the shift is a
transpose.  It takes a start with a zero clique diagonal, as ``step``
does, and zeroes the diagonal that the coin writes.
"""

import math

import numpy as np

from starclique.collapsed import ascending_steps
from starclique.full_walk import WalkState
from starclique.graph import HUB, LeafPhase


def _private_arrays(state):
    """C-contiguous copies of the state's arrays, in one dtype, that the
    kernel may overwrite."""
    arrays = (state.clique, state.star_in, state.star_out)
    dtype = np.result_type(*arrays, np.float64)
    return tuple(np.array(a, dtype, order="C") for a in arrays)


def advance(state, leaf_phase, steps):
    """Yield ``(clique, star_in, star_out)`` after each of the ascending step
    counts ``steps``, advancing one private copy of ``state`` in place.  The
    yielded arrays are the kernel's own and change on the next step.

    The coin sends the clique arc u -> w to g[w] - clique[u, w], with g the
    incoming sums times 2/deg; the shift then reads the block transposed and
    swaps the star vectors.
    """
    clique, star_in, star_out = _private_arrays(state)
    n, m = clique.shape[0], star_in.size
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


def step(state, leaf_phase):
    clique, star_in, star_out = next(advance(state, leaf_phase, (1,)))
    return WalkState(clique.copy(), star_in.copy(), star_out.copy())


def hub_row(clique, star_in):
    """p_hub on the arcs into the hub, |clique[:, HUB]|^2 + |star_in|^2, and
    the two hub-bound class amplitudes of one state, as
    ``full_walk.hub_series`` reports them."""
    incoming = clique[:, HUB]
    p = (np.vdot(incoming, incoming) + np.vdot(star_in, star_in)).real
    return (p, incoming[1:].sum() / math.sqrt(incoming.size - 1),
            star_in.sum() / math.sqrt(star_in.size))


def hub_series(state, leaf_phase, times):
    """``hub_row`` after each of the ascending step counts ``times``."""
    steps = ascending_steps(times)
    rows = [hub_row(clique, star_in)
            for clique, star_in, _ in advance(state, leaf_phase, steps)]
    return [np.array(column) for column in zip(*rows)]
