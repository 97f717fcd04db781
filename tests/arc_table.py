"""Generic arc-table form of the glued graph and its walk step, for tests.

The reference the structured oracle of ``starclique.full_walk`` is checked
against: per-arc origin, terminus, inverse and class arrays, a bincount
coin and an inverse gather, with nothing special to a complete graph.
``arc_amplitudes`` flattens a structured ``full_walk.WalkState`` into this
module's arc order: the clique arcs in origin-major, terminus-minor order,
then the leaf-to-hub arcs, then the hub-to-leaf arcs.
"""

from dataclasses import dataclass

import numpy as np

from starclique.graph import HUB, ArcClass, LeafPhase


@dataclass(frozen=True)
class ArcTable:
    n_clique: int
    origin: np.ndarray
    terminus: np.ndarray
    inverse: np.ndarray
    arc_class: np.ndarray
    degree: np.ndarray  # indexed by vertex id


def arc_amplitudes(state) -> np.ndarray:
    """Every arc amplitude of a ``full_walk.WalkState`` in one vector, in
    arc-id order."""
    off_diagonal = ~np.eye(state.clique.shape[0], dtype=bool)
    return np.concatenate([state.clique[off_diagonal], state.star_in, state.star_out])


def build(n: int, m: int) -> ArcTable:
    # clique arc (u -> w) sits at u*(n-1) + w - (w > u)
    u = np.repeat(np.arange(n), n - 1)
    slot = np.tile(np.arange(n - 1), n)
    w = slot + (slot >= u)
    clique_arcs = n * (n - 1)
    into = np.arange(clique_arcs, clique_arcs + m)  # leaf -> hub; hub -> leaf is into + m
    leaves = np.arange(n, n + m)
    hub = np.full(m, HUB)
    origin = np.concatenate([u, leaves, hub])
    terminus = np.concatenate([w, hub, leaves])
    inverse = np.concatenate([w * (n - 1) + u - (u > w), into + m, into])
    arc_class = np.full(clique_arcs + 2 * m, ArcClass.CLIQUE_INTERIOR)
    arc_class[:clique_arcs][w == HUB] = ArcClass.CLIQUE_IN
    arc_class[:clique_arcs][u == HUB] = ArcClass.CLIQUE_OUT
    arc_class[into] = ArcClass.STAR_IN
    arc_class[into + m] = ArcClass.STAR_OUT
    degree = np.bincount(terminus, minlength=n + m)
    return ArcTable(n, origin, terminus, inverse, arc_class, degree)


def step(table: ArcTable, psi: np.ndarray, leaf_phase: LeafPhase) -> np.ndarray:
    """Coin, then shift, on the arc vector ``psi``."""
    nv = table.degree.size
    sums = np.bincount(table.terminus, psi.real, nv) + 1j * np.bincount(
        table.terminus, psi.imag, nv
    )
    factor = 2.0 / table.degree
    if leaf_phase is LeafPhase.REVERSAL:
        factor[table.n_clique :] = 0.0  # coin support excludes the leaves
    coined = factor[table.terminus] * sums[table.terminus] - psi
    return coined[table.inverse]
