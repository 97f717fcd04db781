"""Shape of a clique with a star glued onto one of its vertices.

Take the complete graph on ``n_clique`` vertices and identify one of them
with the center of a star carrying ``n_leaves`` leaves.  The identified
vertex (the *hub*) is the search target of every walk in this package.
Each undirected edge contributes two mutually inverse arcs.  The arc set is
fixed by the two sizes, so the graph stores only those and the arc count;
the arc-space walk keeps its amplitudes in a structured layout (see
``full_walk``) and needs no per-arc index table.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum, IntEnum

#: Vertex id of the glued vertex; the hub always gets the lowest id.
HUB = 0


class ArcClass(IntEnum):
    """Orbits of the arc set under the symmetries fixing the hub.

    The five orbits partition the arcs.  Arc inversion fixes
    ``CLIQUE_INTERIOR`` and swaps the IN/OUT member of each pair.
    """

    CLIQUE_INTERIOR = 0  # ordinary clique vertex -> ordinary clique vertex
    CLIQUE_IN = 1        # ordinary clique vertex -> hub
    CLIQUE_OUT = 2       # hub -> ordinary clique vertex
    STAR_IN = 3          # leaf -> hub
    STAR_OUT = 4         # hub -> leaf


#: The two classes of arcs into the hub, (CLIQUE_IN, STAR_IN), as a slice
#: of the class axis, so that indexing with it gives a view.
HUB_BOUND = slice(ArcClass.CLIQUE_IN, ArcClass.STAR_IN + 1,
                  ArcClass.STAR_IN - ArcClass.CLIQUE_IN)

#: Image of each arc class under arc inversion, indexed by ArcClass value.
INVERSE_CLASS = (
    ArcClass.CLIQUE_INTERIOR,
    ArcClass.CLIQUE_OUT,
    ArcClass.CLIQUE_IN,
    ArcClass.STAR_OUT,
    ArcClass.STAR_IN,
)


class LeafPhase(Enum):
    """How amplitudes reflect at the star's leaves.

    ``REVERSAL`` flips the sign of the amplitude bounced back from each
    leaf.  ``PLAIN`` keeps the ordinary degree-1 diffusion coin, which is
    +1, giving the unmodified walk used as the baseline.
    """

    REVERSAL = "reversal"
    PLAIN = "plain"


@dataclass(frozen=True, eq=False)
class GluedGraph:
    """Sizes of the glued graph.

    Vertex ids: hub = 0, ordinary clique vertices 1..n_clique-1, then the
    leaves.  Safe for concurrent shared reads.
    """

    n_clique: int
    n_leaves: int
    arc_count: int

    @property
    def n_vertices(self) -> int:
        return self.n_clique + self.n_leaves

    @property
    def hub(self) -> int:
        return HUB


def _validate_sizes(n_clique: int, n_leaves: int) -> None:
    if n_clique < 3:
        raise ValueError(
            f"n_clique must be at least 3, got {n_clique}; the clique walk "
            "degenerates below the triangle"
        )
    if n_leaves < 1:
        raise ValueError(f"n_leaves must be at least 1, got {n_leaves}")


def leaves_from_alpha(n_clique: int, alpha: float) -> int:
    """Number of leaves for scaling exponent ``alpha``: floor(N**alpha), >= 1.

    The exponent only ever enters through this floor; everything downstream
    works with the exact integer leaf count.
    """
    if n_clique < 3:
        raise ValueError(f"n_clique must be at least 3, got {n_clique}")
    if alpha < 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    power = float(n_clique) ** float(alpha)
    # pow() can land a hair below an exact integer; snap within 4 ulps.
    nearest = round(power)
    if nearest > 0 and abs(power - nearest) <= 4 * math.ulp(power):
        return max(1, nearest)
    return max(1, math.floor(power))


def class_sizes(n_clique: int, n_leaves: int) -> tuple[int, int, int, int, int]:
    """Sizes of the five arc classes, in ArcClass order.

    ((N-1)(N-2), N-1, N-1, m, m) for a clique on N vertices and m leaves.
    """
    _validate_sizes(n_clique, n_leaves)
    n, m = n_clique, n_leaves
    return ((n - 1) * (n - 2), n - 1, n - 1, m, m)


def build_graph(n_clique: int, n_leaves: int) -> GluedGraph:
    """Validate the sizes of the glued graph.

    Parameters
    ----------
    n_clique:
        Number of clique vertices (>= 3); one of them becomes the hub.
    n_leaves:
        Number of star leaves attached to the hub (>= 1).

    Returns
    -------
    GluedGraph
        The sizes, with ``n_clique*(n_clique-1) + 2*n_leaves`` arcs.
    """
    _validate_sizes(n_clique, n_leaves)
    arc_count = n_clique * (n_clique - 1) + 2 * n_leaves
    if arc_count > sys.maxsize:
        raise ValueError(
            f"arc count {arc_count} exceeds the platform's addressable size"
        )
    return GluedGraph(n_clique=n_clique, n_leaves=n_leaves, arc_count=arc_count)
