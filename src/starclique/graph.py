"""Shape of a clique with a star glued onto one of its vertices.

Take the complete graph on ``n_clique`` vertices and identify one of them
with the center of a star carrying ``n_leaves`` leaves.  The identified
vertex (the *hub*) is the search target of every walk in this package.
Each undirected edge contributes two mutually inverse arcs.  The arc set is
fixed by the two sizes, so the graph stores only those and the arc count;
the arc-space walk keeps its amplitudes in a structured layout (see
``full_walk``) and needs no per-arc index table.

This module decides the package's parameter domain, which every evaluator
and the command line share: a clique size N from 3 to 2**63 - 1, a leaf
count m >= 1 with (N-1)(N+m-1) at most the float range (about 1.8e308,
since the discriminant angles divide by it as a float), and a leaf
exponent alpha that is finite and >= 0.  Outside it every entry point
raises ``ValueError`` with a one-line message naming the quantity.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum, IntEnum

#: Vertex id of the glued vertex; the hub always gets the lowest id.
HUB = 0

#: Largest clique size, and largest step count: int64's maximum, 2**63 - 1.
INT64_MAX = 2**63 - 1

#: sys.float_info.max as an int, so the size check compares two ints.
_FLOAT_MAX = int(sys.float_info.max)
_BEYOND_FLOAT_RANGE = "sizes beyond the float range: (N-1)(N+m-1) exceeds 1.8e308"


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

    Vertex ids: the hub is ``HUB`` = 0, ordinary clique vertices are
    1..n_clique-1, then the leaves.  Safe for concurrent shared reads.
    """

    n_clique: int
    n_leaves: int
    arc_count: int

    @property
    def n_vertices(self) -> int:
        return self.n_clique + self.n_leaves


def _validate_sizes(n_clique: int, n_leaves: int) -> None:
    if n_clique < 3:
        raise ValueError(
            f"N must be at least 3, got {n_clique}; the clique walk "
            "degenerates below the triangle"
        )
    if n_clique > INT64_MAX:
        raise ValueError(f"N beyond int64: at most {INT64_MAX}")
    if n_leaves < 1:
        raise ValueError(f"m must be at least 1, got {n_leaves}")
    if (n_clique - 1) * (n_clique + n_leaves - 1) > _FLOAT_MAX:
        raise ValueError(_BEYOND_FLOAT_RANGE)


def _validate_alpha(alpha: float) -> None:
    if not 0 <= alpha < math.inf:  # an int alpha of any size compares exactly
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")


def leaves_from_alpha(n_clique: int, alpha: float) -> int:
    """Number of leaves for scaling exponent ``alpha``: floor(N**alpha), >= 1.

    The exponent only ever enters through this floor; everything downstream
    works with the exact integer leaf count.  Refuses a non-finite or
    negative alpha, and (N, m) outside the domain of ``class_sizes``; an
    N**alpha beyond the float range is beyond that domain too.
    """
    _validate_alpha(alpha)
    _validate_sizes(n_clique, 1)  # before the power: a negative N**alpha is complex
    try:
        power = float(n_clique) ** float(alpha)
    except OverflowError:
        raise ValueError(_BEYOND_FLOAT_RANGE) from None
    # pow() can land a hair below an exact integer; snap within 4 ulps.
    nearest = round(power)
    snapped = nearest > 0 and abs(power - nearest) <= 4 * math.ulp(power)
    m = max(1, nearest if snapped else math.floor(power))
    _validate_sizes(n_clique, m)
    return m


def class_sizes(n_clique: int, n_leaves: int) -> tuple[int, int, int, int, int]:
    """Sizes of the five arc classes, in ArcClass order.

    ((N-1)(N-2), N-1, N-1, m, m) for a clique on N vertices and m leaves.
    Refuses (N, m) outside the domain in the module docstring.
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
