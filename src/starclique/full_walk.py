"""Full arc-space evolution of the coined walk: the brute-force oracle.

One step applies the vertex-local diffusion coin (a reflection about the
per-vertex uniform incoming state) followed by the arc-inversion shift.
Under phase reversal the coin has no support on the leaves, so amplitude
bounced back from a leaf picks up a minus sign; in plain mode the leaves
carry the ordinary degree-1 coin (+1).

The clique is complete, so its arc amplitudes form one N x N block
``clique[u, w]`` (arc u -> w, zero diagonal) and the star's form two
length-m vectors.  The clique coin is a rank-one reflection: it sends the
block A to 1gᵀ - A, with g the incoming sums times 2/deg, and the shift
transposes the result.  So a block 1aᵀ + b1ᵀ + diag(d), with length-N
vectors a and b and d whatever makes the diagonal zero, keeps that form,
and a step updates a, b and the star vectors on preallocated buffers:
O(N + m) work.  The uniform start is one (a = c·1, b = 0, d = -c·1), so
``hub_series`` and ``evolve``, which run from it, hold O(N + m) memory and
no N x N array.  The probe reads the hub column a[HUB] + b in O(N), a
block of rows at a time, so that per step it makes one numpy add and one
copy and the rest of its calls run once per block.  One kernel,
``_advance``, runs every step for ``step``, ``hub_series`` and ``evolve``,
and for ``verify``'s random-state checks.  It does not use the five-class
symmetry, so it checks ``collapsed`` independently.  It also starts from
an ``_Affine`` start, a and b given: the lift of five class amplitudes is
one (``_lifted``), so a step from lift(collapse(psi)) costs O(N + m).

A given block X leaves b1ᵀ - Xᵀ after one step, b its scaled column sums,
and the kernel takes that one step only: ``step`` and ``verify`` call it
so, and only ``step`` builds a block, the one it returns, in one
allocation.  A given state evolves further by iterating ``step``, O(N^2)
per step.  ``verify`` reads the random states' steps, both leaf phases and
the commutation's two sides, as these vectors and ``_off_diagonal_square``
takes the commutation's norm from them: a state's block is read only by
reductions (column sums, squared norm) and the involution's compare, and
no N x N array is built but the draw and that compare's difference.  Its
reduced-operator conjugation and collapse/lift round trip keep the public
``lift``, ``step`` and ``collapse`` on the five class basis states.

Only a[w] + b[u] is observable, so a constant can move between the two
vectors.  Left alone, a and b drift apart linearly in t and cancel: by
the optimal time the uniform series ends 8.9e-8 from the closed form at
(N, m) = (1e5, 1) and 2.9e-10 at (1e5, 316).  Each step therefore
re-centres them to equal sums (a + k, b - k), folded into the update's
scalar terms.  Measured with it and the block probe: over 250 steps,
both leaf phases, N from 3 to 2200 and m = 1, isqrt(N) and N, the uniform
series is within 1.4e-14 of a longdouble dense reference (the dense
float64 kernel this replaces drifted to 2.0e-13 at N = 2200); at every
step through the optimal time it is within 1.3e-13 of
``spectral.hub_series`` at (1e5, 316), 5.3e-13 at (1e4, 1) and 3.0e-12 at
(1e5, 1).

From the uniform start the walk is real (a real coin, leaf phase +-1), so
``initial_state`` is float64 and the oracle runs in real arithmetic.  The
step, shift and projections work for any dtype, so a complex state steps
in complex arithmetic.

The public functions never write to their inputs; a state can be handed
between threads and parameter sweeps can run concurrently on independent
(graph, state) pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

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


class _Affine(NamedTuple):
    """A structured start with X = 0: the clique block 1aᵀ + b1ᵀ off its
    diagonal (entry u -> w is a[w] + b[u]), and the star vectors.  A step
    from it reads no block, so it costs O(N + m); ``_lifted`` builds the lift
    of five class amplitudes as one."""

    a: np.ndarray
    b: np.ndarray
    star_in: np.ndarray
    star_out: np.ndarray


def _check_shapes(arrays, needed) -> None:
    shapes = tuple(array.shape for array in arrays)
    if shapes != needed:
        raise ValueError(f"state has shapes {shapes}, graph needs {needed}")


def _advance(graph: GluedGraph, state: WalkState | _Affine | None, leaf_phase: LeafPhase, steps):
    """The step kernel: an iterator of ``(a, b, star_in, star_out)`` after
    each of the ascending step counts ``steps`` from ``state``: ``None`` (the
    uniform start, a = c·1), an ``_Affine`` start or a ``WalkState``.  After
    t steps the block is 1aᵀ + b1ᵀ off its diagonal; ``hub_series`` reads
    it.  A ``WalkState``'s block X is carried one step only, to b1ᵀ - Xᵀ
    (``_clique``), so a later step count raises.  The yielded arrays are the
    kernel's own and change on the next step.  The start is checked and read
    on the call, so a bad one raises even when no step is asked for.

    With f = 2/(N-1) the incoming sums of the block are
    g[w] = (N-1)a[w] - b[w] + sum(b), and the coin and shift give a' = -b and
    b' = f·g - a; the hub's entry of g takes the star's sum and
    2/(N - 1 + m).  A given start enters with a = b = 0, so its step only
    places its scaled column sums, diagonal included, in b and leaves a
    zero.
    """
    n, m = graph.n_clique, graph.n_leaves
    column = None
    if state is None:
        a = np.full(n, 1.0 / math.sqrt(n * (n - 1)))
        b, star_in, star_out = np.zeros(n), np.zeros(m), np.zeros(m)
        a_sum = n * a[0]
    elif isinstance(state, _Affine):
        _check_shapes(state, ((n,), (n,), (m,), (m,)))
        dtype = np.result_type(*state, np.float64)
        a, b, star_in, star_out = (np.array(vector, dtype) for vector in state)
        a_sum = a.sum()
    else:
        arrays = (state.clique, state.star_in, state.star_out)
        _check_shapes(arrays, ((n, n), (m,), (m,)))
        if len(steps) and steps[-1] > 1:
            raise ValueError(
                "a given state is stepped once per call; iterate step to evolve it further"
            )
        dtype = np.result_type(*arrays, np.float64)
        a, b = np.zeros(n, dtype), np.zeros(n, dtype)
        star_in, star_out = np.array(state.star_in, dtype), np.array(state.star_out, dtype)
        a_sum = 0.0
        column = np.add.reduce(state.clique, axis=0, dtype=dtype)
    reverse = leaf_phase is LeafPhase.REVERSAL
    return _steps(a, b, star_in, star_out, a_sum, column, reverse, steps)


def _steps(a, b, star_in, star_out, a_sum, column, reverse, steps):
    """``_advance``'s loop, on its own copies of the start's vectors."""
    n, m = a.size, star_in.size
    scratch = np.empty_like(a)
    factor, hub_factor = 2.0 / (n - 1), 2.0 / (n - 1 + m)
    done = 0
    for t in steps:
        for done in range(done, t):
            if column is not None:  # the one step from a given block
                b_sum = shift_k = 0.0
                np.multiply(column, factor, out=scratch)
                hub_in = column[HUB] + star_in.sum()
            else:
                b_sum = b.sum()
                shift_k = (b_sum - a_sum) / (2 * n)  # a + k and b - k: equal sums
                np.multiply(b, -factor, out=scratch)
                scratch += a  # the new b, less its constant: a - f b (f(N-1) = 2)
                hub_in = (n - 1) * a[HUB] - b[HUB] + b_sum + star_in.sum()
                scratch += factor * b_sum - shift_k
                np.subtract(shift_k, b, out=b)  # the new a
            g_hub = hub_factor * hub_in
            scratch[HUB] = g_hub - a[HUB] - shift_k
            np.subtract(g_hub, star_in, out=star_in)  # coined at the hub
            if reverse:
                np.negative(star_out, out=star_out)  # bounced off a leaf
            a, b, scratch = b, scratch, a
            star_in, star_out = star_out, star_in
            a_sum = n * shift_k - b_sum
        done = t
        yield a, b, star_in, star_out


#: Entries of ``hub_series``' block buffer: 64 rows of N + m entries at
#: N + m = 1024, one row from N + m = 2^16, so the probe holds O(N + m).
_PROBE_ELEMENTS = 1 << 16


def _clique(start: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The block after one step from ``start``: b1ᵀ - Xᵀ (a is zero then),
    with a zero diagonal, in one N x N allocation laid out like the start,
    so that both passes run in memory order for a C-ordered start."""
    memory = np.empty(start.shape, b.dtype)
    np.copyto(memory, b)  # memory[w, u] = b[u]: the block's transpose
    memory -= start
    memory.reshape(-1)[:: start.shape[0] + 1] = 0.0  # the diagonal of either orientation
    return memory.T


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
    _, b, star_in, star_out = next(_advance(graph, state, leaf_phase, (1,)))
    return WalkState(_clique(state.clique, b), star_in, star_out, state.time + 1)


def _hub_probability(incoming: np.ndarray) -> np.ndarray:
    """Probability on the arcs into the hub, along the last axis of
    ``incoming`` (C-contiguous): the hub's clique column, then the star."""
    parts = incoming.view(incoming.real.dtype)  # a complex entry's two parts, adjacent
    # one BLAS dot per row: einsum's accumulation drifted p 4e-14 from a
    # longdouble reference at (2200, 2200), against 8e-15 for the dot
    return np.matmul(parts[..., None, :], parts[..., :, None])[..., 0, 0]


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


def _lifted(graph: GluedGraph, sums) -> _Affine:
    """``lift(collapse(state))`` as an ``_Affine`` start, from the state's
    five class sums (``collapse`` in ``ArcClass`` order, before its scaling):
    each class's mean per arc, the interior one in a, the hub-bound one in
    a[HUB], the hub-leaving one less the interior one in b[HUB]."""
    n, m = graph.n_clique, graph.n_leaves
    interior, into_hub, out_of_hub, star_in, star_out = (
        complex(total) / size for total, size in zip(sums, class_sizes(n, m))
    )
    a = np.full(n, interior)
    a[HUB] = into_hub
    b = np.zeros(n, dtype=np.complex128)
    b[HUB] = out_of_hub - interior
    return _Affine(a, b, np.full(m, star_in), np.full(m, star_out))


def _off_diagonal_square(a: np.ndarray, b: np.ndarray) -> float:
    """Squared Euclidean norm of the block 1aᵀ + b1ᵀ off its diagonal, in O(N).

    Expanded as it stands, the sum over u != w of |a[w] + b[u]|^2 cancels
    terms the size of |a|^2 and |b|^2.  About the means, with mu their sum,
    it is N(N-1)|mu|^2 + N(|a - mean a|^2 + |b - mean b|^2)
    - |a - mean a + b - mean b|^2, whose last term is at most 2/N of the
    one before: what cancels is the rounding of the means, about 1e-16 of
    their size."""
    n = a.size
    mean_a, mean_b = a.sum() / n, b.sum() / n
    a, b = a - mean_a, b - mean_b
    both = a + b
    spread = n * (np.vdot(a, a) + np.vdot(b, b)) - np.vdot(both, both)
    return n * (n - 1) * abs(mean_a + mean_b) ** 2 + spread.real


def hub_series(graph: GluedGraph, leaf_phase: LeafPhase, times) -> HubSeries:
    """Hub series of the uniform start after each of the ascending step
    counts ``times``; p_hub is measured on the arcs into the hub.  The start
    is never built: O(N + m) memory.

    The probe runs a block of rows at a time: each step writes b + a[HUB]
    and its star vector into one row of a buffer of at most
    ``_PROBE_ELEMENTS`` entries (at least one row), and a few vectorised
    calls per block then zero the hub columns' diagonal entry and read their
    p_hub and the two hub-bound class amplitudes of ``collapse``."""
    steps = ascending_steps(times)
    n, m = graph.n_clique, graph.n_leaves
    p = np.empty(len(steps), dtype=np.float64)
    clique_in = np.empty(len(steps), dtype=np.complex128)
    star_in = np.empty(len(steps), dtype=np.complex128)
    rows = max(1, min(len(steps), _PROBE_ELEMENTS // (n + m)))
    block = np.empty((rows, n + m))
    walk = _advance(graph, None, leaf_phase, steps)
    for low in range(0, len(steps), rows):
        chunk = steps[low : low + rows]
        for row, (a, b, leaves_in, _) in zip(range(len(chunk)), walk):
            np.add(b, a[HUB], out=block[row, :n])
            block[row, n:] = leaves_in
        high = low + len(chunk)
        incoming = block[: len(chunk)]  # per row: the hub column, then the star
        incoming[:, HUB] = 0.0
        p[low:high] = _hub_probability(incoming)
        clique_in[low:high] = incoming[:, 1:n].sum(axis=1)
        star_in[low:high] = incoming[:, n:].sum(axis=1)
    clique_in /= math.sqrt(n - 1)
    star_in /= math.sqrt(m)
    return p, clique_in, star_in


def evolve(
    graph: GluedGraph, t_max: int, leaf_phase: LeafPhase = LeafPhase.REVERSAL
) -> ProbabilityTrace:
    """Run ``t_max`` steps from the uniform start, recording the hub
    probability and the collapsed amplitudes on the two hub-bound classes
    at every step (t_max + 1 rows)."""
    metadata = trace_metadata(graph.n_clique, graph.n_leaves, "full", leaf_phase)
    series = partial(hub_series, graph, leaf_phase)
    return ProbabilityTrace.from_series(series, t_max, metadata)
