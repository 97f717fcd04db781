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
``hub_series``, which runs from it, holds O(N + m) memory and no N x N
array.  The probe reads the hub column a[HUB] + b in O(N), a block of
rows at a time, so that per step it makes one numpy add and one copy and
the rest of its calls run once per block.  One kernel, ``_advance``, runs
every affine block's steps, from the uniform start or an ``_Affine``
start, a and b given: the lift of five class amplitudes is one
(``_lifted``), so a step from lift(collapse(psi)) costs O(N + m).  It does
not use the five-class symmetry, so it checks ``collapsed`` independently.

A given block X leaves b1ᵀ - Xᵀ after one step, b its scaled column sums
(``_column_sums``, the step's one read of X); ``_block_step`` takes that
step from the sums its caller read.  ``step`` builds the one block it
returns, in one allocation, and a given state evolves further by
iterating it, O(N^2) per step.  ``verify`` steps each random state in both
leaf phases from one read, and reads the steps and the commutation's two
sides as vectors (``_off_diagonal_square`` for its norm): no N x N array
is built but the draw.  Each block form has one class-sum reader:
``_class_sums`` for a given block (``collapse`` and ``verify``) and
``_affine_class_sums``, O(N + m), for an affine one.

Only a[w] + b[u] is observable, so a constant can move between the two
vectors.  Left alone, a and b drift apart linearly in t and cancel: by
the optimal time the uniform series ends 8.9e-8 from the closed form at
(N, m) = (1e5, 1) and 2.9e-10 at (1e5, 316).  Each step therefore
re-centres them to equal sums (a + k, b - k), folded into the update's
scalar terms.  Measured with it and the block probe: over 250 steps,
both leaf phases, N from 3 to 2200 and m = 1, isqrt(N) and N, the uniform
series is within 1.4e-14 of a longdouble dense reference (the dense
float64 kernel this replaces drifted to 2.0e-13 at N = 2200); at every
step through the optimal time it is within 1.3e-13 of the closed form
(``EigenbasisEvaluator.hub_series``) at (1e5, 316), 5.3e-13 at (1e4, 1)
and 3.0e-12 at (1e5, 1).

From the uniform start the walk is real (a real coin, leaf phase +-1), so
``initial_state`` is float64 and the oracle runs in real arithmetic.  The
step and projections work for any dtype, so a complex state steps in
complex arithmetic.

The public functions never write to their inputs; a state can be handed
between threads and parameter sweeps can run concurrently on independent
states.  A state's array shapes give N and m: ``step`` and ``collapse``
read them (``_sizes``), and refuse a non-zero clique diagonal, which is no
arc of the graph; the functions that build a state take (N, m).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .collapsed import CollapsedState, ascending_steps
from .graph import HUB, ArcClass, LeafPhase, class_sizes
from .trace import HubSeries


@dataclass(frozen=True, eq=False)
class WalkState:
    """Arc amplitudes in the structured layout.

    ``clique[u, w]`` is the amplitude on the clique arc u -> w (vertex ids
    as in ``graph``; the diagonal is zero), ``star_in[j]`` the amplitude on
    the arc from leaf j into the hub and ``star_out[j]`` on the arc back.
    """

    clique: np.ndarray    # float64 or complex128, shape (n_clique, n_clique)
    star_in: np.ndarray   # same dtype, shape (n_leaves,)
    star_out: np.ndarray  # same dtype, shape (n_leaves,)


def _sizes(state: WalkState) -> tuple[int, int]:
    """(N, m) of a state whose clique block is N x N and whose star vectors
    both have length m; other shapes, and sizes that ``class_sizes``
    refuses, raise ``ValueError`` naming the shapes, as does a non-zero
    diagonal entry: an arc u -> u, which the graph does not have."""
    shapes = tuple(np.shape(array) for array in (state.clique, state.star_in, state.star_out))
    block, into, out = shapes
    if len(block) != 2 or block[0] != block[1] or len(into) != 1 or into != out:
        raise ValueError(f"state has shapes {shapes}, not (N, N), (m,), (m,)")
    n, m = block[0], into[0]
    try:
        class_sizes(n, m)
    except ValueError as exc:
        raise ValueError(f"state has shapes {shapes}: {exc}") from None
    if np.diagonal(state.clique).any():  # a strided view: O(N)
        raise ValueError("state has a non-zero clique diagonal: the graph has no arc u -> u")
    return n, m


def initial_state(n: int, m: int) -> WalkState:
    """Uniform state on the clique arcs: 1/sqrt(N(N-1)) there, 0 on the star.
    Real (float64): the walk from it stays real."""
    class_sizes(n, m)
    clique = np.full((n, n), 1.0 / math.sqrt(n * (n - 1)))
    np.fill_diagonal(clique, 0.0)
    return WalkState(clique, np.zeros(m), np.zeros(m))


class _Affine(NamedTuple):
    """A structured start with X = 0: the clique block 1aᵀ + b1ᵀ off its
    diagonal (entry u -> w is a[w] + b[u]), and the star vectors.  A step
    from it reads no block, so it costs O(N + m); ``_lifted`` builds the lift
    of five class amplitudes as one."""

    a: np.ndarray
    b: np.ndarray
    star_in: np.ndarray
    star_out: np.ndarray


def _advance(n: int, m: int, start: _Affine | None, leaf_phase: LeafPhase, steps):
    """The step kernel: an iterator of ``(a, b, star_in, star_out)`` after
    each of the ascending step counts ``steps`` from ``start`` on the glued
    graph of sizes (N, m): ``None`` (the uniform start, a = c·1) or an
    ``_Affine`` start of those sizes.  After t steps the block is 1aᵀ + b1ᵀ
    off its diagonal; ``hub_series`` reads it.  The yielded arrays are the
    kernel's own and change on the next step.  The start is read on the
    call, so a start of other sizes than (N, m) raises before any step.

    With f = 2/(N-1) the incoming sums of the block are
    g[w] = (N-1)a[w] - b[w] + sum(b), and the coin and shift give a' = -b and
    b' = f·g - a; the hub's entry of g takes the star's sum and
    2/(N - 1 + m).
    """
    if start is None:
        a = np.full(n, 1.0 / math.sqrt(n * (n - 1)))
        b, star_in, star_out = np.zeros(n), np.zeros(m), np.zeros(m)
        a_sum = n * a[0]
    else:
        shapes = tuple(np.shape(vector) for vector in start)
        if shapes != ((n,), (n,), (m,), (m,)):
            raise ValueError(f"start has shapes {shapes}, not ({n},), ({n},), ({m},), ({m},)")
        dtype = np.result_type(*start, np.float64)
        a, b, star_in, star_out = (np.array(vector, dtype) for vector in start)
        a_sum = a.sum()
    return _steps(a, b, star_in, star_out, a_sum, leaf_phase is LeafPhase.REVERSAL, steps)


def _steps(a, b, star_in, star_out, a_sum, reverse, steps):
    """``_advance``'s loop, on its own copies of the start's vectors."""
    n, m = a.size, star_in.size
    scratch = np.empty_like(a)
    factor, hub_factor = 2.0 / (n - 1), 2.0 / (n - 1 + m)
    done = 0
    for t in steps:
        for done in range(done, t):
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


def _column_sums(state: WalkState) -> np.ndarray:
    """A given block's column sums, in the dtype that its step runs in: the
    one read of the block that its step needs."""
    dtype = np.result_type(state.clique, state.star_in, state.star_out, np.float64)
    return np.add.reduce(state.clique, axis=0, dtype=dtype)


def _block_step(state: WalkState, leaf_phase: LeafPhase, columns: np.ndarray):
    """One step from a given block X, as ``(b, star_in, star_out)``: after it
    the block is b1ᵀ - Xᵀ (``_clique``), b being X's column sums
    ``columns`` (``_column_sums(state)``) times 2/(N-1), and at the hub the
    column sum and the star's sum times 2/(N - 1 + m).  A caller that steps
    one state in both leaf phases reads ``columns`` once."""
    n, m = columns.size, state.star_in.size
    star_in, star_out = (np.array(vector, columns.dtype)
                         for vector in (state.star_in, state.star_out))
    b = columns * (2.0 / (n - 1))
    b[HUB] = 2.0 / (n - 1 + m) * (columns[HUB] + star_in.sum())
    np.subtract(b[HUB], star_in, out=star_in)  # coined at the hub
    if leaf_phase is LeafPhase.REVERSAL:
        np.negative(star_out, out=star_out)  # bounced off a leaf
    return b, star_out, star_in  # the shift swaps the star vectors


#: Entries of ``hub_series``' block buffer: 64 rows of N + m entries at
#: N + m = 1024, one row from N + m = 2^16, so the probe holds O(N + m).
_PROBE_ELEMENTS = 1 << 16


def _clique(start: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The block after one step from ``start``: b1ᵀ - Xᵀ (a is zero then),
    with a zero diagonal, in one C-ordered N x N allocation whose transpose
    is returned, so the block returned is Fortran-ordered whatever the
    start's layout.  Both passes run in memory order for a C-ordered start;
    the next step from the block returned reads its start strided, which
    costs about twice as much: at N = 2000, complex, best of 5 on a 2-core
    Xeon, 33 ms per ``step`` from a step's own output against 17 ms from a
    C-ordered state.  Another layout would change the summation order of
    ``_column_sums`` and so the last bits of iterated steps."""
    memory = np.empty(start.shape, b.dtype)
    np.copyto(memory, b)  # memory[w, u] = b[u]: the block's transpose
    memory -= start
    memory.reshape(-1)[:: start.shape[0] + 1] = 0.0  # the diagonal of either orientation
    return memory.T


def step(state: WalkState, leaf_phase: LeafPhase = LeafPhase.REVERSAL) -> WalkState:
    """Advance the walk by one step (coin, then shift).

    Grouped by terminus, the coin sends each amplitude to
    2/deg(v) * (incoming sum at v) - itself wherever the coin has support,
    and to minus itself on the leaves under phase reversal.
    """
    _sizes(state)  # refuses other shapes and a non-zero diagonal
    b, star_in, star_out = _block_step(state, leaf_phase, _column_sums(state))
    return WalkState(_clique(state.clique, b), star_in, star_out)


def _hub_probability(incoming: np.ndarray) -> np.ndarray:
    """Probability on the arcs into the hub, along the last axis of
    ``incoming`` (C-contiguous): the hub's clique column, then the star."""
    parts = incoming.view(incoming.real.dtype)  # a complex entry's two parts, adjacent
    # one BLAS dot per row: einsum's accumulation drifted p 4e-14 from a
    # longdouble reference at (2200, 2200), against 8e-15 for the dot
    return np.matmul(parts[..., None, :], parts[..., :, None])[..., 0, 0]


def _class_sums(state: WalkState) -> np.ndarray:
    """A given state's five class sums, in ``ArcClass`` order.  The block is
    read line by line along its contiguous axis, the one numpy sums pairwise
    (the transpose's rows, IN and OUT swapped, for a Fortran-ordered block):
    each line's sum first, then the sums of those.  The lift of a class
    basis state so collapses within 8.9e-16 of exact for N up to 3162; one
    pass over the 2-D interior, adding its lines one after another, landed
    3.5e-14 away."""
    block = state.clique
    by_columns = abs(block.strides[0]) < abs(block.strides[1])
    lines = block.T if by_columns else block
    rows = lines[:, 1:].sum(axis=1)  # each vertex's arcs, less the one with the hub
    into, out = lines[1:, HUB].sum(), rows[HUB]
    if by_columns:
        into, out = out, into
    return np.array([rows[1:].sum(), into, out, state.star_in.sum(), state.star_out.sum()])


def _affine_class_sums(a, b, star_in, star_out) -> np.ndarray:
    """The five class sums of the block 1aᵀ + b1ᵀ off its diagonal and the
    star vectors, in O(N + m).  With Σ' a sum off the hub, the interior arcs
    sum to (N-2)(Σ'a + Σ'b), the arcs into the hub to (N-1)a[HUB] + Σ'b and
    those out of it to Σ'a + (N-1)b[HUB]."""
    n = a.size
    a_rest, b_rest = a.sum() - a[HUB], b.sum() - b[HUB]
    return np.array([(n - 2) * (a_rest + b_rest), (n - 1) * a[HUB] + b_rest,
                     a_rest + (n - 1) * b[HUB], star_in.sum(), star_out.sum()])


def collapse(state: WalkState) -> CollapsedState:
    """Project onto the class-uniform space: per class, sum / sqrt(size)."""
    sizes = np.asarray(class_sizes(*_sizes(state)), dtype=np.float64)
    sums = np.asarray(_class_sums(state), dtype=np.complex128)
    return CollapsedState(amplitudes=sums / np.sqrt(sizes))


def lift(n: int, m: int, state: CollapsedState) -> WalkState:
    """Adjoint of collapse: spread each class amplitude uniformly over the class.

    lift(collapse(psi)) is the orthogonal projection onto the class-uniform
    space; it fixes any class-uniform state exactly.
    """
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
    )


def _lifted(n: int, m: int, sums) -> _Affine:
    """``lift(collapse(state))`` as an ``_Affine`` start, from the state's
    five class sums (``collapse`` in ``ArcClass`` order, before its scaling):
    each class's mean per arc, the interior one in a, the hub-bound one in
    a[HUB], the hub-leaving one less the interior one in b[HUB]."""
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


def hub_series(n: int, m: int, leaf_phase: LeafPhase, times) -> HubSeries:
    """Hub series of the uniform start after each of the ascending step
    counts ``times``; p_hub is measured on the arcs into the hub.  The start
    is never built: O(N + m) memory.  Refuses (N, m) outside the domain of
    ``class_sizes``, and an arc count beyond the platform's addressable size.

    The probe runs a block of rows at a time: each step writes b + a[HUB]
    and its star vector into one row of a buffer of at most
    ``_PROBE_ELEMENTS`` entries (at least one row), and a few vectorised
    calls per block then zero the hub columns' diagonal entry and read their
    p_hub and the two hub-bound class amplitudes of ``collapse``."""
    arcs = sum(class_sizes(n, m))
    if arcs > sys.maxsize:
        raise ValueError(f"arc count {arcs} exceeds the platform's addressable size")
    steps = ascending_steps(times)
    p = np.empty(len(steps), dtype=np.float64)
    clique_in = np.empty(len(steps), dtype=np.complex128)
    star_in = np.empty(len(steps), dtype=np.complex128)
    rows = max(1, min(len(steps), _PROBE_ELEMENTS // (n + m)))
    block = np.empty((rows, n + m))
    walk = _advance(n, m, None, leaf_phase, steps)
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

