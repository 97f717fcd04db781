import math
import tracemalloc

import numpy as np
import pytest

import arc_table
import dense_kernel
from arc_table import arc_amplitudes
import starclique as sc
from starclique import full_walk
from starclique.full_walk import hub_series
from starclique.graph import HUB, ArcClass, LeafPhase
from starclique.verify import random_walk_states


def _leaf_bound_unit_mass(n, m):
    # unit mass on the hub-to-leaf arc of leaf 0, nothing elsewhere
    star_out = np.zeros(m, dtype=np.complex128)
    star_out[0] = 1.0
    return sc.WalkState(
        np.zeros((n, n), dtype=np.complex128), np.zeros(m, dtype=np.complex128), star_out
    )


def test_initial_state_values():
    g = sc.build_graph(100, 10)
    state = sc.initial_state(g)
    off_diagonal = ~np.eye(100, dtype=bool)
    assert np.all(state.clique[off_diagonal] == 1.0 / math.sqrt(9900))
    assert np.all(np.diag(state.clique) == 0)
    assert np.all(state.star_in == 0) and np.all(state.star_out == 0)
    # 1/sqrt(9900) = 0.0100504 to the printed precision
    assert abs(state.clique[0, 1].real - 0.0100504) < 1e-7
    assert np.linalg.norm(arc_amplitudes(state)) == pytest.approx(1.0, abs=1e-14)


def test_step_reverses_at_leaf():
    # unit mass on the arc into a leaf comes back negated on the arc out of it
    g = sc.build_graph(5, 2)
    out = sc.step(g, _leaf_bound_unit_mass(5, 2), LeafPhase.REVERSAL)
    expected = np.zeros(g.arc_count, dtype=np.complex128)
    expected[5 * 4] = -1.0  # leaf 0 -> hub, the first star arc
    assert np.allclose(arc_amplitudes(out), expected, atol=1e-15)


def test_step_plain_keeps_leaf_sign():
    g = sc.build_graph(5, 2)
    out = sc.step(g, _leaf_bound_unit_mass(5, 2), LeafPhase.PLAIN)
    assert out.star_in[0] == pytest.approx(1.0, abs=1e-15)


def test_step_from_uniform_smallest():
    # hand evaluation on the 8-arc graph: the hub-to-leaf arc receives
    # (2/deg(hub)) * (two incoming clique arcs at 1/sqrt(6)) = 4/(3 sqrt(6))
    g = sc.build_graph(3, 1)
    out = sc.step(g, sc.initial_state(g))
    assert out.star_out[0].real == pytest.approx(
        4.0 / (3.0 * math.sqrt(6.0)), abs=1e-15
    )
    assert out.time == 1


@pytest.mark.parametrize("n,m", [(5, 2), (20, 4), (200, 10)])
@pytest.mark.parametrize("phase", [LeafPhase.REVERSAL, LeafPhase.PLAIN])
def test_step_preserves_norm(n, m, phase):
    g = sc.build_graph(n, m)
    for state in random_walk_states(g, 5, seed=7):
        out = sc.step(g, state, phase)
        assert abs(np.linalg.norm(arc_amplitudes(out)) - 1.0) < 1e-12


def test_step_rejects_dimension_mismatch():
    g = sc.build_graph(5, 2)
    with pytest.raises(ValueError):
        sc.step(g, _leaf_bound_unit_mass(4, 2))
    with pytest.raises(ValueError):
        sc.step(g, _leaf_bound_unit_mass(5, 3))


@pytest.mark.parametrize("times", [[], [0], [0, 1]])
def test_walks_check_the_start_on_entry(times):
    # a wrong shape raises on the call, also when no step is asked for
    g = sc.build_graph(10, 3)
    bad = sc.WalkState(np.zeros((4, 4)), np.zeros(1), np.zeros(1))
    with pytest.raises(ValueError, match="shapes"):
        full_walk._advance(g, bad, LeafPhase.REVERSAL, times)
    with pytest.raises(ValueError, match="shapes"):
        full_walk._advance(g, full_walk._Affine(np.zeros(10), np.zeros(10), np.zeros(3),
                                                np.zeros(2)), LeafPhase.REVERSAL, times)


@pytest.mark.parametrize("steps", [[2], [0, 1, 2], [1, 5]])
def test_advance_steps_a_given_start_once(steps):
    # the kernel carries a given block one step; a later count raises on
    # the call, before any step
    g = sc.build_graph(10, 3)
    state = next(random_walk_states(g, 1, seed=19))
    with pytest.raises(ValueError, match="once"):
        full_walk._advance(g, state, LeafPhase.REVERSAL, steps)
    walk = full_walk._advance(g, state, LeafPhase.REVERSAL, [0, 1])
    assert len(list(walk)) == 2


@pytest.mark.parametrize("phase", [LeafPhase.REVERSAL, LeafPhase.PLAIN])
def test_advance_takes_the_column_sums_from_its_caller(phase):
    # one read of a given block serves steps in both leaf phases: the step
    # from the caller's sums is the step from the kernel's own read, bit for
    # bit, real and complex
    g = sc.build_graph(10, 3)
    state = next(random_walk_states(g, 1, seed=23))
    real = sc.WalkState(state.clique.real.copy(), state.star_in.real, state.star_out.real)
    for start in (state, real):
        sums = full_walk._column_sums(start)
        assert sums.dtype == start.clique.dtype
        given = next(full_walk._advance(g, start, phase, (1,), sums))
        read = next(full_walk._advance(g, start, phase, (1,)))
        for x, y in zip(given, read):
            assert x.dtype == y.dtype and np.array_equal(x, y)


@pytest.mark.parametrize("n,m", [(3, 1), (7, 3), (40, 40), (60, 5)])
@pytest.mark.parametrize("phase", [LeafPhase.REVERSAL, LeafPhase.PLAIN])
def test_step_matches_arc_table_reference(n, m, phase):
    g = sc.build_graph(n, m)
    table = arc_table.build(n, m)
    for state in random_walk_states(g, 3, seed=17):
        psi = arc_amplitudes(state)
        for _ in range(50):
            state = sc.step(g, state, phase)
            psi = arc_table.step(table, psi, phase)
        assert np.abs(arc_amplitudes(state) - psi).max() <= 1e-13


def _table_series(table, psi, phase, steps):
    """Hub series of the arc-table walk, stepped one step at a time."""
    into_hub = table.terminus == HUB
    clique_in = table.arc_class == ArcClass.CLIQUE_IN
    star_in = table.arc_class == ArcClass.STAR_IN
    n, m = table.n_clique, int(star_in.sum())
    rows, done = [], 0
    for t in steps:
        for _ in range(t - done):
            psi = arc_table.step(table, psi, phase)
        done = t
        rows.append((np.vdot(psi[into_hub], psi[into_hub]).real,
                     psi[clique_in].sum() / math.sqrt(n - 1), psi[star_in].sum() / math.sqrt(m)))
    return [np.array(column) for column in zip(*rows)]


def _assert_series_close(got, want, tol=1e-12):
    for column, reference in zip(got, want):
        assert np.abs(column - reference).max() <= tol


def _stepped(g, state, phase, steps):
    """``state`` iterated by the public ``step``, at each of the ascending
    step counts ``steps``: O(N^2) per step, for any state."""
    done = 0
    for t in steps:
        for _ in range(t - done):
            state = sc.step(g, state, phase)
        done = t
        yield state


def _step_series(g, state, phase, steps):
    """The hub series of ``state`` iterated by ``step``, read from each
    stepped state as ``dense_kernel`` reads its own."""
    rows = [dense_kernel.hub_row(g, s.clique, s.star_in) for s in _stepped(g, state, phase, steps)]
    return [np.array(column) for column in zip(*rows)]


_KERNEL_SIZES = [(3, 1), (4, 7), (25, 5), (60, 3)]


@pytest.mark.parametrize("n,m", _KERNEL_SIZES)
@pytest.mark.parametrize("phase", [LeafPhase.REVERSAL, LeafPhase.PLAIN])
def test_series_match_arc_table_from_random_state(n, m, phase):
    # a complex start, iterated by step, at sparse times
    g = sc.build_graph(n, m)
    table = arc_table.build(n, m)
    state = next(random_walk_states(g, 1, seed=31))
    times = [0, 1, 2, 7, 30, 31, 60]
    want = _table_series(table, arc_amplitudes(state), phase, times)
    _assert_series_close(_step_series(g, state, phase, times), want)


@pytest.mark.parametrize("n,m", _KERNEL_SIZES)
@pytest.mark.parametrize("phase", [LeafPhase.REVERSAL, LeafPhase.PLAIN])
def test_series_match_arc_table_from_odd_time(n, m, phase):
    # a start that step returned, at odd time
    g = sc.build_graph(n, m)
    table = arc_table.build(n, m)
    state = sc.step(g, next(random_walk_states(g, 1, seed=37)), phase)
    assert state.time == 1
    psi = arc_amplitudes(state)
    times = np.arange(51)
    want = _table_series(table, psi, phase, times)
    _assert_series_close(_step_series(g, state, phase, times), want)
    assert [s.time for s in _stepped(g, state, phase, [0, 50])] == [1, 51]


@pytest.mark.parametrize("n,m", _KERNEL_SIZES)
@pytest.mark.parametrize("phase", [LeafPhase.REVERSAL, LeafPhase.PLAIN])
def test_step_on_non_contiguous_input(n, m, phase):
    # a Fortran-ordered block and strided star vectors, stepped 50 times
    g = sc.build_graph(n, m)
    table = arc_table.build(n, m)
    base = next(random_walk_states(g, 1, seed=41))
    stars = np.stack([base.star_in, base.star_out], axis=1)  # columns are strided
    state = sc.WalkState(np.asfortranarray(base.clique), stars[:, 0], stars[:, 1])
    assert not state.clique.flags.c_contiguous
    assert m == 1 or not state.star_in.flags.contiguous
    before = [a.copy() for a in (state.clique, state.star_in, state.star_out)]
    psi = arc_amplitudes(state)
    current = state
    for _ in range(50):
        current = sc.step(g, current, phase)
        psi = arc_table.step(table, psi, phase)
    assert np.abs(arc_amplitudes(current) - psi).max() <= 1e-12
    after = (state.clique, state.star_in, state.star_out)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(after, before))


@pytest.mark.parametrize("phase", [LeafPhase.REVERSAL, LeafPhase.PLAIN])
def test_walks_leave_the_input_state_untouched(phase):
    g = sc.build_graph(9, 4)
    # a complex128 state and the float64 uniform start
    for state in (next(random_walk_states(g, 1, seed=21)), sc.initial_state(g)):
        before = [a.copy() for a in (state.clique, state.star_in, state.star_out)]
        sc.step(g, state, phase)
        after = (state.clique, state.star_in, state.star_out)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(after, before))
        assert all(a.dtype == b.dtype for a, b in zip(after, before))


_PHASES = [LeafPhase.REVERSAL, LeafPhase.PLAIN]


def _assert_states_close(got, want, tol=1e-12):
    for a, b in zip((got.clique, got.star_in, got.star_out),
                    (want.clique, want.star_in, want.star_out)):
        assert np.abs(a - b).max() <= tol
    assert got.time == want.time


def _check_against_dense(g, state, phase, steps=20):
    """The structured kernel and the dense reference from ``state``:
    ``steps`` states stepped one at a time."""
    got = want = state
    for _ in range(steps):
        got, want = sc.step(g, got, phase), dense_kernel.step(g, want, phase)
        _assert_states_close(got, want)


@pytest.mark.parametrize("n,m", _KERNEL_SIZES)
@pytest.mark.parametrize("phase", _PHASES)
def test_kernel_matches_dense_reference(n, m, phase):
    g = sc.build_graph(n, m)
    for state in random_walk_states(g, 3, seed=43):
        _check_against_dense(g, state, phase)
    # a start at odd time, as step returns it
    odd_time = sc.step(g, next(random_walk_states(g, 1, seed=47)), phase)
    _check_against_dense(g, odd_time, phase)


@pytest.mark.parametrize("n,m", _KERNEL_SIZES)
@pytest.mark.parametrize("phase", _PHASES)
def test_kernel_matches_dense_reference_on_non_contiguous_input(n, m, phase):
    # a Fortran-ordered block and strided star vectors; a strided block
    g = sc.build_graph(n, m)
    base = next(random_walk_states(g, 1, seed=53))
    stars = np.stack([base.star_in, base.star_out], axis=1)  # columns are strided
    _check_against_dense(
        g, sc.WalkState(np.asfortranarray(base.clique), stars[:, 0], stars[:, 1]), phase
    )
    wide = np.zeros((n, 2 * n), dtype=np.complex128)
    wide[:, ::2] = base.clique
    _check_against_dense(g, sc.WalkState(wide[:, ::2], base.star_in, base.star_out), phase)


@pytest.mark.parametrize("n,m", _KERNEL_SIZES)
@pytest.mark.parametrize("phase", _PHASES)
def test_kernel_matches_dense_reference_with_diagonal(n, m, phase):
    # a start whose clique diagonal is not zero: both kernels count it in
    # the first step's incoming sums and zero it after
    g = sc.build_graph(n, m)
    base = next(random_walk_states(g, 1, seed=59))
    clique = base.clique.copy()
    np.fill_diagonal(clique, np.linspace(0.1, 0.3, n) * (1 - 0.5j))
    state = sc.WalkState(clique, base.star_in, base.star_out)
    assert state.clique[HUB, HUB] != 0
    _check_against_dense(g, state, phase)


@pytest.mark.parametrize("n,m", _KERNEL_SIZES)
@pytest.mark.parametrize("phase", _PHASES)
def test_affine_start_matches_dense_reference(n, m, phase):
    # a lifted start as vectors (X = 0): its block 1aᵀ + b1ᵀ, off the
    # diagonal, against the dense kernel from the dense lift, over 9 steps
    g = sc.build_graph(n, m)
    state = next(random_walk_states(g, 1, seed=61))
    collapsed = sc.collapse(g, state)
    sizes = np.sqrt(np.asarray(sc.class_sizes(n, m), dtype=np.float64))
    start = full_walk._lifted(g, collapsed.amplitudes * sizes)
    steps = np.array([1, 2, 5, 9])
    got = full_walk._advance(g, start, phase, steps)
    want = dense_kernel.advance(g, sc.lift(g, collapsed), phase, steps)
    off = ~np.eye(n, dtype=bool)
    for (a, b, star_in, star_out), (clique, want_in, want_out) in zip(got, want):
        assert np.abs((a[None, :] + b[:, None] - clique)[off]).max() <= 1e-15
        assert np.abs(star_in - want_in).max() <= 1e-15
        assert np.abs(star_out - want_out).max() <= 1e-15


def test_off_diagonal_square_matches_the_block():
    # against the materialised block, also where a and b nearly cancel: at
    # these offsets the sum expanded as it stands misses by about 1e-8
    rng = np.random.default_rng(67)
    for n, offset in ((3, 0.0), (50, 0.0), (50, 1e4), (400, -1e4)):
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n) + offset
        b = rng.standard_normal(n) - offset
        block = a[None, :] + b[:, None]
        np.fill_diagonal(block, 0.0)
        want = np.vdot(block, block).real
        assert full_walk._off_diagonal_square(a, b) == pytest.approx(want, rel=1e-9)


def test_real_kernel_matches_dense_reference():
    # the float64 uniform series against the dense kernel from the built start
    g = sc.build_graph(57, 9)
    for phase in _PHASES:
        times = np.arange(0, 301, 7)
        want = dense_kernel.hub_series(g, sc.initial_state(g), phase, times)
        _assert_series_close(hub_series(g, phase, times), want)


@pytest.mark.parametrize("n,m,rows", [(24, 1000, 64), (8, 16376, 4), (3, 1 << 16, 1)])
@pytest.mark.parametrize("phase", _PHASES)
def test_block_probe_matches_dense_reference(n, m, rows, phase):
    # series that end just before, at and just after a block edge, and
    # sparse ones spanning several blocks, from the uniform start
    g = sc.build_graph(n, m)
    assert max(1, sc.full_walk._PROBE_ELEMENTS // (n + m)) == rows
    series = [np.arange(k) for k in sorted({1, max(rows - 1, 1), rows, rows + 1})]
    series += [[0, 1, 63, 64, 65, 300], [0, 0, 2, 2, 3]]
    for times in series:
        want = dense_kernel.hub_series(g, sc.initial_state(g), phase, times)
        _assert_series_close(hub_series(g, phase, times), want)


@pytest.mark.parametrize("n,m", [(10**5, 316), (10**4, 1)])
def test_uniform_series_matches_closed_form_through_optimal_time(n, m):
    # beyond any dense block: 80 GB at N = 1e5.  Measured: 1.3e-13 and 5.3e-13
    t_opt = sc.optimal_time_exact(n, m)
    times = np.unique(np.append(np.arange(0, t_opt, 47), [t_opt - 1, t_opt]))
    got = hub_series(sc.build_graph(n, m), LeafPhase.REVERSAL, times)
    _assert_series_close(got, sc.EigenbasisEvaluator(n, m).hub_series(times), tol=1e-10)


def test_uniform_series_holds_no_block():
    # the dense oracle held a 72 MB float64 block at N = 3000
    g = sc.build_graph(3000, 55)
    hub_series(g, LeafPhase.REVERSAL, [0, 1])  # caches outside the measurement
    tracemalloc.start()
    try:
        hub_series(g, LeafPhase.REVERSAL, np.arange(40))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_initial_state_is_real():
    g = sc.build_graph(12, 3)
    state = sc.initial_state(g)
    assert all(a.dtype == np.float64 for a in (state.clique, state.star_in, state.star_out))
    p, clique_in, star_in = hub_series(g, LeafPhase.REVERSAL, [0, 5])
    assert (p.dtype, clique_in.dtype, star_in.dtype) == (
        np.float64, np.complex128, np.complex128
    )


def _as_complex(state):
    return sc.WalkState(
        *(a.astype(np.complex128) for a in (state.clique, state.star_in, state.star_out)),
        state.time,
    )


@pytest.mark.parametrize("phase", [LeafPhase.REVERSAL, LeafPhase.PLAIN])
def test_real_walk_matches_complex_walk(phase):
    # the float64 oracle and the same start cast to complex128 agree
    g = sc.build_graph(57, 9)
    real = sc.initial_state(g)
    cplx = _as_complex(real)
    for _ in range(300):
        real, cplx = sc.step(g, real, phase), sc.step(g, cplx, phase)
    assert real.clique.dtype == np.float64 and cplx.clique.dtype == np.complex128
    assert np.abs(arc_amplitudes(real) - arc_amplitudes(cplx)).max() <= 1e-14


def test_evolve_is_the_uniform_start():
    # the full trace runs X = 0 plus an affine part, step the built uniform
    # block: the same walk in two representations, equal up to rounding
    g = sc.build_graph(20, 4)
    trace = sc.hub_trace("full", 20, 4, 30, LeafPhase.REVERSAL)
    assert np.array_equal(trace.times, np.arange(31))
    got = (trace.p_hub, trace.psi_clique_in, trace.psi_star_in)
    stepped = _step_series(g, sc.initial_state(g), LeafPhase.REVERSAL, range(31))
    _assert_series_close(got, stepped, tol=1e-14)
    table = arc_table.build(20, 4)
    want = _table_series(table, arc_amplitudes(sc.initial_state(g)), LeafPhase.REVERSAL,
                         range(31))
    for series in (got, stepped):
        _assert_series_close(series, want)


@pytest.mark.parametrize("n,m", [(3, 1), (10, 3), (57, 9)])
def test_evolve_starts_at_one_over_n(n, m):
    trace = sc.hub_trace("full", n, m, 0, LeafPhase.REVERSAL)
    assert len(trace) == 1
    assert trace.p_hub[0] == pytest.approx(1.0 / n, abs=1e-14)


def test_evolve_reversal_peak_value():
    trace = sc.hub_trace("full", 100, 1, 111, LeafPhase.REVERSAL)
    assert 0.40 <= trace.p_hub[111] <= 0.55


def test_evolve_plain_baseline_stays_low():
    trace = sc.hub_trace("full", 100, 1, 5000, LeafPhase.PLAIN)
    assert trace.p_hub.max() < 0.10


def test_real_dynamics_from_uniform_state():
    # in complex arithmetic, so the float64 oracle's premise is checked
    g = sc.build_graph(50, 7)
    state = _as_complex(sc.initial_state(g))
    for _ in range(100):
        state = sc.step(g, state)
    assert state.clique.dtype == np.complex128
    assert np.abs(arc_amplitudes(state).imag).max() < 1e-12


def test_vertex_probability_partitions_unity():
    # per-vertex probabilities, |amplitude|^2 summed by terminus, add to 1,
    # and the hub's is the oracle's p_hub, here after 7 steps
    g = sc.build_graph(9, 4)
    (state,) = _stepped(g, sc.initial_state(g), LeafPhase.REVERSAL, [7])
    table = arc_table.build(9, 4)
    per_vertex = np.bincount(table.terminus, np.abs(arc_amplitudes(state)) ** 2)
    assert per_vertex.sum() == pytest.approx(1.0, abs=1e-12)
    p_hub = hub_series(g, LeafPhase.REVERSAL, [7])[0][0]
    assert p_hub == pytest.approx(per_vertex[HUB], abs=1e-12)


def test_vertex_probability_of_initial_state():
    g = sc.build_graph(10, 2)
    state = sc.initial_state(g)
    p_hub = hub_series(g, LeafPhase.REVERSAL, [0])[0][0]
    assert p_hub == pytest.approx(0.1, abs=1e-14)
    # a leaf's probability is that of the one arc into it
    assert not state.star_out.any()


@pytest.mark.parametrize("n,m", [(3, 1), (100, 10)])
def test_collapse_of_initial_state(n, m):
    g = sc.build_graph(n, m)
    collapsed = sc.collapse(g, sc.initial_state(g))
    expected = np.array(
        [math.sqrt((n - 2) / n), 1 / math.sqrt(n), 1 / math.sqrt(n), 0, 0]
    )
    assert np.allclose(collapsed.amplitudes, expected, atol=1e-14)
    if n == 3:
        assert np.allclose(collapsed.amplitudes[:3].real, 0.57735, atol=1e-5)


def test_collapse_is_a_contraction():
    g = sc.build_graph(12, 5)
    for state in random_walk_states(g, 10, seed=5):
        collapsed = sc.collapse(g, state)
        assert np.linalg.norm(collapsed.amplitudes) <= 1.0 + 1e-12


def test_collapse_after_lift_is_identity():
    g = sc.build_graph(8, 3)
    rng = np.random.default_rng(0)
    for _ in range(5):
        z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        back = sc.collapse(g, sc.lift(g, sc.CollapsedState(amplitudes=z)))
        assert np.allclose(back.amplitudes, z, atol=1e-14)


def test_lift_collapse_fixes_initial_state():
    # the uniform state is class-uniform, so the projection fixes it
    # (up to two roundings of sqrt(class size))
    g = sc.build_graph(6, 2)
    state = sc.initial_state(g)
    projected = sc.lift(g, sc.collapse(g, state))
    assert np.abs(arc_amplitudes(projected) - arc_amplitudes(state)).max() < 1e-15


def test_lift_collapse_is_idempotent():
    g = sc.build_graph(7, 3)
    state = next(random_walk_states(g, 1, seed=9))
    once = sc.lift(g, sc.collapse(g, state))
    twice = sc.lift(g, sc.collapse(g, once))
    assert np.abs(arc_amplitudes(twice) - arc_amplitudes(once)).max() < 1e-14


@pytest.mark.parametrize("n,m", [(5, 1), (20, 4), (50, 20)])
def test_step_commutes_with_class_projection(n, m):
    g = sc.build_graph(n, m)
    for state in random_walk_states(g, 10, seed=13):
        left = arc_amplitudes(sc.step(g, sc.lift(g, sc.collapse(g, state))))
        right = arc_amplitudes(sc.lift(g, sc.collapse(g, sc.step(g, state))))
        assert np.linalg.norm(left - right) < 1e-12


def test_collapsed_dynamics_confinement():
    # collapsing the full trajectory reproduces the reduced iteration exactly
    n, m = 7, 3
    g = sc.build_graph(n, m)
    ops = sc.build_reduced_operators(n, m)
    state = sc.initial_state(g)
    reduced = sc.collapsed_initial_state(n, m).amplitudes
    for _ in range(50):
        state = sc.step(g, state)
        reduced = ops.evolution @ reduced
        collapsed = sc.collapse(g, state).amplitudes
        assert np.abs(collapsed - reduced).max() < 1e-13
