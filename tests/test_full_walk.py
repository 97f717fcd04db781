import dataclasses
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
from starclique.graph import HUB, INVERSE_CLASS, ArcClass, LeafPhase
from starclique.verify import random_walk_states


def _leaf_bound_unit_mass(n, m):
    # unit mass on the hub-to-leaf arc of leaf 0, nothing elsewhere
    star_out = np.zeros(m, dtype=np.complex128)
    star_out[0] = 1.0
    return sc.WalkState(
        np.zeros((n, n), dtype=np.complex128), np.zeros(m, dtype=np.complex128), star_out
    )


def test_initial_state_values():
    state = sc.initial_state(100, 10)
    off_diagonal = ~np.eye(100, dtype=bool)
    assert np.all(state.clique[off_diagonal] == 1.0 / math.sqrt(9900))
    assert np.all(np.diag(state.clique) == 0)
    assert np.all(state.star_in == 0) and np.all(state.star_out == 0)
    # 1/sqrt(9900) = 0.0100504 to the printed precision
    assert abs(state.clique[0, 1].real - 0.0100504) < 1e-7
    assert np.linalg.norm(arc_amplitudes(state)) == pytest.approx(1.0, abs=1e-14)


def test_step_reverses_at_leaf():
    # unit mass on the arc into a leaf comes back negated on the arc out of it
    out = sc.step(_leaf_bound_unit_mass(5, 2), LeafPhase.REVERSAL)
    expected = np.zeros(sum(sc.class_sizes(5, 2)), dtype=np.complex128)
    expected[5 * 4] = -1.0  # leaf 0 -> hub, the first star arc
    assert np.allclose(arc_amplitudes(out), expected, atol=1e-15)


def test_step_plain_keeps_leaf_sign():
    out = sc.step(_leaf_bound_unit_mass(5, 2), LeafPhase.PLAIN)
    assert out.star_in[0] == pytest.approx(1.0, abs=1e-15)


def test_step_from_uniform_smallest():
    # hand evaluation on the 8-arc graph: the hub-to-leaf arc receives
    # (2/deg(hub)) * (two incoming clique arcs at 1/sqrt(6)) = 4/(3 sqrt(6))
    out = sc.step(sc.initial_state(3, 1))
    assert out.star_out[0].real == pytest.approx(
        4.0 / (3.0 * math.sqrt(6.0)), abs=1e-15
    )


@pytest.mark.parametrize("n,m", [(5, 2), (20, 4), (200, 10)])
@pytest.mark.parametrize("phase", [LeafPhase.REVERSAL, LeafPhase.PLAIN])
def test_step_preserves_norm(n, m, phase):
    for state in random_walk_states(n, m, 5, seed=7):
        out = sc.step(state, phase)
        assert abs(np.linalg.norm(arc_amplitudes(out)) - 1.0) < 1e-12


def test_step_rejects_dimension_mismatch():
    # step and collapse read N and m from the state's shapes: any other
    # layout, and N < 3, is a ValueError naming the shapes, not an
    # IndexError or a TypeError from the arrays
    good = _leaf_bound_unit_mass(5, 2)
    for bad, match in [
        (dataclasses.replace(good, clique=np.zeros((5, 4))), r"\(5, 4\)"),
        (dataclasses.replace(good, star_out=np.zeros(3)), r"\(2,\), \(3,\)"),
        (_leaf_bound_unit_mass(2, 2), r"\(2, 2\).*N must be at least 3"),
        (sc.WalkState(np.zeros(()), np.zeros(()), np.zeros(())), r"\(\), \(\), \(\)"),
    ]:
        for walk in (sc.step, sc.collapse):
            with pytest.raises(ValueError, match=r"state has shapes .*" + match):
                walk(bad)


@pytest.mark.parametrize(
    "build",
    [
        lambda n, m: sc.initial_state(n, m),
        lambda n, m: sc.lift(n, m, sc.CollapsedState(np.zeros(5, dtype=np.complex128))),
        lambda n, m: next(random_walk_states(n, m, 1, seed=0)),
    ],
    ids=["initial_state", "lift", "random_walk_states"],
)
def test_state_builders_take_sizes_inside_the_domain(build):
    # the functions that build a state from (N, m) refuse as class_sizes
    # does (hub_series: test_graph.py::test_build_graph_rejects_bad_sizes)
    for n, m, match in [(2, 1, "N must be at least 3"), (10, 0, "m must be at least 1")]:
        with pytest.raises(ValueError, match=match):
            build(n, m)


@pytest.mark.parametrize("times", [[], [0], [0, 1]])
def test_walks_check_the_start_on_entry(times):
    # a start of other sizes than the kernel's (N, m) raises on the call,
    # also when no step is asked for
    with pytest.raises(ValueError, match="shapes"):
        full_walk._advance(10, 3, full_walk._Affine(np.zeros(10), np.zeros(10), np.zeros(3),
                                                    np.zeros(2)), LeafPhase.REVERSAL, times)


@pytest.mark.parametrize("phase", [LeafPhase.REVERSAL, LeafPhase.PLAIN])
def test_advance_takes_the_column_sums_from_its_caller(phase):
    # one read of a given block serves its steps in both leaf phases: the
    # block step from the caller's sums is the step that ``step`` takes from
    # its own read, bit for bit, real and complex
    n, m = 10, 3
    state = next(random_walk_states(n, m, 1, seed=23))
    real = sc.WalkState(state.clique.real.copy(), state.star_in.real, state.star_out.real)
    for start in (state, real):
        sums = full_walk._column_sums(start)
        assert sums.dtype == start.clique.dtype
        b, star_in, star_out = full_walk._block_step(start, phase, sums)
        given = (full_walk._clique(start.clique, b), star_in, star_out)
        read = sc.step(start, phase)
        for x, y in zip(given, (read.clique, read.star_in, read.star_out)):
            assert x.dtype == y.dtype and np.array_equal(x, y)


@pytest.mark.parametrize("n,m", [(3, 1), (7, 3), (40, 40), (60, 5)])
@pytest.mark.parametrize("phase", [LeafPhase.REVERSAL, LeafPhase.PLAIN])
def test_step_matches_arc_table_reference(n, m, phase):
    table = arc_table.build(n, m)
    for state in random_walk_states(n, m, 3, seed=17):
        psi = arc_amplitudes(state)
        for _ in range(50):
            state = sc.step(state, phase)
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


def _stepped(state, phase, steps):
    """``state`` iterated by the public ``step``, at each of the ascending
    step counts ``steps``: O(N^2) per step, for any state."""
    done = 0
    for t in steps:
        for _ in range(t - done):
            state = sc.step(state, phase)
        done = t
        yield state


def _step_series(state, phase, steps):
    """The hub series of ``state`` iterated by ``step``, read from each
    stepped state as ``dense_kernel`` reads its own."""
    rows = [dense_kernel.hub_row(s.clique, s.star_in) for s in _stepped(state, phase, steps)]
    return [np.array(column) for column in zip(*rows)]


_KERNEL_SIZES = [(3, 1), (4, 7), (25, 5), (60, 3)]


@pytest.mark.parametrize("n,m", _KERNEL_SIZES)
@pytest.mark.parametrize("phase", [LeafPhase.REVERSAL, LeafPhase.PLAIN])
def test_series_match_arc_table_from_random_state(n, m, phase):
    # a complex start, iterated by step, at sparse times
    table = arc_table.build(n, m)
    state = next(random_walk_states(n, m, 1, seed=31))
    times = [0, 1, 2, 7, 30, 31, 60]
    want = _table_series(table, arc_amplitudes(state), phase, times)
    _assert_series_close(_step_series(state, phase, times), want)


@pytest.mark.parametrize("n,m", _KERNEL_SIZES)
@pytest.mark.parametrize("phase", [LeafPhase.REVERSAL, LeafPhase.PLAIN])
def test_series_match_arc_table_from_odd_time(n, m, phase):
    # a start that step returned, at odd time
    table = arc_table.build(n, m)
    state = sc.step(next(random_walk_states(n, m, 1, seed=37)), phase)
    psi = arc_amplitudes(state)
    times = np.arange(51)
    want = _table_series(table, psi, phase, times)
    _assert_series_close(_step_series(state, phase, times), want)


@pytest.mark.parametrize("n,m", _KERNEL_SIZES)
@pytest.mark.parametrize("phase", [LeafPhase.REVERSAL, LeafPhase.PLAIN])
def test_step_on_non_contiguous_input(n, m, phase):
    # a Fortran-ordered block and strided star vectors, stepped 50 times
    table = arc_table.build(n, m)
    base = next(random_walk_states(n, m, 1, seed=41))
    stars = np.stack([base.star_in, base.star_out], axis=1)  # columns are strided
    state = sc.WalkState(np.asfortranarray(base.clique), stars[:, 0], stars[:, 1])
    assert not state.clique.flags.c_contiguous
    assert m == 1 or not state.star_in.flags.contiguous
    before = [a.copy() for a in (state.clique, state.star_in, state.star_out)]
    psi = arc_amplitudes(state)
    current = state
    for _ in range(50):
        current = sc.step(current, phase)
        psi = arc_table.step(table, psi, phase)
    assert np.abs(arc_amplitudes(current) - psi).max() <= 1e-12
    after = (state.clique, state.star_in, state.star_out)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(after, before))


@pytest.mark.parametrize("phase", [LeafPhase.REVERSAL, LeafPhase.PLAIN])
def test_walks_leave_the_input_state_untouched(phase):
    n, m = 9, 4
    # a complex128 state and the float64 uniform start
    for state in (next(random_walk_states(n, m, 1, seed=21)), sc.initial_state(n, m)):
        before = [a.copy() for a in (state.clique, state.star_in, state.star_out)]
        sc.step(state, phase)
        after = (state.clique, state.star_in, state.star_out)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(after, before))
        assert all(a.dtype == b.dtype for a, b in zip(after, before))


_PHASES = [LeafPhase.REVERSAL, LeafPhase.PLAIN]


def _assert_states_close(got, want, tol=1e-12):
    for a, b in zip((got.clique, got.star_in, got.star_out),
                    (want.clique, want.star_in, want.star_out)):
        assert np.abs(a - b).max() <= tol


def _check_against_dense(state, phase, steps=20):
    """The structured kernel and the dense reference from ``state``:
    ``steps`` states stepped one at a time."""
    got = want = state
    for _ in range(steps):
        got, want = sc.step(got, phase), dense_kernel.step(want, phase)
        _assert_states_close(got, want)


@pytest.mark.parametrize("n,m", _KERNEL_SIZES)
@pytest.mark.parametrize("phase", _PHASES)
def test_kernel_matches_dense_reference(n, m, phase):
    for state in random_walk_states(n, m, 3, seed=43):
        _check_against_dense(state, phase)
    # a start at odd time, as step returns it
    odd_time = sc.step(next(random_walk_states(n, m, 1, seed=47)), phase)
    _check_against_dense(odd_time, phase)


@pytest.mark.parametrize("n,m", _KERNEL_SIZES)
@pytest.mark.parametrize("phase", _PHASES)
def test_kernel_matches_dense_reference_on_non_contiguous_input(n, m, phase):
    # a Fortran-ordered block and strided star vectors; a strided block
    base = next(random_walk_states(n, m, 1, seed=53))
    stars = np.stack([base.star_in, base.star_out], axis=1)  # columns are strided
    _check_against_dense(
        sc.WalkState(np.asfortranarray(base.clique), stars[:, 0], stars[:, 1]), phase
    )
    wide = np.zeros((n, 2 * n), dtype=np.complex128)
    wide[:, ::2] = base.clique
    _check_against_dense(sc.WalkState(wide[:, ::2], base.star_in, base.star_out), phase)


def test_step_and_collapse_refuse_a_non_zero_diagonal():
    # an entry on the clique diagonal is an arc u -> u, which the graph does
    # not have: both read the state's sizes and refuse it, at the hub and off it
    base = next(random_walk_states(6, 2, 1, seed=59))
    for vertex, value in ((HUB, 0.1), (3, 1e-300j), (5, np.nan)):
        clique = base.clique.copy()
        clique[vertex, vertex] = value
        state = sc.WalkState(clique, base.star_in, base.star_out)
        for walk in (sc.step, sc.collapse):
            with pytest.raises(ValueError, match="non-zero clique diagonal"):
                walk(state)


@pytest.mark.parametrize("n,m", _KERNEL_SIZES)
@pytest.mark.parametrize("phase", _PHASES)
def test_affine_start_matches_dense_reference(n, m, phase):
    # a lifted start as vectors (X = 0): its block 1aᵀ + b1ᵀ, off the
    # diagonal, against the dense kernel from the dense lift, over 9 steps
    state = next(random_walk_states(n, m, 1, seed=61))
    collapsed = sc.collapse(state)
    sizes = np.sqrt(np.asarray(sc.class_sizes(n, m), dtype=np.float64))
    start = full_walk._lifted(n, m, collapsed.amplitudes * sizes)
    steps = np.array([1, 2, 5, 9])
    got = full_walk._advance(n, m, start, phase, steps)
    want = dense_kernel.advance(sc.lift(n, m, collapsed), phase, steps)
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
    n, m = 57, 9
    for phase in _PHASES:
        times = np.arange(0, 301, 7)
        want = dense_kernel.hub_series(sc.initial_state(n, m), phase, times)
        _assert_series_close(hub_series(n, m, phase, times), want)


@pytest.mark.parametrize("n,m,rows", [(24, 1000, 64), (8, 16376, 4), (3, 1 << 16, 1)])
@pytest.mark.parametrize("phase", _PHASES)
def test_block_probe_matches_dense_reference(n, m, rows, phase):
    # series that end just before, at and just after a block edge, and
    # sparse ones spanning several blocks, from the uniform start
    assert max(1, sc.full_walk._PROBE_ELEMENTS // (n + m)) == rows
    series = [np.arange(k) for k in sorted({1, max(rows - 1, 1), rows, rows + 1})]
    series += [[0, 1, 63, 64, 65, 300], [0, 0, 2, 2, 3]]
    for times in series:
        want = dense_kernel.hub_series(sc.initial_state(n, m), phase, times)
        _assert_series_close(hub_series(n, m, phase, times), want)


@pytest.mark.parametrize("n,m", [(10**5, 316), (10**4, 1)])
def test_uniform_series_matches_closed_form_through_optimal_time(n, m):
    # beyond any dense block: 80 GB at N = 1e5.  Measured: 1.3e-13 and 5.3e-13
    t_opt = sc.optimal_time_exact(n, m)
    times = np.unique(np.append(np.arange(0, t_opt, 47), [t_opt - 1, t_opt]))
    got = hub_series(n, m, LeafPhase.REVERSAL, times)
    _assert_series_close(got, sc.EigenbasisEvaluator(n, m).hub_series(times), tol=1e-10)


def test_uniform_series_holds_no_block():
    # the dense oracle held a 72 MB float64 block at N = 3000
    n, m = 3000, 55
    hub_series(n, m, LeafPhase.REVERSAL, [0, 1])  # caches outside the measurement
    tracemalloc.start()
    try:
        hub_series(n, m, LeafPhase.REVERSAL, np.arange(40))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_initial_state_is_real():
    n, m = 12, 3
    state = sc.initial_state(n, m)
    assert all(a.dtype == np.float64 for a in (state.clique, state.star_in, state.star_out))
    p, clique_in, star_in = hub_series(n, m, LeafPhase.REVERSAL, [0, 5])
    assert (p.dtype, clique_in.dtype, star_in.dtype) == (
        np.float64, np.complex128, np.complex128
    )


def _as_complex(state):
    return sc.WalkState(
        *(a.astype(np.complex128) for a in (state.clique, state.star_in, state.star_out))
    )


@pytest.mark.parametrize("phase", [LeafPhase.REVERSAL, LeafPhase.PLAIN])
def test_real_walk_matches_complex_walk(phase):
    # the float64 oracle and the same start cast to complex128 agree
    n, m = 57, 9
    real = sc.initial_state(n, m)
    cplx = _as_complex(real)
    for _ in range(300):
        real, cplx = sc.step(real, phase), sc.step(cplx, phase)
    assert real.clique.dtype == np.float64 and cplx.clique.dtype == np.complex128
    assert np.abs(arc_amplitudes(real) - arc_amplitudes(cplx)).max() <= 1e-14


def test_evolve_is_the_uniform_start():
    # the full trace runs X = 0 plus an affine part, step the built uniform
    # block: the same walk in two representations, equal up to rounding
    n, m = 20, 4
    trace = sc.hub_trace("full", 20, 4, 30, LeafPhase.REVERSAL)
    assert np.array_equal(trace.times, np.arange(31))
    got = (trace.p_hub, trace.psi_clique_in, trace.psi_star_in)
    stepped = _step_series(sc.initial_state(n, m), LeafPhase.REVERSAL, range(31))
    _assert_series_close(got, stepped, tol=1e-14)
    table = arc_table.build(20, 4)
    want = _table_series(table, arc_amplitudes(sc.initial_state(n, m)), LeafPhase.REVERSAL,
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
    n, m = 50, 7
    state = _as_complex(sc.initial_state(n, m))
    for _ in range(100):
        state = sc.step(state)
    assert state.clique.dtype == np.complex128
    assert np.abs(arc_amplitudes(state).imag).max() < 1e-12


def test_vertex_probability_partitions_unity():
    # per-vertex probabilities, |amplitude|^2 summed by terminus, add to 1,
    # and the hub's is the oracle's p_hub, here after 7 steps
    n, m = 9, 4
    (state,) = _stepped(sc.initial_state(n, m), LeafPhase.REVERSAL, [7])
    table = arc_table.build(9, 4)
    per_vertex = np.bincount(table.terminus, np.abs(arc_amplitudes(state)) ** 2)
    assert per_vertex.sum() == pytest.approx(1.0, abs=1e-12)
    p_hub = hub_series(n, m, LeafPhase.REVERSAL, [7])[0][0]
    assert p_hub == pytest.approx(per_vertex[HUB], abs=1e-12)


def test_vertex_probability_of_initial_state():
    n, m = 10, 2
    state = sc.initial_state(n, m)
    p_hub = hub_series(n, m, LeafPhase.REVERSAL, [0])[0][0]
    assert p_hub == pytest.approx(0.1, abs=1e-14)
    # a leaf's probability is that of the one arc into it
    assert not state.star_out.any()


@pytest.mark.parametrize("n,m", [(3, 1), (100, 10)])
def test_collapse_of_initial_state(n, m):
    collapsed = sc.collapse(sc.initial_state(n, m))
    expected = np.array(
        [math.sqrt((n - 2) / n), 1 / math.sqrt(n), 1 / math.sqrt(n), 0, 0]
    )
    assert np.allclose(collapsed.amplitudes, expected, atol=1e-14)
    if n == 3:
        assert np.allclose(collapsed.amplitudes[:3].real, 0.57735, atol=1e-5)


def test_collapse_is_a_contraction():
    n, m = 12, 5
    for state in random_walk_states(n, m, 10, seed=5):
        collapsed = sc.collapse(state)
        assert np.linalg.norm(collapsed.amplitudes) <= 1.0 + 1e-12


@pytest.mark.parametrize("n,m", [(3000, 54), (3036, 55)])
def test_collapse_after_lift_is_identity_at_the_budget_edge(n, m):
    # near verify's default arc budget of 1e7, where a one-pass sum of the
    # interior landed 2.1e-14 and 3.5e-14 from exact; one 147 MB lift at a
    # time.  Its arc inversion, a Fortran-ordered view, collapses to the
    # basis state with IN and OUT swapped
    for basis in np.eye(5, dtype=np.complex128):
        lifted = sc.lift(n, m, sc.CollapsedState(amplitudes=basis))
        inverted = sc.WalkState(lifted.clique.T, lifted.star_out, lifted.star_in)
        assert np.abs(sc.collapse(lifted).amplitudes - basis).max() <= 1e-14
        assert np.abs(sc.collapse(inverted).amplitudes - basis[list(INVERSE_CLASS)]).max() <= 1e-14


def test_collapse_after_lift_is_identity():
    n, m = 8, 3
    rng = np.random.default_rng(0)
    for _ in range(5):
        z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        back = sc.collapse(sc.lift(n, m, sc.CollapsedState(amplitudes=z)))
        assert np.allclose(back.amplitudes, z, atol=1e-14)


def test_lift_collapse_fixes_initial_state():
    # the uniform state is class-uniform, so the projection fixes it
    # (up to two roundings of sqrt(class size))
    n, m = 6, 2
    state = sc.initial_state(n, m)
    projected = sc.lift(n, m, sc.collapse(state))
    assert np.abs(arc_amplitudes(projected) - arc_amplitudes(state)).max() < 1e-15


def test_lift_collapse_is_idempotent():
    n, m = 7, 3
    state = next(random_walk_states(n, m, 1, seed=9))
    once = sc.lift(n, m, sc.collapse(state))
    twice = sc.lift(n, m, sc.collapse(once))
    assert np.abs(arc_amplitudes(twice) - arc_amplitudes(once)).max() < 1e-14


@pytest.mark.parametrize("n,m", [(5, 1), (20, 4), (50, 20)])
def test_step_commutes_with_class_projection(n, m):
    for state in random_walk_states(n, m, 10, seed=13):
        left = arc_amplitudes(sc.step(sc.lift(n, m, sc.collapse(state))))
        right = arc_amplitudes(sc.lift(n, m, sc.collapse(sc.step(state))))
        assert np.linalg.norm(left - right) < 1e-12


def test_collapsed_dynamics_confinement():
    # collapsing the full trajectory reproduces the reduced iteration exactly
    n, m = 7, 3
    ops = sc.build_reduced_operators(n, m)
    state = sc.initial_state(n, m)
    reduced = sc.collapsed_initial_state(n, m).amplitudes
    for _ in range(50):
        state = sc.step(state)
        reduced = ops.evolution @ reduced
        collapsed = sc.collapse(state).amplitudes
        assert np.abs(collapsed - reduced).max() < 1e-13
