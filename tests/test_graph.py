import math
import sys

import numpy as np
import pytest

import arc_table
import starclique as sc
from starclique import graph as gr
from starclique.asymptotics import theory_exponent


def test_leaves_from_alpha_examples():
    assert gr.leaves_from_alpha(100, 0.5) == 10
    assert gr.leaves_from_alpha(100, 0.0) == 1
    assert gr.leaves_from_alpha(10, 1.5) == 31  # floor(31.62...)


def test_leaves_from_alpha_rejects_bad_input():
    for n, alpha, match in [
        (2, 0.5, "N must be at least 3"),
        (-5, 0.5, "N must be at least 3"),  # (-5.0)**0.5 would be complex
        (100, -0.1, "alpha must be finite and >= 0"),
        (100, math.nan, "alpha must be finite and >= 0"),
        (100, math.inf, "alpha must be finite and >= 0"),
        (10**6, 51, "float range"),     # m = 1e306 fits, (N-1)(N+m-1) not
        (10**400, 0.5, "N beyond int64"),
        (100, 10**400, "float range"),  # float(alpha) overflows
        (3, 2000, "float range"),       # N**alpha overflows
    ]:
        with pytest.raises(ValueError, match=match):
            gr.leaves_from_alpha(n, alpha)


def test_leaves_from_alpha_lands_on_exact_powers():
    # pow() may come back a hair under the exact integer; the floor must not
    # drop to the integer below
    assert gr.leaves_from_alpha(4096, 1.5) == 262144
    assert gr.leaves_from_alpha(1024, 0.5) == 32
    assert gr.leaves_from_alpha(10000, 2.0) == 10**8
    assert gr.leaves_from_alpha(65536, 1.0) == 65536


def test_build_graph_smallest():
    g = gr.build_graph(3, 1)
    assert g.n_vertices == 4
    assert g.arc_count == 8
    assert arc_table.build(3, 1).degree[gr.HUB] == 3


def test_build_graph_counts():
    g = gr.build_graph(100, 10)
    assert g.n_vertices == 110
    assert g.arc_count == 9920
    # sizes only, no per-arc array: a trillion arcs cost nothing to describe
    assert gr.build_graph(10**6, 1).arc_count == 10**12 - 10**6 + 2


def test_build_graph_rejects_bad_sizes():
    for n, m, match in [
        (2, 1, "N must be at least 3"),
        (10, 0, "m must be at least 1"),
        (10**19, 1, "N beyond int64"),
        (100, 10**400, "float range"),
        (100, 10**308, "float range"),  # m fits, (N-1)(N+m-1) not
    ]:
        with pytest.raises(ValueError, match=match):
            gr.class_sizes(n, m)
        with pytest.raises(ValueError, match=match):
            gr.build_graph(n, m)


def test_domain_edges_are_accepted():
    n = 2**63 - 1
    assert gr.class_sizes(n, 1)[1] == n - 1
    # the largest m with (N-1)(N+m-1) <= sys.float_info.max
    m = int(sys.float_info.max) // (n - 1) - n + 1
    assert gr.class_sizes(n, m)[3] == m
    with pytest.raises(ValueError, match="float range"):
        gr.class_sizes(n, m + 1)


@pytest.mark.parametrize(
    "evaluate, match",
    [
        (lambda: sc.closed_form_probability(10**19, 1, 5), "N beyond int64"),
        (lambda: sc.optimal_time_exact(10**19, 1), "N beyond int64"),
        (lambda: sc.hub_trace("closed", 10**19, 1, 3, gr.LeafPhase.REVERSAL),
         "N beyond int64"),
        (lambda: sc.optimal_time_branch(10**19, 0.5), "N beyond int64"),
        (lambda: sc.optimal_time_branch(100, math.nan), "alpha must be finite"),
        (lambda: sc.optimal_time_branch(100, math.inf), "alpha must be finite"),
        (lambda: theory_exponent(math.nan), "alpha must be finite"),
    ],
    ids=["closed_form_probability", "optimal_time_exact", "hub_trace", "optimal_time_branch",
         "optimal_time_branch-nan", "optimal_time_branch-inf", "theory_exponent-nan"],
)
def test_evaluators_refuse_sizes_beyond_the_domain(evaluate, match):
    # each reaches graph's size or alpha check, the one the command line
    # refuses by
    with pytest.raises(ValueError, match=match):
        evaluate()


def test_build_graph_rejects_addressable_overflow():
    with pytest.raises(ValueError):
        gr.build_graph(4_000_000_000, 1)


@pytest.mark.parametrize(
    "n,m",
    [(3, 1), (3, 200), (4, 2), (10, 7), (50, 3), (100, 10), (200, 1), (200, 200)],
)
def test_graph_invariants(n, m):
    # on the arc table the structured oracle is tested against
    g = arc_table.build(n, m)
    hub = gr.HUB
    arc_count = gr.build_graph(n, m).arc_count
    assert g.origin.size == arc_count
    arcs = np.arange(arc_count)

    # inverse is an involution without fixed points and swaps the endpoints
    assert np.array_equal(g.inverse[g.inverse], arcs)
    assert not np.any(g.inverse == arcs)
    assert np.array_equal(g.origin[g.inverse], g.terminus)
    assert np.array_equal(g.terminus[g.inverse], g.origin)

    # degrees
    assert g.degree[hub] == n - 1 + m
    assert np.all(g.degree[1:n] == n - 1)
    assert np.all(g.degree[n:] == 1)
    assert int(g.degree.sum()) == arc_count

    # class labels recomputed from the endpoints agree with the stored ones
    recomputed = np.full(arc_count, gr.ArcClass.CLIQUE_INTERIOR, dtype=np.int64)
    leaf_origin = g.origin >= n
    leaf_terminus = g.terminus >= n
    recomputed[(g.terminus == hub) & ~leaf_origin] = gr.ArcClass.CLIQUE_IN
    recomputed[(g.origin == hub) & ~leaf_terminus] = gr.ArcClass.CLIQUE_OUT
    recomputed[leaf_origin] = gr.ArcClass.STAR_IN
    recomputed[leaf_terminus] = gr.ArcClass.STAR_OUT
    assert np.array_equal(recomputed, g.arc_class)

    # every leaf has exactly one incoming and one outgoing arc, both at the hub
    star_in = g.arc_class == gr.ArcClass.STAR_IN
    star_out = g.arc_class == gr.ArcClass.STAR_OUT
    assert np.array_equal(np.sort(g.origin[star_in]), np.arange(n, n + m))
    assert np.array_equal(np.sort(g.terminus[star_out]), np.arange(n, n + m))
    assert np.all(g.terminus[star_in] == hub)
    assert np.all(g.origin[star_out] == hub)


def test_class_sizes_examples():
    assert gr.class_sizes(100, 10) == (9702, 99, 99, 10, 10)
    assert gr.class_sizes(3, 1) == (2, 2, 2, 1, 1)


@pytest.mark.parametrize("n,m", [(3, 1), (7, 5), (41, 13), (200, 77)])
def test_class_sizes_partition(n, m):
    sizes = gr.class_sizes(n, m)
    assert sum(sizes) == n * (n - 1) + 2 * m == gr.build_graph(n, m).arc_count
    g = arc_table.build(n, m)
    assert np.array_equal(
        np.bincount(g.arc_class, minlength=5), np.asarray(sizes)
    )


def test_inverse_class_map():
    g = arc_table.build(9, 4)
    expected = np.asarray([gr.INVERSE_CLASS[c] for c in g.arc_class])
    assert np.array_equal(g.arc_class[g.inverse], expected)
