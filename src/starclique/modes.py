"""The evaluator table: every mode of ``simulate`` and how it is set up.

Each row builds one evaluator of the uniform-start hub series: the
arc-space oracle, the 5x5 reduced iteration, the two-plane closed form or
the leading-order asymptotics.  ``simulate``, ``verify`` and ``hub_trace``
take every series from here.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple

from . import asymptotics, collapsed, full_walk
from .graph import LeafPhase, leaves_from_alpha
from .spectral import EigenbasisEvaluator
from .trace import ProbabilityTrace, trace_metadata


class Mode(NamedTuple):
    """``series(n, m, leaf_phase, alpha)`` does the setup and returns
    ``times -> HubSeries``; ``phases`` are the leaf phases it evaluates, and
    with ``needs_alpha`` it reads alpha and takes m from it."""

    series: Callable
    phases: frozenset[LeafPhase]
    needs_alpha: bool = False


def _full(n, m, leaf_phase, alpha=None):
    return partial(full_walk.hub_series, n, m, leaf_phase)


def _collapsed(n, m, leaf_phase, alpha=None):
    ops = collapsed.build_reduced_operators(n, m, leaf_phase)
    return partial(collapsed.hub_series, ops, collapsed.collapsed_initial_state(n, m))


def _closed(n, m, leaf_phase, alpha=None):
    return EigenbasisEvaluator(n, m).hub_series


def _asymptotic(n, m, leaf_phase, alpha=None):
    return partial(asymptotics.hub_series, n, alpha)


_REVERSAL = frozenset({LeafPhase.REVERSAL})

#: Every mode, in the order that ``simulate --mode`` lists them.
MODES = {
    "full": Mode(_full, frozenset(LeafPhase)),
    "collapsed": Mode(_collapsed, frozenset(LeafPhase)),
    "closed": Mode(_closed, _REVERSAL),
    "asymptotic": Mode(_asymptotic, _REVERSAL, needs_alpha=True),
}


def hub_trace(
    mode: str, n: int, m: int, t_max: int, leaf_phase: LeafPhase, alpha: float | None = None
) -> ProbabilityTrace:
    """Rows 0..t_max of ``mode``'s series, with the metadata of every trace.
    A phase outside the mode's row, no alpha where the mode reads it, or an
    alpha whose leaf count is not ``m`` is an error: the rows would not be
    the walk that the metadata names."""
    row = MODES[mode]
    if leaf_phase not in row.phases:
        raise ValueError(f"{mode} mode does not evaluate the {leaf_phase.value} walk")
    if row.needs_alpha and alpha is None:
        raise ValueError(f"{mode} mode requires alpha")
    if alpha is not None and m != leaves_from_alpha(n, alpha):
        raise ValueError(f"m = {m} is not the leaf count {leaves_from_alpha(n, alpha)} of alpha")
    metadata = trace_metadata(n, m, mode, leaf_phase, alpha)
    return ProbabilityTrace.from_series(row.series(n, m, leaf_phase, alpha), t_max, metadata)
