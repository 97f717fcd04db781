"""Compare two hub-probability trace files, column by column.

    python tests/compare_traces.py FIRST.csv SECOND.csv ROWS

Exits 0 when both CSV traces have ROWS rows at the same times and each of
``p_hub``, ``psi_clique_in`` and ``psi_star_in`` agrees to TOLERANCE in
every row; otherwise prints the first mismatch to stderr and exits 1.
CI runs it on the outputs of two ``simulate`` modes.
"""

import sys

import numpy as np

from starclique.trace import ProbabilityTrace

TOLERANCE = 1e-10


def _read(path: str) -> ProbabilityTrace:
    with open(path) as stream:
        return ProbabilityTrace.from_csv(stream)


def mismatch(first: ProbabilityTrace, second: ProbabilityTrace, rows: int) -> str:
    """The first way the two traces disagree, or "" when they agree."""
    if not len(first) == len(second) == rows:
        return f"row counts {len(first)} and {len(second)}, expected {rows}"
    if not np.array_equal(first.times, second.times):
        return "the traces are at different times"
    for name in ("p_hub", "psi_clique_in", "psi_star_in"):
        gap = np.abs(getattr(first, name) - getattr(second, name)).max()
        if not gap <= TOLERANCE:  # a NaN gap fails too
            return f"{name} differs by {gap:.3e}, beyond {TOLERANCE:g}"
    return ""


def main(argv: list[str]) -> int:
    first, second, rows = argv
    problem = mismatch(_read(first), _read(second), int(rows))
    if problem:
        print(f"{first} vs {second}: {problem}", file=sys.stderr)
    return 1 if problem else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
