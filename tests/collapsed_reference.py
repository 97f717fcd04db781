"""Step-at-a-time reduced iteration, for tests.

The reference the block-power kernel of ``starclique.collapsed.hub_series``
is checked against: one ``evolution @ psi`` per step, reading the two
hub-bound amplitudes after each requested step count.
"""

import numpy as np

from starclique.collapsed import ascending_steps
from starclique.graph import ArcClass
from starclique.trace import hub_probability


def hub_series(ops, state, times):
    steps = ascending_steps(times).tolist()
    psi = state.amplitudes
    clique_in = np.empty(len(steps), dtype=np.complex128)
    star_in = np.empty(len(steps), dtype=np.complex128)
    done = 0
    for row, t in enumerate(steps):
        for _ in range(t - done):
            psi = ops.evolution @ psi
        done = t
        clique_in[row] = psi[ArcClass.CLIQUE_IN]
        star_in[row] = psi[ArcClass.STAR_IN]
    return hub_probability(clique_in, star_in), clique_in, star_in
