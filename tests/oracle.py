"""The reference that every finite mean is tested against.

`brute_average` is the entangled mean as the paper writes it: a literal loop
over the whole index lattice that raises every operator power from scratch
with `np.linalg.matrix_power`.  It shares no code with entlab's evaluators
(no plan, no power stacks, no spectral weights), so agreement with them is a
genuine cross-check.  At alpha = [1] on conj(lambda) T it is the Cesaro mean
that converges to the mean ergodic projection at lambda.
"""

import itertools

import numpy as np


def brute_average(system, n, x=None):
    """(1/n^k) sum over n_1..n_k = 1..n of T_m^{n_alpha(m)} A_{m-1} ... A_1 T_1^{n_alpha(1)},
    applied to the state x when given, summed with Kahan compensation."""
    part = system.partition
    mats = [op.matrix for op in system.operators]
    total = carry = 0j
    for combo in itertools.product(range(1, n + 1), repeat=part.k):
        term = np.linalg.matrix_power(mats[0], combo[part.alpha[0] - 1])
        if x is not None:
            term = term @ x
        for a, t, block in zip(system.connectors, mats[1:], part.alpha[1:]):
            term = np.linalg.matrix_power(t, combo[block - 1]) @ (a @ term)
        step = term - carry
        new = total + step
        carry = (new - total) - step
        total = new
    return total / float(n) ** part.k
