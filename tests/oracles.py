"""Brute-force references for the classical bounds.

`enumerate_deterministic` lists every deterministic strategy in
lexicographic (encode, decode) order, the order whose first maximizer
`classical_max_linear` must return.  `mixture_table` evaluates a convex
mixture of strategies (shared randomness) as one table.
"""

import itertools

import numpy as np

from pamsim.classical import DeterministicStrategy, strategy_table
from pamsim.scenario import ProbabilityTable


def enumerate_deterministic(d, n_prep, n_meas):
    """Yield every deterministic strategy exactly once."""
    decode_rows = list(itertools.product((0, 1), repeat=n_meas))
    for encode in itertools.product(range(d), repeat=n_prep):
        for decode in itertools.product(decode_rows, repeat=d):
            yield DeterministicStrategy(encode=encode, decode=decode)


def mixture_table(components, n_prep, n_meas):
    """No-loss table of the mixture [(weight, strategy), ...]: the weighted
    sum of the strategies' p_e arrays."""
    p_e = np.zeros((n_prep, n_meas))
    for weight, strategy in components:
        p_e += weight * strategy_table(strategy, n_prep, n_meas).p_e
    return ProbabilityTable(p_e, 1.0 - p_e, np.zeros(p_e.shape))
