"""Step-by-step reads of a lockstep band sampler, for tests only.

The package reads a LockstepBandSampler only inside its lockstep epoch. Tests
that look at the draws themselves read them here the same way: block by
block through blocks(), then each step's points() and flips.
"""

import numpy as np


def lockstep_draws(sampler, W_hat):
    """Yield each remaining step's (X, u) around the fixed unit directions W_hat (K, d)."""
    for n in sampler.blocks():
        for i in range(n):
            yield sampler.points(i, W_hat, np.empty(np.shape(W_hat))), sampler.flips[i]
