"""The reference coarsening of Brownian increments, shared by the noise and
strong-order tests.

strong_order sums each level's groups of fine rows as they stream by
(integrators._coupled_terminals). These tests pin that order, bit for bit,
against group_sums over a materialised fine matrix.
"""

import numpy as np

from jobmarket import ParameterError


def group_sums(increments: np.ndarray, factor: int) -> np.ndarray:
    """Sum consecutive groups of ``factor`` along the first (time) axis.

    Summation within each group is strictly left to right, the pinned
    order, regardless of factor, so each column matches a scalar running
    sum bit for bit.
    """
    n = increments.shape[0]
    if n % factor != 0:
        raise ParameterError(
            f"factor {factor} does not divide the number of increments {n}"
        )
    grouped = increments.reshape((n // factor, factor) + increments.shape[1:])
    acc = grouped[:, 0].copy()
    for j in range(1, factor):
        acc += grouped[:, j]
    return acc
