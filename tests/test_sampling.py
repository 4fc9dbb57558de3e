"""Random-state generators: the checks on their arguments."""

import math

import numpy as np
import pytest

from twoqubit.sampling import rank_deficient_density


@pytest.mark.parametrize("rank", [0, 5, 2.5, math.nan, math.inf])
def test_rank_deficient_density_refuses_a_rank_outside_1_to_4(rank):
    """2.5 used to pass the range check and raise numpy's TypeError."""
    with pytest.raises(ValueError, match=f"^rank must be 1..4, got {rank}$"):
        rank_deficient_density(np.random.default_rng(0), rank)


def test_rank_deficient_density_takes_an_integral_float_rank():
    """2.0 passes the check as 2 does, and numpy is given the int."""
    eigs = np.linalg.eigvalsh(rank_deficient_density(np.random.default_rng(1), 2.0))
    assert np.sum(eigs > 1e-12) == 2
