"""Random-state generators: the checks on their arguments, and draws that
do not depend on how their constant operands are built."""

import math

import numpy as np
import pytest

from twoqubit.sampling import (
    bell_state,
    haar_pure,
    pure_density,
    random_hermitian_trace_one,
    rank_deficient_density,
    werner_state,
)


@pytest.mark.parametrize("rank", [0, 5, 2.5, math.nan, math.inf])
def test_rank_deficient_density_refuses_a_rank_outside_1_to_4(rank):
    """2.5 used to pass the range check and raise numpy's TypeError."""
    with pytest.raises(ValueError, match=f"^rank must be 1..4, got {rank}$"):
        rank_deficient_density(np.random.default_rng(0), rank)


def test_rank_deficient_density_takes_an_integral_float_rank():
    """2.0 passes the check as 2 does, and numpy is given the int."""
    eigs = np.linalg.eigvalsh(rank_deficient_density(np.random.default_rng(1), 2.0))
    assert np.sum(eigs > 1e-12) == 2


def _outer_of_haar(rng):
    v = haar_pure(rng)
    return np.outer(v, v.conj())


def _werner_built_per_call(rng):
    p = rng.uniform(-1.0 / 3.0, 1.0)
    b = bell_state()
    return p * np.outer(b, b.conj()) + (1.0 - p) * np.eye(4) / 4.0


def _hermitian_built_per_call(rng):
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (g + g.conj().T) / 2.0
    h += (1.0 - h.trace().real) / 4.0 * np.eye(4)
    return h


# sampler: (its draw, the same draw with np.outer and every constant
# operand built on each call)
PER_CALL_FORMS = {
    "pure_density": (lambda rng: pure_density(haar_pure(rng)), _outer_of_haar),
    "werner_state": (lambda rng: werner_state(rng.uniform(-1.0 / 3.0, 1.0)), _werner_built_per_call),
    "random_hermitian_trace_one": (random_hermitian_trace_one, _hermitian_built_per_call),
}


@pytest.mark.parametrize("sampler", list(PER_CALL_FORMS))
def test_sampler_equals_its_per_call_form_bit_for_bit(sampler):
    draw, per_call = PER_CALL_FORMS[sampler]
    a, b = np.random.default_rng(28), np.random.default_rng(28)
    for _ in range(2000):
        got, want = draw(a), per_call(b)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
