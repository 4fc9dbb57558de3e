"""Kronecker helper, Faddeev-LeVerrier coefficients, and the Jacobi oracle."""

import numpy as np
import pytest

from twoqubit.entanglement import spin_flip
from twoqubit.errors import OracleConvergenceError
from twoqubit.linalg import (
    MonicQuartic,
    _flv,
    charpoly_flv,
    eig_hermitian_oracle,
    is_hermitian,
    kron,
    trace_power,
)
from twoqubit.sampling import (
    ginibre_density,
    haar_pure,
    near_quarter_density,
    pure_density,
    random_hermitian_trace_one,
    rank_deficient_density,
)

_I4 = np.eye(4, dtype=complex)


def random_hermitian(rng, n=4):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2.0


def test_kron_matches_numpy():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert np.allclose(kron(a, b), np.kron(a, b))


def test_is_hermitian():
    rng = np.random.default_rng(8)
    h = random_hermitian(rng)
    assert is_hermitian(h)
    assert is_hermitian(h + 1e-12 * 1j * np.eye(4))
    assert not is_hermitian(h + 1e-6 * 1j * np.eye(4))


def test_trace_power_matches_direct():
    rng = np.random.default_rng(9)
    for _ in range(50):
        h = random_hermitian(rng)
        for k in (1, 2, 3, 4):
            direct = np.trace(np.linalg.matrix_power(h, k)).real
            assert abs(trace_power(h, k) - direct) <= 1e-10 * max(1.0, abs(direct))


def test_trace_power_rejects_nonpositive_power():
    with pytest.raises(ValueError):
        trace_power(np.eye(4), 0)


def test_charpoly_known_diagonal():
    # diag(0.4, 0.3, 0.2, 0.1): elementary symmetric functions by hand give
    # e2 = 0.35, e3 = 0.05, e4 = 0.0024, so the monic coefficients are
    # (c0, c1, c2, c3) = (0.0024, -0.05, 0.35, -1.0).
    m = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    got = charpoly_flv(m)
    want = MonicQuartic(c0=0.0024, c1=-0.05, c2=0.35, c3=-1.0)
    assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-14


def test_charpoly_matches_symmetric_functions():
    """FLV coefficients against the polynomial rebuilt from numpy's spectrum."""
    rng = np.random.default_rng(10)
    for _ in range(200):
        h = random_hermitian(rng)
        eigs = np.linalg.eigvalsh(h)
        want = np.poly(eigs)  # leading 1, then c3, c2, c1, c0
        got = charpoly_flv(h)
        err = max(
            abs(got.c3 - want[1]),
            abs(got.c2 - want[2]),
            abs(got.c1 - want[3]),
            abs(got.c0 - want[4]),
        )
        assert err <= 1e-11


def test_charpoly_rejects_complex_coefficients():
    m = np.diag([0.5 + 0.2j, 0.5 - 0.1j, 0.0, -0.1j])
    with pytest.raises(ValueError):
        charpoly_flv(m)


def test_charpoly_rejects_wrong_shape():
    with pytest.raises(ValueError):
        charpoly_flv(np.eye(3))


def test_charpoly_rejects_nonfinite():
    m = np.eye(4, dtype=complex)
    m[0, 0] = np.nan
    with pytest.raises(ValueError):
        charpoly_flv(m)


def ref_charpoly_flv(m):
    """(c0, c1, c2, c3) as complex numbers by the numpy formulation of the
    Faddeev-LeVerrier recurrence, the reference for the written-out
    linalg._flv."""
    m = np.asarray(m, dtype=complex)
    n1 = m
    c3 = -complex(np.trace(n1))
    n2 = m @ (n1 + c3 * _I4)
    c2 = -complex(np.trace(n2)) / 2.0
    n3 = m @ (n2 + c2 * _I4)
    c1 = -complex(np.trace(n3)) / 3.0
    n4 = m @ (n3 + c1 * _I4)
    c0 = -complex(np.trace(n4)) / 4.0
    return c0, c1, c2, c3


DENSITY_FAMILIES = {
    "ginibre": ginibre_density,
    "rank2": lambda rng: rank_deficient_density(rng, 2),
    "rank3": lambda rng: rank_deficient_density(rng, 3),
    "pure": lambda rng: pure_density(haar_pure(rng)),
    "near_quarter": near_quarter_density,
}
FLV_FAMILIES = {
    **DENSITY_FAMILIES,
    "hermitian": random_hermitian_trace_one,
    "complex": lambda rng: rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)),
}
FLV_DRAWS = 3000


def _flv_gap(m) -> float:
    """Largest |written-out - numpy| over the four coefficients, relative to
    the scale max(1, max|m|)^4 of c0."""
    got = _flv(m.tolist())
    want = ref_charpoly_flv(m)
    return max(abs(a - b) for a, b in zip(got, want)) / max(1.0, float(np.abs(m).max())) ** 4


@pytest.mark.parametrize("family", sorted(FLV_FAMILIES))
def test_written_out_flv_matches_numpy_reference(family):
    rng = np.random.default_rng(60 + sorted(FLV_FAMILIES).index(family))
    draw = FLV_FAMILIES[family]
    worst = max(_flv_gap(np.asarray(draw(rng), dtype=complex)) for _ in range(FLV_DRAWS))
    assert worst <= 1e-14


@pytest.mark.parametrize("family", sorted(DENSITY_FAMILIES))
def test_written_out_flv_on_flip_products(family):
    """The centred, trace-normalized flip product X = m / tr m - I/4 that
    the concurrence's pass hands to the recurrence."""
    rng = np.random.default_rng(70 + sorted(DENSITY_FAMILIES).index(family))
    draw = DENSITY_FAMILIES[family]
    worst = 0.0
    for _ in range(FLV_DRAWS):
        rho = draw(rng)
        m = rho @ spin_flip(rho)
        t = float(m.trace().real)
        if t <= 1e-14:  # the pass's trace floor; it never solves these
            continue
        worst = max(worst, _flv_gap(m / t - _I4 / 4.0))
    assert worst <= 1e-14


def test_oracle_matches_numpy():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(500):
        h = random_hermitian(rng)
        got = eig_hermitian_oracle(h)
        want = np.linalg.eigvalsh(h)[::-1]
        worst = max(worst, max(abs(a - b) for a, b in zip(got, want)))
    assert worst <= 1e-12


def test_oracle_descending_and_exact_on_diagonal():
    m = np.diag([0.1, 0.4, 0.2, 0.3]).astype(complex)
    got = eig_hermitian_oracle(m)
    assert got == sorted(got, reverse=True)
    assert max(abs(a - b) for a, b in zip(got, (0.4, 0.3, 0.2, 0.1))) <= 1e-15


def test_oracle_rejects_non_hermitian():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 1] = 1.0
    with pytest.raises(ValueError):
        eig_hermitian_oracle(m)


def test_oracle_sweep_cap():
    rng = np.random.default_rng(12)
    with pytest.raises(OracleConvergenceError):
        eig_hermitian_oracle(random_hermitian(rng), max_sweeps=0)
