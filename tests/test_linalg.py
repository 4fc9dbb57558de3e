"""Kronecker helper, Faddeev-LeVerrier coefficients, and the Jacobi oracle."""

import numpy as np
import pytest

from twoqubit.bloch import partial_transpose
from twoqubit.errors import OracleConvergenceError
from twoqubit.linalg import (
    MonicQuartic,
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
    werner_state,
)


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


# Each family with the largest coefficient error it may show against
# np.poly of numpy's spectrum: 1.3e-15 on the trace-one states and 7.1e-14
# on the indefinite Hermitian ones, over 8000 draws of each.
CHARPOLY_FAMILIES = {
    "random_hermitian": (random_hermitian, 1e-12),
    "ginibre": (ginibre_density, 1e-14),
    "rank2": (lambda rng: rank_deficient_density(rng, 2), 1e-14),
    "rank3": (lambda rng: rank_deficient_density(rng, 3), 1e-14),
    "pure": (lambda rng: pure_density(haar_pure(rng)), 1e-14),
    "near_quarter": (near_quarter_density, 1e-14),
    "hermitian": (random_hermitian_trace_one, 1e-12),
}


def _charpoly_gap(got, want) -> float:
    """Largest |got - want| over c3, c2, c1, c0; want is np.poly's array
    (leading 1, then c3, c2, c1, c0). The coefficients must be floats."""
    assert all(type(c) is float for c in got)
    return max(abs(a - b) for a, b in zip((got.c3, got.c2, got.c1, got.c0), want[1:]))


def test_charpoly_matches_symmetric_functions():
    """FLV coefficients against the polynomial rebuilt from numpy's spectrum.

    Scaled Hermitian draws are compared at unit scale, c_k divided by
    scale^(4 - k): up to 1.1e-13 at scales 10, 100 and 1e3 over 4000
    draws each, all of which the imaginary-part gate must accept."""
    rng = np.random.default_rng(10)
    for name, (draw, gate) in CHARPOLY_FAMILIES.items():
        worst = 0.0
        for _ in range(200):
            m = draw(rng)
            worst = max(worst, _charpoly_gap(charpoly_flv(m), np.poly(np.linalg.eigvalsh(m))))
        assert worst <= gate, name
    for scale in (10.0, 100.0, 1e3):
        worst = 0.0
        for _ in range(200):
            m = scale * random_hermitian(rng)
            got = MonicQuartic(*(c / scale ** (4 - k) for k, c in enumerate(charpoly_flv(m))))
            want = np.poly(np.linalg.eigvalsh(m)) / scale ** np.arange(5)
            worst = max(worst, _charpoly_gap(got, want))
        assert worst <= 1e-12, scale


def test_charpoly_matches_numpy_on_real_nonsymmetric():
    """Real non-symmetric input, whose complex eigenvalues come in
    conjugate pairs: 1.1e-13 off np.poly of numpy's eigvals over 8000
    draws."""
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(200):
        m = rng.standard_normal((4, 4))
        worst = max(worst, _charpoly_gap(charpoly_flv(m), np.poly(np.linalg.eigvals(m))))
    assert worst <= 1e-12


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


def _lower_moved(rng):
    """A Hermitian draw whose strict lower triangle is moved by up to
    1e-9 per part off exact Hermiticity."""
    d = rng.uniform(-1e-9, 1e-9, (4, 4)) + 1j * rng.uniform(-1e-9, 1e-9, (4, 4))
    return random_hermitian(rng) + np.tril(d, -1)


def _and_pt(draw):
    return lambda rng: partial_transpose(draw(rng))


_DENSITY_FAMILIES = {
    "ginibre": ginibre_density,
    "rank2": lambda rng: rank_deficient_density(rng, 2),
    "rank3": lambda rng: rank_deficient_density(rng, 3),
    "werner": lambda rng: werner_state(rng.uniform(-1.0 / 3.0, 1.0)),
    "near_quarter": near_quarter_density,
    # np.outer(v, v.conj()): Hermitian only to about 1e-17
    "pure": lambda rng: pure_density(haar_pure(rng)),
}

# Each family with the largest eigenvalue error it may show against
# eigvalsh on the upper triangle, the half the oracle reads: over 4000
# draws each, 2.2e-15 on the states and their partial transposes and
# 8.0e-15 with the lower triangle moved (about 1e-9 against the default,
# lower-triangle eigvalsh).
ORACLE_FAMILIES = {
    "random_hermitian": (random_hermitian, 1e-12),
    **{name: (draw, 1e-14) for name, draw in _DENSITY_FAMILIES.items()},
    **{f"{name}_pt": (_and_pt(draw), 1e-14) for name, draw in _DENSITY_FAMILIES.items()},
    "lower_moved": (_lower_moved, 4e-14),
}


def test_oracle_matches_numpy():
    rng = np.random.default_rng(11)
    for name, (draw, gate) in ORACLE_FAMILIES.items():
        worst = 0.0
        for _ in range(500 if name == "random_hermitian" else 200):
            m = draw(rng)
            got = eig_hermitian_oracle(m)
            want = np.linalg.eigvalsh(m, UPLO="U")[::-1]
            worst = max(worst, max(abs(a - b) for a, b in zip(got, want)))
        assert worst <= gate, name


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


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", [(0, 0), (1, 2)], ids=["diagonal", "off"])
def test_oracle_rejects_non_finite(entry, value):
    """A non-finite entry is named as such, before the Hermitian check
    (which NaN would fail with the wrong message) and without a warning."""
    m = np.eye(4, dtype=complex) / 4.0
    m[entry] = value
    with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
        eig_hermitian_oracle(m)


def test_oracle_sweep_cap():
    rng = np.random.default_rng(12)
    with pytest.raises(OracleConvergenceError):
        eig_hermitian_oracle(random_hermitian(rng), max_sweeps=0)
