"""Kronecker helper, Faddeev-LeVerrier coefficients, and the Jacobi oracle."""

import numpy as np
import pytest

import twoqubit.cli
from twoqubit.bloch import _pt_rows, partial_transpose
from twoqubit.errors import OracleConvergenceError
from twoqubit.linalg import (
    MonicQuartic,
    _flv,
    _jacobi,
    _read,
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


def _flv_one(m) -> MonicQuartic:
    """The recurrence on one 4x4 array, the reference the stacked _flv
    must equal bit for bit."""
    c3 = -m.trace()
    n = m @ m + c3 * m
    c2 = -n.trace() / 2.0
    n = m @ n + c2 * m
    c1 = -n.trace() / 3.0
    c0 = -(m @ n + c1 * m).trace() / 4.0
    return MonicQuartic(*(float(c.real) for c in (c0, c1, c2, c3)))


STACK_FAMILIES = {
    "ginibre": ginibre_density,
    "hermitian": random_hermitian_trace_one,
    "rank2": lambda rng: rank_deficient_density(rng, 2),
    "rank3": lambda rng: rank_deficient_density(rng, 3),
    "werner": lambda rng: werner_state(rng.uniform(-1.0 / 3.0, 1.0)),
    "near_quarter": near_quarter_density,
}


@pytest.mark.parametrize("n", [1, 7, 300])
def test_flv_stack_equals_the_one_matrix_recurrence(n):
    """Each matrix of a stack, and of its shift by I/4 as coeffs_from_traces
    runs it, gets the bits the recurrence on it alone gives."""
    rng = np.random.default_rng(40 + n)
    for name, draw in STACK_FAMILIES.items():
        ms = np.array([draw(rng) for _ in range(n)])
        for stack in (ms, ms - np.eye(4) / 4.0):
            got = _flv(stack)
            assert len(got) == n and all(type(c) is float for q in got for c in q)
            want = [_flv_one(m) for m in stack]
            assert np.array(got).tobytes() == np.array(want).tobytes(), name


def test_flv_stack_rejects_one_nonreal_matrix():
    rng = np.random.default_rng(47)
    bad = np.diag([0.5 + 0.2j, 0.5 - 0.1j, 0.0, -0.1j])
    with pytest.raises(ValueError) as alone:
        charpoly_flv(bad)
    ms = np.array([ginibre_density(rng) for _ in range(7)])
    ms[3] = bad
    with pytest.raises(ValueError, match="characteristic polynomial is not real") as stacked:
        _flv(ms)
    assert str(stacked.value) == str(alone.value)


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


@pytest.mark.parametrize("value", [1e160, 1e200, 1e300])
def test_oracle_answers_where_squares_overflow(value):
    """An off-diagonal modulus above about 1e154 squares past the float
    range, so the off-norm reads inf until rotations shrink it; the oracle
    still answers, here 1 +- value, which round to +-value."""
    m = np.eye(4, dtype=complex)
    m[0, 1] = m[1, 0] = value
    got = eig_hermitian_oracle(m)
    assert got == [value, 1.0, 1.0, -value]
    assert max(abs(a - b) for a, b in zip(got, np.linalg.eigvalsh(m)[::-1])) <= 1e-15 * value


def test_oracle_answers_on_huge_hermitian():
    """Random Hermitian matrices scaled by 1e150 to 1e200, and 50 at each
    fixed scale from 1e-15 to 1e100, agree with eigvalsh to 1e-14 of the
    largest |eigenvalue|: the sweep runs on m scaled exactly by a power of
    two, so its stop is relative. With an absolute stop, the scales 1e-15,
    1e-14 and 1e-12 came back 0.96, 0.17 and 7.9e-6 off. A zero matrix has
    four zero eigenvalues, and an entry whose modulus is past the float
    range puts an eigenvalue there and raises the typed error."""
    rng = np.random.default_rng(14)
    exponents = [*rng.uniform(150.0, 200.0, 200)]
    exponents += [e for e in (-15, -14, -12, -6, 0, 6, 100) for _ in range(50)]
    for e in exponents:
        m = random_hermitian(rng) * 10.0 ** e
        got = eig_hermitian_oracle(m)
        want = np.linalg.eigvalsh(m, UPLO="U")[::-1]
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-14 * abs(want).max()
    assert eig_hermitian_oracle(np.zeros((4, 4))) == [0.0, 0.0, 0.0, 0.0]
    m = np.eye(4, dtype=complex)
    m[0, 1] = 1.5e308 + 1.5e308j
    m[1, 0] = m[0, 1].conjugate()
    with pytest.raises(OracleConvergenceError, match="overflowed"):
        eig_hermitian_oracle(m)
    with pytest.raises(OracleConvergenceError, match="overflowed"):
        eig_hermitian_oracle(np.full((4, 4), 1.5e308))


def haar_unitary(rng, n):
    """n x n Haar unitary (QR of a complex Ginibre matrix)."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def haar_rotated(spectrum, rng):
    u = haar_unitary(rng, 4)
    return (u * spectrum) @ u.conj().T


def _werner_third(rng):
    """A Werner state at p = 1/3 +- 1e-9, the separability edge, under a
    Haar local unitary: a triple in rho, a single near 0 in rho's PT."""
    u = np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2))
    return u @ werner_state(1.0 / 3.0 + rng.choice((-1e-9, 1e-9))) @ u.conj().T


def _tiny_pair(rng):
    """Haar-rotated spectrum (a, b, e1, e2), e1 and e2 log-uniform in
    [1e-13, 1e-9], a + b + e1 + e2 = 1."""
    e = 10.0 ** rng.uniform(-13.0, -9.0, 2)
    a = rng.uniform(0.0, 1.0 - e.sum())
    return haar_rotated(np.array([a, 1.0 - e.sum() - a, e[0], e[1]]), rng)


def _double_pairs(rng):
    """Haar-rotated spectrum (x, x, 1/2 - x, 1/2 - x): two exact doubles."""
    x = rng.uniform(0.0, 0.5)
    return haar_rotated(np.array([x, x, 0.5 - x, 0.5 - x]), rng)


# Each clustered family with its gate, in ulps (2.2e-16) of the largest
# |eigenvalue|. Over 10000 draws of each (2000 of seed 160, then 8000 of
# seed 7) the largest errors were 3.0, 1.0, 2.3, 3.9 and 25 ulps, in
# order, and the gates are about twice those. The tiny pair's gate is set
# by the stopping rule instead: two eigenvalues closer than tol = 1e-14
# may be left with an entry of up to tol between them, which moves each
# by up to tol (Weyl), 45 ulps. Its 25 ulps came from such a pair, 1.2e-14
# apart at 1.6e-12; over the 2000 draws of seed 160 it was 5.4 ulps.
CLUSTERED_FAMILIES = {
    "near_quarter": (near_quarter_density, 6.0),
    "werner_third": (_werner_third, 2.0),
    "werner_third_pt": (_and_pt(_werner_third), 5.0),
    "tiny_pair": (_tiny_pair, 50.0),
    "double_pairs": (_double_pairs, 8.0),
}


@pytest.mark.parametrize("family", sorted(CLUSTERED_FAMILIES))
def test_oracle_accuracy_on_clustered_spectra(family):
    """The oracle against 40-digit mpmath eigenvalues of the matrix it
    reads (the upper triangle, mirrored), on spectra with clusters,
    near-zero eigenvalues or exact doubles. Every draw converges within
    6 sweeps, which pins the rotations' convergence speed."""
    mpmath = pytest.importorskip("mpmath")
    draw, gate = CLUSTERED_FAMILIES[family]
    rng = np.random.default_rng(sorted(CLUSTERED_FAMILIES).index(family) + 160)
    worst = 0.0
    for _ in range(200):
        m = draw(rng)
        upper = np.triu(m, 1)
        m = upper + upper.conj().T + np.diag(m.diagonal().real)
        with mpmath.workdps(40):
            want = mpmath.eigh(mpmath.matrix(m.tolist()), eigvals_only=True)
        want = sorted(map(float, want), reverse=True)
        got = eig_hermitian_oracle(m, max_sweeps=6)
        worst = max(worst, max(abs(a - b) for a, b in zip(got, want)) / max(map(abs, want)))
    assert worst <= gate * np.finfo(float).eps


def test_oracle_sweep_cap():
    rng = np.random.default_rng(12)
    with pytest.raises(OracleConvergenceError, match="relative off-norm 1e-14 in 0 sweeps"):
        eig_hermitian_oracle(random_hermitian(rng), max_sweeps=0)


@pytest.mark.parametrize("family", list(twoqubit.cli._FUZZ_FAMILIES))
def test_jacobi_on_rows_is_the_oracle_bit_for_bit(family):
    """The oracle's body on a matrix's rows, and on their partial
    transpose by row map, as fuzz runs it: the public oracle's bits on the
    matrix and on partial_transpose of it, 200 draws of each fuzz family."""
    draw = twoqubit.cli._FUZZ_FAMILIES[family]
    rng = np.random.default_rng(27)
    for _ in range(200):
        m = draw(rng)[0]
        rows = _read(m)[1]
        assert [x.hex() for x in _jacobi(rows)] == [x.hex() for x in eig_hermitian_oracle(m)]
        want = eig_hermitian_oracle(partial_transpose(m))
        assert [x.hex() for x in _jacobi(_pt_rows(rows))] == [x.hex() for x in want]


def test_jacobi_raises_the_oracle_errors():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 1] = 1.0
    with pytest.raises(ValueError, match="^matrix is not Hermitian$"):
        _jacobi(m.tolist())
    rng = np.random.default_rng(12)
    with pytest.raises(OracleConvergenceError, match="relative off-norm 1e-14 in 0 sweeps"):
        _jacobi(random_hermitian(rng).tolist(), max_sweeps=0)
