"""Pauli-basis decomposition, partial trace, and the partial transpose."""

import numpy as np
import pytest

from twoqubit.bloch import (
    PSD_TOL,
    from_bloch,
    partial_transpose,
    partial_transpose_bloch,
    reduced_state,
    to_bloch,
    validate_density_matrix,
)
from twoqubit.linalg import eig_hermitian_oracle
from twoqubit.sampling import (
    bell_state,
    ginibre_density,
    haar_pure,
    pure_density,
    rank_deficient_density,
)


def haar_rotated(spectrum, rng):
    """U diag(spectrum) U^dag with U Haar (QR of a complex Ginibre matrix)."""
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, r = np.linalg.qr(z)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    m = u @ np.diag(spectrum) @ u.conj().T
    return (m + m.conj().T) / 2.0


def test_round_trip_matrix_bloch_matrix():
    rng = np.random.default_rng(21)
    for _ in range(200):
        rho = ginibre_density(rng)
        back = from_bloch(to_bloch(rho))
        assert np.max(np.abs(back - rho)) <= 1e-13


def test_round_trip_bloch_matrix_bloch():
    rng = np.random.default_rng(22)
    for _ in range(200):
        t = to_bloch(ginibre_density(rng))
        assert np.max(np.abs(to_bloch(from_bloch(t)) - t)) <= 1e-13


def test_maximally_mixed_tensor():
    t = to_bloch(np.eye(4, dtype=complex) / 4.0)
    want = np.zeros((4, 4))
    want[0, 0] = 1.0
    assert np.max(np.abs(t - want)) <= 1e-15


def test_bell_tensor():
    """|Phi+> has no local polarization and correlation diag(1, -1, 1)."""
    t = to_bloch(pure_density(bell_state()))
    assert abs(t[0, 0] - 1.0) <= 1e-15
    assert np.max(np.abs(t[1:, 0])) <= 1e-15
    assert np.max(np.abs(t[0, 1:])) <= 1e-15
    assert np.max(np.abs(t[1:, 1:] - np.diag([1.0, -1.0, 1.0]))) <= 1e-15


def test_reduced_states_match_partial_trace():
    rng = np.random.default_rng(23)
    for _ in range(100):
        rho = ginibre_density(rng)
        t = to_bloch(rho)
        r = rho.reshape(2, 2, 2, 2)
        want_a = np.einsum("ikjk->ij", r)
        want_b = np.einsum("kikj->ij", r)
        assert np.max(np.abs(reduced_state(t, "A") - want_a)) <= 1e-13
        assert np.max(np.abs(reduced_state(t, "B") - want_b)) <= 1e-13


def test_reduced_state_subsystem_name():
    t = to_bloch(np.eye(4, dtype=complex) / 4.0)
    with pytest.raises(ValueError):
        reduced_state(t, "C")


def test_partial_transpose_explicit():
    # Index bookkeeping on a matrix of distinct entries: transposing qubit B
    # swaps the column index within each 2x2 block.
    m = np.arange(16, dtype=complex).reshape(4, 4)
    want = np.array(
        [
            [0, 4, 2, 6],
            [1, 5, 3, 7],
            [8, 12, 10, 14],
            [9, 13, 11, 15],
        ],
        dtype=complex,
    )
    assert np.array_equal(partial_transpose(m), want)


def test_partial_transpose_is_involution():
    rng = np.random.default_rng(24)
    rho = ginibre_density(rng)
    assert np.max(np.abs(partial_transpose(partial_transpose(rho)) - rho)) == 0.0


def test_partial_transpose_bloch_matches_matrix_route():
    rng = np.random.default_rng(25)
    for _ in range(100):
        rho = ginibre_density(rng)
        t = to_bloch(rho)
        want = to_bloch(partial_transpose(rho))
        assert np.max(np.abs(partial_transpose_bloch(t) - want)) <= 1e-13


def test_validate_rejects_bad_matrices():
    with pytest.raises(ValueError):
        validate_density_matrix(np.eye(3) / 3.0)
    bad = np.eye(4, dtype=complex) / 4.0
    bad[0, 1] = 0.5
    with pytest.raises(ValueError):
        validate_density_matrix(bad)  # not Hermitian
    with pytest.raises(ValueError):
        validate_density_matrix(np.eye(4, dtype=complex) / 2.0)  # trace 2
    neg = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        validate_density_matrix(neg)
    huge = np.eye(4, dtype=complex) / 4.0
    huge[0, 1] = huge[1, 0] = 1e200  # finite, and no OverflowError on the way
    with pytest.raises(ValueError, match=r"semidefinite \(min eig -1\.000e\+200\)"):
        validate_density_matrix(huge)


def test_validate_rejects_flushed_negative_eigenvalue():
    """The closed form's b0 ~ 0 gate can report 0.0 for the smallest
    eigenvalue of this spectrum; the PSD check must still see -1e-9."""
    rng = np.random.default_rng(41)
    spectrum = (0.5, 0.5 - 1e-5 + 1e-9, 1e-5, -1e-9)
    for _ in range(20):
        with pytest.raises(ValueError, match="not positive semidefinite"):
            validate_density_matrix(haar_rotated(spectrum, rng))


def test_validate_psd_threshold():
    rng = np.random.default_rng(42)
    for _ in range(20):
        with pytest.raises(ValueError, match=r"min eig -2\.000e-10"):
            validate_density_matrix(haar_rotated((0.5, 0.3, 0.2 + 2e-10, -2e-10), rng))
        validate_density_matrix(haar_rotated((0.5, 0.3, 0.2 + 5e-11, -5e-11), rng))
        validate_density_matrix(pure_density(haar_pure(rng)))
        validate_density_matrix(rank_deficient_density(rng, 2))


def test_validate_psd_agrees_with_oracle():
    """Accepted exactly when the oracle's smallest eigenvalue is >= -PSD_TOL:
    on seeded states as drawn, and on the same states shifted and rescaled
    so the smallest eigenvalue lands within 3e-10 of zero."""
    rng = np.random.default_rng(43)
    states = [ginibre_density(rng) for _ in range(200)]
    states += [rank_deficient_density(rng, 1 + k % 3) for k in range(200)]
    states += [pure_density(haar_pure(rng)) for _ in range(200)]
    shifted = []
    for m in states:
        target = rng.uniform(-3e-10, 3e-10)
        d = (eig_hermitian_oracle(m)[-1] - target) / (1.0 - 4.0 * target)
        shifted.append((m - d * np.eye(4)) / (1.0 - 4.0 * d))
    accepted = []
    for m in states + shifted:
        try:
            validate_density_matrix(m)
            accepted.append(True)
        except ValueError:
            accepted.append(False)
        assert accepted[-1] == (eig_hermitian_oracle(m)[-1] >= -PSD_TOL)
    assert all(accepted[: len(states)])
    assert 0 < sum(accepted[len(states):]) < len(shifted)


def test_to_bloch_requires_unit_trace():
    with pytest.raises(ValueError):
        to_bloch(np.eye(4, dtype=complex) / 2.0)


@pytest.mark.parametrize(
    "entry, bad", [((0, 1), 1e-6j), ((0, 1), np.nan), ((2, 2), np.nan), ((1, 3), np.inf)]
)
def test_to_bloch_rejects_non_hermitian_and_non_finite(entry, bad):
    """The imaginary-part check is also to_bloch's hermiticity and
    finiteness check: an asymmetric 1e-6j entry leaves imaginary Bloch
    coefficients of that size, and a NaN or inf entry leaves NaN ones."""
    m = np.eye(4, dtype=complex) / 4.0
    m[entry] += bad
    with pytest.raises(ValueError):
        to_bloch(m)


def test_from_bloch_guards():
    t = np.zeros((4, 4))
    t[0, 0] = 0.5
    with pytest.raises(ValueError):
        from_bloch(t)
    with pytest.raises(ValueError):
        from_bloch(np.zeros((3, 4)))
    t = np.zeros((4, 4))
    t[0, 0] = 1.0
    t[1, 1] = np.inf
    with pytest.raises(ValueError):
        from_bloch(t)
