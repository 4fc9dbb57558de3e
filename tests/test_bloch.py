"""Pauli-basis decomposition, partial trace, and the partial transpose."""

import numpy as np
import pytest

from twoqubit.bloch import (
    from_bloch,
    partial_transpose,
    partial_transpose_bloch,
    reduced_state,
    to_bloch,
    validate_density_matrix,
)
from twoqubit.sampling import bell_state, ginibre_density, pure_density


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


def test_to_bloch_requires_unit_trace():
    with pytest.raises(ValueError):
        to_bloch(np.eye(4, dtype=complex) / 2.0)


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
