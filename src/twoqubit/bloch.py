"""Pauli (Bloch) tensor form of two-qubit operators.

A Hermitian trace-one 4x4 matrix rho is expanded as

    rho = (1/4) sum_{mu,nu} a[mu,nu] sigma_mu (x) sigma_nu,
    a[mu,nu] = Tr(rho sigma_mu (x) sigma_nu),

with mu indexing qubit A and nu qubit B. The tensor is stored as a real
(4, 4) array with a[0, 0] = 1. Useful views: a[1:, 0] is qubit A's
polarization vector, a[0, 1:] qubit B's, and a[1:, 1:] the 3x3 correlation
block.
"""

from __future__ import annotations

import numpy as np

from .linalg import PAULIS, is_hermitian, kron

# Stacked sigma_mu (x) sigma_nu basis, indexed [mu, nu, i, j].
_BASIS = np.array([[kron(PAULIS[m], PAULIS[n]) for n in range(4)] for m in range(4)])

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10


def validate_density_matrix(m):
    """Check that m is a physical two-qubit state and return it as complex.

    Verifies finiteness, hermiticity, unit trace and positive
    semidefiniteness, the last from the smallest eigenvalue of LAPACK's
    Hermitian solver (``np.linalg.eigvalsh``), which shares no code with
    the closed forms it guards.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError("expected a 4x4 matrix")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")
    if not is_hermitian(m, tol=HERMITIAN_TOL):
        raise ValueError("matrix is not Hermitian")
    tr = complex(m.trace())
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"trace must be one, got {tr}")
    # Not the closed-form spectrum: its b0 ~ 0 gate flushes a lambda_min of
    # -1e-9 to 0.0 on some rotated spectra, which would pass a bad matrix.
    lo = float(np.linalg.eigvalsh(m)[0])
    if lo < -PSD_TOL:
        raise ValueError(f"matrix is not positive semidefinite (min eig {lo:.3e})")
    return m


def to_bloch(rho):
    """Bloch tensor a[mu, nu] = Tr(rho sigma_mu (x) sigma_nu) of a Hermitian
    trace-one matrix. The imaginary parts of the traces must vanish, which
    checks hermiticity (for rho = H + iK, each |K_ij| <= max |Im a| with
    Im a = Tr(K sigma_mu (x) sigma_nu)) and finiteness."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError("expected a 4x4 matrix")
    a = np.einsum("mnij,ji->mn", _BASIS, rho)
    if not np.abs(a.imag).max() <= 1e-10:
        raise ValueError("Bloch coefficients are not real")
    a = a.real.copy()
    if abs(a[0, 0] - 1.0) > TRACE_TOL:
        raise ValueError(f"trace must be one, got {a[0, 0]}")
    a[0, 0] = 1.0
    return a


def from_bloch(t):
    """Reassemble the 4x4 matrix from its Bloch tensor."""
    t = np.asarray(t, dtype=float)
    if t.shape != (4, 4):
        raise ValueError("expected a (4, 4) Bloch tensor")
    if not np.all(np.isfinite(t)):
        raise ValueError("tensor contains non-finite entries")
    if abs(t[0, 0] - 1.0) > TRACE_TOL:
        raise ValueError("a[0, 0] must equal 1")
    return np.einsum("mnij,mn->ij", _BASIS, t) / 4.0


def reduced_state(t, subsystem: str):
    """Single-qubit reduced density matrix read off a Bloch tensor.

    ``subsystem`` is "A" or "B". Tracing out the partner leaves
    (sigma_0 + xi . sigma) / 2 with xi the corresponding polarization view.
    """
    t = np.asarray(t, dtype=float)
    if subsystem == "A":
        xi = t[1:, 0]
    elif subsystem == "B":
        xi = t[0, 1:]
    else:
        raise ValueError("subsystem must be 'A' or 'B'")
    out = PAULIS[0].copy()
    for i in range(3):
        out += xi[i] * PAULIS[i + 1]
    return out / 2.0


def partial_transpose(m):
    """Partial transpose over qubit B: entry (2i+k, 2j+l) -> (2i+l, 2j+k).

    An involution that preserves trace and hermiticity. The spectrum is
    independent of which qubit is transposed, so fixing B is a pure
    convention.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError("expected a 4x4 matrix")
    return m.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def partial_transpose_bloch(t):
    """Partial transpose in Bloch form: negate the nu = 2 column.

    sigma_y is the only Pauli that changes sign under transposition, so
    transposing qubit B flips exactly the a[mu, 2] coefficients.
    """
    t = np.asarray(t, dtype=float)
    if t.shape != (4, 4):
        raise ValueError("expected a (4, 4) Bloch tensor")
    out = t.copy()
    out[:, 2] = -out[:, 2]
    return out
