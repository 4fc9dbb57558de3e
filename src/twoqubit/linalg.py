"""Dense complex 4x4 matrix helpers.

Pauli constants, characteristic polynomial coefficients via the
Faddeev-LeVerrier recurrence (numpy products on the matrix itself; the
reference route for the Bloch formulas, which no closed form takes), and
a self-contained cyclic Jacobi eigensolver. The Jacobi routine is the
numerical oracle every closed-form solver in this package is
cross-checked against, so it deliberately shares no code with the
trigonometric root formulas: no characteristic polynomials, no resolvent
tricks, just plane rotations.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import OracleConvergenceError

# ---------------------------------------------------------------------------
# Pauli matrices
# ---------------------------------------------------------------------------

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (SIGMA_0, SIGMA_X, SIGMA_Y, SIGMA_Z)


def kron(a, b):
    """Kronecker product; the first factor is qubit A, the second qubit B."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def is_hermitian(m, tol: float = 1e-10) -> bool:
    m = np.asarray(m)
    return bool(np.abs(m - m.conj().T).max() <= tol)


def trace_power(m, k: int) -> float:
    """Tr(m^k) for a small positive integer power.

    Returns the real part; the imaginary part must be negligible, which holds
    for Hermitian inputs and for products of Hermitian factors.
    """
    if k < 1:
        raise ValueError("power must be a positive integer")
    m = np.asarray(m, dtype=complex)
    acc = m
    for _ in range(k - 1):
        acc = acc @ m
    tr = complex(np.trace(acc))
    if abs(tr.imag) > 1e-9 * max(1.0, abs(tr.real)):
        raise ValueError(f"trace of power {k} is not real: {tr}")
    return tr.real


class MonicQuartic(NamedTuple):
    """Coefficients of lambda^4 + c3 lambda^3 + c2 lambda^2 + c1 lambda + c0."""

    c0: float
    c1: float
    c2: float
    c3: float


def charpoly_flv(m) -> MonicQuartic:
    """Characteristic polynomial of a 4x4 matrix by Faddeev-LeVerrier.

    The recurrence runs on the array itself, each step forming X N + c X
    for X (N + c I). Exact in rational arithmetic; in floats the error is
    a modest multiple of machine epsilon for well-scaled matrices. The
    coefficients of a Hermitian input are real; an imaginary part above
    1e-12 raises ValueError. A reference route: the closed forms read
    theirs off the Bloch tensor.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError("expected a 4x4 matrix")
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("matrix contains non-finite entries")
    c3 = -m.trace()
    n = m @ m + c3 * m
    c2 = -n.trace() / 2.0
    n = m @ n + c2 * m
    c1 = -n.trace() / 3.0
    c0 = -(m @ n + c1 * m).trace() / 4.0
    coeffs = (c0, c1, c2, c3)
    worst = max(abs(c.imag) for c in coeffs)
    if worst > 1e-12:
        raise ValueError(f"characteristic polynomial is not real (imag {worst:.3e})")
    return MonicQuartic(*(float(c.real) for c in coeffs))


# ---------------------------------------------------------------------------
# Jacobi oracle
# ---------------------------------------------------------------------------

_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def eig_hermitian_oracle(m, tol: float = 1e-14, max_sweeps: int = 60):
    """Eigenvalues of a 4x4 Hermitian matrix by cyclic complex Jacobi rotations.

    Parameters
    ----------
    m : array_like
        Hermitian 4x4 matrix.
    tol : float
        Convergence threshold on the Frobenius norm of the off-diagonal part.
    max_sweeps : int
        Hard cap on full rotation sweeps; exceeding it raises
        OracleConvergenceError rather than looping forever.

    Returns
    -------
    list of float
        The four eigenvalues sorted in descending order.
    """
    arr = np.asarray(m, dtype=complex)
    if arr.shape != (4, 4):
        raise ValueError("expected a 4x4 matrix")
    if not is_hermitian(arr, tol=1e-8):
        raise ValueError("matrix is not Hermitian")

    # Work on plain Python complex scalars: for a single 4x4 this is much
    # faster than elementwise numpy and keeps the routine dependency-free.
    a = [[complex(arr[i, j]) for j in range(4)] for i in range(4)]

    for _ in range(max_sweeps):
        off = math.sqrt(2.0 * sum(abs(a[p][q]) ** 2 for p, q in _PAIRS))
        if off <= tol:
            break
        for p, q in _PAIRS:
            apq = a[p][q]
            r = abs(apq)
            if r == 0.0:
                continue
            phase = apq / r
            theta = (a[q][q].real - a[p][p].real) / (2.0 * r)
            if theta >= 0.0:
                t = 1.0 / (theta + math.sqrt(theta * theta + 1.0))
            else:
                t = -1.0 / (-theta + math.sqrt(theta * theta + 1.0))
            c = 1.0 / math.sqrt(t * t + 1.0)
            sig = t * c
            s = sig * phase
            sbar = s.conjugate()

            app = a[p][p].real
            aqq = a[q][q].real
            a[p][p] = complex(c * c * app - 2.0 * c * sig * r + sig * sig * aqq)
            a[q][q] = complex(c * c * aqq + 2.0 * c * sig * r + sig * sig * app)
            a[p][q] = 0.0j
            a[q][p] = 0.0j
            for k in range(4):
                if k == p or k == q:
                    continue
                akp = a[k][p]
                akq = a[k][q]
                new_p = c * akp - sbar * akq
                new_q = s * akp + c * akq
                a[k][p] = new_p
                a[p][k] = new_p.conjugate()
                a[k][q] = new_q
                a[q][k] = new_q.conjugate()
    else:
        off = math.sqrt(2.0 * sum(abs(a[p][q]) ** 2 for p, q in _PAIRS))
        if off > tol:
            raise OracleConvergenceError(
                f"Jacobi did not reach off-norm {tol} in {max_sweeps} sweeps (off={off:.3e})"
            )

    return sorted((a[i][i].real for i in range(4)), reverse=True)
