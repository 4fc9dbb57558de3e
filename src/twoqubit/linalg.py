"""Dense complex 4x4 matrix helpers.

Pauli constants, characteristic polynomial coefficients via the
Faddeev-LeVerrier recurrence (written out once, on plain Python complex
numbers; the reference route for the Bloch formulas, which no closed form
takes), and a self-contained cyclic Jacobi eigensolver. The Jacobi
routine is the numerical oracle every closed-form solver in this package
is cross-checked against, so it deliberately shares no code with the
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


def _flv(x) -> tuple[complex, complex, complex, complex]:
    """(c0, c1, c2, c3) of the monic characteristic polynomial of the 4x4
    matrix X with rows x, by the Faddeev-LeVerrier recurrence

        c3 = -tr X,  N2 = X (X + c3 I),  c2 = -tr N2 / 2,
        N3 = X (N2 + c2 I),  c1 = -tr N3 / 3,  c0 = -tr X (N3 + c1 I) / 4,

    written out term by term on plain Python complex numbers: at this size
    a numpy call costs more in dispatch than the arithmetic it does. The
    last product is never formed, only its trace.
    """
    (x00, x01, x02, x03), (x10, x11, x12, x13), (x20, x21, x22, x23), (x30, x31, x32, x33) = x
    c3 = -(x00 + x11 + x22 + x33)
    # d and e: the diagonals of X + c3 I and of N2 + c2 I.
    d0 = x00 + c3
    d1 = x11 + c3
    d2 = x22 + c3
    d3 = x33 + c3
    n00 = x00 * d0 + x01 * x10 + x02 * x20 + x03 * x30
    n01 = x00 * x01 + x01 * d1 + x02 * x21 + x03 * x31
    n02 = x00 * x02 + x01 * x12 + x02 * d2 + x03 * x32
    n03 = x00 * x03 + x01 * x13 + x02 * x23 + x03 * d3
    n10 = x10 * d0 + x11 * x10 + x12 * x20 + x13 * x30
    n11 = x10 * x01 + x11 * d1 + x12 * x21 + x13 * x31
    n12 = x10 * x02 + x11 * x12 + x12 * d2 + x13 * x32
    n13 = x10 * x03 + x11 * x13 + x12 * x23 + x13 * d3
    n20 = x20 * d0 + x21 * x10 + x22 * x20 + x23 * x30
    n21 = x20 * x01 + x21 * d1 + x22 * x21 + x23 * x31
    n22 = x20 * x02 + x21 * x12 + x22 * d2 + x23 * x32
    n23 = x20 * x03 + x21 * x13 + x22 * x23 + x23 * d3
    n30 = x30 * d0 + x31 * x10 + x32 * x20 + x33 * x30
    n31 = x30 * x01 + x31 * d1 + x32 * x21 + x33 * x31
    n32 = x30 * x02 + x31 * x12 + x32 * d2 + x33 * x32
    n33 = x30 * x03 + x31 * x13 + x32 * x23 + x33 * d3
    c2 = -(n00 + n11 + n22 + n33) / 2.0
    e0 = n00 + c2
    e1 = n11 + c2
    e2 = n22 + c2
    e3 = n33 + c2
    p00 = x00 * e0 + x01 * n10 + x02 * n20 + x03 * n30
    p01 = x00 * n01 + x01 * e1 + x02 * n21 + x03 * n31
    p02 = x00 * n02 + x01 * n12 + x02 * e2 + x03 * n32
    p03 = x00 * n03 + x01 * n13 + x02 * n23 + x03 * e3
    p10 = x10 * e0 + x11 * n10 + x12 * n20 + x13 * n30
    p11 = x10 * n01 + x11 * e1 + x12 * n21 + x13 * n31
    p12 = x10 * n02 + x11 * n12 + x12 * e2 + x13 * n32
    p13 = x10 * n03 + x11 * n13 + x12 * n23 + x13 * e3
    p20 = x20 * e0 + x21 * n10 + x22 * n20 + x23 * n30
    p21 = x20 * n01 + x21 * e1 + x22 * n21 + x23 * n31
    p22 = x20 * n02 + x21 * n12 + x22 * e2 + x23 * n32
    p23 = x20 * n03 + x21 * n13 + x22 * n23 + x23 * e3
    p30 = x30 * e0 + x31 * n10 + x32 * n20 + x33 * n30
    p31 = x30 * n01 + x31 * e1 + x32 * n21 + x33 * n31
    p32 = x30 * n02 + x31 * n12 + x32 * e2 + x33 * n32
    p33 = x30 * n03 + x31 * n13 + x32 * n23 + x33 * e3
    c1 = -(p00 + p11 + p22 + p33) / 3.0
    c0 = -(
        x00 * (p00 + c1) + x01 * p10 + x02 * p20 + x03 * p30
        + x10 * p01 + x11 * (p11 + c1) + x12 * p21 + x13 * p31
        + x20 * p02 + x21 * p12 + x22 * (p22 + c1) + x23 * p32
        + x30 * p03 + x31 * p13 + x32 * p23 + x33 * (p33 + c1)
    ) / 4.0
    return c0, c1, c2, c3


def charpoly_flv(m) -> MonicQuartic:
    """Characteristic polynomial of a 4x4 matrix by Faddeev-LeVerrier.

    Exact in rational arithmetic; in floats the error is a modest multiple of
    machine epsilon for well-scaled matrices. The coefficients of a Hermitian
    input are real; an imaginary part above 1e-12 raises ValueError. A
    reference route: the closed forms read theirs off the Bloch tensor.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError("expected a 4x4 matrix")
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("matrix contains non-finite entries")
    coeffs = _flv(m.tolist())
    worst = max(abs(c.imag) for c in coeffs)
    if worst > 1e-12:
        raise ValueError(f"characteristic polynomial is not real (imag {worst:.3e})")
    return MonicQuartic(*(c.real for c in coeffs))


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
