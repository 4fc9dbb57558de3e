"""Dense complex 4x4 matrix helpers.

Pauli constants, the input read and Hermitian-asymmetry measure that
validation and the oracle share (_read, _asymmetry), characteristic
polynomial coefficients via the Faddeev-LeVerrier recurrence (numpy
products on the matrix itself; the reference route for the Bloch
formulas, which no closed form takes), and a self-contained cyclic Jacobi
eigensolver. The Jacobi routine is the numerical oracle every closed-form
solver in this package is cross-checked against, so it deliberately
shares no code with the trigonometric root formulas: no characteristic
polynomials, no resolvent tricks, just plane rotations.
"""

from __future__ import annotations

import cmath
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


def _read(m) -> tuple[np.ndarray, list]:
    """m as a complex array and as rows of Python complex numbers;
    ValueError unless it is 4x4 with finite entries."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError("expected a 4x4 matrix")
    rows = m.tolist()
    if not all(map(cmath.isfinite, rows[0] + rows[1] + rows[2] + rows[3])):
        raise ValueError("matrix contains non-finite entries")
    return m, rows


def _asymmetry(rows) -> float:
    """max |m_ij - conj(m_ji)| of a matrix read by _read, as is_hermitian
    takes it: the (i, j) and (j, i) differences have one modulus, and a
    diagonal entry's is |2 Im m_ii|. A finite difference whose modulus
    overflows reads inf; callers test ``not gap <= tol``, which NaN fails."""
    (r00, r01, r02, r03), (r10, r11, r12, r13), (r20, r21, r22, r23), (r30, r31, r32, r33) = rows
    try:
        return max(
            2.0 * abs(r00.imag),
            2.0 * abs(r11.imag),
            2.0 * abs(r22.imag),
            2.0 * abs(r33.imag),
            abs(r01 - r10.conjugate()),
            abs(r02 - r20.conjugate()),
            abs(r03 - r30.conjugate()),
            abs(r12 - r21.conjugate()),
            abs(r13 - r31.conjugate()),
            abs(r23 - r32.conjugate()),
        )
    except OverflowError:
        return math.inf


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
    coefficients of a Hermitian input are real; ValueError if the
    imaginary part of a c_k exceeds 1e-12 max(1, max |m_ij|)^(4 - k). A
    reference route: the closed forms read theirs off the Bloch tensor.
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
    if max(abs(c.imag) for c in coeffs) > 1e-12:
        # c_k is of degree 4 - k in the entries: gate it at that power of
        # their scale, which leaves trace-one inputs at 1e-12.
        scale = max(1.0, float(np.abs(m).max()))
        worst = max(abs(c.imag) / scale ** (4 - k) for k, c in enumerate(coeffs))
        if worst > 1e-12:
            raise ValueError(f"characteristic polynomial is not real (imag {worst:.3e})")
    return MonicQuartic(*(float(c.real) for c in coeffs))


# ---------------------------------------------------------------------------
# Jacobi oracle
# ---------------------------------------------------------------------------

_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _rotation_plan() -> tuple:
    """Per pair (p, q) of _PAIRS, in order: p, q, the pair's slot, and for
    each of the two other indices k the slots of a[k][p] and a[k][q] among
    the upper off-diagonal entries, each with whether that slot holds the
    entry's conjugate: a[k][p] with k > p is stored as a[p][k]."""
    slot = {pq: j for j, pq in enumerate(_PAIRS)}

    def entry(k, i):
        return slot[min(k, i), max(k, i)], k > i

    return tuple(
        (p, q, slot[p, q], tuple(entry(k, p) + entry(k, q) for k in range(4) if k not in (p, q)))
        for p, q in _PAIRS
    )


_PLAN = _rotation_plan()


def eig_hermitian_oracle(m, tol: float = 1e-14, max_sweeps: int = 60):
    """Eigenvalues of a 4x4 Hermitian matrix by cyclic complex Jacobi rotations.

    The matrix is held in half storage: four real diagonal entries and the
    six upper off-diagonal ones a[p][q], p < q, in _PAIRS order. A rotation
    reads a[k][p] with k > p as the conjugate of a[p][k] and writes it back
    the same way (_PLAN), so the lower triangle is never formed.

    Parameters
    ----------
    m : array_like
        Hermitian 4x4 matrix with finite entries.
    tol : float
        Convergence threshold on the Frobenius norm of the off-diagonal part.
    max_sweeps : int
        Hard cap on full rotation sweeps; exceeding it raises
        OracleConvergenceError rather than looping forever.

    Returns
    -------
    list of float
        The four eigenvalues sorted in descending order.

    Raises ValueError unless m is 4x4 with finite entries (checked first)
    and each |m_ij - conj(m_ji)| is at most 1e-8.
    """
    _, rows = _read(m)
    if not _asymmetry(rows) <= 1e-8:
        raise ValueError("matrix is not Hermitian")

    # Plain Python numbers: for a single 4x4 this is much faster than
    # elementwise numpy and keeps the routine dependency-free.
    d = [rows[i][i].real for i in range(4)]
    u = [rows[p][q] for p, q in _PAIRS]

    for _ in range(max_sweeps):
        off = math.sqrt(2.0 * sum(abs(apq) ** 2 for apq in u))
        if off <= tol:
            break
        for p, q, pq, others in _PLAN:
            apq = u[pq]
            r = abs(apq)
            if r == 0.0:
                continue
            phase = apq / r
            app = d[p]
            aqq = d[q]
            theta = (aqq - app) / (2.0 * r)
            if theta >= 0.0:
                t = 1.0 / (theta + math.sqrt(theta * theta + 1.0))
            else:
                t = -1.0 / (-theta + math.sqrt(theta * theta + 1.0))
            c = 1.0 / math.sqrt(t * t + 1.0)
            sig = t * c
            s = sig * phase
            sbar = s.conjugate()

            d[p] = c * c * app - 2.0 * c * sig * r + sig * sig * aqq
            d[q] = c * c * aqq + 2.0 * c * sig * r + sig * sig * app
            u[pq] = 0.0j
            for kp, kp_conj, kq, kq_conj in others:
                akp = u[kp].conjugate() if kp_conj else u[kp]
                akq = u[kq].conjugate() if kq_conj else u[kq]
                new_p = c * akp - sbar * akq
                new_q = s * akp + c * akq
                u[kp] = new_p.conjugate() if kp_conj else new_p
                u[kq] = new_q.conjugate() if kq_conj else new_q
    else:
        off = math.sqrt(2.0 * sum(abs(apq) ** 2 for apq in u))
        if off > tol:
            raise OracleConvergenceError(
                f"Jacobi did not reach off-norm {tol} in {max_sweeps} sweeps (off={off:.3e})"
            )

    return sorted(d, reverse=True)
