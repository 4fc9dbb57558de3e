"""Dense complex 4x4 matrix helpers.

Pauli constants, the input read and Hermitian-asymmetry measure that
validation and the oracle share (_read, _asymmetry), characteristic
polynomial coefficients via the Faddeev-LeVerrier recurrence (numpy
products on a stack of matrices, one matrix being a stack of one; the
reference route for the Bloch formulas, which no closed form takes), and
a self-contained cyclic Jacobi eigensolver. The Jacobi routine is the
numerical oracle every closed-form solver in this package is
cross-checked against, so it deliberately shares no code with the
trigonometric root formulas: no characteristic polynomials, no resolvent
tricks, just plane rotations. Its body, _jacobi, takes the rows _read
gives, so a caller that holds them reads nothing twice. Its sweep is
written out on the half-storage entries as locals, six rotations with
their conjugates fixed in the formulas, and each moves the diagonal in
Rutishauser's form.
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
    return _flv(_read(m)[0][None])[0]


def _flv(m: np.ndarray) -> list[MonicQuartic]:
    """charpoly_flv on each matrix of an (N, 4, 4) complex stack with finite
    entries (_read arrays, or shifts of them), in one numpy recurrence.
    Each product and trace is its own matrix's, so matrix i's coefficients
    are those of the stack of one that holds it; the first matrix that
    fails the imaginary-part gate raises."""
    c3 = -m.trace(axis1=-2, axis2=-1)
    n = m @ m + c3[:, None, None] * m
    c2 = -n.trace(axis1=-2, axis2=-1) / 2.0
    n = m @ n + c2[:, None, None] * m
    c1 = -n.trace(axis1=-2, axis2=-1) / 3.0
    c0 = -(m @ n + c1[:, None, None] * m).trace(axis1=-2, axis2=-1) / 4.0
    coeffs = np.array((c0, c1, c2, c3))
    imag = np.abs(coeffs.imag)
    if imag.max() > 1e-12:
        # c_k is of degree 4 - k in the entries: gate it at that power of
        # their scale, which leaves trace-one inputs at 1e-12.
        for i in np.flatnonzero(imag.max(axis=0) > 1e-12):
            scale = max(1.0, float(np.abs(m[i]).max()))
            worst = max(imag[k, i] / scale ** (4 - k) for k in range(4))
            if worst > 1e-12:
                raise ValueError(f"characteristic polynomial is not real (imag {worst:.3e})")
    return [MonicQuartic(*q) for q in coeffs.real.T.tolist()]


# ---------------------------------------------------------------------------
# Jacobi oracle
# ---------------------------------------------------------------------------

# The oracle's stop: the Frobenius norm of the off-diagonal part of m,
# scaled exactly by a power of two to entries of order one, so the stop is
# relative and no square can overflow.
_ORACLE_TOL = 1e-14
_ORACLE_MAX_SWEEPS = 60  # full sweeps before OracleConvergenceError


def eig_hermitian_oracle(m):
    """Eigenvalues of a 4x4 Hermitian matrix by cyclic complex Jacobi rotations.

    The matrix is held in half storage, as locals: the four real diagonal
    entries d0..d3 and the six upper off-diagonal ones u01, u02, u03, u12,
    u13, u23. A sweep rotates the pairs (0, 1), (0, 2), (0, 3), (1, 2),
    (1, 3), (2, 3) in that order, each written out: a[k][p] with k > p is
    the conjugate of the stored u_pk, so each update of the two other rows
    carries its conjugates in its formula and the lower triangle is never
    formed. A rotation with t = tan of its angle moves the diagonal in
    Rutishauser's form, d_p -= t |a_pq| and d_q += t |a_pq|.

    Parameters
    ----------
    m : array_like
        Hermitian 4x4 matrix with finite entries. One not converged in
        _ORACLE_MAX_SWEEPS (60) sweeps raises OracleConvergenceError.

    Returns
    -------
    list of float
        The four eigenvalues sorted in descending order.

    Raises ValueError unless m is 4x4 with finite entries (checked first)
    and each |m_ij - conj(m_ji)| is at most 1e-8. An entry or eigenvalue
    whose modulus exceeds the float range raises OracleConvergenceError.
    """
    return _jacobi(_read(m)[1])


def _jacobi(rows):
    """eig_hermitian_oracle after its read: the oracle's whole body on rows
    of Python complex numbers as _read gives them (or bloch._pt_rows of
    such rows), with the same errors in the same order."""
    if not _asymmetry(rows) <= 1e-8:
        raise ValueError("matrix is not Hermitian")

    # Plain Python numbers: for a single 4x4 this is much faster than
    # elementwise numpy and keeps the routine dependency-free.
    (d0, u01, u02, u03), (_, d1, u12, u13), (_, _, d2, u23), (_, _, _, d3) = rows
    # Scaled exactly by f = 2^-e, which puts the largest real or imaginary
    # part in [1/2, 1); e stops at -1022, where f would pass the float range.
    big = max(
        abs(d0.real), abs(d1.real), abs(d2.real), abs(d3.real), abs(u01.real), abs(u01.imag),
        abs(u02.real), abs(u02.imag), abs(u03.real), abs(u03.imag), abs(u12.real),
        abs(u12.imag), abs(u13.real), abs(u13.imag), abs(u23.real), abs(u23.imag),
    )
    ldexp = math.ldexp
    e = max(math.frexp(big)[1], -1022)
    f = ldexp(1.0, -e)
    d0, d1, d2, d3 = d0.real * f, d1.real * f, d2.real * f, d3.real * f
    u01, u02, u03, u12, u13, u23 = u01 * f, u02 * f, u03 * f, u12 * f, u13 * f, u23 * f
    sqrt = math.sqrt
    # The squared off-norm 2 sum |u|^2 against _ORACLE_TOL^2.
    half_tol_sq = 0.5 * _ORACLE_TOL * _ORACLE_TOL
    cap = _ORACLE_MAX_SWEEPS
    sweeps = 0
    while True:
        off_sq = (
            u01.real * u01.real + u01.imag * u01.imag
            + u02.real * u02.real + u02.imag * u02.imag
            + u03.real * u03.real + u03.imag * u03.imag
            + u12.real * u12.real + u12.imag * u12.imag
            + u13.real * u13.real + u13.imag * u13.imag
            + u23.real * u23.real + u23.imag * u23.imag
        )
        if off_sq <= half_tol_sq:
            break
        if sweeps >= cap:
            raise OracleConvergenceError(
                f"Jacobi did not reach relative off-norm {_ORACLE_TOL} in {cap} sweeps "
                f"(off={sqrt(2.0 * off_sq):.3e})"
            )
        sweeps += 1
        # Each rotation: theta = (a_qq - a_pp) / (2 |a_pq|), t the root
        # of t^2 + 2 theta t = 1 of least modulus, c = 1 / sqrt(1 + t^2) and
        # s = t c a_pq / |a_pq|; the new a[k][p] is c a_kp - conj(s) a_kq
        # and the new a[k][q] is s a_kp + c a_kq.
        r = abs(u01)
        if r:
            theta = (d1 - d0) / (2.0 * r)
            t = (-1.0 if theta < 0.0 else 1.0) / (abs(theta) + sqrt(theta * theta + 1.0))
            c = 1.0 / sqrt(t * t + 1.0)
            s = t * c / r * u01
            sb = s.conjugate()
            t *= r
            d0 -= t
            d1 += t
            u01 = 0j
            u02, u12 = c * u02 - s * u12, sb * u02 + c * u12
            u03, u13 = c * u03 - s * u13, sb * u03 + c * u13
        r = abs(u02)
        if r:
            theta = (d2 - d0) / (2.0 * r)
            t = (-1.0 if theta < 0.0 else 1.0) / (abs(theta) + sqrt(theta * theta + 1.0))
            c = 1.0 / sqrt(t * t + 1.0)
            s = t * c / r * u02
            t *= r
            d0 -= t
            d2 += t
            u02 = 0j
            u01, u12 = c * u01 - s * u12.conjugate(), s * u01.conjugate() + c * u12
            u03, u23 = c * u03 - s * u23, s.conjugate() * u03 + c * u23
        r = abs(u03)
        if r:
            theta = (d3 - d0) / (2.0 * r)
            t = (-1.0 if theta < 0.0 else 1.0) / (abs(theta) + sqrt(theta * theta + 1.0))
            c = 1.0 / sqrt(t * t + 1.0)
            s = t * c / r * u03
            t *= r
            d0 -= t
            d3 += t
            u03 = 0j
            u01, u13 = c * u01 - s * u13.conjugate(), s * u01.conjugate() + c * u13
            u02, u23 = c * u02 - s * u23.conjugate(), s * u02.conjugate() + c * u23
        r = abs(u12)
        if r:
            theta = (d2 - d1) / (2.0 * r)
            t = (-1.0 if theta < 0.0 else 1.0) / (abs(theta) + sqrt(theta * theta + 1.0))
            c = 1.0 / sqrt(t * t + 1.0)
            s = t * c / r * u12
            sb = s.conjugate()
            t *= r
            d1 -= t
            d2 += t
            u12 = 0j
            u01, u02 = c * u01 - sb * u02, s * u01 + c * u02
            u13, u23 = c * u13 - s * u23, sb * u13 + c * u23
        r = abs(u13)
        if r:
            theta = (d3 - d1) / (2.0 * r)
            t = (-1.0 if theta < 0.0 else 1.0) / (abs(theta) + sqrt(theta * theta + 1.0))
            c = 1.0 / sqrt(t * t + 1.0)
            s = t * c / r * u13
            t *= r
            d1 -= t
            d3 += t
            u13 = 0j
            u01, u03 = c * u01 - s.conjugate() * u03, s * u01 + c * u03
            u12, u23 = c * u12 - s * u23.conjugate(), s * u12.conjugate() + c * u23
        r = abs(u23)
        if r:
            theta = (d3 - d2) / (2.0 * r)
            t = (-1.0 if theta < 0.0 else 1.0) / (abs(theta) + sqrt(theta * theta + 1.0))
            c = 1.0 / sqrt(t * t + 1.0)
            s = t * c / r * u23
            sb = s.conjugate()
            t *= r
            d2 -= t
            d3 += t
            u23 = 0j
            u02, u03 = c * u02 - sb * u03, s * u02 + c * u03
            u12, u13 = c * u12 - sb * u13, s * u12 + c * u13

    try:
        # Scaling back is exact and monotone, so it may come before the sort.
        return sorted((ldexp(d0, e), ldexp(d1, e), ldexp(d2, e), ldexp(d3, e)), reverse=True)
    except OverflowError:
        # An entry whose modulus is past the float range puts an eigenvalue there.
        raise OracleConvergenceError(
            "Jacobi overflowed: an eigenvalue's modulus exceeds the float range"
        ) from None
