"""Pauli (Bloch) tensor form of two-qubit operators.

A Hermitian trace-one 4x4 matrix rho is expanded as

    rho = (1/4) sum_{mu,nu} a[mu,nu] sigma_mu (x) sigma_nu,
    a[mu,nu] = Tr(rho sigma_mu (x) sigma_nu),

with mu indexing qubit A and nu qubit B. The tensor is stored as a real
(4, 4) array with a[0, 0] = 1. Useful views: a[1:, 0] is qubit A's
polarization vector, a[0, 1:] qubit B's, and a[1:, 1:] the 3x3 correlation
block.

A public call reads its matrix once (linalg._read): one conversion to a
complex array, the shape and finiteness checks, and its 16 entries as
plain Python complex numbers. Validation and the Bloch tensor are
written out on those numbers, the style of the coefficient passes: at 4x4
a numpy call costs more in dispatch than the arithmetic it does. One rule,
_check_form, decides hermiticity and unit trace for validation and
to_bloch alike, and one body, _hermitian_tensor_rows, holds the Bloch
sums, which read a matrix's diagonal and upper triangle only, and
_pt_rows is the one row map of the partial transpose. _factor,
a pivoted Cholesky factor, is the package's one factorization: a state
record computes it once for validation's certificate and the concurrence.
LAPACK's eigvalsh still decides every positivity rejection.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import PAULIS, _asymmetry, _read, kron

# Stacked sigma_mu (x) sigma_nu basis, indexed [mu, nu, i, j].
_BASIS = np.array([[kron(PAULIS[m], PAULIS[n]) for n in range(4)] for m in range(4)])

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10


# The factor stops at a pivot at or below this. Past rho's rank a pivot is
# rounding: at most 5.4e-16 over 10^5 exact rank-1, -2 and -3 states each.
_PIVOT_TOL = 2e-15


def _factor(r, shift: float = 0.0) -> tuple[int, tuple]:
    """(rank, rows of W) with W W^dagger = m + shift I, m read by _read as
    rows r, by Cholesky with diagonal pivoting (Higham, Accuracy and
    Stability, 2nd ed., 10.3) on positions 0-3 (rows i0-i3), stopping at a
    pivot <= _PIVOT_TOL. It reads m's lower triangle, as eigvalsh does, and
    never raises on finite rows. Rank 4 certifies lambda_min(m) > -shift -
    about 2e-15 (the backward error of Cholesky, same book, 10.1)."""
    (r00, _, _, _), (r10, r11, _, _), (r20, r21, r22, _), (r30, r31, r32, r33) = r
    c10, c20, c30, c21 = r10.conjugate(), r20.conjugate(), r30.conjugate(), r21.conjugate()
    c31, c32 = r31.conjugate(), r32.conjugate()
    a = ((r00, c10, c20, c30), (r10, r11, c21, c31), (r20, r21, r22, c32), (r30, r31, r32, r33))
    d = (r00.real + shift, r11.real + shift, r22.real + shift, r33.real + shift)
    i0 = d.index(max(d))
    if not d[i0] > _PIVOT_TOL:
        return 0, ((0.0, 0.0, 0.0, 0.0),) * 4
    i1, i2, i3 = (i0 + 1) % 4, (i0 + 2) % 4, (i0 + 3) % 4
    rt0 = math.sqrt(d[i0])
    l1, l2, l3 = a[i1][i0] / rt0, a[i2][i0] / rt0, a[i3][i0] / rt0
    # The Schur complement on positions 1-3: diagonal e, lower triangle f.
    e1 = d[i1] - (l1.real * l1.real + l1.imag * l1.imag)
    e2 = d[i2] - (l2.real * l2.real + l2.imag * l2.imag)
    e3 = d[i3] - (l3.real * l3.real + l3.imag * l3.imag)
    f21 = a[i2][i1] - l2 * l1.conjugate()
    f31 = a[i3][i1] - l3 * l1.conjugate()
    f32 = a[i3][i2] - l3 * l2.conjugate()
    if e2 > e1 and e2 >= e3:
        i1, i2, l1, l2, e1, e2 = i2, i1, l2, l1, e2, e1
        f21, f31, f32 = f21.conjugate(), f32, f31
    elif e3 > e1:
        i1, i3, l1, l3, e1, e3 = i3, i1, l3, l1, e3, e1
        f21, f31, f32 = f32.conjugate(), f31.conjugate(), f21.conjugate()
    rank, rt1, m2, m3, rt2, n3, rt3 = 1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0
    if e1 > _PIVOT_TOL:
        rank, rt1 = 2, math.sqrt(e1)
        m2, m3 = f21 / rt1, f31 / rt1
        g2 = e2 - (m2.real * m2.real + m2.imag * m2.imag)
        g3 = e3 - (m3.real * m3.real + m3.imag * m3.imag)
        h32 = f32 - m3 * m2.conjugate()
        if g3 > g2:
            i2, i3, l2, l3, m2, m3, g2, g3, h32 = i3, i2, l3, l2, m3, m2, g3, g2, h32.conjugate()
        if g2 > _PIVOT_TOL:
            rank, rt2 = 3, math.sqrt(g2)
            n3 = h32 / rt2
            k3 = g3 - (n3.real * n3.real + n3.imag * n3.imag)
            if k3 > _PIVOT_TOL:
                rank, rt3 = 4, math.sqrt(k3)
    w = {i0: (rt0, 0.0, 0.0, 0.0), i1: (l1, rt1, 0.0, 0.0), i2: (l2, m2, rt2, 0.0)}
    w[i3] = (l3, m3, n3, rt3)
    return rank, (w[0], w[1], w[2], w[3])


def _check_form(rows) -> None:
    """The hermiticity and trace rule of every matrix input, on rows read
    by _read: each |m_ij - conj(m_ji)| at most HERMITIAN_TOL, then
    |tr m - 1| at most TRACE_TOL. Validation and to_bloch both run it."""
    if not _asymmetry(rows) <= HERMITIAN_TOL:
        raise ValueError("matrix is not Hermitian")
    # Summed as numpy's trace sums the diagonal, in pairs onto a zero, so
    # the value and the signs of zeros in the message are the same.
    tr = 0.0 + ((rows[0][0] + rows[1][1]) + (rows[2][2] + rows[3][3]))
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"trace must be one, got {tr}")


def _check_rows(m: np.ndarray, rows, rank: int) -> None:
    """_check_form, then positive semidefiniteness, of a matrix read by
    _read, in validate_density_matrix's order and words; ``rank`` is what
    _factor(rows) found, which a state record keeps."""
    _check_form(rows)
    # Certified by the factor of m, or of m + (PSD_TOL / 2) I past its zeros.
    if rank == 4 or _factor(rows, 0.5 * PSD_TOL)[0] == 4:
        return
    # Not the closed-form spectrum, whose rank gates may zero a lambda_min.
    lo = float(np.linalg.eigvalsh(m)[0])
    if lo < -PSD_TOL:
        raise ValueError(f"matrix is not positive semidefinite (min eig {lo:.3e})")


def validate_density_matrix(m):
    """Check that m is a physical two-qubit state and return it as complex.

    Verifies finiteness, hermiticity, unit trace and positive
    semidefiniteness, in that order, on the entries as plain Python
    numbers. Positivity is first certified by the pivoted Cholesky factor
    of m (_factor) reaching rank 4, then by that of m + (PSD_TOL / 2) I;
    whatever neither certifies goes to the smallest eigenvalue of LAPACK's
    Hermitian solver (``np.linalg.eigvalsh``), which shares no code with
    the closed forms it guards and decides, and words, every rejection.
    """
    m, rows = _read(m)
    _check_rows(m, rows, _factor(rows)[0])
    return m


def _hermitian_tensor_rows(diag, upper) -> tuple:
    """The Bloch tensor, as four tuples of floats, of the Hermitian matrix
    with real diagonal ``diag`` (d0, d1, d2, d3) and upper triangle
    ``upper`` (u01, u02, u03, u12, u13, u23), its lower triangle their
    conjugates: the package's one body of the Bloch sums.

    Each a[mu, nu] adds the nonzero terms of np.einsum("mnij,ji->mn",
    _BASIS, m) in its order (row-major over (i, j)), on the real or
    imaginary parts of the entries (an entry conj(u) reads u.real and
    -u.imag), so the tensor is that einsum's real part bit for bit; "+ 0.0"
    turns a sum of negative zeros into einsum's +0.0. For the coefficients
    with one sigma_y the einsum terms are +-i times the entries, so their
    real parts are sums of imaginary parts (a22's is kept negated to share
    its first pair). a00 is held as 1.0: a caller's matrix has unit trace,
    checked by _check_form or by its scaling (a Gram matrix over its trace).
    """
    d0, d1, d2, d3 = diag
    u01, u02, u03, u12, u13, u23 = upper
    x01, x02, x03, x12, x13, x23 = u01.real, u02.real, u03.real, u12.real, u13.real, u23.real
    y01, y02, y03, y12, y13, y23 = u01.imag, u02.imag, u03.imag, u12.imag, u13.imag, u23.imag
    p0, n0 = d0 + d1, d0 - d1
    p1, n1 = x01 + x01, -y01 - y01
    p2r, p2i, n2r, n2i = x02 + x13, -y02 + -y13, x02 - x13, -y02 - -y13
    p3r, p3i, n3r, n3i = x03 + x12, -y03 + -y12, x03 - x12, -y03 - -y12
    return (
        (1.0, p1 + x23 + x23 + 0.0, n1 + -y23 - y23 + 0.0, n0 + d2 - d3 + 0.0),
        (p2r + x02 + x13 + 0.0, p3r + x12 + x03 + 0.0, n3i + y12 - y03 + 0.0, n2r + x02 - x13 + 0.0),
        (p2i - y02 - y13 + 0.0, p3i - y12 - y03 + 0.0, 0.0 - (n3r - x12 + x03), n2i - y02 + y13 + 0.0),
        (p0 - d2 - d3 + 0.0, p1 - x23 - x23 + 0.0, n1 - -y23 + y23 + 0.0, n0 - d2 + d3 + 0.0),
    )


def _tensor_rows(rows) -> tuple:
    """The Bloch tensor of a matrix read by _read, as four tuples of floats:
    that of its Hermitian part (m + m^dagger) / 2, which is m itself, bit
    for bit, when m is exactly Hermitian. It checks nothing: a public call's
    matrix has passed _check_form, and fuzz draws Hermitian trace-one ones."""
    (r00, r01, r02, r03), (r10, r11, r12, r13), (r20, r21, r22, r23), (r30, r31, r32, r33) = rows
    return _hermitian_tensor_rows(
        (r00.real, r11.real, r22.real, r33.real),
        (
            (r01 + r10.conjugate()) / 2.0,
            (r02 + r20.conjugate()) / 2.0,
            (r03 + r30.conjugate()) / 2.0,
            (r12 + r21.conjugate()) / 2.0,
            (r13 + r31.conjugate()) / 2.0,
            (r23 + r32.conjugate()) / 2.0,
        ),
    )


def to_bloch(rho):
    """Bloch tensor a[mu, nu] = Tr(rho sigma_mu (x) sigma_nu) of a Hermitian
    trace-one matrix, written out on its entries in np.einsum's order (see
    _hermitian_tensor_rows). A matrix that is not 4x4 or has a non-finite
    entry raises ValueError from the read, and one that breaks validation's
    hermiticity or trace rule (_check_form) raises it with validation's
    words; within HERMITIAN_TOL the tensor is that of (rho + rho^dagger) / 2."""
    rows = _read(rho)[1]
    _check_form(rows)
    return np.array(_tensor_rows(rows))


def _read_tensor(t) -> tuple[np.ndarray, list]:
    """t as a float array and as rows of Python floats; ValueError unless
    it is (4, 4) with finite entries and a[0, 0] = 1 within TRACE_TOL,
    tested in that order. Every tensor input is read here except
    partial_transpose_bloch's, a linear map on any (4, 4) array."""
    t = np.asarray(t, dtype=float)
    if t.shape != (4, 4):
        raise ValueError("expected a (4, 4) Bloch tensor")
    rows = t.tolist()
    if not all(map(math.isfinite, rows[0] + rows[1] + rows[2] + rows[3])):
        raise ValueError("tensor contains non-finite entries")
    if abs(rows[0][0] - 1.0) > TRACE_TOL:
        raise ValueError("a[0, 0] must equal 1")
    return t, rows


def from_bloch(t):
    """Reassemble the 4x4 matrix from its Bloch tensor, read by _read_tensor."""
    return np.einsum("mnij,mn->ij", _BASIS, _read_tensor(t)[0]) / 4.0


def reduced_state(t, subsystem: str):
    """Single-qubit reduced density matrix read off a Bloch tensor.

    ``subsystem`` is "A" or "B". Tracing out the partner leaves
    (sigma_0 + xi . sigma) / 2 with xi the corresponding polarization view.
    The tensor is read by _read_tensor, whose checks raise ValueError.
    """
    t = _read_tensor(t)[0]
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


def _pt_rows(rows) -> list:
    """partial_transpose on rows read by _read, the same entries moved by
    the same map with no arithmetic: equal to partial_transpose(m).tolist()."""
    (a00, a01, a02, a03), (a10, a11, a12, a13), (a20, a21, a22, a23), (a30, a31, a32, a33) = rows
    return [
        [a00, a10, a02, a12],
        [a01, a11, a03, a13],
        [a20, a30, a22, a32],
        [a21, a31, a23, a33],
    ]


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
