"""Entanglement measures driven by the closed-form quartic solver.

Concurrence follows Wootters (PRL 80, 2245, 1998): for a factor rho =
W W^dagger the singular values sigma of tau = W^T (sigma_y x sigma_y) W
are the square roots of the eigenvalues of rho times its spin flip, and
C = max(0, sigma1 - sigma2 - sigma3 - sigma4). Negativity reads the
smallest partial-transpose eigenvalue.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .bloch import _factor, _hermitian_tensor_rows
from .errors import InternalInconsistencyError, NotApplicableError
from .separability import _State, _checked_state, _pure_q
from .spectrum import TAU_BRANCH, _bloch_pass, quartic_eigs

_YY_SIGNS = np.outer([-1.0, 1.0, 1.0, -1.0], [-1.0, 1.0, 1.0, -1.0])

# A concurrence at or below this is 0.0: the rounding of tau, which on
# product pure states (tau = 0) reads at most 3.6e-16 over 10^5 draws.
_TAU_FLOOR = 1e-15


def spin_flip(rho) -> np.ndarray:
    """(sigma_y x sigma_y) rho* (sigma_y x sigma_y): rows and columns reversed,
    entry (i, j) times s_i s_j, s = (-1, 1, 1, -1) the anti-diagonal of YY."""
    return _YY_SIGNS * np.asarray(rho, dtype=complex).conj()[::-1, ::-1]


def _flip_product_eigs(factor) -> tuple[float, float, float, float]:
    """Eigenvalues of rho times its spin flip, descending, from rho's
    factor (rank, rows of W) as bloch._factor gives it and the state
    record keeps it: sigma^2 of the symmetric tau, f = ||tau||_F^2.
    Rank 1: f. Rank 2: tau / sqrt(f) = (a, b; b, d) turned by the phase
    that makes its determinant positive has sigma1 -/+ sigma2 = sqrt(|a -/+
    conj d|^2 + |b +/- conj b|^2), exact at sigma1 = sigma2. Rank 3 and 4:
    f times the spectrum of tau^dagger tau / f by the Bloch route, its
    Bloch rows read off the diagonal and upper triangle alone by the Bloch
    sums every matrix goes through (bloch._hermitian_tensor_rows); unit
    trace holds by the scaling. The factor is a validated state's, so
    |W_ij| <= 1, every entry of tau is at most about 4 and f is finite."""
    rank, w = factor
    (x00, x01, x02, x03), (x10, x11, x12, x13), (x20, x21, x22, x23), (x30, x31, x32, x33) = w
    t00 = 2.0 * (x10 * x20 - x00 * x30)
    t01 = (x10 * x21 + x20 * x11) - (x00 * x31 + x30 * x01)
    t11 = 2.0 * (x11 * x21 - x01 * x31)
    if rank <= 2:
        f = t00.real * t00.real + t00.imag * t00.imag + t11.real * t11.real
        f += t11.imag * t11.imag + 2.0 * (t01.real * t01.real + t01.imag * t01.imag)
        if rank < 2 or f == 0.0:
            return (f, 0.0, 0.0, 0.0)
        det = t00 * t11 - t01 * t01
        ph = (cmath.sqrt(det.conjugate() / abs(det)) if det else 1.0) / math.sqrt(f)
        a, b, d = t00 * ph, t01 * ph, (t11 * ph).conjugate()
        diff = math.sqrt(abs(a - d) ** 2 + 4.0 * b.real * b.real)
        tot = math.sqrt(abs(a + d) ** 2 + 4.0 * b.imag * b.imag)
        return (f * (0.5 * (tot + diff)) ** 2, f * (0.5 * (tot - diff)) ** 2, 0.0, 0.0)
    t22 = 2.0 * (x12 * x22 - x02 * x32)
    t33 = 2.0 * (x13 * x23 - x03 * x33)
    t02 = (x10 * x22 + x20 * x12) - (x00 * x32 + x30 * x02)
    t03 = (x10 * x23 + x20 * x13) - (x00 * x33 + x30 * x03)
    t12 = (x11 * x22 + x21 * x12) - (x01 * x32 + x31 * x02)
    t13 = (x11 * x23 + x21 * x13) - (x01 * x33 + x31 * x03)
    t23 = (x12 * x23 + x22 * x13) - (x02 * x33 + x32 * x03)
    c00, c01, c02, c03 = t00.conjugate(), t01.conjugate(), t02.conjugate(), t03.conjugate()
    c11, c12, c13 = t11.conjugate(), t12.conjugate(), t13.conjugate()
    c22, c23, c33 = t22.conjugate(), t23.conjugate(), t33.conjugate()
    g00 = (c00 * t00 + c01 * t01 + c02 * t02 + c03 * t03).real
    g11 = (c01 * t01 + c11 * t11 + c12 * t12 + c13 * t13).real
    g22 = (c02 * t02 + c12 * t12 + c22 * t22 + c23 * t23).real
    g33 = (c03 * t03 + c13 * t13 + c23 * t23 + c33 * t33).real
    f = g00 + g11 + g22 + g33
    h = 1.0 / f
    g01 = (c00 * t01 + c01 * t11 + c02 * t12 + c03 * t13) * h
    g02 = (c00 * t02 + c01 * t12 + c02 * t22 + c03 * t23) * h
    g03 = (c00 * t03 + c01 * t13 + c02 * t23 + c03 * t33) * h
    g12 = (c01 * t02 + c11 * t12 + c12 * t22 + c13 * t23) * h
    g13 = (c01 * t03 + c11 * t13 + c12 * t23 + c13 * t33) * h
    g23 = (c02 * t03 + c12 * t13 + c22 * t23 + c23 * t33) * h
    t = _hermitian_tensor_rows((g00 * h, g11 * h, g22 * h, g33 * h), (g01, g02, g03, g12, g13, g23))
    l0, l1, l2, l3 = quartic_eigs(_bloch_pass(t)[0]).eigenvalues
    if l3 < -1e-8:
        raise InternalInconsistencyError(
            f"flip-product eigenvalue {f * l3:.3e} is negative beyond tolerance"
        )
    return (f * l0, f * max(l1, 0.0), f * max(l2, 0.0), f * max(l3, 0.0))


def _concurrence(s: _State) -> float:
    m0, m1, m2, m3 = _flip_product_eigs(s.factor)
    c = math.sqrt(m0) - math.sqrt(m1) - math.sqrt(m2) - math.sqrt(m3)
    return c if c > _TAU_FLOOR else 0.0


def concurrence(rho) -> float:
    """Concurrence C(rho) = max(0, sqrt(mu1) - sqrt(mu2) - sqrt(mu3) - sqrt(mu4))
    with mu_i the descending eigenvalues of rho times its spin flip, 0.0 up
    to _TAU_FLOOR."""
    return _concurrence(_checked_state(rho))


def _eof_from_concurrence(c: float) -> float:
    # h(x), the binary entropy, at x = (1 + sqrt(1 - C^2)) / 2 >= 1/2.
    x = (1.0 + math.sqrt(1.0 - min(c, 1.0) ** 2)) / 2.0
    if x >= 1.0:
        return 0.0
    return -(x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x))


def eof(rho) -> float:
    """Entanglement of formation via the concurrence:

        E = h((1 + sqrt(1 - C^2)) / 2),  h the binary entropy.
    """
    return _eof_from_concurrence(concurrence(rho))


def concurrence_pure(state) -> float:
    """Concurrence of a pure state a|00> + b|01> + c|10> + d|11>: 2 |ad - bc|.
    An unnormalized state raises ValueError."""
    return 2.0 * _pure_q(state)


def _negativity(s: _State) -> float:
    return max(0.0, -s.pt.eigenvalues[-1])


def negativity(rho) -> float:
    """max(0, -lambda_min(rho^PT)), peres_test's closed-form lambda_min_pt:
    the sum of |negative PT eigenvalues|, as for two qubits rho^PT has at
    most one (Sanpera, Tarrach & Vidal, PRA 58, 826, 1998)."""
    return _negativity(_checked_state(rho))


def _eof_gate(s: _State) -> float | None:
    # rho's own factor, which validation made. Short of rank 4 it puts
    # lambda_min(rho) within its pivot tolerance of zero or below, so
    # rho - TAU_BRANCH I cannot reach rank 4. At rank 4 its last pivot r,
    # the one nonzero entry of W's fourth column (all zero short of rank
    # 4), certifies the gate where r^2 > 32 TAU_BRANCH (see eof_upper_bound).
    # None where the gate refuses, so the report pays for no exception.
    rank, w = s.factor
    (_, _, _, r0), (_, _, _, r1), (_, _, _, r2), (_, _, _, r3) = w
    r = r0 + r1 + r2 + r3
    if rank < 4 or (r * r <= 32.0 * TAU_BRANCH and _factor(s.rows, -TAU_BRANCH)[0] < 4):
        return None
    return min(max(1.0 - 4.0 * s.pt.eigenvalues[-1], 0.0), 1.0)


def _eof_bound(s: _State) -> float:
    bound = _eof_gate(s)
    if bound is None:
        raise NotApplicableError(
            f"bound requires a full-rank state with lambda_min > {TAU_BRANCH:g} "
            f"(factor rank {s.factor[0]})"
        )
    return bound


def eof_upper_bound(rho) -> float:
    """Upper bound 1 - 4 lambda_min(rho^PT) on the entanglement of
    formation of a full-rank state, clamped to [0, 1], with lambda_min the
    smallest eigenvalue of the closed-form partial-transpose spectrum.

    It only holds for strictly positive states. The gate is the pivoted
    Cholesky factor of rho - TAU_BRANCH I (bloch._factor): it reaches rank
    4 exactly when lambda_min(rho) > TAU_BRANCH, to within its backward
    error of about 2e-15, and otherwise NotApplicableError is raised,
    naming the rank of rho's own factor.

    Validation keeps rho's own factor; at rank 4 its last pivot r settles
    the gate first. Diagonal pivoting makes L = P W, W's rows in pivot
    order, lower triangular with |l_jk| <= l_kk and l_kk >= l_44 = r
    (Higham, Accuracy and Stability, 2nd ed., 10.3). So L = V D, D its
    diagonal and V unit triangular with |v_jk| <= 1, and |V^-1| is at most
    the inverse of the matrix with 1 on the diagonal and -1 below it (same
    book, 8.3), whose squared Frobenius norm is (4^n + 6n - 1) / 9, 31 at
    n = 4. Hence lambda_min(rho) = 1 / ||L^-1||_2^2 >=
    r^2 / 31, and r^2 > 32 TAU_BRANCH certifies lambda_min >= 1.03e-8, 3e-10
    past the gate and far beyond the factor's backward error: there the
    shifted factor reaches rank 4 too, so the answer is the same. Below
    that the shifted factor decides; a kept factor short of rank 4 refuses.
    """
    return _eof_bound(_checked_state(rho))


@dataclass(frozen=True)
class EntanglementReport:
    concurrence: float
    eof: float
    negativity: float
    eof_upper_bound: float | None


def _report(s: _State) -> EntanglementReport:
    c = _concurrence(s)
    neg = _negativity(s)
    return EntanglementReport(
        concurrence=c,
        eof=_eof_from_concurrence(c),
        negativity=neg,
        eof_upper_bound=_eof_gate(s),
    )


def entanglement_report(rho) -> EntanglementReport:
    """All entanglement measures in one pass. eof_upper_bound is None when
    the state is not full rank."""
    return _report(_checked_state(rho))
