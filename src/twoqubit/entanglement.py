"""Entanglement measures driven by the closed-form quartic solver.

Concurrence needs the spectrum of rho (sigma_y x sigma_y) rho*
(sigma_y x sigma_y). That product is not Hermitian, but its eigenvalues
are real and nonnegative, and after dividing by its trace the
characteristic coefficients feed the same trigonometric quartic formulas
used everywhere else. The spin flip, the product and its
Faddeev-LeVerrier coefficients are evaluated term by term on the rows of
Python complex numbers that the call's record read once, the style of the
Bloch pass: at 4x4 a numpy call costs more in dispatch than the
arithmetic it does. Negativity reuses the partial-transpose spectrum.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalInconsistencyError, NotApplicableError
from .separability import _State, _checked_state, _pure_q
from .linalg import _flv, _real_quartic
from .spectrum import TAU_BRANCH, _coeffs_from_charpoly, quartic_eigs

# sigma_y x sigma_y is the anti-diagonal (-1, 1, 1, -1), so conjugating by
# it reverses rows and columns and multiplies entry (i, j) by s_i s_j.
_YY_SIGNS = np.outer([-1.0, 1.0, 1.0, -1.0], [-1.0, 1.0, 1.0, -1.0])

# Below this trace the flipped product is numerically zero and the
# concurrence with it.
_FLIP_TRACE_FLOOR = 1e-14

# When the estimated coefficient noise of the normalized product exceeds
# this, the characteristic polynomial carries no usable information and
# the spectrum is reported as (t, 0, 0, 0). Every eigenvalue is at most
# t in that regime, so the concurrence stays within sqrt(t) of the truth,
# which is all the data supports.
_FLIP_NOISE_CEILING = 1e-4


def spin_flip(rho) -> np.ndarray:
    """The spin-flipped state (sigma_y x sigma_y) rho* (sigma_y x sigma_y)."""
    rho = np.asarray(rho, dtype=complex)
    return _YY_SIGNS * rho.conj()[::-1, ::-1]


def _flip_rows(r) -> tuple:
    """spin_flip on rows of Python complex numbers: entry (i, j) is
    s_i s_j conj(r[3 - i][3 - j]) with s = (-1, 1, 1, -1) (Wootters, PRL 80,
    2245, 1998). Equal to spin_flip's entries; where an entry's real or
    imaginary part is zero, the sign of that zero may differ."""
    (r00, r01, r02, r03), (r10, r11, r12, r13), (r20, r21, r22, r23), (r30, r31, r32, r33) = r
    return (
        (r33.conjugate(), -r32.conjugate(), -r31.conjugate(), r30.conjugate()),
        (-r23.conjugate(), r22.conjugate(), r21.conjugate(), -r20.conjugate()),
        (-r13.conjugate(), r12.conjugate(), r11.conjugate(), -r10.conjugate()),
        (r03.conjugate(), -r02.conjugate(), -r01.conjugate(), r00.conjugate()),
    )


def _flip_product_eigs(r) -> tuple[float, float, float, float]:
    """Eigenvalues of rho times its spin flip, descending, from the rows r
    of rho as its record read them (4x4, finite).

    The product m is similar to a PSD matrix, so its spectrum is real and
    nonnegative. tr m is scaled out, the unit-trace quartic is solved in
    closed form, and the scale is restored. The pass runs on plain Python
    complex numbers: the flip's entries are written out from r, so are
    the 16 entries of m, and X = m / t - I/4 goes straight to the
    Faddeev-LeVerrier recurrence of linalg._flv.

    Dividing by a small trace inflates the coefficient rounding noise, so
    the solver's degeneracy gate is widened to the estimated noise floor
    and any normalized eigenvalue at or below it is flushed to exact zero.
    Without the flush, square roots of noise-level eigenvalues would
    contaminate the concurrence at the 1e-8 scale even for perfectly pure
    inputs. Anything below -1e-8 after rescaling means the closed form and
    the input disagree badly enough to abort. A finite rho whose product
    overflows raises ValueError.
    """
    (r00, r01, r02, r03), (r10, r11, r12, r13), (r20, r21, r22, r23), (r30, r31, r32, r33) = r
    (f00, f01, f02, f03), (f10, f11, f12, f13), (f20, f21, f22, f23), (f30, f31, f32, f33) = (
        _flip_rows(r)
    )
    m00 = r00 * f00 + r01 * f10 + r02 * f20 + r03 * f30
    m01 = r00 * f01 + r01 * f11 + r02 * f21 + r03 * f31
    m02 = r00 * f02 + r01 * f12 + r02 * f22 + r03 * f32
    m03 = r00 * f03 + r01 * f13 + r02 * f23 + r03 * f33
    m10 = r10 * f00 + r11 * f10 + r12 * f20 + r13 * f30
    m11 = r10 * f01 + r11 * f11 + r12 * f21 + r13 * f31
    m12 = r10 * f02 + r11 * f12 + r12 * f22 + r13 * f32
    m13 = r10 * f03 + r11 * f13 + r12 * f23 + r13 * f33
    m20 = r20 * f00 + r21 * f10 + r22 * f20 + r23 * f30
    m21 = r20 * f01 + r21 * f11 + r22 * f21 + r23 * f31
    m22 = r20 * f02 + r21 * f12 + r22 * f22 + r23 * f32
    m23 = r20 * f03 + r21 * f13 + r22 * f23 + r23 * f33
    m30 = r30 * f00 + r31 * f10 + r32 * f20 + r33 * f30
    m31 = r30 * f01 + r31 * f11 + r32 * f21 + r33 * f31
    m32 = r30 * f02 + r31 * f12 + r32 * f22 + r33 * f32
    m33 = r30 * f03 + r31 * f13 + r32 * f23 + r33 * f33
    m = (m00, m01, m02, m03, m10, m11, m12, m13, m20, m21, m22, m23, m30, m31, m32, m33)
    # A finite rho can still overflow the product, off the diagonal too.
    if not all(map(cmath.isfinite, m)):
        raise ValueError("matrix contains non-finite entries")
    t = (m00 + m11 + m22 + m33).real
    if t <= _FLIP_TRACE_FLOOR:
        return (0.0, 0.0, 0.0, 0.0)
    # Entrywise rounding in m is a few 1e-16; dividing by t rescales it,
    # the coefficient recursion amplifies it by about two orders, and a
    # non-normal product (entries of m/t grow like 1/sqrt(t) for nearly
    # pure input) scales it by the largest entry on top of that.
    k = max(1.0, max(map(abs, m)) / t)
    noise = max(5e-13, 1e-13 * k / t)
    if noise > _FLIP_NOISE_CEILING:
        return (t, 0.0, 0.0, 0.0)
    x = (
        (m00 / t - 0.25, m01 / t, m02 / t, m03 / t),
        (m10 / t, m11 / t - 0.25, m12 / t, m13 / t),
        (m20 / t, m21 / t, m22 / t - 0.25, m23 / t),
        (m30 / t, m31 / t, m32 / t, m33 / t - 0.25),
    )
    coeffs = _coeffs_from_charpoly(_real_quartic(_flv(x), imag_tol=max(1e-9, 10.0 * noise)))
    spec = quartic_eigs(coeffs, coeff_tol=noise)
    out = []
    for lam in spec.eigenvalues:
        mu = 0.0 if abs(lam) <= noise else t * lam
        if mu < -1e-8:
            raise InternalInconsistencyError(
                f"flip-product eigenvalue {mu:.3e} is negative beyond tolerance"
            )
        out.append(max(mu, 0.0))
    return tuple(out)


def _concurrence(s: _State) -> float:
    r = [math.sqrt(x) for x in _flip_product_eigs(s.rows)]
    return max(0.0, r[0] - r[1] - r[2] - r[3])


def concurrence(rho, check: bool = True) -> float:
    """Concurrence C(rho) = max(0, sqrt(mu1) - sqrt(mu2) - sqrt(mu3) - sqrt(mu4))
    with mu_i the descending eigenvalues of rho times its spin flip."""
    return _concurrence(_checked_state(rho, check))


def _binary_entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -(x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x))


def _eof_from_concurrence(c: float) -> float:
    return _binary_entropy((1.0 + math.sqrt(1.0 - min(c, 1.0) ** 2)) / 2.0)


def eof(rho, check: bool = True) -> float:
    """Entanglement of formation via the concurrence:

        E = h((1 + sqrt(1 - C^2)) / 2),  h the binary entropy.
    """
    return _eof_from_concurrence(concurrence(rho, check=check))


def concurrence_pure(state) -> float:
    """Concurrence of a pure state a|00> + b|01> + c|10> + d|11>: 2 |ad - bc|.
    An unnormalized state raises ValueError."""
    return 2.0 * _pure_q(state)


def _negativity(s: _State) -> float:
    return sum(max(0.0, -lam) for lam in s.pt.eigenvalues)


def negativity(rho, check: bool = True) -> float:
    """Sum of the absolute values of the negative partial-transpose
    eigenvalues, computed from the closed-form PT spectrum."""
    return _negativity(_checked_state(rho, check))


def _eof_bound(s: _State) -> float:
    if s.own.eigenvalues[-1] <= TAU_BRANCH:
        raise NotApplicableError(
            "bound requires a full-rank state "
            f"(lambda_min = {s.own.eigenvalues[-1]:.3e})"
        )
    rhs = s.rhs
    if rhs is None:
        rhs = 1.0 - 4.0 * s.pt.eigenvalues[-1]
    return min(max(rhs, 0.0), 1.0)


def eof_upper_bound(rho, check: bool = True) -> float:
    """Upper bound on the entanglement of formation for full-rank states.

    The bound is the explicit separability-inequality right side evaluated
    on the partial-transpose coefficients (algebraically 1 - 4 lambda_min
    of that quartic), clamped to [0, 1]. It only holds for strictly
    positive states; rank-deficient input raises NotApplicableError. On PT
    branches where the trigonometric form is undefined the lambda_min
    identity supplies the value directly.
    """
    return _eof_bound(_checked_state(rho, check))


@dataclass(frozen=True)
class EntanglementReport:
    concurrence: float
    eof: float
    negativity: float
    eof_upper_bound: float | None


def _report(s: _State) -> EntanglementReport:
    c = _concurrence(s)
    neg = _negativity(s)
    try:
        bound = _eof_bound(s)
    except NotApplicableError:
        bound = None
    return EntanglementReport(
        concurrence=c,
        eof=_eof_from_concurrence(c),
        negativity=neg,
        eof_upper_bound=bound,
    )


def entanglement_report(rho, check: bool = True) -> EntanglementReport:
    """All entanglement measures in one pass. eof_upper_bound is None when
    the state is not full rank."""
    return _report(_checked_state(rho, check))
