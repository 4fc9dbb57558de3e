"""Entanglement measures driven by the closed-form quartic solver.

Concurrence needs the spectrum of rho (sigma_y x sigma_y) rho*
(sigma_y x sigma_y). That product is not Hermitian, but its eigenvalues
are real and nonnegative, and after dividing by its trace the
characteristic coefficients feed the same trigonometric quartic formulas
used everywhere else. Negativity reuses the partial-transpose spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalInconsistencyError, NotApplicableError
from .separability import _State, _checked_state, _pure_q
from .spectrum import TAU_BRANCH, coeffs_from_traces, quartic_eigs

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


def _flip_product_eigs(rho) -> tuple[float, float, float, float]:
    """Eigenvalues of rho times its spin flip, descending.

    The product is similar to a PSD matrix, so its spectrum is real and
    nonnegative. tr M is scaled out, the unit-trace quartic is solved in
    closed form, and the scale is restored.

    Dividing by a small trace inflates the coefficient rounding noise, so
    the solver's degeneracy gate is widened to the estimated noise floor
    and any normalized eigenvalue at or below it is flushed to exact zero.
    Without the flush, square roots of noise-level eigenvalues would
    contaminate the concurrence at the 1e-8 scale even for perfectly pure
    inputs. Anything below -1e-8 after rescaling means the closed form and
    the input disagree badly enough to abort.
    """
    m = rho @ spin_flip(rho)
    t = float(m.trace().real)
    if t <= _FLIP_TRACE_FLOOR:
        return (0.0, 0.0, 0.0, 0.0)
    m_hat = m / t
    # Entrywise rounding in m is a few 1e-16; dividing by t rescales it,
    # the coefficient recursion amplifies it by about two orders, and a
    # non-normal product (entries of m/t grow like 1/sqrt(t) for nearly
    # pure input) scales it by the largest entry on top of that.
    k = max(1.0, float(np.abs(m_hat).max()))
    noise = max(5e-13, 1e-13 * k / t)
    if noise > _FLIP_NOISE_CEILING:
        return (t, 0.0, 0.0, 0.0)
    coeffs = coeffs_from_traces(m_hat, imag_tol=max(1e-9, 10.0 * noise))
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
    r = [math.sqrt(x) for x in _flip_product_eigs(s.rho)]
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
