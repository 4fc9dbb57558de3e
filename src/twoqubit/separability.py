"""Closed-form Peres partial-transpose separability test.

A two-qubit state is separable exactly when its partial transpose is
positive semidefinite. The partial transpose changes the characteristic
coefficients in a simple closed way (the purity is untouched), so the PT
spectrum, and with it the verdict, comes out of the same quartic solver;
only the input validation (on by default) diagonalizes, with eigvalsh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bloch import to_bloch, validate_density_matrix
from .spectrum import (
    SQRT3,
    SQRT6,
    CharCoeffs,
    QuarticSpectrum,
    _DEGEN_COEFF_TOL,
    _bloch_pass,
    _clamped_sqrt,
    _resolvent_terms,
    _single_triple,
    quartic_eigs,
    trig_params,
)

# A PT eigenvalue this close to zero no longer carries a reliable sign.
TAU_SEP = 1e-10


@dataclass(frozen=True)
class SeparabilityReport:
    separable: bool
    lambda_min_pt: float
    branch: str
    marginal: bool
    pt_coeffs: CharCoeffs
    # Whether the explicit inequality form of the criterion agrees with the
    # sign of lambda_min_pt; None on branches where it is not evaluated.
    inequality_agrees: bool | None = None


def pt_coeffs(t) -> CharCoeffs:
    """Characteristic data of the partial transpose, from a Bloch tensor t.

    The partial transpose keeps the trace and the purity, so s does not
    move; only the shape does:

        k3' = k3 + det(A) / 4
        k4' = k4 - [((tr A)^2 - tr(A^2)) xi_a.xi_b + 2 xi_b.A^2.xi_a
                    - 2 tr A xi_b.A.xi_a] / 32

    with xi_a, xi_b and A the parts of t's unit tensor: each moves by twice
    the part the partial transpose flips. spectrum._bloch_pass computes it
    beside t's own k3 and k4 and checks it on the column-flipped tensor.
    """
    return _bloch_pass(t)[1]


def inequality_rhs(c: CharCoeffs) -> float | None:
    """Right side of the explicit separability inequality, which must not
    exceed 1 for a separable state. Algebraically this is 1 - 4 lambda_min
    of the quartic with coefficients c: s times (sqrt(x)/sqrt(3) + 2
    inner/sqrt(6)) on the unit shape. It is only defined away from the
    doubly degenerate branches, so c that quartic_eigs solves as s = 0 or
    as a single+triple shape returns None."""
    if c.s == 0.0:
        return None
    tp = trig_params(c)
    if _single_triple(c, tp, _DEGEN_COEFF_TOL) is not None:
        return None
    sx, u, w = _resolvent_terms(c, tp.c1, math.cos(tp.phi))
    inner = _clamped_sqrt(u + w, "inequality inner", flush=30.0 * _DEGEN_COEFF_TOL / c.s)
    return c.s * (sx / SQRT3 + 2.0 * inner / SQRT6)


class _State:
    """One state's data, shared by everything a single public call reads:
    Bloch tensor t, coefficients c (from t) and own spectrum, PT
    coefficients cp and PT spectrum, and the inequality right side on cp.

    Each piece is computed on first use and kept, so a call runs the solver
    stages in the order it reads them and never runs one twice (c and cp
    come from one spectrum._bloch_pass). A record belongs to one call;
    nothing is kept.
    """

    def __init__(self, rho: np.ndarray):
        self.rho = rho

    @cached_property
    def t(self) -> np.ndarray:
        return to_bloch(self.rho)

    @cached_property
    def coeffs(self) -> tuple[CharCoeffs, CharCoeffs]:
        return _bloch_pass(self.t)

    @property
    def c(self) -> CharCoeffs:
        return self.coeffs[0]

    @cached_property
    def own(self) -> QuarticSpectrum:
        return quartic_eigs(self.c)

    @property
    def cp(self) -> CharCoeffs:
        return self.coeffs[1]

    @cached_property
    def pt(self) -> QuarticSpectrum:
        return quartic_eigs(self.cp)

    @cached_property
    def rhs(self) -> float | None:
        return inequality_rhs(self.cp)


def _checked_state(rho, check: bool) -> _State:
    """The record for one public call's input, validated first unless
    ``check`` is false."""
    rho = np.asarray(rho, dtype=complex)
    if check:
        validate_density_matrix(rho)
    return _State(rho)


def _verdict(s: _State) -> SeparabilityReport:
    lam_min = s.pt.eigenvalues[-1]
    separable = lam_min >= -TAU_SEP
    marginal = abs(lam_min) <= TAU_SEP

    rhs = s.rhs
    agrees = None if rhs is None else (rhs <= 1.0 + 4.0 * TAU_SEP) == separable
    return SeparabilityReport(
        separable=separable,
        lambda_min_pt=lam_min,
        branch=s.pt.branch.value,
        marginal=marginal,
        pt_coeffs=s.cp,
        inequality_agrees=agrees,
    )


def peres_test(rho, check: bool = True) -> SeparabilityReport:
    """Separability verdict for a two-qubit density matrix.

    The partial-transpose spectrum is computed in closed form; the state is
    separable iff its smallest eigenvalue is >= -TAU_SEP, and flagged
    marginal when |lambda_min| <= TAU_SEP. Set ``check=False`` to skip the
    density matrix validation for inputs known to be valid.
    """
    return _verdict(_checked_state(rho, check))


def _pure_q(state) -> float:
    """|ad - bc| of a pure state (a, b, c, d); ValueError unless |norm^2 - 1| <= 1e-10."""
    a, b, c, d = (complex(x) for x in np.asarray(state).ravel())
    norm = abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"state is not normalized (norm^2 = {norm})")
    return abs(a * d - b * c)


def pure_pt_spectrum(state):
    """PT eigenvalues of a pure state a|00> + b|01> + c|10> + d|11>.

    With q = |ad - bc| they are (1 + s)/2, q, (1 - s)/2, -q where
    s = sqrt(1 - 4 q^2); already in descending order since q <= 1/2.
    """
    q = _pure_q(state)
    s = math.sqrt(max(1.0 - 4.0 * q * q, 0.0))
    return ((1.0 + s) / 2.0, q, (1.0 - s) / 2.0, -q)


def pure_separable(state) -> bool:
    """A pure two-qubit state is a product state iff |ad - bc| <= TAU_SEP.
    An unnormalized state raises ValueError."""
    return _pure_q(state) <= TAU_SEP
