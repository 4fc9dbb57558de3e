"""Closed-form Peres partial-transpose separability test.

A two-qubit state is separable exactly when its partial transpose is
positive semidefinite. The partial transpose changes the characteristic
coefficients in a simple closed way (the purity is untouched), so the PT
spectrum, and with it the verdict, comes out of the same quartic solver
with no matrix diagonalization anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bloch import partial_transpose_bloch, to_bloch, validate_density_matrix
from .errors import InternalInconsistencyError
from .spectrum import (
    SQRT3,
    SQRT6,
    CharCoeffs,
    QuarticSpectrum,
    _DEGEN_COEFF_TOL,
    _bloch_pass,
    _clamped_sqrt,
    _pt_odd_terms,
    _resolvent_terms,
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


def _pt_map(c: CharCoeffs, p) -> CharCoeffs:
    """pt_coeffs of c on the terms p of a _bloch_pass, with its check."""
    pc, u, bilin, rest, cross_sq, odd, det_corr = p
    out = CharCoeffs(s=c.s, k3=c.k3 + det_corr / 4.0, k4=c.k4 - odd / 32.0)
    odd_f, det_f = _pt_odd_terms(partial_transpose_bloch(u))
    check = CharCoeffs(s=pc.s, k3=(bilin - det_f) / 8.0, k4=(rest + odd_f - cross_sq) / 64.0)
    drift = max(abs(out.s - check.s), abs(out.k3 - check.k3), abs(out.k4 - check.k4))
    if drift > 1e-9:
        raise InternalInconsistencyError(
            f"PT coefficient map drifted {drift:.3e} from the Bloch route "
            f"(input coefficients {c})"
        )
    return out


def pt_coeffs(c: CharCoeffs, t) -> CharCoeffs:
    """Characteristic data of the partial transpose.

    The partial transpose keeps the trace and the purity, so s does not
    move; only the shape does:

        k3' = k3 + det(A) / 4
        k4' = k4 - [((tr A)^2 - tr(A^2)) xi_a.xi_b + 2 xi_b.A^2.xi_a
                    - 2 tr A xi_b.A.xi_a] / 32

    with xi_a, xi_b and A the parts of t's unit tensor: each moves by twice
    the part the partial transpose flips. A drift above 1e-9 from the
    column-flipped unit tensor raises InternalInconsistencyError. The flip
    negates A's y column and xi_b's y entry, which every other term of s,
    k3 and k4 pairs or squares, so the check takes those from t's one
    spectrum._bloch_pass and evaluates only odd and det A again.
    """
    return _pt_map(c, _bloch_pass(t))


def inequality_rhs(c: CharCoeffs) -> float | None:
    """Right side of the explicit separability inequality, which must not
    exceed 1 for a separable state. Algebraically this is 1 - 4 lambda_min
    of the quartic with coefficients c: s times (sqrt(x)/sqrt(3) + 2
    inner/sqrt(6)) on the unit shape. It is only defined away from the
    doubly degenerate branches, so those return None."""
    tp = trig_params(c)
    if tp.phi is None or c.s == 0.0:
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
    share one Bloch pass). A record belongs to one call; nothing is kept.
    """

    def __init__(self, rho: np.ndarray):
        self.rho = rho

    @cached_property
    def t(self) -> np.ndarray:
        return to_bloch(self.rho)

    @cached_property
    def terms(self):
        return _bloch_pass(self.t)

    @cached_property
    def c(self) -> CharCoeffs:
        return self.terms[0]

    @cached_property
    def own(self) -> QuarticSpectrum:
        return quartic_eigs(self.c)

    @cached_property
    def cp(self) -> CharCoeffs:
        return _pt_map(self.c, self.terms)

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


def pure_pt_spectrum(state):
    """PT eigenvalues of a pure state a|00> + b|01> + c|10> + d|11>.

    With q = |ad - bc| they are (1 + s)/2, q, (1 - s)/2, -q where
    s = sqrt(1 - 4 q^2); already in descending order since q <= 1/2.
    """
    a, b, c, d = (complex(x) for x in np.asarray(state).ravel())
    norm = abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"state is not normalized (norm^2 = {norm})")
    q = abs(a * d - b * c)
    s = math.sqrt(max(1.0 - 4.0 * q * q, 0.0))
    return ((1.0 + s) / 2.0, q, (1.0 - s) / 2.0, -q)


def pure_separable(state) -> bool:
    """A pure two-qubit state is a product state iff |ad - bc| <= TAU_SEP."""
    a, b, c, d = (complex(x) for x in np.asarray(state).ravel())
    return abs(a * d - b * c) <= TAU_SEP
