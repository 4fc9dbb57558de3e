"""Closed-form Peres partial-transpose separability test.

A two-qubit state is separable exactly when its partial transpose is
positive semidefinite. The partial transpose changes the characteristic
coefficients in a simple closed way (the purity is untouched), so the PT
spectrum, and with it the verdict, comes out of the same quartic solver.
Only the input validation may diagonalize, with eigvalsh, and only for a
matrix the rank of its factor does not settle.

Every public call, here and in entanglement, validates its input through
_checked_state, which keeps the last valid state's record: consecutive
calls on the same matrix (the same shape and bits) share its read,
validation, factor, Bloch tensor, coefficients and PT spectrum.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .bloch import _check_rows, _factor, _read_tensor, _tensor_rows
from .linalg import _read
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
    """Peres verdict from the partial transpose's spectrum: ``separable``
    when its smallest eigenvalue ``lambda_min_pt`` is >= -TAU_SEP, and
    ``marginal`` when |lambda_min_pt| <= TAU_SEP, where its sign is not
    reliable. ``branch`` names the quartic_eigs branch (a spectrum.Branch
    value) that solved the PT spectrum from ``pt_coeffs``, the PT
    characteristic coefficients, which inequality_rhs also takes."""

    separable: bool
    lambda_min_pt: float
    branch: str
    marginal: bool
    pt_coeffs: CharCoeffs


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
    return _bloch_pass(_read_tensor(t)[1])[1]


def inequality_rhs(c: CharCoeffs) -> float | None:
    """Right side of the paper's explicit form of Peres' condition, which
    must not exceed 1 for a separable state. Algebraically this is
    1 - 4 lambda_min of the quartic with coefficients c: s times
    (sqrt(x)/sqrt(3) + 2 inner/sqrt(6)) on the unit shape. It is only
    defined away from the doubly degenerate branches, so c that quartic_eigs
    solves as s = 0 or as a single+triple shape returns None, and a
    non-finite coefficient raises ValueError from trig_params. No call path
    evaluates it; the verdict reads lambda_min_pt."""
    c1, _, phi = trig_params(c)
    if c.s == 0.0 or _single_triple(c, phi) is not None:
        return None
    sx, u, w = _resolvent_terms(c, c1, math.cos(phi))
    inner = _clamped_sqrt(u + w, "inequality inner", flush=30.0 * _DEGEN_COEFF_TOL / c.s)
    return c.s * (sx / SQRT3 + 2.0 * inner / SQRT6)


class _State:
    """One state's data, kept only where several calls read it: the rows
    of Python complex numbers read from rho, their pivoted Cholesky factor
    (bloch._factor, as (rank, rows of W), read by validation, the
    concurrence and the EoF bound's gate, which reads its last pivot), the
    Bloch tensor as rows of plain floats (t_rows, read by the coefficient
    pass and the CLI), coefficients c and PT coefficients cp from one
    spectrum._bloch_pass, and the PT spectrum (read by the verdict, the
    negativity and the EoF bound). A stage with one reader, such as rho's
    own spectrum, is computed by that reader.

    The record reads rho once, with linalg._read, so a matrix that is not
    4x4 or has a non-finite entry raises ValueError here. It keeps the
    rows, not rho: a caller changing its array in place cannot reach the
    record. Every other piece is computed on first use and kept, so the
    stages run in the order the calls read them and none runs twice; a
    stage that raises keeps nothing and raises again. The record does not
    validate rho: fuzz builds records directly, also for Hermitian matrices
    that are not states; the public calls and ``twoqubit analyze`` get
    theirs from _checked_state, which validates and keeps the last one.
    """

    def __init__(self, rho):
        self.rows = _read(rho)[1]
        self._factor = self._t_rows = self._coeffs = self._pt = None

    # Each stage is written out as "compute if unset, keep": on Python
    # 3.11, functools.cached_property takes a lock on first access, which
    # costs several times a stage's bookkeeping here.

    @property
    def factor(self) -> tuple[int, tuple]:
        v = self._factor
        if v is None:
            v = self._factor = _factor(self.rows)
        return v

    @property
    def t_rows(self) -> tuple:
        v = self._t_rows
        if v is None:
            v = self._t_rows = _tensor_rows(self.rows)
        return v

    @property
    def coeffs(self) -> tuple[CharCoeffs, CharCoeffs]:
        v = self._coeffs
        if v is None:
            v = self._coeffs = _bloch_pass(self.t_rows)
        return v

    @property
    def c(self) -> CharCoeffs:
        return self.coeffs[0]

    @property
    def cp(self) -> CharCoeffs:
        return self.coeffs[1]

    @property
    def pt(self) -> QuarticSpectrum:
        v = self._pt
        if v is None:
            v = self._pt = quartic_eigs(self.cp)
        return v


# The last record _checked_state built, as (key, record). The list is only
# ever written in place, so the module's attributes keep their identity;
# the pair is stored in one assignment, so a race between threads costs at
# most a miss.
_last = [None]


def _checked_state(rho) -> _State:
    """The record for a public call's input, its rows validated as
    bloch.validate_density_matrix does, from the record's factor.

    The last record is reused when the input has the same shape and the
    same bits (so -0.0 and 0.0 differ and no float comparison is made):
    every stage is a deterministic function of those bits, so the answers
    are the ones a fresh record gives. A new record is kept only once its
    rows pass validation, so every kept record is a valid state's and a
    matrix validation refuses raises on every call, leaving the last
    record in place.
    """
    m = np.asarray(rho, dtype=complex)
    key = (m.shape, m.tobytes())
    last = _last[0]
    if last is not None and last[0] == key:
        return last[1]
    s = _State(m)
    _check_rows(m, s.rows, s.factor[0])
    _last[0] = (key, s)
    return s


def _verdict(s: _State) -> SeparabilityReport:
    lam_min = s.pt.eigenvalues[-1]
    return SeparabilityReport(
        separable=lam_min >= -TAU_SEP,
        lambda_min_pt=lam_min,
        branch=s.pt.branch.value,
        marginal=abs(lam_min) <= TAU_SEP,
        pt_coeffs=s.cp,
    )


def peres_test(rho) -> SeparabilityReport:
    """Separability verdict for a two-qubit density matrix, from the
    partial-transpose spectrum in closed form (see SeparabilityReport).
    A matrix that is not a density matrix raises ValueError."""
    return _verdict(_checked_state(rho))


def _pure_q(state) -> float:
    """|ad - bc| of a pure state (a, b, c, d), the determinant of its (2, 2)
    coefficient array, which may be passed as is; ValueError unless there
    are 4 finite amplitudes and |norm^2 - 1| <= 1e-10."""
    amps = np.asarray(state).ravel()
    if amps.size != 4:
        raise ValueError(f"expected 4 amplitudes, got {amps.size}")
    amps = [complex(x) for x in amps]
    a, b, c, d = amps
    # A NaN norm would pass the tolerance test below.
    if not all(map(cmath.isfinite, amps)):
        raise ValueError("state contains non-finite amplitudes")
    norm = abs(a) * abs(a) + abs(b) * abs(b) + abs(c) * abs(c) + abs(d) * abs(d)
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
