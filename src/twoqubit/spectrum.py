"""Closed-form eigenvalues of 4x4 Hermitian trace-one matrices.

A matrix m is solved on its centred, unit-scale shape: with X = m - I/4
and s = sqrt(tr X^2), its eigenvalues are 1/4 + s mu over the roots mu of

    mu^4 - mu^2 / 2 - k3 mu + k4,   k3 = e3(X / s),  k4 = det(X / s),

which, the spectrum being real, take only square roots and one arccosine.
Two auxiliary quantities drive the solution,

    c1 = sqrt(1/4 + 12 k4),   c2 = -1/4 + 27 k3^2 + 36 k4,

whose combination c2^2 - 4 c1^6 equals -27 times the product of squared
root differences, hence is never positive. The angle phi = acos(c2 / (2
c1^3)) / 3 lies in [0, pi/3] and selects the largest root of the resolvent
cubic, which keeps the downstream square roots well conditioned. None of
this depends on s, so a small spread near I/4 costs no digits.

For every spectrum the package solves (a state's, its partial transpose's,
the concurrence's tau^dagger tau), s, k3 and k4 are polynomials in the
Bloch tensor's 15 parameters (coeffs_from_bloch), written out on plain
floats: at this size a numpy call costs more in dispatch than it computes.

One four-root formula serves every resolvent root: where c2 = 0 it is
also evaluated on the middle root (cos theta = 0), and the candidate with
the smaller residual wins. Single+triple spectra (and with them
c1 = c2 = 0) are two fixed shapes; this module also carries the
rank-reduced cubic and quadratic solvers for spectra with known zeros.

A solve (quartic_eigs) runs in one frame: one call for c1, c2, phi and
the single+triple decision (_resolvent, shared with trig_params and
separability.inequality_rhs), then one loop over the resolvent roots its
branch tries, each candidate scored by its residual in place; per root it
calls only the helpers inequality_rhs also uses. At a few microseconds a
solve, a Python call or a keyword-built record costs about a line of its
arithmetic, so the per-state path builds its records positionally.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from .bloch import _read_tensor
from .errors import InternalInconsistencyError
from .linalg import _flv, _read

SQRT3 = math.sqrt(3.0)
SQRT6 = math.sqrt(6.0)

# Width of the band around zero inside which c1 or c2 is treated as exactly
# degenerate.
TAU_BRANCH = 1e-8

# The residual cubic's two snap bands; cubic_eigs says why they are no wider.
_ALL_THIRD_TOL = 1e-15
_D_ZERO_TOL = 1e-14

# Radicands may dip this far below zero before we refuse to clamp them.
_CLAMP_BAND = 1e-9

# A candidate spectrum whose unit-quartic residual exceeds this is rejected.
_RESIDUAL_TOL = 1e-6

# Absolute coefficient uncertainty; over s, how close the shape must sit to
# a single+triple one before that structure is trusted over the
# trigonometric route. Far above coefficient rounding (~1e-15), far below
# anything a genuinely four-point spectrum produces.
_DEGEN_COEFF_TOL = 5e-13

# |b0| (and |b1|) at or below this is one zero eigenvalue (two): over six
# times their rounding on exact rank-3 and rank-2 input, at most 1.7e-16.
_RANK_TOL = 1e-15

# cubic_coeffs refuses a constant term above this as a live eigenvalue.
_CUBIC_B0_TOL = 1e-10

_QUARTER_I = np.eye(4) / 4.0


class Branch(Enum):
    """Which closed-form branch produced a quartic spectrum."""

    GENERIC = "Generic"
    C2_ZERO = "C2Zero"
    DOUBLE_ZERO_CASE1 = "DoubleZeroCase1"
    DOUBLE_ZERO_CASE2 = "DoubleZeroCase2"
    ALL_QUARTER = "AllQuarter"


class CharCoeffs(NamedTuple):
    """Scale s = sqrt(tr X^2) and shape k3 = e3(X / s), k4 = det(X / s) of
    X = m - I/4 for a trace-one 4x4 matrix m (k3 = k4 = 0 when s = 0). The
    purity tr2 and the coefficients of lambda^4 - lambda^3 + b2 lambda^2 +
    b1 lambda + b0 are derived from them."""

    s: float
    k3: float
    k4: float

    @property
    def tr2(self) -> float:
        return 0.25 + self.s * self.s

    @property
    def b2(self) -> float:
        return 0.375 - 0.5 * self.s * self.s

    @property
    def b1(self) -> float:
        return -0.0625 + (0.25 - self.k3 * self.s) * self.s * self.s

    @property
    def b0(self) -> float:
        s = self.s
        return 1.0 / 256.0 + (-1.0 / 32.0 + (0.25 * self.k3 + self.k4 * s) * s) * s * s


class TrigParams(NamedTuple):
    """Resolvent parameters c1, c2 and the angle phi of a unit shape.

    phi is None when c1 (and necessarily c2) vanish within TAU_BRANCH; the
    caller must dispatch to a degenerate branch in that case.
    """

    c1: float
    c2: float
    phi: float | None


class QuarticSpectrum(NamedTuple):
    eigenvalues: tuple[float, float, float, float]  # descending
    branch: Branch


class CubicCoeffs(NamedTuple):
    """Reduced-cubic data for a spectrum with a known zero eigenvalue."""

    b1: float
    b2: float
    tr2: float
    d: float


def coeffs_from_traces(m) -> CharCoeffs:
    """Characteristic data of a trace-one 4x4 matrix by one Faddeev-LeVerrier
    pass on X = m - I/4: s^2 = -2 e2, k3 = e3 / s^3, k4 = e4 / s^4, the
    reference for the Bloch formulas below; |1 - tr m| > 1e-12 raises."""
    return _coeffs_from_traces(_read(m)[0][None])[0]


def _coeffs_from_traces(ms: np.ndarray) -> list[CharCoeffs]:
    """coeffs_from_traces on each matrix of an (N, 4, 4) complex stack with
    finite entries, in one recurrence; the first matrix whose trace is off
    one raises."""
    out = []
    for q in _flv(ms - _QUARTER_I):
        if abs(q.c3) > 1e-12:
            raise ValueError(f"matrix trace must be one (1 - tr m = {q.c3})")
        s2 = -2.0 * q.c2
        if s2 <= 0.0:
            out.append(CharCoeffs(0.0, 0.0, 0.0))
            continue
        s = math.sqrt(s2)
        out.append(CharCoeffs(s, -q.c1 / (s2 * s), q.c0 / (s2 * s2)))
    return out


def _pt_odd_terms(xa, xb, a) -> tuple[float, float]:
    """(odd, det A) for the parts of a Bloch tensor as plain floats: the
    3-tuples xa = xi_a and xb = xi_b and the rows of the correlation block
    A, where

        odd = ((tr A)^2 - tr(A^2)) xi_a.xi_b + 2 xi_b.A^2.xi_a
              - 2 tr A xi_b.A.xi_a.

    The partial transpose flips the sign of odd in 64 k4 and of det A in
    8 k3, and leaves every other term of either alone.
    """
    x1, x2, x3 = xa
    y1, y2, y3 = xb
    (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) = a
    tr_corr = a11 + a22 + a33
    tr_corr_sq = a11 * a11 + a22 * a22 + a33 * a33 + 2.0 * (a12 * a21 + a13 * a31 + a23 * a32)
    # v = A xi_a; xi_b.A.xi_a = xi_b.v and xi_b.A^2.xi_a = (A^T xi_b).v.
    v1 = a11 * x1 + a12 * x2 + a13 * x3
    v2 = a21 * x1 + a22 * x2 + a23 * x3
    v3 = a31 * x1 + a32 * x2 + a33 * x3
    bilin_rev = y1 * v1 + y2 * v2 + y3 * v3
    quad = (
        (y1 * a11 + y2 * a21 + y3 * a31) * v1
        + (y1 * a12 + y2 * a22 + y3 * a32) * v2
        + (y1 * a13 + y2 * a23 + y3 * a33) * v3
    )
    odd = (
        (tr_corr * tr_corr - tr_corr_sq) * (x1 * y1 + x2 * y2 + x3 * y3)
        + 2.0 * quad
        - 2.0 * tr_corr * bilin_rev
    )
    det_corr = (
        a11 * (a22 * a33 - a23 * a32)
        - a12 * (a21 * a33 - a23 * a31)
        + a13 * (a21 * a32 - a22 * a31)
    )
    return odd, det_corr


def _even_terms(xa, xb, a) -> tuple[float, float, float]:
    """(bilin, rest, cross_sq), the flip-even terms of 8 k3 and 64 k4, on the
    parts of a unit tensor in _pt_odd_terms' form."""
    x1, x2, x3 = xa
    y1, y2, y3 = xb
    (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) = a
    # A^T xi_a and A xi_b.
    r1 = x1 * a11 + x2 * a21 + x3 * a31
    r2 = x1 * a12 + x2 * a22 + x3 * a32
    r3 = x1 * a13 + x2 * a23 + x3 * a33
    c1 = a11 * y1 + a12 * y2 + a13 * y3
    c2 = a21 * y1 + a22 * y2 + a23 * y3
    c3 = a31 * y1 + a32 * y2 + a33 * y3
    bilin = r1 * y1 + r2 * y2 + r3 * y3

    # Gram matrix G = A A^T of A's rows.
    g11 = a11 * a11 + a12 * a12 + a13 * a13
    g22 = a21 * a21 + a22 * a22 + a23 * a23
    g33 = a31 * a31 + a32 * a32 + a33 * a33
    g12 = a11 * a21 + a12 * a22 + a13 * a23
    g13 = a11 * a31 + a12 * a32 + a13 * a33
    g23 = a21 * a31 + a22 * a32 + a23 * a33
    tr_gram = g11 + g22 + g33
    gram_sq = g11 * g11 + g22 * g22 + g33 * g33 + 2.0 * (g12 * g12 + g13 * g13 + g23 * g23)
    cross_sq = 0.5 * (tr_gram * tr_gram - gram_sq)

    rest = (
        4.0
        - (x1 * x1 + x2 * x2 + x3 * x3) * (y1 * y1 + y2 * y2 + y3 * y3)
        - (r1 * r1 + r2 * r2 + r3 * r3)
        - (c1 * c1 + c2 * c2 + c3 * c3)
    )
    return bilin, rest, cross_sq


def _bloch_pass(t) -> tuple[CharCoeffs, CharCoeffs]:
    """(coeffs_from_bloch(t), separability.pt_coeffs(t)) of the Bloch tensor
    rows t, written out on its unit tensor u. The flip-even terms and the
    odd terms (_pt_odd_terms) each run once, and the partial transpose only
    negates odd and det A. Every entry of u is at most 2 in modulus (its
    squares sum to 4), so each term is O(1) and k3, k4 and their PT values
    carry a few ulps of 1 of rounding; the tests pin them to a numpy
    reference and the PT map to the transposed matrix's coefficients."""
    (_, b1, b2, b3), (a1, p11, p12, p13), (a2, p21, p22, p23), (a3, p31, p32, p33) = t
    # The squares are summed in the order of numpy's pairwise sum over the
    # flattened tensor (eight strided partial sums, then a tree), so s is
    # the same bit for bit as 0.5 sqrt((x * x).sum()) with x[0, 0] = 0.
    s = 0.5 * math.sqrt(
        ((a2 * a2 + (b1 * b1 + p21 * p21)) + ((b2 * b2 + p22 * p22) + (b3 * b3 + p23 * p23)))
        + (
            ((a1 * a1 + a3 * a3) + (p11 * p11 + p31 * p31))
            + ((p12 * p12 + p32 * p32) + (p13 * p13 + p33 * p33))
        )
    )
    if s == 0.0:
        c = CharCoeffs(0.0, 0.0, 0.0)
        return c, c
    if s == math.inf:  # finite entries whose squares overflow
        raise ValueError("matrix contains non-finite entries")
    xa = (a1 / s, a2 / s, a3 / s)
    xb = (b1 / s, b2 / s, b3 / s)
    corr = ((p11 / s, p12 / s, p13 / s), (p21 / s, p22 / s, p23 / s), (p31 / s, p32 / s, p33 / s))
    bilin, rest, cross_sq = _even_terms(xa, xb, corr)
    odd, det_corr = _pt_odd_terms(xa, xb, corr)
    c = CharCoeffs(s, (bilin - det_corr) / 8.0, (rest + odd - cross_sq) / 64.0)
    return c, CharCoeffs(s, c.k3 + det_corr / 4.0, c.k4 - odd / 32.0)


def coeffs_from_bloch(t) -> CharCoeffs:
    """Characteristic data directly from a Bloch tensor.

    Closed-form polynomials in the 15 parameters, homogeneous on the unit
    tensor u (t with t[0, 0] dropped, over s; its squares sum to 4):

        8 k3  = xi_a.A.xi_b - det A
        64 k4 = 4 - |xi_a|^2 |xi_b|^2 - |A^T xi_a|^2 - |A xi_b|^2
                + odd - tr(adj(A) adj(A)^T)

    Note the two quadratic-in-A terms act on opposite sides: the qubit A
    vector contracts A's first index (A^T xi_a), the qubit B vector its
    second (A xi_b). Getting either of these wrong breaks k4 while leaving
    every symmetric test case unchanged, so the pairing is pinned down by
    randomized cross-validation against coeffs_from_traces.

    The adjugate term, the sum of the squared 2x2 minors of A, is evaluated
    by Cauchy-Binet as ((tr G)^2 - tr(G^2)) / 2 with G = A A^T the Gram
    matrix of A's rows. Every product is written out on the 15 parameters
    as plain floats. It is _bloch_pass's c.
    """
    return _bloch_pass(_read_tensor(t)[1])[0]


def _resolvent(c: CharCoeffs, s: float, k3: float, k4: float):
    """(c1, c2, phi, sgn) of c, which the caller has unpacked into s, k3
    and k4: trig_params' three values (see there for the checks, which
    are made here), and quartic_eigs' single+triple decision, sgn = +1 (case
    1) or -1 (case 2) where it solves c as a single+triple shape, else 0.0
    (always 0.0 at s = 0).

    That decision is taken where phi is None, or where c's shape is within
    _DEGEN_COEFF_TOL / s of one of the two single+triple shapes, the
    distance being the sum of the k3 and k4 distances. The shapes are
    (k3, k4) = (+/-1/(3 sqrt 3), -1/48), so the sign of k3 picks the case:
    case 1 is a single eigenvalue above a low triple, case 2 the mirror
    image. A max below is written as a comparison where no NaN reaches it.
    """
    # x - x is 0.0 for a finite x and NaN otherwise: one test for all three.
    if (s - s) + (k3 - k3) + (k4 - k4) != 0.0:
        raise ValueError(f"coefficients must be finite, got {c}")
    if s:
        band = 30.0 * _DEGEN_COEFF_TOL / s
    else:
        k3 = k4 = band = 0.0
    disc = 0.25 + 12.0 * k4
    if disc < -(band if band > 1e-12 else 1e-12):
        raise ValueError(f"1/4 + 12 k4 = {disc:.3e} < 0: spectrum is not real")
    c1 = math.sqrt(disc) if disc > 0.0 else 0.0
    c2 = -0.25 + 27.0 * k3 * k3 + 36.0 * k4
    if c1 <= TAU_BRANCH:
        if abs(c2) > (band if band > TAU_BRANCH else TAU_BRANCH):
            raise InternalInconsistencyError(
                f"c1 = {c1:.3e} vanishes but c2 = {c2:.3e} does not; "
                f"impossible for a real spectrum (coeffs {c})"
            )
        return c1, c2, None, 1.0 if k3 >= 0.0 else -1.0
    try:
        gap = c2 * c2 - 4.0 * c1 ** 6
    except OverflowError:
        # A real shape has c1 <= 1; no state's record comes near this.
        raise ValueError(f"c1^6 overflows at c1 = {c1:.3e}: spectrum is not real") from None
    cube = c1 ** 3
    top = abs(c2)
    lim = 2.0 * band * (cube if cube > top else top)
    # An infinite c2 (a finite k3 whose square overflows) makes lim infinite.
    if gap > (lim if lim > 1e-9 else 1e-9) or top == math.inf:
        raise ValueError(f"c2^2 - 4 c1^6 = {gap:.3e} > 0: spectrum is not real")
    phi = math.acos(min(1.0, max(-1.0, c2 / (2.0 * cube)))) / 3.0
    if not s:
        return c1, c2, phi, 0.0
    sgn = 1.0 if k3 >= 0.0 else -1.0
    if abs(k3 - sgn / (3.0 * SQRT3)) + abs(k4 + 1.0 / 48.0) <= _DEGEN_COEFF_TOL / s:
        return c1, c2, phi, sgn
    return c1, c2, phi, 0.0


def trig_params(c: CharCoeffs) -> TrigParams:
    """Resolvent parameters (c1, c2, phi) of a real-spectrum unit shape:
    the monic quartic's c1 and c2 over s^2 and s^6, with the same phi.

    phi comes from acos(c2 / (2 c1^3)) / 3 with the ratio clamped to
    [-1, 1]; the equivalent complex-argument form is exercised as an
    identity in the test suite. A vanishing c1 forces c2 to vanish as well
    (the discriminant identity leaves no room for anything else), so
    c1 <= TAU_BRANCH with |c2| materially nonzero raises
    InternalInconsistencyError instead of guessing. A non-finite s, k3 or
    k4 raises ValueError first, the one gate on coefficients; so do
    1/4 + 12 k4 < 0, c2^2 > 4 c1^6, an infinite c2 and a c1 whose sixth
    power overflows (a real shape has c1 <= 1), each as "spectrum is not
    real". At s = 0 the matrix is I/4 whatever k3 and k4 say, so they are
    read as 0 there, as the library builds them.
    """
    s, k3, k4 = c
    c1, c2, phi, _ = _resolvent(c, s, k3, k4)
    return TrigParams(c1, c2, phi)


def _clamped_sqrt(x: float, what: str, band: float = _CLAMP_BAND, *, flush: float) -> float:
    """Square root with a one-sided error band and a symmetric noise flush.

    A radicand below -band is a real inconsistency. One at an exact double
    root should vanish but carries coefficient noise of either sign; the
    square root would amplify upward noise eps into a spurious splitting
    of order sqrt(eps), so anything at or below flush collapses to zero.
    """
    if x < -band:
        raise InternalInconsistencyError(f"{what} radicand {x:.6e} below clamping band")
    return math.sqrt(x) if x > flush else 0.0


def _resolvent_terms(k3: float, c1: float, cos_theta: float):
    """(sqrt(x), u, w) on the unit shape for the resolvent root
    x = 4 + 8 c1 cos_theta: the largest root at cos_theta = cos(phi), the
    middle one at cos_theta = 0 when c2 = 0 (where u = x). The unit
    quartic's roots are sgn sqrt(x)/(4 sqrt 3) +/- sqrt(u - sgn w)/(2 sqrt 6)
    for sgn = +/-1. Since c1 and cos_theta are nonnegative, x >= 4."""
    sx = math.sqrt(4.0 + 8.0 * c1 * cos_theta)
    return sx, 4.0 - 4.0 * c1 * cos_theta, -24.0 * SQRT3 * k3 / sx


def quartic_eigs(c: CharCoeffs) -> QuarticSpectrum:
    """All four eigenvalues of the trace-one quartic, sorted descending.

    Dispatch, first match wins: the all-quarter point s = 0, single+triple
    shapes by proximity (see _resolvent) together with the c1 = c2 = 0
    family, the double root at the origin (b0 = b1 = 0), a single root
    there (b0 = 0), c2 = 0, and finally the generic trigonometric formula.
    The c2 = 0 branch evaluates that same formula on the middle resolvent
    root and then on the largest one, and the largest is taken only on a
    strictly smaller residual. The spectrum a branch gives is gated by its
    residual: beyond tolerance raises InternalInconsistencyError. A
    non-finite s, k3 or k4 raises ValueError first, as trig_params does.

    The proximity pre-gate exists because a triple root is exactly where
    the trigonometric route is worst (it splits the root with an error of
    order the cube root of the coefficient noise) while the degenerate
    form, driven by s alone, stays at machine precision. Residuals are flat
    near a multiple root and cannot arbitrate, so membership is tested
    where it is sharp: (k3, k4) against the two single+triple shapes.

    The shape gates sit at _DEGEN_COEFF_TOL / s, the rank gates on b0 and
    b1 at _RANK_TOL: b0 is the product of the eigenvalues, and 5e-13 read
    lambda4 = 4.0e-5 of diag(0.9997, 2.02e-4, 6.06e-5, 4.04e-5) as 0.0.
    """
    s, k3, k4 = c
    c1, c2, phi, sgn = _resolvent(c, s, k3, k4)
    if s == 0.0:
        return QuarticSpectrum((0.25, 0.25, 0.25, 0.25), Branch.ALL_QUARTER)
    tol = _DEGEN_COEFF_TOL / s
    band = 300.0 * tol
    if band < _CLAMP_BAND:
        band = _CLAMP_BAND
    flush = 30.0 * tol
    b0 = c.b0

    # Each branch names the resolvent roots it tries (cos theta; None for
    # a branch whose spectrum is fixed before the loop).
    roots = (None,)
    if sgn:
        single = 0.25 + sgn * SQRT3 * s / 2.0
        triple = 0.25 - sgn * s / (2.0 * SQRT3)
        fixed = (single, triple, triple, triple)
        branch = Branch.DOUBLE_ZERO_CASE1 if sgn > 0.0 else Branch.DOUBLE_ZERO_CASE2
    elif abs(b0) <= _RANK_TOL and abs(c.b1) <= _RANK_TOL:
        # Vanishing b0 and b1 factor the quartic as lambda^2 times
        # (lambda^2 - lambda + b2): a double root at the origin beside a
        # well-conditioned quadratic pair. The resolvent route places the
        # origin pair only to square-root-of-noise accuracy when a third
        # eigenvalue sits nearby, so the factored form takes precedence.
        # It is still the generic stratum, just evaluated differently.
        r = _clamped_sqrt(1.0 - 4.0 * c.b2, "origin-pair factor", band, flush=flush)
        fixed, branch = ((1.0 + r) / 2.0, (1.0 - r) / 2.0, 0.0, 0.0), Branch.GENERIC
    elif abs(b0) <= _RANK_TOL:
        # A vanishing constant term factors one root out at the origin
        # exactly. The residual cubic keeps a neighbor of that root well
        # conditioned, where the resolvent route would smear both.
        three, _ = cubic_eigs(cubic_coeffs(c))
        fixed, branch = (three[0], three[1], three[2], 0.0), Branch.GENERIC
    elif abs(c2) <= TAU_BRANCH:
        # Middle resolvent root first, then the largest; a residual tie
        # goes to the middle root.
        roots, branch = (0.0, math.cos(phi)), Branch.C2_ZERO
    else:
        roots, branch = (math.cos(phi),), Branch.GENERIC

    eigs = residual = None
    for cos_theta in roots:
        if cos_theta is None:
            cand = fixed
        else:
            sx, u, w = _resolvent_terms(k3, c1, cos_theta)
            shift = sx / (4.0 * SQRT3)
            half_low = _clamped_sqrt(u + w, "inner(-)", band, flush=flush) / (2.0 * SQRT6)
            half_high = _clamped_sqrt(u - w, "inner(+)", band, flush=flush) / (2.0 * SQRT6)
            cand = (
                0.25 + s * (shift + half_high),
                0.25 + s * (shift - half_high),
                0.25 - s * (shift - half_low),
                0.25 - s * (shift + half_low),
            )
        # The largest |p(mu)| of the unit quartic over mu = (lambda - 1/4) / s.
        worst = 0.0
        for lam in cand:
            mu = (lam - 0.25) / s
            r = abs(((mu * mu - 0.5) * mu - k3) * mu + k4)
            if r > worst:
                worst = r
        if eigs is None or worst < residual:
            eigs, residual = cand, worst

    if residual > (flush if flush > _RESIDUAL_TOL else _RESIDUAL_TOL):
        raise InternalInconsistencyError(
            f"closed-form spectrum residual {residual:.3e} for coefficients {c}"
        )
    return QuarticSpectrum(tuple(sorted(eigs, reverse=True)), branch)


def cubic_coeffs(c: CharCoeffs) -> CubicCoeffs:
    """Reduce a quartic with vanishing constant term to its residual cubic
    lambda^3 - lambda^2 + b2 lambda + b1, adding d = 2 - 27 b1 - 9 b2; a
    |b0| above _CUBIC_B0_TOL, or NaN, raises ValueError."""
    if not abs(c.b0) <= _CUBIC_B0_TOL:
        raise ValueError(f"constant coefficient {c.b0:.3e} does not vanish")
    d = 2.0 - 27.0 * c.b1 - 9.0 * c.b2
    return CubicCoeffs(b1=c.b1, b2=c.b2, tr2=c.tr2, d=d)


def cubic_eigs(c: CubicCoeffs):
    """Nonzero-part spectrum of a rank <= 3 trace-one matrix.

    Returns (eigenvalues descending, branch string). One formula gives all
    three: (1 + amp cos phi) / 3 and (1 - amp cos(phi -/+ pi/3)) / 3, with
    amp = sqrt(6 tr2 - 2) and cos(3 phi) = d / (2 (1 - 3 b2)^(3/2)).
    "AllThird" snaps amp to 0 where tr2 - 1/3 <= 1e-15 (negative only by
    rounding), "DZero" snaps phi to pi/6 where |d| <= 1e-14, and anything
    else is "Generic". Each band is its invariant's rounding (measured up
    to 1.7e-16 and 8.9e-16): a real split moves tr2 - 1/3 by its square
    and d by its cube, so a wider band would snap real splits. 1 - 3 b2 = 0
    with tr2 above that band raises InternalInconsistencyError.
    """
    shifted = 1.0 - 3.0 * c.b2  # equals (3 tr2 - 1)/2 for a trace-one input
    if shifted < -1e-10:
        raise ValueError(f"1 - 3 b2 = {shifted:.3e} < 0: spectrum is not real")
    amp = math.sqrt(max(6.0 * c.tr2 - 2.0, 0.0))
    if c.tr2 - 1.0 / 3.0 <= _ALL_THIRD_TOL:
        amp, phi, branch = 0.0, 0.0, "AllThird"
    elif abs(c.d) <= _D_ZERO_TOL:
        phi, branch = math.pi / 6.0, "DZero"
    else:
        denom = 2.0 * max(shifted, 0.0) ** 1.5
        if denom == 0.0:
            raise InternalInconsistencyError(f"b2 = {c.b2!r} and tr2 = {c.tr2!r} disagree")
        ratio = min(1.0, max(-1.0, c.d / denom))
        phi, branch = math.acos(ratio) / 3.0, "Generic"
    eigs = (
        (1.0 + amp * math.cos(phi)) / 3.0,
        (1.0 - amp * math.cos(phi - math.pi / 3.0)) / 3.0,
        (1.0 - amp * math.cos(phi + math.pi / 3.0)) / 3.0,
    )
    return tuple(sorted(eigs, reverse=True)), branch


def rank2_eigs(tr2: float):
    """The two nonzero eigenvalues of a rank-2 trace-one PSD matrix:
    (1 +/- sqrt(2 tr2 - 1)) / 2. Requires 1/2 <= tr2 <= 1."""
    if not 0.5 - 1e-10 <= tr2 <= 1.0 + 1e-10:  # NaN fails it too
        raise ValueError(f"rank-2 purity must lie in [1/2, 1], got {tr2}")
    s = math.sqrt(max(2.0 * tr2 - 1.0, 0.0))
    return (1.0 + s) / 2.0, (1.0 - s) / 2.0


def purity_bound_check(eigs) -> bool:
    """Purity bounds for a trace-one spectrum: sum(l^2) >= 1/m with m the
    number of eigenvalues beyond 1e-10 in magnitude, and <= 1 when none is
    below -1e-10. Each bound is allowed 1e-10 of rounding."""
    eigs = [float(x) for x in eigs]
    tr2 = sum(x * x for x in eigs)
    m = sum(1 for x in eigs if abs(x) > 1e-10)
    if m == 0:
        return False
    if tr2 < 1.0 / m - 1e-10:
        return False
    if min(eigs) >= -1e-10 and tr2 > 1.0 + 1e-10:
        return False
    return True
