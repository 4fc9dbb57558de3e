"""Closed-form eigenvalues of 4x4 Hermitian trace-one matrices.

The characteristic polynomial of such a matrix is

    lambda^4 - lambda^3 + b2 lambda^2 + b1 lambda + b0,

and because the spectrum is real the quartic can be solved entirely with
square roots and a single arccosine. Two auxiliary quantities drive the
solution,

    c1 = sqrt(12 b0 + 3 b1 + b2^2),
    c2 = 27 b1^2 + b0 (27 - 72 b2) + 9 b1 b2 + 2 b2^3,

whose combination c2^2 - 4 c1^6 equals -27 times the product of squared
root differences, hence is never positive. The angle phi = acos(c2 / (2
c1^3)) / 3 lies in [0, pi/3] and selects the largest root of the resolvent
cubic, which keeps the downstream square roots well conditioned.

One four-root formula serves every resolvent root: where c2 = 0 it is
also evaluated on the middle root 4 tr2 - 1 (cos theta = 0), and the
candidate with the smaller residual wins. Single+triple spectra (and with
them c1 = c2 = 0) take a closed form driven by tr2 alone; this module also
carries the rank-reduced cubic and quadratic solvers for spectra with
known zero eigenvalues.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InternalInconsistencyError
from .linalg import charpoly_flv, trace_power

SQRT3 = math.sqrt(3.0)
SQRT6 = math.sqrt(6.0)

# Width of the band around zero inside which c1, c2, |tr2 - 1/4| or the
# cubic's d are treated as exactly degenerate.
TAU_BRANCH = 1e-8

# Radicands may dip this far below zero before we refuse to clamp them.
_CLAMP_BAND = 1e-9

# A candidate spectrum whose polynomial residual exceeds this is rejected.
_RESIDUAL_TOL = 1e-6

# How close (b0, b1) must sit to the values implied by a single+triple
# spectrum at the same purity before that structure is trusted over the
# trigonometric route. Far above coefficient rounding (~1e-15), far below
# anything a genuinely four-point spectrum produces.
_DEGEN_COEFF_TOL = 5e-13


class Branch(Enum):
    """Which closed-form branch produced a quartic spectrum."""

    GENERIC = "Generic"
    C2_ZERO = "C2Zero"
    DOUBLE_ZERO_CASE1 = "DoubleZeroCase1"
    DOUBLE_ZERO_CASE2 = "DoubleZeroCase2"
    ALL_QUARTER = "AllQuarter"


@dataclass(frozen=True)
class CharCoeffs:
    """Quartic coefficients b0, b1, b2 plus the purity tr2 = Tr(m^2)."""

    b0: float
    b1: float
    b2: float
    tr2: float


@dataclass(frozen=True)
class TrigParams:
    """Resolvent parameters c1, c2 and the angle phi.

    phi is None when c1 (and necessarily c2) vanish within TAU_BRANCH; the
    caller must dispatch to a degenerate branch in that case.
    """

    c1: float
    c2: float
    phi: float | None


@dataclass(frozen=True)
class QuarticSpectrum:
    eigenvalues: tuple[float, float, float, float]  # descending
    branch: Branch


@dataclass(frozen=True)
class CubicCoeffs:
    """Reduced-cubic data for a spectrum with a known zero eigenvalue."""

    b1: float
    b2: float
    tr2: float
    d: float


def coeffs_from_traces(m) -> CharCoeffs:
    """Characteristic coefficients of a trace-one 4x4 matrix, via the
    Faddeev-LeVerrier recurrence. This is the authoritative route; the
    Bloch-parameter formulas below are validated against it."""
    quartic = charpoly_flv(m)
    if abs(quartic.c3 + 1.0) > 1e-12:
        raise ValueError(f"matrix trace must be one (c3 = {quartic.c3})")
    tr2 = trace_power(m, 2)
    return CharCoeffs(b0=quartic.c0, b1=quartic.c1, b2=quartic.c2, tr2=tr2)


def _det3(a) -> float:
    return float(
        a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
        - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
        + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
    )


def _pt_odd_terms(t) -> tuple[float, float]:
    """(odd, det A) for a (4, 4) float Bloch tensor t with correlation block
    A, where

        odd = ((tr A)^2 - tr(A^2)) xi_a.xi_b + 2 xi_b.A^2.xi_a
              - 2 tr A xi_b.A.xi_a.

    The partial transpose flips the sign of odd - 2 det A in 64 b0 and of
    det A in 8 b1, and leaves every other term of either alone.
    """
    xi_a = t[1:, 0]
    xi_b = t[0, 1:]
    corr = t[1:, 1:]
    tr_corr = float(corr[0, 0] + corr[1, 1] + corr[2, 2])
    tr_corr_sq = float((corr * corr.T).sum())
    quad = float(xi_b @ corr @ (corr @ xi_a))
    bilin_rev = float(xi_b @ corr @ xi_a)
    odd = (
        (tr_corr * tr_corr - tr_corr_sq) * float(xi_a @ xi_b)
        + 2.0 * quad
        - 2.0 * tr_corr * bilin_rev
    )
    return odd, _det3(corr)


def coeffs_from_bloch(t) -> CharCoeffs:
    """Characteristic coefficients directly from a Bloch tensor.

    Closed-form polynomial in the 15 parameters, no matrix products. Note
    the two quadratic-in-A terms act on opposite sides: the qubit A vector
    contracts A's first index (A^T xi_a), the qubit B vector its second
    (A xi_b). Getting either of these wrong breaks the determinant term
    while leaving every symmetric test case unchanged, so the pairing is
    pinned down by randomized cross-validation against coeffs_from_traces.

    The adjugate term tr(adj(A) adj(A)^T), the sum of the squared 2x2
    minors of the correlation block A, is evaluated by Cauchy-Binet as
    ((tr G)^2 - tr(G^2)) / 2 with G = A A^T the Gram matrix of A's rows.
    The terms that change sign under the partial transpose come from
    _pt_odd_terms, which pt_coeffs shares.
    """
    t = np.asarray(t, dtype=float)
    if t.shape != (4, 4):
        raise ValueError("expected a (4, 4) Bloch tensor")
    xi_a = t[1:, 0]
    xi_b = t[0, 1:]
    corr = t[1:, 1:]

    tr2 = 0.25 * float((t * t).sum())
    b2 = 0.5 * (1.0 - tr2)

    odd, det_corr = _pt_odd_terms(t)
    bilin = float(xi_a @ corr @ xi_b)

    b1 = 0.125 * (2.0 * tr2 - 1.0 - bilin + det_corr)

    row_action = corr.T @ xi_a
    col_action = corr @ xi_b

    gram = corr @ corr.T
    tr_gram = float(gram[0, 0] + gram[1, 1] + gram[2, 2])
    cross_sq = 0.5 * (tr_gram * tr_gram - float((gram * gram).sum()))

    b0 = (
        1.0
        - float(xi_a @ xi_a) * float(xi_b @ xi_b)
        - float(row_action @ row_action)
        - float(col_action @ col_action)
        + 2.0 * bilin
        + odd
        - cross_sq
        - 2.0 * det_corr
    ) / 64.0 - (tr2 - tr2 * tr2) / 16.0

    return CharCoeffs(b0=b0, b1=b1, b2=b2, tr2=tr2)


def trig_params(c: CharCoeffs, coeff_tol: float = _DEGEN_COEFF_TOL) -> TrigParams:
    """Resolvent parameters (c1, c2, phi) for a real-spectrum quartic.

    phi comes from acos(c2 / (2 c1^3)) / 3 with the ratio clamped to
    [-1, 1]; the equivalent complex-argument form is exercised as an
    identity in the test suite. A vanishing c1 forces c2 to vanish as well
    (the discriminant identity leaves no room for anything else), so
    c1 <= TAU_BRANCH with |c2| materially nonzero raises
    InternalInconsistencyError instead of guessing.

    coeff_tol is the absolute uncertainty the caller attributes to b0 and
    b1; the realness guards scale with it so coefficients that are merely
    noisy are not mistaken for a complex spectrum.
    """
    band = 30.0 * coeff_tol
    disc = 12.0 * c.b0 + 3.0 * c.b1 + c.b2 * c.b2
    if disc < -max(1e-12, band):
        raise ValueError(f"12 b0 + 3 b1 + b2^2 = {disc:.3e} < 0: spectrum is not real")
    c1 = math.sqrt(disc) if disc > 0.0 else 0.0
    c2 = (
        27.0 * c.b1 * c.b1
        + c.b0 * (27.0 - 72.0 * c.b2)
        + 9.0 * c.b1 * c.b2
        + 2.0 * c.b2 ** 3
    )
    if c1 <= TAU_BRANCH:
        if abs(c2) > max(TAU_BRANCH, band):
            raise InternalInconsistencyError(
                f"c1 = {c1:.3e} vanishes but c2 = {c2:.3e} does not; "
                f"impossible for a real spectrum (coeffs {c})"
            )
        return TrigParams(c1=c1, c2=c2, phi=None)
    gap = c2 * c2 - 4.0 * c1 ** 6
    if gap > max(1e-9 * max(1.0, c1 ** 6), 2.0 * band * max(abs(c2), c1 ** 3)):
        raise ValueError(f"c2^2 - 4 c1^6 = {gap:.3e} > 0: spectrum is not real")
    ratio = c2 / (2.0 * c1 ** 3)
    ratio = min(1.0, max(-1.0, ratio))
    return TrigParams(c1=c1, c2=c2, phi=math.acos(ratio) / 3.0)


def _clamped_sqrt(
    x: float, what: str, band: float = _CLAMP_BAND, flush: float = 0.0
) -> float:
    """Square root with a one-sided error band and a symmetric noise flush.

    A radicand below -band is a real inconsistency. One at an exact double
    root should vanish but carries coefficient noise of either sign; the
    square root would amplify upward noise eps into a spurious splitting
    of order sqrt(eps), so anything at or below flush collapses to zero.
    """
    if x < -band:
        raise InternalInconsistencyError(f"{what} radicand {x:.6e} below clamping band")
    return math.sqrt(x) if x > flush else 0.0


def _poly_residual(c: CharCoeffs, eigs) -> float:
    return max(
        abs((((lam - 1.0) * lam + c.b2) * lam + c.b1) * lam + c.b0) for lam in eigs
    )


def _resolvent_terms(c: CharCoeffs, c1: float, cos_theta: float):
    """(sqrt(x), u, w) for the resolvent root x = 4 tr2 - 1 + 8 c1 cos_theta:
    the largest root at cos_theta = cos(phi), the middle one at cos_theta = 0
    when c2 = 0 (where u = x). The quartic's roots are
    1/4 + s sqrt(x)/(4 sqrt 3) +/- sqrt(u - s w)/(2 sqrt 6) for s = +/-1.
    None if x degenerates (which only happens next to the all-quarter
    point)."""
    x = 4.0 * c.tr2 - 1.0 + 8.0 * c1 * cos_theta
    if x <= 1e-12:
        return None
    sx = math.sqrt(x)
    u = 4.0 * c.tr2 - 1.0 - 4.0 * c1 * cos_theta
    w = 3.0 * SQRT3 * (1.0 + 8.0 * c.b1 - 2.0 * c.tr2) / sx
    return sx, u, w


def _generic_eigs(c: CharCoeffs, c1: float, cos_theta: float, band: float, flush: float):
    """Four roots from the resolvent root at cos_theta; None if that root
    degenerates."""
    terms = _resolvent_terms(c, c1, cos_theta)
    if terms is None:
        return None
    sx, u, w = terms
    shift = sx / (4.0 * SQRT3)
    half_low = _clamped_sqrt(u + w, "inner(-)", band, flush) / (2.0 * SQRT6)
    half_high = _clamped_sqrt(u - w, "inner(+)", band, flush) / (2.0 * SQRT6)
    return (
        0.25 + shift + half_high,
        0.25 + shift - half_high,
        0.25 - shift + half_low,
        0.25 - shift - half_low,
    )


def _single_triple(c: CharCoeffs, norm):
    """The single+triple spectrum at purity tr2 > 1/4 that best matches
    (b0, b1), as (mismatch, (eigenvalues, branch)).

    Case 1 is a low triple eigenvalue below a single large one, case 2 the
    mirror image. Each implies its own (b0, b1); norm combines the two
    absolute mismatches, and a tie goes to case 1.
    """
    s = math.sqrt(max(4.0 * c.tr2 - 1.0, 0.0))
    s3 = SQRT3 * s ** 3
    base0 = 3.0 - 6.0 * c.tr2 - 6.0 * c.tr2 * c.tr2
    base1 = 18.0 * c.tr2 - 9.0
    low = 0.25 - s / (4.0 * SQRT3)
    high = 0.25 + s / (4.0 * SQRT3)
    err1 = norm(abs(c.b0 - (base0 + s3) / 288.0), abs(c.b1 - (base1 - s3) / 72.0))
    err2 = norm(abs(c.b0 - (base0 - s3) / 288.0), abs(c.b1 - (base1 + s3) / 72.0))
    if err1 <= err2:
        best = ((0.25 + SQRT3 * s / 4.0, low, low, low), Branch.DOUBLE_ZERO_CASE1)
    else:
        best = ((high, high, high, 0.25 - SQRT3 * s / 4.0), Branch.DOUBLE_ZERO_CASE2)
    return min(err1, err2), best


def quartic_eigs(c: CharCoeffs, coeff_tol: float = _DEGEN_COEFF_TOL) -> QuarticSpectrum:
    """All four eigenvalues of the trace-one quartic, sorted descending.

    Dispatch, first match wins: single+triple spectra by coefficient
    proximity (see below), the double root at the origin (b0 = b1 = 0), a
    single root there (b0 = 0), then the all-quarter point and the
    c1 = c2 = 0 family, c2 = 0, and finally the generic trigonometric
    formula. The c2 = 0 branch evaluates that same formula on the middle
    resolvent root and on the largest one, and the candidate with the
    smaller polynomial residual wins; a residual beyond tolerance raises
    InternalInconsistencyError.

    The proximity pre-gate exists because a triple root is exactly where
    the trigonometric route is worst (it splits the root with an error of
    order the cube root of the coefficient noise) while the degenerate
    form, driven by tr2 alone, stays at machine precision. Residuals are
    flat near a multiple root and cannot arbitrate, so membership is
    tested where it is sharp: (b0, b1) against the values the single+triple
    family implies. Callers whose coefficients carry more rounding noise
    than direct trace evaluation (for example after rescaling by a small
    trace) widen every band at once through coeff_tol.
    """
    tp = trig_params(c, coeff_tol)
    band = max(_CLAMP_BAND, 300.0 * coeff_tol)
    flush = 30.0 * coeff_tol

    if c.tr2 > 0.25 + TAU_BRANCH and (near := _single_triple(c, max))[0] <= coeff_tol:
        candidates = [near[1]]
    elif abs(c.b0) <= coeff_tol and abs(c.b1) <= coeff_tol:
        # Vanishing b0 and b1 factor the quartic as lambda^2 times
        # (lambda^2 - lambda + b2): a double root at the origin beside a
        # well-conditioned quadratic pair. The resolvent route places the
        # origin pair only to square-root-of-noise accuracy when a third
        # eigenvalue sits nearby, so the factored form takes precedence.
        # It is still the generic stratum, just evaluated differently.
        r = _clamped_sqrt(1.0 - 4.0 * c.b2, "origin-pair factor", band, flush)
        candidates = [(((1.0 + r) / 2.0, (1.0 - r) / 2.0, 0.0, 0.0), Branch.GENERIC)]
    elif abs(c.b0) <= coeff_tol:
        # A vanishing constant term factors one root out at the origin
        # exactly. The residual cubic keeps a neighbor of that root well
        # conditioned, where the resolvent route would smear both.
        three, _ = cubic_eigs(cubic_coeffs(c, b0_tol=coeff_tol))
        candidates = [((three[0], three[1], three[2], 0.0), Branch.GENERIC)]
    elif tp.phi is None:
        # The all-quarter gate is deliberately much tighter than the
        # c1/c2 dispatch band: tr2 - 1/4 equals the summed squared
        # eigenvalue offsets, so it resolves a single+triple split of
        # size delta as 12 delta^2 well below the dispatch tolerance,
        # and the case forms reconstruct delta from it. A band of
        # 1e-8 here would flatten real splits up to 3e-5 wide; splits
        # under sqrt(coeff_tol/12) stay invisible either way.
        if abs(c.tr2 - 0.25) <= coeff_tol:
            candidates = [((0.25, 0.25, 0.25, 0.25), Branch.ALL_QUARTER)]
        else:
            # Summed mismatch here, maximal in the pre-gate (whose
            # tolerance bounds each coefficient). On near-single+triple
            # spectra such as (1/4 - 3e-6, 1/4 + 1e-6 x3) the two cases'
            # maximal mismatches tie at about 1e-17, and the tie would
            # pick case 1, 4e-6 off; the sums separate them.
            candidates = [_single_triple(c, operator.add)[1]]
    elif abs(tp.c2) <= TAU_BRANCH:
        # Middle resolvent root first, then the largest; a residual tie
        # goes to the middle root.
        tries = (_generic_eigs(c, tp.c1, ct, band, flush) for ct in (0.0, math.cos(tp.phi)))
        candidates = [(eigs, Branch.C2_ZERO) for eigs in tries if eigs is not None]
    else:
        eigs = _generic_eigs(c, tp.c1, math.cos(tp.phi), band, flush)
        candidates = [] if eigs is None else [(eigs, Branch.GENERIC)]

    if not candidates:
        raise InternalInconsistencyError(f"no computable branch for coefficients {c}")

    best = min(candidates, key=lambda cand: _poly_residual(c, cand[0]))
    residual = _poly_residual(c, best[0])
    if residual > max(_RESIDUAL_TOL, 30.0 * coeff_tol):
        raise InternalInconsistencyError(
            f"closed-form spectrum residual {residual:.3e} for coefficients {c}"
        )
    eigs = tuple(sorted(best[0], reverse=True))
    return QuarticSpectrum(eigenvalues=eigs, branch=best[1])


def cubic_coeffs(c: CharCoeffs, b0_tol: float = 1e-10) -> CubicCoeffs:
    """Reduce a quartic with vanishing constant term to its residual cubic
    lambda^3 - lambda^2 + b2 lambda + b1, adding d = 2 - 27 b1 - 9 b2."""
    if abs(c.b0) > b0_tol:
        raise ValueError(f"constant coefficient {c.b0:.3e} does not vanish")
    d = 2.0 - 27.0 * c.b1 - 9.0 * c.b2
    return CubicCoeffs(b1=c.b1, b2=c.b2, tr2=c.tr2, d=d)


def cubic_eigs(c: CubicCoeffs):
    """Nonzero-part spectrum of a rank <= 3 trace-one matrix.

    Returns (eigenvalues descending, branch string). Branches: "AllThird"
    for the fully degenerate point tr2 = 1/3, "DZero" when d = 0, and
    "Generic" for the trigonometric solution with
    cos(3 phi) = d / (2 (1 - 3 b2)^(3/2)).
    """
    shifted = 1.0 - 3.0 * c.b2  # equals (3 tr2 - 1)/2 for a trace-one input
    if shifted < -1e-10:
        raise ValueError(f"1 - 3 b2 = {shifted:.3e} < 0: spectrum is not real")
    if abs(c.tr2 - 1.0 / 3.0) <= TAU_BRANCH:
        third = 1.0 / 3.0
        return (third, third, third), "AllThird"
    if abs(c.d) <= TAU_BRANCH:
        spread = math.sqrt(1.5) * math.sqrt(max(3.0 * c.tr2 - 1.0, 0.0))
        eigs = ((1.0 + spread) / 3.0, 1.0 / 3.0, (1.0 - spread) / 3.0)
        return tuple(sorted(eigs, reverse=True)), "DZero"
    amp = math.sqrt(max(6.0 * c.tr2 - 2.0, 0.0))
    ratio = c.d / (2.0 * max(shifted, 1e-300) ** 1.5)
    ratio = min(1.0, max(-1.0, ratio))
    phi = math.acos(ratio) / 3.0
    eigs = (
        (1.0 + amp * math.cos(phi)) / 3.0,
        (1.0 - amp * math.cos(phi - math.pi / 3.0)) / 3.0,
        (1.0 - amp * math.cos(phi + math.pi / 3.0)) / 3.0,
    )
    return tuple(sorted(eigs, reverse=True)), "Generic"


def rank2_eigs(tr2: float):
    """The two nonzero eigenvalues of a rank-2 trace-one PSD matrix:
    (1 +/- sqrt(2 tr2 - 1)) / 2. Requires 1/2 <= tr2 <= 1."""
    if tr2 < 0.5 - 1e-10 or tr2 > 1.0 + 1e-10:
        raise ValueError(f"rank-2 purity must lie in [1/2, 1], got {tr2}")
    s = math.sqrt(max(2.0 * tr2 - 1.0, 0.0))
    return (1.0 + s) / 2.0, (1.0 - s) / 2.0


def purity_bound_check(eigs, zero_tol: float = 1e-10) -> bool:
    """Purity bounds for a trace-one spectrum: sum(l^2) >= 1/m with m the
    number of nonzero eigenvalues, and <= 1 when all eigenvalues are
    nonnegative."""
    eigs = [float(x) for x in eigs]
    tr2 = sum(x * x for x in eigs)
    m = sum(1 for x in eigs if abs(x) > zero_tol)
    if m == 0:
        return False
    if tr2 < 1.0 / m - 1e-10:
        return False
    if min(eigs) >= -zero_tol and tr2 > 1.0 + 1e-10:
        return False
    return True
