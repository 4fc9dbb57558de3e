"""Closed-form quartic spectrum: coefficient routes, branch dispatch, and
the rank-reduced solvers, all against the Jacobi oracle."""

import cmath
import math

import numpy as np
import pytest

from twoqubit.errors import InternalInconsistencyError
from twoqubit.linalg import eig_hermitian_oracle
from twoqubit.sampling import (
    ginibre_density,
    haar_pure,
    pure_density,
    random_hermitian_trace_one,
    rank_deficient_density,
    werner_state,
)
from twoqubit.spectrum import (
    Branch,
    CharCoeffs,
    CubicCoeffs,
    TAU_BRANCH,
    _RANK_TOL,
    coeffs_from_bloch,
    coeffs_from_traces,
    cubic_coeffs,
    cubic_eigs,
    purity_bound_check,
    quartic_eigs,
    rank2_eigs,
    trig_params,
)
from twoqubit.bloch import to_bloch
from twoqubit.separability import inequality_rhs, pt_coeffs


def diag_density(*xs):
    return np.diag(np.array(xs, dtype=complex))


def spectrum_error(m):
    got = quartic_eigs(coeffs_from_traces(m)).eigenvalues
    want = eig_hermitian_oracle(m)
    return max(abs(a - b) for a, b in zip(got, want))


# ---------------------------------------------------------------------------
# coefficient routes
# ---------------------------------------------------------------------------


def test_coeffs_known_diagonal():
    c = coeffs_from_traces(diag_density(0.4, 0.3, 0.2, 0.1))
    assert abs(c.b0 - 0.0024) <= 1e-14
    assert abs(c.b1 + 0.05) <= 1e-14
    assert abs(c.b2 - 0.35) <= 1e-14
    assert abs(c.tr2 - 0.30) <= 1e-14


def test_coeffs_reject_wrong_trace():
    with pytest.raises(ValueError):
        coeffs_from_traces(np.eye(4, dtype=complex))


@pytest.mark.parametrize(
    "m", [0.25, np.full((1, 4), 0.25), np.full((4, 1), 0.25)], ids=["scalar", "row", "column"]
)
def test_trace_route_rejects_non_square_input(m):
    """Unchecked, each broadcasts against I/4 and reads as the coefficients
    of a spectrum (1, 0, 0, 0)."""
    with pytest.raises(ValueError, match="^expected a 4x4 matrix$"):
        coeffs_from_traces(m)


def test_bloch_route_agrees_with_trace_route():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(1000):
        m = ginibre_density(rng) if rng.uniform() < 0.5 else random_hermitian_trace_one(rng)
        ca = coeffs_from_traces(m)
        cb = coeffs_from_bloch(to_bloch(m))
        worst = max(
            worst,
            abs(ca.b0 - cb.b0),
            abs(ca.b1 - cb.b1),
            abs(ca.b2 - cb.b2),
            abs(ca.tr2 - cb.tr2),
        )
    assert worst <= 1e-12


def test_bloch_route_rejects_bad_shape():
    with pytest.raises(ValueError):
        coeffs_from_bloch(np.zeros((3, 3)))


@pytest.mark.parametrize("route", [coeffs_from_bloch, pt_coeffs])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_bloch_route_rejects_non_finite_tensor(route, bad):
    """from_bloch's check and words; unchecked, the coefficients are NaN."""
    t = np.eye(4)
    t[1, 2] = bad
    with pytest.raises(ValueError, match="^tensor contains non-finite entries$"):
        route(t)


@pytest.mark.parametrize("route", [coeffs_from_bloch, pt_coeffs])
def test_bloch_route_rejects_overflowing_scale(route):
    """Finite entries whose squares overflow give s = inf, which is
    refused as the state measures refuse an overflowing product."""
    t = np.eye(4)
    t[1, 2] = 1e200
    with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
        route(t)


# ---------------------------------------------------------------------------
# resolvent parameters
# ---------------------------------------------------------------------------


def test_phi_range_and_sign_convention():
    """c2 > 0 must land phi below pi/6, c2 < 0 above it, never outside
    [0, pi/3]. The complex-argument form of the same angle has to agree."""
    rng = np.random.default_rng(32)
    checked = 0
    for _ in range(1000):
        m = ginibre_density(rng) if rng.uniform() < 0.5 else random_hermitian_trace_one(rng)
        tp = trig_params(coeffs_from_traces(m))
        if tp.phi is None:
            continue
        checked += 1
        assert 0.0 <= tp.phi <= math.pi / 3.0 + 1e-15
        if tp.c2 > TAU_BRANCH:
            assert tp.phi < math.pi / 6.0
        elif tp.c2 < -TAU_BRANCH:
            assert tp.phi > math.pi / 6.0
        gap = max(4.0 * tp.c1**6 - tp.c2**2, 0.0)
        phi_arg = cmath.phase(complex(tp.c2, math.sqrt(gap))) / 3.0
        assert abs(tp.phi - phi_arg) <= 1e-9
    assert checked > 900  # the degenerate gate should almost never fire here


def test_trig_params_rejects_unreal_spectrum():
    # 1/4 + 12 k4 < 0: c1 would be imaginary
    with pytest.raises(ValueError):
        trig_params(CharCoeffs(s=0.5, k3=0.0, k4=-1.0))


def test_trig_params_rejects_vanishing_c1_with_live_c2():
    # 1/4 + 12 k4 = 0 while c2 = -1: impossible for any real spectrum, so
    # it must be flagged rather than dispatched.
    with pytest.raises(InternalInconsistencyError):
        trig_params(CharCoeffs(s=0.5, k3=0.0, k4=-1.0 / 48.0))


# ---------------------------------------------------------------------------
# quartic spectrum vs oracle
# ---------------------------------------------------------------------------


def test_quartic_vs_oracle_random_families():
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(2000):
        u = rng.uniform()
        if u < 0.4:
            m = ginibre_density(rng)
        elif u < 0.8:
            m = random_hermitian_trace_one(rng)
        else:
            m = rank_deficient_density(rng, int(rng.integers(1, 5)))
        worst = max(worst, spectrum_error(m))
    assert worst <= 1e-9


def test_quartic_output_invariants():
    rng = np.random.default_rng(34)
    for _ in range(200):
        c = coeffs_from_traces(ginibre_density(rng))
        eigs = quartic_eigs(c).eigenvalues
        assert list(eigs) == sorted(eigs, reverse=True)
        assert abs(sum(eigs) - 1.0) <= 1e-12
        assert abs(sum(x * x for x in eigs) - c.tr2) <= 1e-10


def test_quartic_rejects_inconsistent_coefficients():
    # No real spectrum has this shape (real shapes have k4 <= 1/16): its
    # roots are two complex pairs, which pass the discriminant sign test,
    # so the inconsistency surfaces as a negative inner radicand.
    c = CharCoeffs(s=0.5, k3=0.0, k4=0.1)
    with pytest.raises(InternalInconsistencyError):
        quartic_eigs(c)


@pytest.mark.parametrize("field", ["s", "k3", "k4"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("s", [0.3, 0.0], ids=["s0.3", "s0"])
def test_quartic_rejects_non_finite_coefficients(field, bad, s):
    """Unchecked, a NaN k3 is flushed to zero in a radicand and reads as a
    finite Generic spectrum; every non-finite coefficient raises
    ValueError, also beside s = 0."""
    c = dict(s=s, k3=0.05, k4=-0.01)
    c[field] = bad
    with pytest.raises(ValueError, match="^coefficients must be finite"):
        quartic_eigs(CharCoeffs(**c))


@pytest.mark.parametrize("field", ["s", "k3", "k4"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "route, message",
    [
        (trig_params, "^coefficients must be finite"),
        (inequality_rhs, "^coefficients must be finite"),
        (cubic_coeffs, "^constant coefficient"),
    ],
    ids=["trig_params", "inequality_rhs", "cubic_coeffs"],
)
def test_coefficient_routes_reject_non_finite(route, message, field, bad):
    """trig_params holds quartic_eigs' finiteness gate, and inequality_rhs
    calls it first; cubic_coeffs refuses a NaN b0. Unchecked, a NaN k3 gave
    phi = pi/3, a finite inequality_rhs and a finite cubic spectrum."""
    c = dict(s=0.3, k3=0.05, k4=-0.01)
    c[field] = bad
    with pytest.raises(ValueError, match=message):
        route(CharCoeffs(**c))


@pytest.mark.parametrize("k3, k4", [(0.0, -1.0 / 48.0), (0.7, 0.3), (-1e6, 5.0)])
def test_coefficient_routes_read_s0_as_quarter(k3, k4):
    """At s = 0 the matrix is I/4 whatever finite k3 and k4 say: the
    finiteness gate passes them and trig_params reads them as 0, so a
    hand-built CharCoeffs(0, 0, -1/48) is not refused as an internal
    inconsistency."""
    c = CharCoeffs(0.0, k3, k4)
    assert trig_params(c) == trig_params(CharCoeffs(0.0, 0.0, 0.0))
    spec = quartic_eigs(c)
    assert spec.branch is Branch.ALL_QUARTER
    assert spec.eigenvalues == (0.25, 0.25, 0.25, 0.25)
    assert inequality_rhs(c) is None


# ---------------------------------------------------------------------------
# branch dispatch
# ---------------------------------------------------------------------------


def test_branch_all_quarter():
    spec = quartic_eigs(coeffs_from_traces(np.eye(4, dtype=complex) / 4.0))
    assert spec.branch is Branch.ALL_QUARTER
    assert max(abs(x - 0.25) for x in spec.eigenvalues) == 0.0


def test_branch_single_above_triple():
    spec = quartic_eigs(coeffs_from_traces(diag_density(0.7, 0.1, 0.1, 0.1)))
    assert spec.branch is Branch.DOUBLE_ZERO_CASE1
    want = (0.7, 0.1, 0.1, 0.1)
    assert max(abs(a - b) for a, b in zip(spec.eigenvalues, want)) <= 1e-12


def test_branch_triple_above_single():
    spec = quartic_eigs(coeffs_from_traces(diag_density(0.3, 0.3, 0.3, 0.1)))
    assert spec.branch is Branch.DOUBLE_ZERO_CASE2
    want = (0.3, 0.3, 0.3, 0.1)
    assert max(abs(a - b) for a, b in zip(spec.eigenvalues, want)) <= 1e-12


def test_branch_c2_zero_via_bisection():
    """Bisect a one-parameter diagonal family onto the c2 = 0 surface and
    check the dedicated branch fires there with full accuracy."""

    def c2_at(t):
        c = coeffs_from_traces(diag_density(0.8 - t, t, 0.15, 0.05))
        return trig_params(c).c2

    lo, hi = 0.100, 0.125
    assert c2_at(lo) > 0.0 > c2_at(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if c2_at(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    t = 0.5 * (lo + hi)
    m = diag_density(0.8 - t, t, 0.15, 0.05)
    spec = quartic_eigs(coeffs_from_traces(m))
    assert spec.branch is Branch.C2_ZERO
    assert spectrum_error(m) <= 1e-12


def test_origin_pair_factorization():
    # b0 = b1 = 0 without a triple root: the quartic factors through
    # lambda^2, still reported as the generic stratum.
    spec = quartic_eigs(coeffs_from_traces(diag_density(0.8, 0.2, 0.0, 0.0)))
    assert spec.branch is Branch.GENERIC
    assert max(abs(a - b) for a, b in zip(spec.eigenvalues, (0.8, 0.2, 0.0, 0.0))) <= 1e-12
    spec = quartic_eigs(coeffs_from_traces(diag_density(0.5, 0.5, 0.0, 0.0)))
    assert max(abs(a - b) for a, b in zip(spec.eigenvalues, (0.5, 0.5, 0.0, 0.0))) <= 1e-12


def test_single_zero_factorization():
    spec = quartic_eigs(coeffs_from_traces(diag_density(0.5, 0.3, 0.2, 0.0)))
    assert spec.branch is Branch.GENERIC
    assert max(abs(a - b) for a, b in zip(spec.eigenvalues, (0.5, 0.3, 0.2, 0.0))) <= 1e-12


def test_near_quarter_resolution_walk():
    """Spectra close to the fully degenerate point: the unit shape carries
    the split at every scale, so it is resolved to rounding all the way
    down, and only I/4 itself takes the all-quarter branch."""
    for p, tol in ((1e-1, 1e-11), (1e-3, 1e-11), (1e-5, 1e-11), (1e-6, 1e-9)):
        m = werner_state(p)
        exact = sorted([(1 + 3 * p) / 4] + [(1 - p) / 4] * 3, reverse=True)
        got = quartic_eigs(coeffs_from_traces(m)).eigenvalues
        err = max(abs(a - b) for a, b in zip(got, exact))
        assert err <= tol, f"p={p}: err={err:.3e}"
    # tr2 - 1/4 is lost to rounding here, the unit shape is not
    for p in (3e-7, 1e-12):
        spec = quartic_eigs(coeffs_from_traces(werner_state(p)))
        assert spec.branch is Branch.DOUBLE_ZERO_CASE1
        exact = sorted([(1 + 3 * p) / 4] + [(1 - p) / 4] * 3, reverse=True)
        assert max(abs(a - b) for a, b in zip(spec.eigenvalues, exact)) <= 1e-16


def test_single_triple_fallback_uses_summed_mismatch():
    """(1/4 + 1e-6 x3, 1/4 - 3e-6) lies within 1e-17 of both single+triple
    cases in (b0, b1). On the unit shape the cases share k4 and the sign of
    k3 picks case 2 (case 1 would be 4e-6 off), whichever gate claims the
    input: the exact shape, or one nudged in k3 past the pre-gate (c1 = 0
    with c2 inside its band)."""
    s = 2e-6 * math.sqrt(3.0)
    want = (0.25 + 1e-6, 0.25 + 1e-6, 0.25 + 1e-6, 0.25 - 3e-6)
    k3 = -1.0 / (3.0 * math.sqrt(3.0))
    for nudge in (0.0, -2e-7):
        spec = quartic_eigs(CharCoeffs(s=s, k3=k3 + nudge, k4=-1.0 / 48.0))
        assert spec.branch is Branch.DOUBLE_ZERO_CASE2
        assert max(abs(a - b) for a, b in zip(spec.eigenvalues, want)) <= 1e-11


# ---------------------------------------------------------------------------
# rank-reduced solvers
# ---------------------------------------------------------------------------


def test_cubic_generic():
    c = coeffs_from_traces(diag_density(0.5, 0.3, 0.2, 0.0))
    eigs, branch = cubic_eigs(cubic_coeffs(c))
    assert branch == "Generic"
    assert max(abs(a - b) for a, b in zip(eigs, (0.5, 0.3, 0.2))) <= 1e-12


def test_cubic_all_third():
    third = 1.0 / 3.0
    c = coeffs_from_traces(diag_density(third, third, third, 0.0))
    eigs, branch = cubic_eigs(cubic_coeffs(c))
    assert branch == "AllThird"
    assert max(abs(x - third) for x in eigs) <= 1e-12


def test_cubic_d_zero():
    # an arithmetic progression around 1/3 sits exactly on the d = 0 surface
    third = 1.0 / 3.0
    c = coeffs_from_traces(diag_density(third + 0.2, third, third - 0.2, 0.0))
    cc = cubic_coeffs(c)
    assert abs(cc.d) <= 1e-12
    eigs, branch = cubic_eigs(cc)
    assert branch == "DZero"
    want = (third + 0.2, third, third - 0.2)
    assert max(abs(a - b) for a, b in zip(eigs, want)) <= 1e-12


def test_cubic_coeffs_rejects_live_constant_term():
    c = coeffs_from_traces(diag_density(0.4, 0.3, 0.2, 0.1))
    with pytest.raises(ValueError):
        cubic_coeffs(c)


def test_cubic_rejects_unreal():
    with pytest.raises(ValueError):
        cubic_eigs(CubicCoeffs(b1=0.0, b2=0.4, tr2=0.1, d=2.0 - 9.0 * 0.4))


def test_cubic_inconsistent_record_raises_typed_error():
    # 1 - 3 b2 = 0 leaves the generic branch nothing to divide by, while
    # tr2 = 0.34 says the spectrum is split: b2 and tr2 disagree, which is
    # an internal inconsistency, not an arithmetic error.
    with pytest.raises(InternalInconsistencyError):
        cubic_eigs(CubicCoeffs(b1=0.0, b2=1.0 / 3.0, tr2=0.34, d=0.5))


def test_cubic_all_third_below_a_third():
    # A fourth eigenvalue of 1e-11 passes the b0 gate and leaves tr2 just
    # below 1/3, where 1 - 3 b2 is negative: that is the amp = 0 snap, not a
    # division by the floored 1 - 3 b2.
    third = 1.0 / 3.0
    m = diag_density(third + 1e-6, third, third - 1e-6 - 1e-11, 1e-11)
    c = coeffs_from_traces(m)
    assert c.tr2 < third - 1e-15
    eigs, branch = cubic_eigs(cubic_coeffs(c))
    assert branch == "AllThird" and eigs == (third, third, third)
    quartic_eigs(c)


def haar_rotated(spectrum, rng):
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, r = np.linalg.qr(z)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    m = (u * np.asarray(spectrum)) @ u.conj().T
    return (m + m.conj().T) / 2.0


@pytest.mark.parametrize(
    "kind, e, tol",
    [
        ("progression", 3e-5, 1e-9),
        ("progression", 1e-5, 1e-9),
        ("progression", 1e-6, 1e-9),
        ("near_triple", 1e-3, 1e-7),
    ],
)
def test_rank3_near_triple_keeps_its_split(kind, e, tol):
    """Three eigenvalues within e of 1/3 beside an exact zero reach
    cubic_eigs through the b0 gate. Its snaps act only inside the rounding
    of tr2 - 1/3 and d, so a real split comes back as the split: the
    progression (1/3 + e, 1/3, 1/3 - e) sits on d = 0 exactly, the generic
    triple (1/3 + a, 1/3 + b, 1/3 - a - b) has a, b uniform in +/-e."""
    rng = np.random.default_rng(76)
    third = 1.0 / 3.0
    for _ in range(20):
        a, b = (e, 0.0) if kind == "progression" else rng.uniform(-e, e, 2)
        m = haar_rotated((third + a, third + b, third - a - b, 0.0), rng)
        got = np.array(quartic_eigs(coeffs_from_traces(m)).eigenvalues)
        assert np.max(np.abs(got - np.linalg.eigvalsh(m)[::-1])) <= tol


def test_rank2():
    pair = rank2_eigs(0.58)
    assert abs(pair[0] - 0.7) <= 1e-12 and abs(pair[1] - 0.3) <= 1e-12
    assert rank2_eigs(1.0) == (1.0, 0.0)
    assert rank2_eigs(0.5) == (0.5, 0.5)
    with pytest.raises(ValueError):
        rank2_eigs(0.4)
    with pytest.raises(ValueError):
        rank2_eigs(1.1)


@pytest.mark.parametrize("tr2", [math.nan, math.inf, -math.inf])
def test_rank2_refuses_non_finite_purity(tr2):
    with pytest.raises(ValueError, match="rank-2 purity must lie in"):
        rank2_eigs(tr2)


def test_purity_bounds():
    rng = np.random.default_rng(35)
    for _ in range(200):
        rank = int(rng.integers(1, 5))
        eigs = eig_hermitian_oracle(rank_deficient_density(rng, rank))
        assert purity_bound_check(eigs)
    assert not purity_bound_check((0.5, 0.2, 0.0, 0.0))  # tr2 below 1/m
    assert not purity_bound_check((1.2, 0.1, 0.0, 0.0))  # nonnegative, tr2 above 1
    assert not purity_bound_check((0.0, 0.0, 0.0, 0.0))


def _rank2_mixture(rng):
    """(1-p)|v><v| + p|u><u| with v, u Haar and p from 1e-1 to 1e-8."""
    p = 10.0 ** -int(rng.integers(1, 9))
    m = (1.0 - p) * pure_density(haar_pure(rng)) + p * pure_density(haar_pure(rng))
    return (m + m.conj().T) / 2.0


@pytest.mark.parametrize("route", ["bloch", "traces"])
def test_rank_band_sits_above_b0_rounding(route):
    """The rank gates of quartic_eigs read |b0| <= _RANK_TOL as a zero
    eigenvalue and |b0|, |b1| <= _RANK_TOL as two. On exact rank-3 states b0
    is rounding, and so are b0 and b1 on exact rank-2 states: at most
    3.9e-17 and 1.7e-16 over 2 x 10^4 draws of each family on either route
    (b0 of the concurrence's padded rank-3 tau^dagger tau: 2.4e-17). The
    band is 1e-15, at least four times that here."""
    coeffs = (lambda m: coeffs_from_bloch(to_bloch(m))) if route == "bloch" else coeffs_from_traces
    rng = np.random.default_rng(95)
    worst = 0.0
    for _ in range(1000):
        c = coeffs(rank_deficient_density(rng, 3))
        worst = max(worst, abs(c.b0))
        for rho in (rank_deficient_density(rng, 2), _rank2_mixture(rng)):
            c = coeffs(rho)
            worst = max(worst, abs(c.b0), abs(c.b1))
    assert worst <= _RANK_TOL / 4.0
