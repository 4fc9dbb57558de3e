"""Peres criterion: closed-form partial-transpose spectra and verdicts."""

import math

import numpy as np
import pytest

from twoqubit import spectrum
from twoqubit.bloch import partial_transpose, partial_transpose_bloch, to_bloch
from twoqubit.entanglement import concurrence_pure
from twoqubit.errors import InternalInconsistencyError
from twoqubit.linalg import eig_hermitian_oracle
from twoqubit.sampling import (
    bell_state,
    ginibre_density,
    haar_pure,
    near_quarter_density,
    pure_density,
    random_hermitian_trace_one,
    random_product_pure,
    rank_deficient_density,
    werner_state,
)
from twoqubit.separability import (
    TAU_SEP,
    _State,
    inequality_rhs,
    peres_test,
    pt_coeffs,
    pure_pt_spectrum,
    pure_separable,
)
from twoqubit.spectrum import (
    _even_terms,
    _pt_odd_terms,
    coeffs_from_bloch,
    coeffs_from_traces,
    quartic_eigs,
)

# Every sampling family, as a density (or trace-one Hermitian) matrix.
FAMILIES = {
    "ginibre": ginibre_density,
    "hermitian": random_hermitian_trace_one,
    "rank1": lambda rng: rank_deficient_density(rng, 1),
    "rank2": lambda rng: rank_deficient_density(rng, 2),
    "rank3": lambda rng: rank_deficient_density(rng, 3),
    "near_quarter": near_quarter_density,
    "werner": lambda rng: werner_state(rng.uniform(-1.0 / 3.0, 1.0)),
    "product": lambda rng: pure_density(random_product_pure(rng)),
}


def pt_oracle_min(rho):
    return eig_hermitian_oracle(partial_transpose(rho))[-1]


def parts(u):
    """(xi_a, xi_b, rows of A) of a (4, 4) tensor as plain floats, the
    argument form of spectrum._even_terms and spectrum._pt_odd_terms."""
    rows = u.tolist()
    return (
        tuple(r[0] for r in rows[1:]),
        tuple(rows[0][1:]),
        tuple(tuple(r[1:]) for r in rows[1:]),
    )


# The numpy formulation of the Bloch polynomials, the reference for the
# plain-float pass: the same formulas on 3-vectors and 3x3 blocks.


def _ref_det3(a):
    return float(
        a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
        - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
        + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
    )


def _ref_pt_odd_terms(u):
    xi_a = u[1:, 0]
    xi_b = u[0, 1:]
    corr = u[1:, 1:]
    tr_corr = float(corr[0, 0] + corr[1, 1] + corr[2, 2])
    tr_corr_sq = float((corr * corr.T).sum())
    quad = float(xi_b @ corr @ (corr @ xi_a))
    bilin_rev = float(xi_b @ corr @ xi_a)
    odd = (
        (tr_corr * tr_corr - tr_corr_sq) * float(xi_a @ xi_b)
        + 2.0 * quad
        - 2.0 * tr_corr * bilin_rev
    )
    return odd, _ref_det3(corr)


def _ref_even_terms(u):
    xi_a = u[1:, 0]
    xi_b = u[0, 1:]
    corr = u[1:, 1:]
    bilin = float(xi_a @ corr @ xi_b)
    row_action = corr.T @ xi_a
    col_action = corr @ xi_b
    gram = corr @ corr.T
    tr_gram = float(gram[0, 0] + gram[1, 1] + gram[2, 2])
    cross_sq = 0.5 * (tr_gram * tr_gram - float((gram * gram).sum()))
    rest = (
        4.0
        - float(xi_a @ xi_a) * float(xi_b @ xi_b)
        - float(row_action @ row_action)
        - float(col_action @ col_action)
    )
    return bilin, rest, cross_sq


def ref_bloch_pass(t):
    """(s, (k3, k4), (k3', k4')) of t and of its partial transpose."""
    x = np.array(t, dtype=float)
    x[0, 0] = 0.0
    s = 0.5 * math.sqrt(float((x * x).sum()))
    u = x / s
    bilin, rest, cross_sq = _ref_even_terms(u)
    odd, det_corr = _ref_pt_odd_terms(u)
    k3, k4 = (bilin - det_corr) / 8.0, (rest + odd - cross_sq) / 64.0
    return s, (k3, k4), (k3 + det_corr / 4.0, k4 - odd / 32.0)


def test_pt_coeffs_match_direct_evaluation():
    """The coefficient-space PT map against brute force on the transposed
    matrix. The map itself also cross-checks against the Bloch route
    internally, so this closes the triangle."""
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(500):
        rho = ginibre_density(rng)
        cp = pt_coeffs(to_bloch(rho))
        want = coeffs_from_traces(partial_transpose(rho))
        worst = max(
            worst,
            abs(cp.b0 - want.b0),
            abs(cp.b1 - want.b1),
            abs(cp.b2 - want.b2),
            abs(cp.tr2 - want.tr2),
        )
    assert worst <= 1e-12


def test_verdict_matches_oracle_sign():
    rng = np.random.default_rng(42)
    lam_worst = 0.0
    for _ in range(2000):
        rho = ginibre_density(rng)
        report = peres_test(rho, check=False)
        oracle_min = pt_oracle_min(rho)
        lam_worst = max(lam_worst, abs(report.lambda_min_pt - oracle_min))
        if abs(oracle_min) > TAU_SEP:
            assert report.separable == (oracle_min >= 0.0)
    assert lam_worst <= 1e-9


def test_werner_threshold_by_bisection():
    def lam_min(p):
        return peres_test(werner_state(p), check=False).lambda_min_pt

    lo, hi = 0.0, 1.0
    assert lam_min(lo) > 0.0 > lam_min(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if lam_min(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    p_star = 0.5 * (lo + hi)
    assert abs(p_star - 1.0 / 3.0) <= 1e-10


def test_werner_marginal_flag():
    report = peres_test(werner_state(1.0 / 3.0), check=False)
    assert report.separable and report.marginal
    report = peres_test(werner_state(0.5), check=False)
    assert not report.separable and not report.marginal
    assert abs(report.lambda_min_pt + 0.125) <= 1e-12


def test_pure_pt_spectrum_vs_oracle():
    rng = np.random.default_rng(43)
    worst = 0.0
    for _ in range(500):
        v = haar_pure(rng)
        got = pure_pt_spectrum(v)
        want = eig_hermitian_oracle(partial_transpose(pure_density(v)))
        worst = max(worst, max(abs(a - b) for a, b in zip(got, want)))
    assert worst <= 1e-12


def test_pure_pt_rejects_unnormalized():
    """Every pure-state entry point checks the norm: a scaled Bell vector
    is not a state, whatever its |ad - bc|."""
    with pytest.raises(ValueError):
        pure_pt_spectrum(np.array([1.0, 0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        concurrence_pure(np.array([1.0, 0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        pure_separable(np.array([1e-6, 0.0, 0.0, 1e-6]))


def test_pure_separability_split():
    rng = np.random.default_rng(44)
    for _ in range(100):
        assert pure_separable(random_product_pure(rng))
        v = haar_pure(rng)
        # Haar states are entangled almost surely; verify against the verdict
        assert pure_separable(v) == peres_test(pure_density(v), check=False).separable
    assert not pure_separable(bell_state())


def test_inequality_form_matches_lambda_min():
    """Where defined, the explicit inequality right side must equal
    1 - 4 lambda_min of the PT quartic."""
    rng = np.random.default_rng(45)
    seen = 0
    for _ in range(500):
        rho = ginibre_density(rng)
        cp = pt_coeffs(to_bloch(rho))
        rhs = inequality_rhs(cp)
        if rhs is None:
            continue
        seen += 1
        lam_min = quartic_eigs(cp).eigenvalues[-1]
        assert abs(rhs - (1.0 - 4.0 * lam_min)) <= 1e-9
    assert seen > 450


def test_inequality_agreement_flag():
    rng = np.random.default_rng(46)
    for _ in range(300):
        report = peres_test(ginibre_density(rng), check=False)
        assert report.inequality_agrees is not False


def test_peres_product_pure_is_separable():
    rng = np.random.default_rng(47)
    for _ in range(50):
        report = peres_test(pure_density(random_product_pure(rng)), check=False)
        assert report.separable
        assert report.lambda_min_pt >= -TAU_SEP


def test_rank_shortcut_single_zero():
    # A diagonal state is its own partial transpose, so a zero on the
    # diagonal leaves one vanishing PT eigenvalue. The general quartic
    # path must land it exactly on zero: separable and marginal.
    rho = np.diag([0.5, 0.3, 0.2, 0.0]).astype(complex)
    report = peres_test(rho, check=False)
    assert report.separable
    assert report.marginal
    assert abs(report.lambda_min_pt - pt_oracle_min(rho)) <= 1e-12


def test_rank_shortcut_agrees_with_peres():
    """Random diagonal rank-3 states, the rank-deficient PT case: the
    closed-form lambda_min agrees with the oracle and the verdict is
    separable, as it is for every diagonal state."""
    rng = np.random.default_rng(49)
    for _ in range(200):
        w = rng.dirichlet(np.ones(3))
        rho = np.diag([w[0], w[1], w[2], 0.0]).astype(complex)
        report = peres_test(rho, check=False)
        assert report.separable
        assert report.lambda_min_pt >= -TAU_SEP
        assert abs(report.lambda_min_pt - pt_oracle_min(rho)) <= 1e-12


def test_validation_is_on_by_default():
    not_a_state = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        peres_test(not_a_state)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_record_shares_one_bloch_pass(family):
    """The column flip negates A's y column and xi_b's y entry. Every
    product in s, bilin, rest and cross_sq pairs two of those negations or
    squares one, so they equal the flipped tensor's exactly and det A is
    exactly negated: the PT cross-check loses nothing by reusing them. The
    record's c and cp are, bit for bit, the public functions' answers."""
    rng = np.random.default_rng(sorted(FAMILIES).index(family) + 90)
    for _ in range(200):
        rho = FAMILIES[family](rng)
        t = to_bloch(rho)
        c = coeffs_from_bloch(t)
        assert coeffs_from_bloch(partial_transpose_bloch(t)).s == c.s
        u = t.copy()
        u[0, 0] = 0.0
        u /= c.s
        flipped = parts(partial_transpose_bloch(u))
        assert _even_terms(*flipped) == _even_terms(*parts(u))
        assert _pt_odd_terms(*flipped)[1] == -_pt_odd_terms(*parts(u))[1]
        record = _State(rho)
        assert record.c == c
        assert record.cp == pt_coeffs(t)


def test_pt_cross_check_rejects_wrong_odd_terms(monkeypatch):
    """An odd term off by 1e-6 everywhere moves k4 by 1e-6/64 and the PT
    k4 by -1e-6/64, while the flipped tensor's k4 moves by +1e-6/64: the
    check sees a drift of 1e-6/32 = 3.1e-8 and peres_test raises."""

    def off_by_delta(xa, xb, a):
        odd, det_corr = _pt_odd_terms(xa, xb, a)
        return odd + 1e-6, det_corr

    monkeypatch.setattr(spectrum, "_pt_odd_terms", off_by_delta)
    with pytest.raises(InternalInconsistencyError, match=r"drifted 3\.12\de-08"):
        peres_test(ginibre_density(np.random.default_rng(98)), check=False)


REFERENCE_FAMILIES = ("ginibre", "near_quarter", "rank2", "rank3", "pure", "werner")


@pytest.mark.parametrize("family", REFERENCE_FAMILIES)
def test_bloch_pass_matches_numpy_reference(family):
    """The plain-float pass sums its products in another order than the
    numpy formulation, so the two agree to rounding, not bit for bit. On
    the unit tensor every term is O(1), so k3 and k4 agree within a few
    ulps of 1; s (at most sqrt(3) / 2) within two ulps of 1."""
    make = {**FAMILIES, "pure": lambda rng: pure_density(haar_pure(rng))}[family]
    rng = np.random.default_rng(REFERENCE_FAMILIES.index(family) + 130)
    worst_k = worst_s = 0.0
    for _ in range(5000):
        t = to_bloch(make(rng))
        c, cp = spectrum._bloch_pass(t)
        s, (k3, k4), (k3p, k4p) = ref_bloch_pass(t)
        worst_s = max(worst_s, abs(c.s - s))
        worst_k = max(
            worst_k, abs(c.k3 - k3), abs(c.k4 - k4), abs(cp.k3 - k3p), abs(cp.k4 - k4p)
        )
        assert cp.s == c.s
    assert worst_k <= 1e-15
    assert worst_s <= 4.4e-16
