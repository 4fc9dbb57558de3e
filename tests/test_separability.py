"""Peres criterion: closed-form partial-transpose spectra and verdicts."""

import dataclasses
import sys

import numpy as np
import pytest

from twoqubit.bloch import partial_transpose, partial_transpose_bloch, to_bloch
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
    _bloch_pass,
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


def test_pt_coeffs_match_direct_evaluation():
    """The coefficient-space PT map against brute force on the transposed
    matrix. The map itself also cross-checks against the Bloch route
    internally, so this closes the triangle."""
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(500):
        rho = ginibre_density(rng)
        cp = pt_coeffs(coeffs_from_traces(rho), to_bloch(rho))
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
    with pytest.raises(ValueError):
        pure_pt_spectrum(np.array([1.0, 0.0, 0.0, 1.0]))


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
        cp = pt_coeffs(coeffs_from_traces(rho), to_bloch(rho))
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
        c, _, bilin, rest, cross_sq, _, det_corr = _bloch_pass(t)
        cf, _, bilin_f, rest_f, cross_sq_f, _, det_f = _bloch_pass(partial_transpose_bloch(t))
        assert (cf.s, bilin_f, rest_f, cross_sq_f) == (c.s, bilin, rest, cross_sq)
        assert det_f == -det_corr
        record = _State(rho)
        assert record.c == coeffs_from_bloch(t)
        assert record.cp == pt_coeffs(record.c, t)


def test_pt_cross_check_rejects_moved_coefficients():
    t = to_bloch(ginibre_density(np.random.default_rng(97)))
    c = coeffs_from_bloch(t)
    pt_coeffs(c, t)
    with pytest.raises(InternalInconsistencyError, match="drifted"):
        pt_coeffs(dataclasses.replace(c, k4=c.k4 + 1e-6), t)


def test_pt_cross_check_rejects_wrong_odd_terms(monkeypatch):
    """An odd term off by 1e-6 everywhere moves k4 by 1e-6/64 and the PT
    k4 by -1e-6/64, while the flipped tensor's k4 moves by +1e-6/64: the
    check sees a drift of 1e-6/32 = 3.1e-8 and peres_test raises."""

    def off_by_delta(t):
        odd, det_corr = _pt_odd_terms(t)
        return odd + 1e-6, det_corr

    holders = [
        mod
        for name, mod in sorted(sys.modules.items())
        if name.startswith("twoqubit") and getattr(mod, "_pt_odd_terms", None) is _pt_odd_terms
    ]
    assert len(holders) >= 2  # spectrum, which defines it, and separability
    for mod in holders:
        monkeypatch.setattr(mod, "_pt_odd_terms", off_by_delta)
    with pytest.raises(InternalInconsistencyError, match=r"drifted 3\.12\de-08"):
        peres_test(ginibre_density(np.random.default_rng(98)), check=False)
