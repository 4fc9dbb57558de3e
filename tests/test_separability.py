"""Peres criterion: closed-form partial-transpose spectra and verdicts."""

import math
import sys
import threading

import numpy as np
import pytest

from twoqubit import bloch, entanglement, separability, spectrum
from twoqubit.bloch import (
    HERMITIAN_TOL,
    PSD_TOL,
    TRACE_TOL,
    partial_transpose,
    partial_transpose_bloch,
    to_bloch,
    validate_density_matrix,
)
from twoqubit.entanglement import (
    _report,
    concurrence,
    concurrence_pure,
    entanglement_report,
    eof_upper_bound,
    negativity,
)
from twoqubit.errors import InternalInconsistencyError, NotApplicableError
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
    _verdict,
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
    matrix: the check that pins the map's orientation."""
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
        report = peres_test(rho)
        oracle_min = pt_oracle_min(rho)
        lam_worst = max(lam_worst, abs(report.lambda_min_pt - oracle_min))
        if abs(oracle_min) > TAU_SEP:
            assert report.separable == (oracle_min >= 0.0)
    assert lam_worst <= 1e-9


def test_werner_threshold_by_bisection():
    def lam_min(p):
        return peres_test(werner_state(p)).lambda_min_pt

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
    report = peres_test(werner_state(1.0 / 3.0))
    assert report.separable and report.marginal
    report = peres_test(werner_state(0.5))
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


@pytest.mark.parametrize("helper", [pure_pt_spectrum, pure_separable, concurrence_pure])
@pytest.mark.parametrize(
    "bad", [float("nan"), float("inf"), complex(0.0, float("nan"))], ids=["nan", "inf", "imag_nan"]
)
def test_pure_helpers_reject_non_finite_amplitudes(helper, bad):
    """A NaN norm compares false against any tolerance, so [1, 0, 0, nan]
    used to pass the norm check and read as entangled."""
    with pytest.raises(ValueError, match="^state contains non-finite amplitudes$"):
        helper([1.0, 0.0, 0.0, bad])


@pytest.mark.parametrize("helper", [pure_pt_spectrum, pure_separable, concurrence_pure])
def test_pure_helpers_reject_overflowing_norm(helper):
    """A finite amplitude whose square overflows is unnormalized, not an
    OverflowError."""
    with pytest.raises(ValueError, match=r"^state is not normalized \(norm\^2 = inf\)$"):
        helper([1e200, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("helper", [pure_pt_spectrum, pure_separable, concurrence_pure])
def test_pure_helpers_take_four_amplitudes(helper):
    """Any other count is a ValueError that says so, not an unpacking
    error; a (2, 2) coefficient array is four amplitudes, and |ad - bc|
    is its determinant."""
    for n in (3, 5):
        with pytest.raises(ValueError, match=f"^expected 4 amplitudes, got {n}$"):
            helper([1.0] + [0.0] * (n - 1))
    v = haar_pure(np.random.default_rng(47))
    assert helper(v.reshape(2, 2)) == helper(v)


def test_pure_separability_split():
    rng = np.random.default_rng(44)
    for _ in range(100):
        assert pure_separable(random_product_pure(rng))
        v = haar_pure(rng)
        # Haar states are entangled almost surely; verify against the verdict
        assert pure_separable(v) == peres_test(pure_density(v)).separable
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
    """The paper's explicit form, taken on a report's PT coefficients,
    agrees with the report's verdict. Over 2000 draws per family it was
    defined on every Ginibre, rank-2, rank-3, Haar pure and near_quarter
    draw, and on no product pure or Werner draw, whose PT spectra
    quartic_eigs solves on a degenerate branch. Where defined it was at
    most 6.9e-13 from 1 - 4 lambda_min_pt (Haar pure, worst of ten seeds;
    0 on Ginibre, rank-2 and rank-3)."""
    make = {**FAMILIES, "pure": lambda rng: pure_density(haar_pure(rng))}
    families = ("ginibre", "rank2", "rank3", "pure", "near_quarter", "product", "werner")
    for k, family in enumerate(families):
        rng = np.random.default_rng(46 + k)
        for _ in range(300):
            report = peres_test(make[family](rng))
            rhs = inequality_rhs(report.pt_coeffs)
            if family in ("product", "werner"):
                assert rhs is None, family
                continue
            assert rhs is not None, family
            assert (rhs <= 1.0 + 4.0 * TAU_SEP) == report.separable, family
            assert abs(rhs - (1.0 - 4.0 * report.lambda_min_pt)) <= 1e-11, family


def test_peres_product_pure_is_separable():
    rng = np.random.default_rng(47)
    for _ in range(50):
        report = peres_test(pure_density(random_product_pure(rng)))
        assert report.separable
        assert report.lambda_min_pt >= -TAU_SEP


def test_rank_shortcut_single_zero():
    # A diagonal state is its own partial transpose, so a zero on the
    # diagonal leaves one vanishing PT eigenvalue. The general quartic
    # path must land it exactly on zero: separable and marginal.
    rho = np.diag([0.5, 0.3, 0.2, 0.0]).astype(complex)
    report = peres_test(rho)
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
        report = peres_test(rho)
        assert report.separable
        assert report.lambda_min_pt >= -TAU_SEP
        assert abs(report.lambda_min_pt - pt_oracle_min(rho)) <= 1e-12


def test_validation_is_on_by_default():
    not_a_state = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        peres_test(not_a_state)


def _hermiticity_edge(rho, rng):
    """rho + iK, K real symmetric and zero on the diagonal: every pair
    difference m_ij - conj(m_ji) = 2iK_ij, the largest 0.999 HERMITIAN_TOL."""
    k = rng.standard_normal((4, 4))
    k = k + k.T
    np.fill_diagonal(k, 0.0)
    return rho + 1j * k * (0.999 * HERMITIAN_TOL / (2.0 * np.abs(k).max()))


def _diagonal_edge(rho, rng):
    """Imaginary diagonal parts of 0.49 HERMITIAN_TOL that sum to zero,
    signed to add up in one Bloch coefficient (a03, a30 or a33)."""
    signs = ((1, -1, 1, -1), (1, 1, -1, -1), (1, -1, -1, 1))[rng.integers(3)]
    return rho + 1j * np.diag(0.49 * HERMITIAN_TOL * np.array(signs, dtype=float))


def _trace_edge(rho, rng):
    return rho * (1.0 + rng.choice((-1.0, 1.0)) * 0.999 * TRACE_TOL)


def _psd_edge(rho, rng):
    """The smallest eigenvalue moved to -0.99 PSD_TOL, the largest taking
    up the difference so the trace stays one."""
    w, v = np.linalg.eigh(rho)
    w[-1] += w[0] + 0.99 * PSD_TOL
    w[0] = -0.99 * PSD_TOL
    m = (v * w) @ v.conj().T
    return (m + m.conj().T) / 2.0


EDGES = {
    "hermiticity": _hermiticity_edge,
    "diagonal imag": _diagonal_edge,
    "trace": _trace_edge,
    "lambda_min": _psd_edge,
}


def test_states_at_the_validation_edges_get_answers():
    """States pushed to just inside one validation tolerance at a time are
    accepted, and every public measure answers them; only eof_upper_bound
    may refuse, with NotApplicableError. Every family but the indefinite
    "hermitian" one, which holds no states."""
    rng = np.random.default_rng(80)
    for edge_name, edge in EDGES.items():
        for family, draw in FAMILIES.items():
            if family == "hermitian":
                continue
            for _ in range(40):
                m = edge(np.asarray(draw(rng), dtype=complex), rng)
                where = f"{edge_name}, {family}"
                validate_density_matrix(m)
                assert math.isfinite(peres_test(m).lambda_min_pt), where
                report = entanglement_report(m)
                assert math.isfinite(report.concurrence + report.negativity), where
                assert 0.0 <= concurrence(m) <= 1.0, where
                assert negativity(m) >= 0.0, where
                try:
                    assert math.isfinite(eof_upper_bound(m)), where
                except NotApplicableError:
                    pass


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_record_shares_one_bloch_pass(family):
    """The column flip negates A's y column and xi_b's y entry. Every
    product in s, bilin, rest and cross_sq pairs two of those negations or
    squares one, so they equal the flipped tensor's exactly and det A is
    exactly negated: the PT map only negates the odd terms. The record's c
    and cp are, bit for bit, the public functions' answers."""
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
        c, cp = spectrum._bloch_pass(t.tolist())
        s, (k3, k4), (k3p, k4p) = ref_bloch_pass(t)
        worst_s = max(worst_s, abs(c.s - s))
        worst_k = max(
            worst_k, abs(c.k3 - k3), abs(c.k4 - k4), abs(cp.k3 - k3p), abs(cp.k4 - k4p)
        )
        assert cp.s == c.s
    assert worst_k <= 1e-15
    assert worst_s <= 4.4e-16


def answers(s):
    """Both reports of a record, as text, so that the signs of zeros count."""
    return repr(_verdict(s)), repr(_report(s))


def public_answers(rho):
    return repr(peres_test(rho)), repr(entanglement_report(rho))


def test_consecutive_calls_share_one_record(monkeypatch):
    """peres_test then entanglement_report on one matrix reads, validates
    and runs the Bloch pass once, and solves one quartic of rho's, the
    partial transpose's (a Ginibre state's factor has rank 4, so validation
    needs no shifted one). The factorization runs twice: rho's, kept by the
    record, whose last pivot certifies the EoF bound's gate without the
    factor at -TAU_BRANCH, and the verdict's certificate, the factor of
    rho^PT + TAU_SEP I. The concurrence solves one more quartic, of
    tau^dagger tau, under entanglement's name.
    On a rank-2 state it runs three times, rho's, validation's at
    +PSD_TOL / 2 and the verdict's: the EoF bound reads the kept rank-2
    factor and skips its gate, and the rank-2 concurrence solves no
    quartic. The answers are a fresh record's."""
    calls = dict.fromkeys(("_bloch_pass", "_check_rows", "_factor", "quartic_eigs", "tau quartic"), 0)

    def counted(module, name, key=None):
        real = getattr(module, name)

        def wrapper(*args):
            calls[key or name] += 1
            return real(*args)

        return wrapper

    for name in ("_bloch_pass", "_check_rows", "quartic_eigs"):
        monkeypatch.setattr(separability, name, counted(separability, name))
    tau_quartic = counted(entanglement, "quartic_eigs", "tau quartic")
    monkeypatch.setattr(entanglement, "quartic_eigs", tau_quartic)
    # One counter for every name the factorization is called by.
    factor = counted(bloch, "_factor")
    for module in (bloch, separability, entanglement):
        monkeypatch.setattr(module, "_factor", factor)
    rng = np.random.default_rng(150)
    for _ in range(20):
        rho = ginibre_density(rng)
        before = dict(calls)
        got = public_answers(rho)
        assert {k: calls[k] - before[k] for k in calls} == {
            "_bloch_pass": 1,
            "_check_rows": 1,
            "_factor": 2,
            "quartic_eigs": 1,
            "tau quartic": 1,
        }
        assert got == answers(_State(rho))
    for _ in range(20):
        rho = rank_deficient_density(rng, 2)
        before = dict(calls)
        got = public_answers(rho)
        assert {k: calls[k] - before[k] for k in calls} == {
            "_bloch_pass": 1,
            "_check_rows": 1,
            "_factor": 3,
            "quartic_eigs": 1,
            "tau quartic": 0,
        }
        assert got == answers(_State(rho))


def test_record_is_not_shared_with_a_mutated_array():
    """A record keeps rows of its own: an array changed in place after a
    call gets a fresh record's answers, and a change that makes it
    unphysical is caught by the next checked call."""
    rng = np.random.default_rng(151)
    rho = ginibre_density(rng)
    public_answers(rho)
    other = ginibre_density(rng)
    rho[...] = other
    assert public_answers(rho) == answers(_State(other))
    rho[0, 0] += 0.5
    rho[1, 1] -= 0.5
    with pytest.raises(ValueError, match="not positive semidefinite"):
        peres_test(rho)
    # lambda_min = -7e-11: the certificate declines and eigvalsh accepts.
    # A matching matrix read after the first one changed must still be
    # judged on its own entries, not on the changed array's.
    edge = np.diag([0.5, 0.3, 0.2 + 7e-11, -7e-11]).astype(complex)
    same = edge.copy()
    peres_test(edge)
    edge[...] = np.diag([1.2, -0.2, 0.0, 0.0])
    assert public_answers(same) == answers(_State(same))


@pytest.mark.parametrize(
    "bad, message",
    [
        (np.diag([1.2, -0.2, 0.0, 0.0]), "not positive semidefinite"),
        (np.diag([0.25, 0.25, 0.25, 0.25]) + np.triu(np.full((4, 4), 1e-3), 1), "not Hermitian"),
    ],
    ids=["non_psd", "non_hermitian"],
)
def test_refused_matrix_keeps_no_record(bad, message):
    """A matrix validation refuses raises on every call, whichever measure
    is asked for, and leaves the last valid state's record in the slot,
    whose answers are still a fresh record's."""
    bad = bad.astype(complex)
    rho = ginibre_density(np.random.default_rng(152))
    public_answers(rho)
    kept = separability._last[0]
    for call in (peres_test, concurrence, entanglement_report, peres_test, negativity):
        with pytest.raises(ValueError, match=message):
            call(bad)
        assert separability._last[0] is kept
    assert public_answers(rho) == answers(_State(rho))


def test_failed_stage_is_raised_again(monkeypatch):
    """A stage that raises keeps nothing: with the fault gone, the same
    matrix gets a fresh record's answers."""
    rho = ginibre_density(np.random.default_rng(153))
    real = separability._bloch_pass

    def broken(t_rows):
        raise InternalInconsistencyError("injected")

    monkeypatch.setattr(separability, "_bloch_pass", broken)
    for _ in range(2):
        with pytest.raises(InternalInconsistencyError, match="injected"):
            peres_test(rho)
    monkeypatch.setattr(separability, "_bloch_pass", real)
    assert public_answers(rho) == answers(_State(rho))


def test_record_key_includes_the_shape():
    """A (16,) array with the same bytes as the last matrix is not a 4x4
    matrix."""
    rho = ginibre_density(np.random.default_rng(154))
    peres_test(rho)
    with pytest.raises(ValueError, match="^expected a 4x4 matrix$"):
        peres_test(rho.ravel())


def test_signed_zeros_get_their_own_record():
    """-0.0 and 0.0 compare equal but are different bits; the memo keys on
    the bits, so each matrix gets a record of its own bits and that
    record's answers."""
    rho = np.diag([0.5, 0.3, 0.2, 0.0]).astype(complex)
    neg = rho.copy()
    neg[rho == 0] = complex(-0.0, -0.0)
    for first, second in ((rho, neg), (neg, rho)):
        public_answers(first)
        assert public_answers(second) == answers(_State(second))
        assert repr(separability._checked_state(second).rows) == repr(second.tolist())


def test_threads_alternating_states_get_serial_answers():
    """Four threads (more than the cores here), each calling on two states
    in turn with a short switch interval, race for the one slot; every
    answer is the one a fresh record gives."""
    rng = np.random.default_rng(155)
    states = [ginibre_density(rng), werner_state(0.8)]
    want = [answers(_State(rho)) for rho in states]
    wrong = []
    start = threading.Barrier(4)

    def worker(offset):
        start.wait()
        for i in range(200):
            k = (i + offset) % 2
            if public_answers(states[k]) != want[k]:
                wrong.append((offset, i))

    threads = [threading.Thread(target=worker, args=(k % 2,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
