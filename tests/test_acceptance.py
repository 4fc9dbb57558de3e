"""Binding acceptance checks.

Each test here runs one contract criterion at its stated sample size and
tolerance and prints a single PASS line with the measured numbers (visible
under pytest -s or in the captured output). These are intentionally heavier
than the unit tests; the whole file runs in a couple of minutes.
"""

import logging
import math

import numpy as np

from twoqubit.bloch import partial_transpose, to_bloch
from twoqubit.chain import (
    chain_lambda_min,
    critical_noise,
    depolarize,
    max_transfer_distance,
    swap_gate,
)
from twoqubit.entanglement import concurrence, concurrence_pure, eof, eof_upper_bound, negativity
from twoqubit.errors import NotApplicableError
from twoqubit.linalg import eig_hermitian_oracle, kron
from twoqubit.sampling import (
    bell_state,
    embed_four_qubit,
    ginibre_density,
    haar_pure,
    pure_density,
    random_hermitian_trace_one,
    random_product_pure,
    rank_deficient_density,
    werner_state,
)
from twoqubit.separability import peres_test, pure_pt_spectrum, pure_separable
from twoqubit.spectrum import (
    Branch,
    coeffs_from_bloch,
    coeffs_from_traces,
    cubic_coeffs,
    cubic_eigs,
    purity_bound_check,
    quartic_eigs,
    rank2_eigs,
    trig_params,
)

log = logging.getLogger("twoqubit.acceptance")


def closed_vs_oracle(m):
    got = quartic_eigs(coeffs_from_traces(m)).eigenvalues
    want = eig_hermitian_oracle(m)
    return max(abs(a - b) for a, b in zip(got, want))


def test_criterion_1_eigenvalue_fidelity():
    """10^5 seeded random trace-one Hermitian matrices, closed form vs
    Jacobi, both a PSD family and the full Hermitian domain."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50_000):
        worst = max(worst, closed_vs_oracle(ginibre_density(rng)))
    for _ in range(50_000):
        worst = max(worst, closed_vs_oracle(random_hermitian_trace_one(rng)))
    assert worst <= 1e-9
    print(
        f"PASS criterion 1: eigenvalue fidelity, max |closed - oracle| = "
        f"{worst:.3e} <= 1e-9 over 100000 samples"
    )


def test_criterion_2_bloch_coefficient_route():
    """Bloch-parameter coefficient formulas vs Faddeev-LeVerrier on 10^5
    random tensors (PSD states and indefinite trace-one matrices)."""
    rng = np.random.default_rng(102)
    worst = 0.0
    for i in range(100_000):
        m = ginibre_density(rng) if i % 2 == 0 else random_hermitian_trace_one(rng)
        ca = coeffs_from_traces(m)
        cb = coeffs_from_bloch(to_bloch(m))
        worst = max(
            worst,
            abs(ca.b0 - cb.b0),
            abs(ca.b1 - cb.b1),
            abs(ca.b2 - cb.b2),
            abs(ca.tr2 - cb.tr2),
        )
    assert worst <= 1e-10
    print(
        f"PASS criterion 2: Bloch coefficient route, max coefficient "
        f"deviation = {worst:.3e} <= 1e-10 over 100000 tensors"
    )


def test_criterion_3_verdict_equivalence_and_werner_threshold():
    rng = np.random.default_rng(103)
    disagreements = 0
    lam_worst = 0.0
    for _ in range(100_000):
        rho = ginibre_density(rng)
        report = peres_test(rho)
        oracle_min = eig_hermitian_oracle(partial_transpose(rho))[-1]
        lam_worst = max(lam_worst, abs(report.lambda_min_pt - oracle_min))
        if report.separable != (oracle_min >= 0.0):
            disagreements += 1
            assert abs(oracle_min) <= 1e-10, (
                f"verdict disagreement at oracle lambda_min = {oracle_min:.3e}"
            )

    def lam_min(p):
        return peres_test(werner_state(p)).lambda_min_pt

    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if lam_min(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    p_star = 0.5 * (lo + hi)
    assert abs(p_star - 1.0 / 3.0) <= 1e-10
    print(
        f"PASS criterion 3: verdict equivalence on 100000 states "
        f"({disagreements} sign disagreements, all inside the 1e-10 band; "
        f"max |lambda_min - oracle| = {lam_worst:.3e}), werner threshold "
        f"p* = {p_star!r} within 1e-10 of 1/3"
    )


def test_criterion_4_pure_state_pt_spectrum():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(10_000):
        v = haar_pure(rng)
        got = pure_pt_spectrum(v)
        want = eig_hermitian_oracle(partial_transpose(pure_density(v)))
        worst = max(worst, max(abs(a - b) for a, b in zip(got, want)))
        a, b, c, d = v
        q = abs(a * d - b * c)
        assert pure_separable(v) == (q <= 1e-10)
        assert peres_test(pure_density(v)).separable == (q <= 1e-10)
    # exercise the separable side of the equivalence as well
    for _ in range(1_000):
        v = random_product_pure(rng)
        assert pure_separable(v)
        assert peres_test(pure_density(v)).separable
    assert worst <= 1e-12
    print(
        f"PASS criterion 4: pure-state PT spectrum, max |closed - oracle| = "
        f"{worst:.3e} <= 1e-12 over 10000 states; separability matches "
        f"|ad - bc| <= 1e-10 on all 11000 states"
    )


def test_criterion_5_chain_numbers():
    d1 = max_transfer_distance(0.5, 0.1)
    d2 = max_transfer_distance(0.5, 0.01)
    e1 = critical_noise(0.5, 10)
    e2 = critical_noise(0.5, 2)
    assert d1 == 10
    assert d2 == 109
    assert abs(e1 - 0.104042) <= 1e-6
    assert abs(e2 - 0.42265) <= 1e-5
    print(
        f"PASS criterion 5: chain numbers, distances ({d1}, {d2}) = (10, 109), "
        f"critical noise {e1!r} = 0.104042 +/- 1e-6 and {e2!r} = 0.42265 +/- 1e-5"
    )


def test_criterion_6_chain_formula_vs_simulation():
    """Closed-form lambda_min against the explicitly evolved state across
    the full grid: 50 noise values, three initial entanglements, 121 steps
    each, with the evolution advanced one hop at a time."""
    worst = 0.0
    for q in (0.1, 0.25, 0.5):
        theta = math.asin(2.0 * q) / 2.0
        rho0 = pure_density(np.array([math.cos(theta), 0.0, 0.0, math.sin(theta)]))
        for k in range(1, 51):
            eps = k / 100.0
            rho = rho0
            for n in range(0, 121):
                want = eig_hermitian_oracle(partial_transpose(rho))[-1]
                got = chain_lambda_min(q, eps, n)
                err = abs(got - want)
                worst = max(worst, err)
                assert err <= 1e-10, f"q={q} eps={eps} n={n}: err={err:.3e}"
                rho = depolarize(rho, eps)
    print(
        f"PASS criterion 6: chain formula vs simulation, max deviation = "
        f"{worst:.3e} <= 1e-10 over 18150 grid points"
    )


def test_criterion_7_degenerate_branches_and_purity_bounds():
    def diag(*xs):
        return np.diag(np.array(xs, dtype=complex))

    # fully degenerate point
    spec = quartic_eigs(coeffs_from_traces(np.eye(4, dtype=complex) / 4.0))
    assert spec.branch is Branch.ALL_QUARTER
    assert closed_vs_oracle(np.eye(4, dtype=complex) / 4.0) <= 1e-9

    # c2 = 0 with c1 alive: bisect onto the surface, then check the branch
    def c2_at(t):
        return trig_params(coeffs_from_traces(diag(0.8 - t, t, 0.15, 0.05))).c2

    lo, hi = 0.100, 0.125
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if c2_at(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    m = diag(0.8 - 0.5 * (lo + hi), 0.5 * (lo + hi), 0.15, 0.05)
    spec = quartic_eigs(coeffs_from_traces(m))
    assert spec.branch is Branch.C2_ZERO
    assert closed_vs_oracle(m) <= 1e-9

    # the two single+triple cases
    m = diag(0.7, 0.1, 0.1, 0.1)
    spec = quartic_eigs(coeffs_from_traces(m))
    assert spec.branch is Branch.DOUBLE_ZERO_CASE1
    assert closed_vs_oracle(m) <= 1e-9
    m = diag(0.3, 0.3, 0.3, 0.1)
    spec = quartic_eigs(coeffs_from_traces(m))
    assert spec.branch is Branch.DOUBLE_ZERO_CASE2
    assert closed_vs_oracle(m) <= 1e-9

    # d = 0 cubic: arithmetic-progression spectrum with one exact zero
    third = 1.0 / 3.0
    m = diag(third + 0.2, third, third - 0.2, 0.0)
    cc = cubic_coeffs(coeffs_from_traces(m))
    assert abs(cc.d) <= 1e-12
    eigs, branch = cubic_eigs(cc)
    assert branch == "DZero"
    oracle = eig_hermitian_oracle(m)
    assert max(abs(a - b) for a, b in zip(eigs, oracle[:3])) <= 1e-9

    # rank 2
    m = diag(0.7, 0.3, 0.0, 0.0)
    pair = rank2_eigs(coeffs_from_traces(m).tr2)
    oracle = eig_hermitian_oracle(m)
    assert max(abs(a - b) for a, b in zip(pair, oracle[:2])) <= 1e-9

    # purity bounds on a PSD corpus: 1/m <= tr2 <= 1
    rng = np.random.default_rng(107)
    checked = 0
    for _ in range(2000):
        rho = ginibre_density(rng)
        eigs = eig_hermitian_oracle(rho)
        assert purity_bound_check(eigs)
        checked += 1
    for rank in (1, 2, 3, 4):
        for _ in range(500):
            rho = rank_deficient_density(rng, rank)
            eigs = eig_hermitian_oracle(rho)
            assert purity_bound_check(eigs)
            tr2 = sum(x * x for x in eigs)
            m_nonzero = sum(1 for x in eigs if abs(x) > 1e-10)
            assert 1.0 / m_nonzero - 1e-10 <= tr2 <= 1.0 + 1e-10
            checked += 1
    print(
        f"PASS criterion 7: degenerate branches all dispatch correctly at "
        f"1e-9 accuracy; purity bounds hold on {checked} PSD samples"
    )


def test_criterion_8_entanglement_measures():
    rng = np.random.default_rng(108)
    worst_bridge = 0.0
    for _ in range(10_000):
        v = haar_pure(rng)
        got = concurrence(pure_density(v))
        worst_bridge = max(worst_bridge, abs(got - concurrence_pure(v)))
    assert worst_bridge <= 1e-10

    # measure/verdict agreement outside the marginal band, and the
    # full-rank upper bound with violations surfaced rather than swallowed
    violations = []
    agreement_checked = 0
    bound_checked = 0
    for i in range(5_000):
        rho = ginibre_density(rng)
        report = peres_test(rho)
        c = concurrence(rho)
        n = negativity(rho)
        if abs(report.lambda_min_pt) > 1e-8:
            agreement_checked += 1
            entangled = not report.separable
            assert (c > 1e-10) == entangled
            assert (n > 1e-10) == entangled
        try:
            bound = eof_upper_bound(rho)
        except NotApplicableError:
            continue
        bound_checked += 1
        e = eof(rho)
        if e > bound + 1e-9:
            violations.append((i, e, bound))
    for i, e, bound in violations:
        log.warning(
            "eof bound violation at sample %d: eof=%.12f > bound=%.12f", i, e, bound
        )
    assert not violations, f"{len(violations)} eof bound violations (see log)"
    print(
        f"PASS criterion 8: pure concurrence bridge max deviation = "
        f"{worst_bridge:.3e} <= 1e-10 over 10000 states; measures agree with "
        f"verdicts on {agreement_checked} non-marginal states; eof bound held "
        f"on all {bound_checked} full-rank samples (0 violations)"
    )


def test_criterion_9_four_qubit_swap_transfer():
    """S (x) S on |c> (x) Phi+ (x) |d> moves the Bell pair to the outer
    qubits (1, 4): their reduced state must be maximally entangled."""
    s = swap_gate()
    ss = kron(s, s)
    rng = np.random.default_rng(109)

    def outer_pair_state(vec):
        t = vec.reshape(2, 2, 2, 2)
        return np.einsum("iabj,kabl->ijkl", t, t.conj()).reshape(4, 4)

    cases = [
        (np.array([1.0, 0.0]), np.array([0.0, 1.0])),
        (np.array([1.0, 0.0]), np.array([1.0, 0.0])),
    ]
    for _ in range(3):
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        d = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        cases.append((c / np.linalg.norm(c), d / np.linalg.norm(d)))

    worst = 0.0
    for c, d in cases:
        before = embed_four_qubit(c, bell_state(), d)
        # qubits 1 and 4 start in a product state across the chain
        assert concurrence(outer_pair_state(before)) == 0.0
        after = ss @ before
        got = concurrence(outer_pair_state(after))
        worst = max(worst, abs(got - 1.0))
    assert worst <= 1e-12
    print(
        f"PASS criterion 9: four-qubit swap transfer, outer-pair concurrence "
        f"= 1 within {worst:.3e} <= 1e-12 on {len(cases)} embeddings"
    )
