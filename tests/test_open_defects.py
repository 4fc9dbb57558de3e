"""Reproducers of defects, open ones pinned as strict expected failures.

Each reason names the ROADMAP item that fixes it. The change that fixes a
defect makes its test pass, and strict mode then fails the run until that
change drops the marker; the test then stays as a regression test. Every
draw below shows its defect on the solver that had it, so the assertions
hold each draw, not only the worst one.
"""

import math

import numpy as np
import pytest

from twoqubit.bloch import partial_transpose, to_bloch
from twoqubit.entanglement import entanglement_report, eof_upper_bound
from twoqubit.sampling import near_quarter_density, werner_state
from twoqubit.separability import _State, peres_test
from twoqubit.spectrum import coeffs_from_bloch, coeffs_from_traces, quartic_eigs

DRAWS = 20


def haar_unitary(rng, n):
    """n x n Haar unitary (QR of a complex Ginibre matrix)."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def haar_rotated(spectrum, rng):
    u = haar_unitary(rng, 4)
    m = u @ np.diag(spectrum) @ u.conj().T
    return (m + m.conj().T) / 2.0


def test_small_negative_eigenvalue_keeps_its_sign():
    """ROADMAP 2(a): the b0 ~ 0 gate of quartic_eigs flushed lambda4 = -1e-9
    to 0.0 while it sat at 5e-13; b0 = -2.5e-15 here."""
    rng = np.random.default_rng(71)
    spectrum = (0.5, 0.5 - 1e-5 + 1e-9, 1e-5, -1e-9)
    for _ in range(DRAWS):
        lam4 = quartic_eigs(coeffs_from_traces(haar_rotated(spectrum, rng))).eigenvalues[-1]
        assert abs(lam4 + 1e-9) <= 1e-11


def _normalized(spectrum):
    return tuple(x / sum(spectrum) for x in spectrum)


# ROADMAP 2: spectra whose product of eigenvalues lies between the rank band
# and the old 5e-13 gate, with the error each had there.
RANK_GATE_SPECTRA = {
    # 8.1e-5 off: lambda4 = 4.0e-5 read as 0.0, its weight on lambda3.
    "diagonal": (_normalized((0.99970, 2.02e-4, 6.06e-5, 4.04e-5)), False, 2e-8),
    # 4.0e-6 off in 50 of 50 draws.
    "near_pure": ((1.0 - 4e-3 - 8e-6, 4e-3, 4e-6, 4e-6), True, 1e-11),
    # 1.0e-6 off in 50 of 50 draws.
    "pair": ((0.5, 0.5 - 2e-6, 1e-6, 1e-6), True, 1e-10),
}


@pytest.mark.parametrize("route", ["bloch", "traces"])
@pytest.mark.parametrize("name", sorted(RANK_GATE_SPECTRA))
def test_rank_gate_keeps_small_eigenvalues(name, route):
    """With the rank gates at b0's rounding, each spectrum comes back within
    about four times its largest error over 50 draws on either coefficient
    route (4.6e-9, 1.0e-12 and 1.9e-11; the diagonal's remainder is the
    cluster floor of ROADMAP item 4)."""
    spectrum, rotate, gate = RANK_GATE_SPECTRA[name]
    coeffs = (lambda m: coeffs_from_bloch(to_bloch(m))) if route == "bloch" else coeffs_from_traces
    rng = np.random.default_rng(75)
    for _ in range(DRAWS):
        m = haar_rotated(spectrum, rng) if rotate else np.diag(spectrum).astype(complex)
        got = np.array(quartic_eigs(coeffs(m)).eigenvalues)
        assert np.max(np.abs(got - np.linalg.eigvalsh(m)[::-1])) <= gate


def test_eof_upper_bound_answers_on_full_rank_diagonal():
    """ROADMAP 2: the old gate read this full-rank state's lambda4 as 0.0,
    and eof_upper_bound raised NotApplicableError on it. The bound is
    1 - 4 lambda_min of the partial transpose (here the same diagonal), so
    it carries four times lambda_min's cluster floor: 5.3e-9 off."""
    rho = np.diag(RANK_GATE_SPECTRA["diagonal"][0]).astype(complex)
    lam_min = np.linalg.eigvalsh(partial_transpose(rho))[0]
    assert abs(eof_upper_bound(rho) - min(max(1.0 - 4.0 * lam_min, 0.0), 1.0)) <= 2e-8


def test_weakly_entangled_pure_state_is_entangled():
    """ROADMAP 2(c): the closed-form lambda_min_pt reads pure states with
    q = |ad - bc| <= 7e-7 as 0.0, and the verdict took them as separable
    while it read that value; the factor of rho^PT + TAU_SEP I does not."""
    rng = np.random.default_rng(72)
    q = 1e-7
    theta = 0.5 * math.asin(2.0 * q)  # cos(theta) sin(theta) = q
    psi = np.array([math.cos(theta), 0.0, 0.0, math.sin(theta)], dtype=complex)
    for _ in range(DRAWS):
        v = np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2)) @ psi
        assert not peres_test(np.outer(v, v.conj())).separable


def depolarized_weak_pure(q, t, rng):
    """(1 - p)|psi><psi| + p I/4 with psi = cos(theta)|00> + sin(theta)|11>,
    cos(theta) sin(theta) = q, under a local Haar rotation. The partial
    transpose of the pure part has lambda_min = -q and I/4 is its own
    partial transpose, so p = (t + q) / (q + 1/4) puts lambda_min(rho^PT)
    at t."""
    theta = 0.5 * math.asin(2.0 * q)
    psi = np.array([math.cos(theta), 0.0, 0.0, math.sin(theta)], dtype=complex)
    v = np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2)) @ psi
    p = (t + q) / (q + 0.25)
    m = (1.0 - p) * np.outer(v, v.conj()) + p * np.eye(4) / 4.0
    return (m + m.conj().T) / 2.0


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP 2b: a PT spectrum whose b0 sits in the rank band reads lambda_min = 0.0",
)
@pytest.mark.parametrize("q, t", [(1e-5, -1e-6), (1e-4, -1e-8)], ids=lambda x: f"{x:g}")
def test_depolarized_weak_pure_state_is_entangled(q, t):
    """The product of the PT eigenvalues is about -1.6e-16 at q = 1e-5,
    t = -1e-6, inside the rank band |b0| <= 1e-15 of quartic_eigs, so
    lambda_min is read as 0.0: every draw in both cells (50 of 50 over
    seed 9). The verdict, from the factor, is right."""
    rng = np.random.default_rng(76)
    for _ in range(DRAWS):
        rho = depolarized_weak_pure(q, t, rng)
        sep = peres_test(rho)
        assert abs(sep.lambda_min_pt - np.linalg.eigvalsh(partial_transpose(rho))[0]) <= 1e-12
        assert not sep.separable


# ROADMAP 2's grid: q = |ad - bc| of the pure part and t = lambda_min(rho^PT),
# every cell with t + q >= 0 (34 of them).
WEAK_GRID = [
    (q, t)
    for q in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 3e-6)
    for t in (-1e-5, -1e-6, -1e-7, -1e-8, -1e-9, 1e-8)
    if t + q >= 0.0
]


def test_depolarized_weak_pure_verdicts_follow_eigvalsh():
    """ROADMAP 2a: the verdict of every cell of the grid, 3 draws each,
    is the sign of eigvalsh's lambda_min(rho^PT). While the verdict read
    the closed-form lambda_min, 650 of 1700 draws (50 a cell, seed 9) in
    13 cells were called separable."""
    rng = np.random.default_rng(9)
    wrong = []
    for q, t in WEAK_GRID:
        for _ in range(3):
            rho = depolarized_weak_pure(q, t, rng)
            entangled = np.linalg.eigvalsh(partial_transpose(rho))[0] < 0.0
            if peres_test(rho).separable == entangled:
                wrong.append((q, t))
    assert len(WEAK_GRID) == 34
    assert wrong == []


def test_near_quarter_spectrum_accuracy():
    """ROADMAP 1: the monic quartic's resolvent invariants cancel near I/4
    (2.7e-4 off at spread 1e-3); those of the unit shape do not."""
    rng = np.random.default_rng(73)
    d = 1e-3
    spectrum = (0.25 + d, 0.25 + d / 3, 0.25 - d / 2, 0.25 - 5 * d / 6)
    for _ in range(DRAWS):
        m = haar_rotated(spectrum, rng)
        got = quartic_eigs(coeffs_from_traces(m)).eigenvalues
        want = np.linalg.eigvalsh(m)[::-1]
        assert np.max(np.abs(np.array(got) - want)) <= 1e-9


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP 3: quartic_eigs' shape flush returns a close pair near I/4 as a double root",
)
def test_close_pair_near_quarter_is_resolved():
    """The draws of near_quarter_density (seed 2) on which `twoqubit fuzz
    --family near_quarter --samples 20000 --seed 2` breaches its 1e-9
    eigenvalue gate: the shape gates flush a pair closer than about
    1e-6 sqrt(s) to its mean, 1.6e-9, 3.2e-9 and 1.6e-9 off eigvalsh."""
    rng = np.random.default_rng(2)
    for index in range(18163):
        rho = near_quarter_density(rng)
        if index in (160, 10879, 18162):
            got = np.array(quartic_eigs(_State(rho).c).eigenvalues)
            assert np.max(np.abs(got - np.linalg.eigvalsh(rho)[::-1])) <= 1e-9


def near_mixed(g, rng):
    """The near-maximally-mixed recipe (1/4+3g, 1/4-g, 1/4-g/2, 1/4-3g/2)."""
    return haar_rotated((0.25 + 3 * g, 0.25 - g, 0.25 - g / 2, 0.25 - 1.5 * g), rng)


def near_quarter(d, rng):
    """The near-all-quarter recipe (1/4+d, 1/4+d/3, 1/4-d/2, 1/4-5d/6)."""
    return haar_rotated((0.25 + d, 0.25 + d / 3, 0.25 - d / 2, 0.25 - 5 * d / 6), rng)


def rotated_werner(p, rng):
    """Werner state under a local Haar rotation: single+triple, and so is
    its partial transpose."""
    u = np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2))
    m = u @ werner_state(p) @ u.conj().T
    return (m + m.conj().T) / 2.0


@pytest.mark.parametrize(
    "recipe, spread",
    [(near_mixed, 10.0**-k) for k in range(3, 10)]
    + [(near_quarter, 10.0**-k) for k in range(2, 10)]
    + [(rotated_werner, 10.0**-k) for k in range(4, 10)],
    ids=lambda x: x.__name__ if callable(x) else f"{x:g}",
)
def test_spectra_near_quarter_are_exact(recipe, spread):
    """ROADMAP 1 and the bench's 3(a) signature: states within 1e-2 of I/4
    neither raise nor lose digits, in their own spectrum or their partial
    transpose's, all the way down to a spread of 1e-9."""
    rng = np.random.default_rng(74)
    for _ in range(DRAWS):
        rho = recipe(spread, rng)
        sep = peres_test(rho)
        entanglement_report(rho)
        own = quartic_eigs(coeffs_from_bloch(to_bloch(rho))).eigenvalues
        pt = quartic_eigs(sep.pt_coeffs).eigenvalues
        assert np.max(np.abs(np.array(own) - np.linalg.eigvalsh(rho)[::-1])) <= 1e-12
        want_pt = np.linalg.eigvalsh(partial_transpose(rho))[::-1]
        assert np.max(np.abs(np.array(pt) - want_pt)) <= 1e-12
