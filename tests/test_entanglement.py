"""Concurrence, entanglement of formation, negativity, and the full-rank
upper bound, checked against structure and against numpy where independent."""

import math

import numpy as np
import pytest

from twoqubit.entanglement import (
    concurrence,
    concurrence_pure,
    entanglement_report,
    eof,
    eof_upper_bound,
    negativity,
    spin_flip,
)
from twoqubit.errors import NotApplicableError
from twoqubit.sampling import (
    bell_state,
    ginibre_density,
    haar_pure,
    pure_density,
    random_product_pure,
    rank_deficient_density,
    werner_state,
)
from twoqubit.separability import peres_test


def concurrence_reference(rho):
    """Independent route: numpy eigenvalues of the (non-Hermitian) flip
    product, clipped and rooted."""
    mu = np.linalg.eigvals(rho @ spin_flip(rho))
    mu = np.clip(np.sort(mu.real)[::-1], 0.0, None)
    r = np.sqrt(mu)
    return max(0.0, r[0] - r[1] - r[2] - r[3])


def test_spin_flip_is_an_involution():
    rng = np.random.default_rng(51)
    rho = ginibre_density(rng)
    assert np.max(np.abs(spin_flip(spin_flip(rho)) - rho)) <= 1e-15


def test_spin_flip_fixes_bell_projector():
    rho = pure_density(bell_state())
    assert np.max(np.abs(spin_flip(rho) - rho)) <= 1e-15


def test_concurrence_extremes():
    assert abs(concurrence(pure_density(bell_state()), check=False) - 1.0) <= 1e-12
    rng = np.random.default_rng(52)
    for _ in range(50):
        rho = pure_density(random_product_pure(rng))
        assert concurrence(rho, check=False) == 0.0
    assert concurrence(np.eye(4, dtype=complex) / 4.0, check=False) == 0.0


def test_concurrence_pure_bridge():
    rng = np.random.default_rng(53)
    worst = 0.0
    for _ in range(1000):
        v = haar_pure(rng)
        got = concurrence(pure_density(v), check=False)
        worst = max(worst, abs(got - concurrence_pure(v)))
    assert worst <= 1e-10


def test_concurrence_werner_formula():
    for p in np.linspace(-1.0 / 3.0, 1.0, 29):
        want = max(0.0, (3.0 * p - 1.0) / 2.0)
        got = concurrence(werner_state(p), check=False)
        assert abs(got - want) <= 1e-10, f"p={p}"


def test_concurrence_vs_numpy_on_mixed_states():
    rng = np.random.default_rng(54)
    worst = 0.0
    for _ in range(500):
        rho = ginibre_density(rng)
        worst = max(worst, abs(concurrence(rho, check=False) - concurrence_reference(rho)))
    assert worst <= 1e-9


def test_concurrence_vs_numpy_on_rank_deficient():
    # The coefficient route resolves the smallest flip-product eigenvalue
    # only down to its noise floor, so the comparison is looser here; the
    # discrepancy is bounded near 1e-6 in the worst corners.
    rng = np.random.default_rng(55)
    worst = 0.0
    for rank in (2, 3):
        for _ in range(300):
            rho = rank_deficient_density(rng, rank)
            worst = max(
                worst, abs(concurrence(rho, check=False) - concurrence_reference(rho))
            )
    assert worst <= 1e-5


def test_eof_extremes_and_formula():
    assert abs(eof(pure_density(bell_state()), check=False) - 1.0) <= 1e-12
    rng = np.random.default_rng(56)
    assert eof(pure_density(random_product_pure(rng)), check=False) == 0.0
    # spot-check the binary-entropy formula at a known concurrence
    rho = werner_state(0.8)
    c = concurrence(rho, check=False)
    x = (1.0 + math.sqrt(1.0 - c * c)) / 2.0
    want = -(x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x))
    assert abs(eof(rho, check=False) - want) <= 1e-12


def test_eof_monotone_in_werner_p():
    values = [eof(werner_state(p), check=False) for p in (0.4, 0.6, 0.8, 1.0)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_negativity_known_values():
    assert abs(negativity(pure_density(bell_state()), check=False) - 0.5) <= 1e-12
    # werner: single negative PT eigenvalue (1 - 3p)/4 once p > 1/3
    for p in (0.4, 0.5, 0.8, 1.0):
        want = (3.0 * p - 1.0) / 4.0
        assert abs(negativity(werner_state(p), check=False) - want) <= 1e-10
    assert negativity(werner_state(0.2), check=False) == 0.0


def test_negativity_equals_half_concurrence_for_pure():
    rng = np.random.default_rng(57)
    for _ in range(200):
        v = haar_pure(rng)
        rho = pure_density(v)
        assert abs(negativity(rho, check=False) - concurrence_pure(v) / 2.0) <= 1e-10


def test_eof_upper_bound_requires_full_rank():
    with pytest.raises(NotApplicableError):
        eof_upper_bound(pure_density(bell_state()), check=False)


def test_eof_upper_bound_dominates_eof():
    rng = np.random.default_rng(58)
    checked = 0
    for _ in range(500):
        rho = ginibre_density(rng)
        try:
            bound = eof_upper_bound(rho, check=False)
        except NotApplicableError:
            continue
        checked += 1
        assert 0.0 <= bound <= 1.0
        assert eof(rho, check=False) <= bound + 1e-9
    assert checked > 450


def test_eof_upper_bound_near_pure():
    # (1 - delta) Bell + delta I/4 at delta = 0.01: full rank, highly
    # entangled, and the bound must still dominate while staying in range
    delta = 0.01
    rho = (1.0 - delta) * pure_density(bell_state()) + delta * np.eye(4) / 4.0
    bound = eof_upper_bound(rho, check=False)
    assert eof(rho, check=False) <= bound
    assert bound <= 1.0


def test_report_is_consistent():
    """The report's fields equal the standalone measures exactly, across
    full-rank, rank-deficient, pure, Werner and product states."""
    rng = np.random.default_rng(59)
    states = []
    for _ in range(10):
        states += [
            ginibre_density(rng),
            rank_deficient_density(rng, 2),
            rank_deficient_density(rng, 3),
            pure_density(haar_pure(rng)),
            werner_state(rng.uniform(-1.0 / 3.0, 1.0)),
            pure_density(random_product_pure(rng)),
        ]
    bounded = 0
    for rho in states:
        report = entanglement_report(rho, check=False)
        assert report.concurrence == concurrence(rho, check=False)
        assert report.eof == eof(rho, check=False)
        assert report.negativity == negativity(rho, check=False)
        try:
            bound = eof_upper_bound(rho, check=False)
        except NotApplicableError:
            bound = None
        assert report.eof_upper_bound == bound
        bounded += bound is not None
    assert 0 < bounded < len(states)


def test_report_bound_is_none_for_pure():
    report = entanglement_report(pure_density(bell_state()), check=False)
    assert report.eof_upper_bound is None
    assert abs(report.concurrence - 1.0) <= 1e-12


def test_measures_agree_with_verdict():
    rng = np.random.default_rng(60)
    for _ in range(500):
        rho = ginibre_density(rng)
        report = peres_test(rho, check=False)
        if abs(report.lambda_min_pt) <= 1e-8:
            continue
        entangled = not report.separable
        assert (concurrence(rho, check=False) > 1e-10) == entangled
        assert (negativity(rho, check=False) > 1e-10) == entangled


def test_validation_is_on_by_default():
    not_a_state = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        concurrence(not_a_state)
