"""Reproducers of open defects, each pinned as a strict expected failure.

Each reason names the ROADMAP item that fixes it. The change that fixes a
defect makes its test pass, and strict mode then fails the run until that
change drops the marker. Every draw below shows the defect on the current
solver, so the assertions hold each draw, not only the worst one.
"""

import math

import numpy as np
import pytest

from twoqubit.separability import peres_test
from twoqubit.spectrum import coeffs_from_traces, quartic_eigs

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


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP 2(a): the b0 ~ 0 gate of quartic_eigs flushes lambda4 = -1e-9 to 0.0",
)
def test_small_negative_eigenvalue_keeps_its_sign():
    rng = np.random.default_rng(71)
    spectrum = (0.5, 0.5 - 1e-5 + 1e-9, 1e-5, -1e-9)
    for _ in range(DRAWS):
        lam4 = quartic_eigs(coeffs_from_traces(haar_rotated(spectrum, rng))).eigenvalues[-1]
        assert abs(lam4 + 1e-9) <= 1e-11


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP 2(c): pure states with q = |ad - bc| <= 7e-7 read as separable",
)
def test_weakly_entangled_pure_state_is_entangled():
    rng = np.random.default_rng(72)
    q = 1e-7
    theta = 0.5 * math.asin(2.0 * q)  # cos(theta) sin(theta) = q
    psi = np.array([math.cos(theta), 0.0, 0.0, math.sin(theta)], dtype=complex)
    for _ in range(DRAWS):
        v = np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2)) @ psi
        assert not peres_test(np.outer(v, v.conj())).separable


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP 1: near I/4 the resolvent invariants cancel; 2.7e-4 off at spread 1e-3",
)
def test_near_quarter_spectrum_accuracy():
    rng = np.random.default_rng(73)
    d = 1e-3
    spectrum = (0.25 + d, 0.25 + d / 3, 0.25 - d / 2, 0.25 - 5 * d / 6)
    for _ in range(DRAWS):
        m = haar_rotated(spectrum, rng)
        got = quartic_eigs(coeffs_from_traces(m)).eigenvalues
        want = np.linalg.eigvalsh(m)[::-1]
        assert np.max(np.abs(np.array(got) - want)) <= 1e-9
