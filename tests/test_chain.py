"""Noisy transfer chain: closed-form lambda_min, distance and noise
thresholds, and the step-by-step simulation they must reproduce."""

import math

import numpy as np
import pytest

from twoqubit import chain
from twoqubit.bloch import partial_transpose
from twoqubit.chain import (
    chain_lambda_min,
    chain_report,
    critical_noise,
    depolarize,
    evolve_chain,
    max_transfer_distance,
    swap_gate,
)
from twoqubit.linalg import eig_hermitian_oracle, kron
from twoqubit.sampling import bell_state, pure_density
from twoqubit.separability import TAU_SEP


def initial_pair(q):
    """Pure state cos(t)|00> + sin(t)|11> with |ad - bc| = q."""
    t = math.asin(2.0 * q) / 2.0
    return pure_density(np.array([math.cos(t), 0.0, 0.0, math.sin(t)]))


def test_swap_gate_action():
    s = swap_gate()
    assert np.array_equal(s @ s, np.eye(4))
    rng = np.random.default_rng(61)
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    assert np.max(np.abs(s @ np.kron(a, b) - np.kron(b, a))) <= 1e-15


def test_depolarize_basics():
    rho = pure_density(bell_state())
    assert np.max(np.abs(depolarize(rho, 0.0) - rho)) == 0.0
    assert np.max(np.abs(depolarize(rho, 1.0) - np.eye(4) / 4.0)) == 0.0
    mixed = np.eye(4, dtype=complex) / 4.0
    assert np.max(np.abs(depolarize(mixed, 0.3) - mixed)) <= 1e-16
    out = depolarize(rho, 0.2)
    assert abs(np.trace(out).real - 1.0) <= 1e-15
    with pytest.raises(ValueError):
        depolarize(rho, 1.5)


def test_depolarize_refuses_a_matrix_that_is_not_4x4():
    """A 1x1 input would broadcast against I/4 into a 4x4 result."""
    with pytest.raises(ValueError, match="^expected a 4x4 matrix$"):
        depolarize([[1.0]], 0.1)
    with pytest.raises(ValueError, match="^expected a 4x4 matrix$"):
        evolve_chain(np.eye(2) / 2.0, 0.1, 3)


def test_evolve_chain_checks_its_shape_before_any_hop():
    """n = 0 runs no hop, and used to return a 1x1 input as it was."""
    with pytest.raises(ValueError, match="^expected a 4x4 matrix$"):
        evolve_chain([[1]], 0.1, 0)


@pytest.mark.parametrize("n", [2.5, math.nan, math.inf, -1])
def test_evolve_chain_refuses_n_that_is_not_a_nonnegative_integer(n):
    """The hop count check chain_report and critical_noise run: 2.5, NaN
    and inf used to raise TypeError from range()."""
    with pytest.raises(ValueError, match=f"^n must be a nonnegative integer, got {n}$"):
        evolve_chain(initial_pair(0.3), 0.1, n)


@pytest.mark.parametrize("eps", [5.0, math.nan, -0.1])
def test_evolve_chain_refuses_epsilon_outside_0_1_also_at_n_0(eps):
    """The noise check depolarize and max_transfer_distance run: n = 0
    runs no hop, and used to return rho0 for any epsilon."""
    with pytest.raises(ValueError, match=rf"^epsilon must lie in \[0, 1\], got {eps}$"):
        evolve_chain(np.eye(4) / 4.0, eps, 0)


def test_evolve_matches_closed_form():
    rho0 = initial_pair(0.5)
    for eps, n in ((0.1, 7), (0.3, 20), (0.05, 0)):
        evolved = evolve_chain(rho0, eps, n)
        fade = (1.0 - eps) ** n
        want = fade * rho0 + (1.0 - fade) * np.eye(4) / 4.0
        assert np.max(np.abs(evolved - want)) <= 1e-13
    with pytest.raises(ValueError):
        evolve_chain(rho0, 0.1, -1)


def test_lambda_min_formula_vs_simulation():
    for q in (0.1, 0.5):
        rho = initial_pair(q)
        for n in range(0, 31):
            want = eig_hermitian_oracle(partial_transpose(rho))[-1]
            got = chain_lambda_min(q, 0.15, n)
            assert abs(got - want) <= 1e-12, f"q={q} n={n}"
            rho = depolarize(rho, 0.15)


def test_lambda_min_endpoints():
    assert abs(chain_lambda_min(0.5, 0.3, 0) + 0.5) <= 1e-15
    assert abs(chain_lambda_min(0.1, 0.3, 0) + 0.1) <= 1e-15
    # noise only ever raises the floor
    values = [chain_lambda_min(0.5, 0.1, n) for n in range(40)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_max_transfer_distance_boundaries():
    assert max_transfer_distance(0.0, 0.1) == 0
    assert max_transfer_distance(0.5, 0.0) is math.inf
    assert max_transfer_distance(0.5, 1.0) == 0
    with pytest.raises(ValueError):
        max_transfer_distance(0.7, 0.1)
    with pytest.raises(ValueError):
        max_transfer_distance(0.5, -0.1)
    # chain_report checks q and epsilon only through max_transfer_distance
    with pytest.raises(ValueError, match=r"q must lie in \[0, 1/2\], got 0.7"):
        chain_report(0.7, 0.1)
    with pytest.raises(ValueError, match=r"epsilon must lie in \[0, 1\], got -0.1"):
        chain_report(0.5, -0.1)


def test_max_transfer_distance_is_the_boundary_integer():
    """The returned n must still be entangled while n + 1 is not."""
    for q in (0.05, 0.25, 0.5):
        for eps in (0.02, 0.1, 0.37, 0.9):
            n = max_transfer_distance(q, eps)
            assert chain_lambda_min(q, eps, n) < 0.0
            assert chain_lambda_min(q, eps, n + 1) >= 0.0


def _stepping_distance(q, eps):
    """The distance as the estimate refined by steps of one: the search
    max_transfer_distance replaces, whose step count grows like 1e-16 /
    eps * n, so it is only run where eps >= 1e-9 keeps that small."""
    n = max(math.floor(-math.log1p(4.0 * q) / math.log1p(-eps)), 0)
    while chain_lambda_min(q, eps, n + 1) < -TAU_SEP:
        n += 1
    while n > 0 and chain_lambda_min(q, eps, n) >= -TAU_SEP:
        n -= 1
    return n


def test_max_transfer_distance_matches_stepping():
    """Galloping and bisecting from the estimate finds the integer that
    stepping by one finds, on a grid of q and eps >= 1e-9."""
    rng = np.random.default_rng(62)
    qs = np.concatenate([rng.uniform(2e-10, 0.5, 40), 10.0 ** rng.uniform(-9.6, -0.3, 40), [0.5]])
    epss = np.concatenate([rng.uniform(1e-9, 1.0, 20), 10.0 ** rng.uniform(-9.0, 0.0, 20)])
    for q in qs:
        for eps in epss:
            assert max_transfer_distance(float(q), float(eps)) == _stepping_distance(float(q), float(eps))


@pytest.mark.parametrize("eps", [1e-13, 1e-15, 2.0**-53, 1e-17, 5e-324])
def test_max_transfer_distance_is_bounded_for_tiny_epsilon(monkeypatch, eps):
    """A tiny eps puts the boundary of the rounded base 1 - eps far from
    the estimate: the search still evaluates lambda_min at most 200 times,
    and the answer is the boundary integer. Where 1 - eps rounds to 1 the
    evaluated lambda_min never changes, and the distance is unbounded."""
    calls = [0]
    real = chain.chain_lambda_min

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(chain, "chain_lambda_min", counted)
    for q in (1e-9, 1e-3, 0.3, 0.5):
        calls[0] = 0
        n = max_transfer_distance(q, eps)
        assert calls[0] <= 200, (q, calls[0])
        if 1.0 - eps == 1.0:
            assert n is math.inf
        else:
            assert real(q, eps, n) < -TAU_SEP <= real(q, eps, n + 1)


def test_critical_noise_closed_form():
    # lambda_min at the threshold is zero up to n-fold rounding in the
    # power; a relative nudge of 1e-6 in epsilon clears the separability
    # band on either side even at n = 50 where the derivative is shallow.
    for q in (0.1, 0.3, 0.5):
        for n in (1, 2, 5, 10, 50):
            eps = critical_noise(q, n)
            assert abs(chain_lambda_min(q, eps, n)) <= 1e-13
            assert max_transfer_distance(q, eps * (1.0 - 1e-6)) >= n
            assert max_transfer_distance(q, eps * (1.0 + 1e-6)) < n


def test_critical_noise_validation():
    with pytest.raises(ValueError):
        critical_noise(0.0, 5)
    with pytest.raises(ValueError):
        critical_noise(0.5, 0)


@pytest.mark.parametrize("n", [math.inf, -math.inf, math.nan, 2.5])
def test_critical_noise_refuses_non_integer_n(n):
    with pytest.raises(ValueError, match="n must be a positive integer"):
        critical_noise(0.3, n)


@pytest.mark.parametrize("n", [math.nan, math.inf, 2.5, -1])
def test_chain_report_refuses_n_that_is_not_a_nonnegative_integer(n):
    """NaN used to fail in int(), inf overflowed it and 2.5 gave 3 rows."""
    with pytest.raises(ValueError, match=f"^n must be a nonnegative integer, got {n}$"):
        chain_report(0.5, 0.1, n=n)


def test_chain_report_default_rows():
    report = chain_report(0.5, 0.1)
    assert report.n_max == 10
    # rows run one past the distance so the sign change is visible
    assert len(report.lambda_min_per_step) == 12
    assert report.lambda_min_per_step[10] < 0.0 <= report.lambda_min_per_step[11]
    assert report.epsilon_critical is not None
    assert abs(report.epsilon_critical - critical_noise(0.5, 10)) <= 1e-15


def test_chain_report_default_table_is_bounded(monkeypatch):
    """With n omitted, a table of more than 10^6 rows is refused before its
    first row: q = 0.3 at eps = 1e-9 has n_max = 788457381. The counter
    stops a table build long before it could fill memory."""
    calls = [0]
    real = chain.chain_lambda_min

    def counted(*args):
        calls[0] += 1
        if calls[0] > 2 * 10**6:
            raise RuntimeError("the table is being built")
        return real(*args)

    monkeypatch.setattr(chain, "chain_lambda_min", counted)
    want = r"^n is required when the table would have more than 1000000 rows, got n_max = 788457381$"
    with pytest.raises(ValueError, match=want):
        chain_report(0.3, 1e-9)
    assert calls[0] < 1000
    # q = 0.5 at eps = 0.1 has n_max = 10, a table of 12 rows: the bound counts them all
    monkeypatch.setattr(chain, "_MAX_TABLE_ROWS", 12)
    assert len(chain_report(0.5, 0.1).lambda_min_per_step) == 12
    monkeypatch.setattr(chain, "_MAX_TABLE_ROWS", 11)
    with pytest.raises(ValueError, match="more than 11 rows, got n_max = 10$"):
        chain_report(0.5, 0.1)


def test_chain_report_explicit_n():
    report = chain_report(0.5, 0.1, n=4)
    assert len(report.lambda_min_per_step) == 5
    assert abs(report.epsilon_critical - critical_noise(0.5, 4)) <= 1e-15


def test_chain_report_zero_distance_has_no_threshold():
    report = chain_report(0.5, 0.9)
    assert report.n_max == 0
    assert report.epsilon_critical is None


def test_chain_report_unbounded_needs_n():
    with pytest.raises(ValueError):
        chain_report(0.5, 0.0)
    report = chain_report(0.5, 0.0, n=3)
    assert report.n_max is math.inf
    assert all(abs(x + 0.5) <= 1e-15 for x in report.lambda_min_per_step)
