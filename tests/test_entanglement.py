"""Concurrence, entanglement of formation, negativity, and the full-rank
upper bound, checked against structure and against numpy where independent."""

import functools
import math
import statistics

import numpy as np
import pytest

import twoqubit.entanglement as entanglement
from test_linalg import ref_charpoly_flv
from twoqubit.entanglement import (
    _flip_product_eigs,
    _flip_rows,
    concurrence,
    concurrence_pure,
    entanglement_report,
    eof,
    eof_upper_bound,
    negativity,
    spin_flip,
)
from twoqubit.bloch import partial_transpose, to_bloch
from twoqubit.chain import evolve_chain
from twoqubit.errors import InternalInconsistencyError, NotApplicableError
from twoqubit.linalg import MonicQuartic
from twoqubit.spectrum import Branch, QuarticSpectrum, _coeffs_from_charpoly, quartic_eigs
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
from twoqubit.separability import _State, peres_test


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


def test_eof_upper_bound_on_werner_states():
    """Every Werner state's partial transpose is exactly single+triple, so
    the bound is 1 - 4 lambda_min from that branch, never the inequality
    right side: on such a shape the trigonometric route splits the triple
    root by the cube root of coefficient rounding (about 1e-8), and whether
    it ran would depend on that rounding."""
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(2000):
        rho = werner_state(rng.uniform(-1.0 / 3.0, 1.0))
        lam_min = np.linalg.eigvalsh(partial_transpose(rho))[0]
        want = min(max(1.0 - 4.0 * lam_min, 0.0), 1.0)
        worst = max(worst, abs(eof_upper_bound(rho, check=False) - want))
    assert worst <= 1e-14


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


# ---------------------------------------------------------------------------
# The flip-product pass: input checks, guards, and accuracy
# ---------------------------------------------------------------------------

MEASURES = (concurrence, eof, entanglement_report)


@pytest.mark.parametrize("measure", MEASURES)
def test_unchecked_wrong_shape_is_a_typed_error(measure):
    with pytest.raises(ValueError, match="expected a 4x4 matrix"):
        measure(np.eye(3, dtype=complex) / 3.0, check=False)


@pytest.mark.parametrize("measure", MEASURES)
@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_unchecked_non_finite_is_a_typed_error(measure, bad):
    """Raised before any arithmetic, so no RuntimeWarning comes first
    (RuntimeWarnings are errors in this suite)."""
    rho = pure_density(bell_state())
    rho[0, 3] = bad
    with pytest.raises(ValueError, match="matrix contains non-finite entries"):
        measure(rho, check=False)


def _overflowing_off_diagonal():
    """Finite entries whose flip product overflows off the diagonal only,
    so its trace stays 1/4."""
    rho = np.eye(4, dtype=complex) / 4.0
    rho[0, 1] = rho[2, 0] = 1e200
    return rho


@pytest.mark.parametrize("measure", MEASURES)
@pytest.mark.parametrize(
    "rho",
    [1e200 * np.eye(4, dtype=complex) / 4.0, _overflowing_off_diagonal()],
    ids=["scaled_identity", "off_diagonal"],
)
def test_unchecked_overflowing_product_is_a_typed_error(measure, rho):
    """A product that overflows is not solved: the pass raises, with no
    RuntimeWarning first, even where the trace is finite."""
    with pytest.raises(ValueError, match="matrix contains non-finite entries"):
        measure(rho, check=False)


@pytest.mark.parametrize(
    "call",
    [
        functools.partial(peres_test, check=False),
        functools.partial(negativity, check=False),
        functools.partial(eof_upper_bound, check=False),
        functools.partial(concurrence, check=False),
        functools.partial(entanglement_report, check=False),
        to_bloch,
    ],
    ids=["peres_test", "negativity", "eof_upper_bound", "concurrence", "entanglement_report", "to_bloch"],
)
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_unchecked_non_finite_has_one_message(call, bad):
    """Every entry point reads rho once, so a NaN or inf entry is named the
    same way whichever measure is asked for."""
    rho = np.eye(4, dtype=complex) / 4.0
    rho[0, 3] = bad
    with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
        call(rho)


FLIP_DRAWS = {
    "ginibre": ginibre_density,
    "rank2": lambda rng: rank_deficient_density(rng, 2),
    "rank3": lambda rng: rank_deficient_density(rng, 3),
    "pure": lambda rng: pure_density(haar_pure(rng)),
    "hermitian": random_hermitian_trace_one,
    "near_quarter": near_quarter_density,
}


@pytest.mark.parametrize("family", sorted(FLIP_DRAWS))
def test_flip_rows_match_spin_flip(family):
    """The written-out flip entries are spin_flip's bit for bit, except
    that a zero real or imaginary part may carry the other sign: numpy
    multiplies by s_i s_j + 0j, the rows only negate. The imaginary
    diagonal of every density matrix is such a zero. No answer sees the
    sign: a product entry with a nonzero term is blind to it, and the
    pass flushes near-zero eigenvalues to exact zeros."""
    rng = np.random.default_rng(sorted(FLIP_DRAWS).index(family) + 150)
    draws = [FLIP_DRAWS[family](rng) for _ in range(1000)]
    draws += [werner_state(0.3), pure_density(bell_state()), pure_density(random_product_pure(rng))]
    for rho in draws:
        got = np.array(_flip_rows(_State(rho).rows)) + 0.0
        assert got.tobytes() == (spin_flip(rho) + 0.0).tobytes()


def _weak_pure(eps):
    """cos eps |00> + sin eps |11>, whose flip product has trace
    t = sin^2(2 eps)."""
    return pure_density(np.array([math.cos(eps), 0.0, 0.0, math.sin(eps)], dtype=complex))


def test_flip_trace_floor_gives_exact_zeros():
    product = pure_density(np.array([1.0, 0.0, 0.0, 0.0], dtype=complex))
    assert _flip_product_eigs(_State(product).rows) == (0.0, 0.0, 0.0, 0.0)
    # t = 4.0e-16, under the floor of 1e-14
    assert _flip_product_eigs(_State(_weak_pure(1e-8)).rows) == (0.0, 0.0, 0.0, 0.0)


def test_flip_noise_ceiling_keeps_only_the_trace():
    """At eps = 1e-5, t = 4e-10 and the entries of m / t reach about
    5e4, so the coefficient noise estimate is far above the ceiling and
    the whole trace goes to the largest eigenvalue."""
    mu = _flip_product_eigs(_State(_weak_pure(1e-5)).rows)
    assert mu[1:] == (0.0, 0.0, 0.0)
    assert abs(mu[0] - math.sin(2e-5) ** 2) <= 1e-24


def test_flip_complex_coefficients_raise(monkeypatch):
    """The characteristic polynomial of rho times its flip is real; an
    imaginary part above max(1e-9, 10 noise) aborts, one below passes."""
    rho = werner_state(0.8)
    flv = entanglement._flv

    def shifted(imag):
        def fake(x):
            c0, c1, c2, c3 = flv(x)
            return c0 + 1j * imag, c1, c2, c3

        return fake

    monkeypatch.setattr(entanglement, "_flv", shifted(1e-10))
    _flip_product_eigs(_State(rho).rows)
    monkeypatch.setattr(entanglement, "_flv", shifted(1e-6))
    with pytest.raises(ValueError, match="characteristic polynomial is not real"):
        _flip_product_eigs(_State(rho).rows)


def test_flip_negative_eigenvalue_raises(monkeypatch):
    rho = werner_state(0.8)

    def fake(c, coeff_tol):
        return QuarticSpectrum((0.75, 0.5, 0.0, -0.25), Branch.GENERIC)

    monkeypatch.setattr(entanglement, "quartic_eigs", fake)
    with pytest.raises(InternalInconsistencyError, match="negative beyond tolerance"):
        _flip_product_eigs(_State(rho).rows)


def ref_flip_product_eigs(rho):
    """The flip-product pass in its numpy formulation: the product by
    matmul and the coefficients by the numpy recurrence of
    tests/test_linalg.py, with the same floor, ceiling, noise model,
    solver gate and flush."""
    m = rho @ spin_flip(rho)
    t = float(m.trace().real)
    if t <= 1e-14:
        return (0.0, 0.0, 0.0, 0.0)
    m_hat = m / t
    k = max(1.0, float(np.abs(m_hat).max()))
    noise = max(5e-13, 1e-13 * k / t)
    if noise > 1e-4:
        return (t, 0.0, 0.0, 0.0)
    q = MonicQuartic(*(c.real for c in ref_charpoly_flv(m_hat - np.eye(4) / 4.0)))
    spec = quartic_eigs(_coeffs_from_charpoly(q), coeff_tol=noise)
    return tuple(max(0.0 if abs(lam) <= noise else t * lam, 0.0) for lam in spec.eigenvalues)


def _wootters(mu):
    """sqrt(mu1) - sqrt(mu2) - sqrt(mu3) - sqrt(mu4); the concurrence is
    its positive part."""
    r = [math.sqrt(x) for x in mu]
    return r[0] - r[1] - r[2] - r[3]


def _mp_wootters(rho, mpmath):
    """The same quantity from 50-digit eigenvalues of rho times its flip
    (the flip only permutes, conjugates and negates entries, so it is
    exact in floats)."""
    with mpmath.workdps(50):
        m = mpmath.matrix(rho.tolist()) * mpmath.matrix(spin_flip(rho).tolist())
        mu = sorted((mpmath.re(e) for e in mpmath.eig(m, left=False, right=False)), reverse=True)
        r = [mpmath.sqrt(max(x, 0)) for x in mu]
        return r[0] - r[1] - r[2] - r[3]


def _chain_state(rng):
    """The structured benchmark's chain stratum: a Haar pure state sent
    down 1 to 8 swap-and-depolarize links."""
    return evolve_chain(pure_density(haar_pure(rng)), float(rng.uniform(0.05, 0.3)), int(rng.integers(1, 9)))


# stratum: (draw, seed, the tail floor)
ACCURACY_STRATA = {"ginibre": (ginibre_density, 90, 1e-10), "chain": (_chain_state, 91, 2e-9)}


@pytest.mark.parametrize("stratum", sorted(ACCURACY_STRATA))
def test_concurrence_accuracy_against_mpmath(stratum):
    """The pass and its numpy formulation against 50-digit eigenvalues, on
    sqrt(mu1) - sqrt(mu2) - sqrt(mu3) - sqrt(mu4) (the concurrence before
    clamping at zero, so separable draws count too; clamping never widens
    a gap).

    In the bulk the two routes are equally accurate, so the medians are
    compared. The tail is set by near-degenerate flip spectra (a double
    mu3 = mu4 beside mu2 on the chain), where both routes sit on the same
    floor and trade places unit by unit: over 16 seeded samples of 300
    units, the ratio of their maxima ran from 0.1 to 4.1 either way. So
    the maximum is held to a fixed floor three to four times the largest
    error seen on these seeds (3.4e-11 Ginibre, 4.7e-10 chain), not to
    the other route's draw.
    """
    mpmath = pytest.importorskip("mpmath")
    draw, seed, floor = ACCURACY_STRATA[stratum]
    rng = np.random.default_rng(seed)
    got, ref = [], []
    for _ in range(200):
        rho = draw(rng)
        want = _mp_wootters(rho, mpmath)
        got.append(float(abs(_wootters(_flip_product_eigs(_State(rho).rows)) - want)))
        ref.append(float(abs(_wootters(ref_flip_product_eigs(rho)) - want)))
    assert statistics.median(got) <= 2.0 * statistics.median(ref)
    assert max(got) <= floor
