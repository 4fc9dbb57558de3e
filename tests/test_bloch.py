"""Pauli-basis decomposition, partial trace, and the partial transpose."""

import numpy as np
import pytest

from twoqubit.bloch import (
    HERMITIAN_TOL,
    PSD_TOL,
    TRACE_TOL,
    _BASIS,
    _hermitian_tensor_rows,
    _pt_rows,
    from_bloch,
    partial_transpose,
    partial_transpose_bloch,
    reduced_state,
    to_bloch,
    validate_density_matrix,
)
from twoqubit.linalg import _read, eig_hermitian_oracle, is_hermitian
from twoqubit.separability import pt_coeffs
from twoqubit.spectrum import coeffs_from_bloch
from twoqubit.sampling import (
    bell_state,
    ginibre_density,
    haar_pure,
    near_quarter_density,
    pure_density,
    random_hermitian_trace_one,
    rank_deficient_density,
)

# Families the written-out maps are held bit-equal to numpy on.
DRAWS = {
    "ginibre": ginibre_density,
    "rank2": lambda rng: rank_deficient_density(rng, 2),
    "rank3": lambda rng: rank_deficient_density(rng, 3),
    "pure": lambda rng: pure_density(haar_pure(rng)),
    "hermitian": random_hermitian_trace_one,
    "near_quarter": near_quarter_density,
}


def haar_rotated(spectrum, rng):
    """U diag(spectrum) U^dag with U Haar (QR of a complex Ginibre matrix)."""
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, r = np.linalg.qr(z)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    m = u @ np.diag(spectrum) @ u.conj().T
    return (m + m.conj().T) / 2.0


def test_round_trip_matrix_bloch_matrix():
    rng = np.random.default_rng(21)
    for _ in range(200):
        rho = ginibre_density(rng)
        back = from_bloch(to_bloch(rho))
        assert np.max(np.abs(back - rho)) <= 1e-13


def test_round_trip_bloch_matrix_bloch():
    rng = np.random.default_rng(22)
    for _ in range(200):
        t = to_bloch(ginibre_density(rng))
        assert np.max(np.abs(to_bloch(from_bloch(t)) - t)) <= 1e-13


def test_maximally_mixed_tensor():
    t = to_bloch(np.eye(4, dtype=complex) / 4.0)
    want = np.zeros((4, 4))
    want[0, 0] = 1.0
    assert np.max(np.abs(t - want)) <= 1e-15


def test_bell_tensor():
    """|Phi+> has no local polarization and correlation diag(1, -1, 1)."""
    t = to_bloch(pure_density(bell_state()))
    assert abs(t[0, 0] - 1.0) <= 1e-15
    assert np.max(np.abs(t[1:, 0])) <= 1e-15
    assert np.max(np.abs(t[0, 1:])) <= 1e-15
    assert np.max(np.abs(t[1:, 1:] - np.diag([1.0, -1.0, 1.0]))) <= 1e-15


def test_reduced_states_match_partial_trace():
    rng = np.random.default_rng(23)
    for _ in range(100):
        rho = ginibre_density(rng)
        t = to_bloch(rho)
        r = rho.reshape(2, 2, 2, 2)
        want_a = np.einsum("ikjk->ij", r)
        want_b = np.einsum("kikj->ij", r)
        assert np.max(np.abs(reduced_state(t, "A") - want_a)) <= 1e-13
        assert np.max(np.abs(reduced_state(t, "B") - want_b)) <= 1e-13


def test_reduced_state_subsystem_name():
    t = to_bloch(np.eye(4, dtype=complex) / 4.0)
    with pytest.raises(ValueError):
        reduced_state(t, "C")


def test_reduced_state_guards():
    """Every tensor reader (reduced_state, from_bloch and both coefficient
    routes) reads through one check: a tensor of the wrong shape, with a
    non-finite entry or with a[0, 0] off one raises ValueError in from_bloch's
    words. Unchecked, a[0, 0] = 7 gave the coefficients and reduced state of
    the trace-one tensor."""
    readers = (
        lambda t: reduced_state(t, "A"),
        lambda t: reduced_state(t, "B"),
        from_bloch,
        coeffs_from_bloch,
        pt_coeffs,
    )
    good = to_bloch(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
    bad = [(np.zeros((3, 3)), r"^expected a \(4, 4\) Bloch tensor$")]
    bad.append((good[:, :3], r"^expected a \(4, 4\) Bloch tensor$"))
    for entry, value in (((2, 0), np.nan), ((1, 3), np.inf), ((0, 0), -np.inf)):
        t = good.copy()
        t[entry] = value
        bad.append((t, "^tensor contains non-finite entries$"))
    t = good.copy()
    t[0, 0] = 7.0
    bad.append((t, r"^a\[0, 0\] must equal 1$"))
    for read in readers:
        read(good)
        for t, message in bad:
            with pytest.raises(ValueError, match=message):
                read(t)


def test_partial_transpose_explicit():
    # Index bookkeeping on a matrix of distinct entries: transposing qubit B
    # swaps the column index within each 2x2 block.
    m = np.arange(16, dtype=complex).reshape(4, 4)
    want = np.array(
        [
            [0, 4, 2, 6],
            [1, 5, 3, 7],
            [8, 12, 10, 14],
            [9, 13, 11, 15],
        ],
        dtype=complex,
    )
    assert np.array_equal(partial_transpose(m), want)


def test_partial_transpose_is_involution():
    rng = np.random.default_rng(24)
    rho = ginibre_density(rng)
    assert np.max(np.abs(partial_transpose(partial_transpose(rho)) - rho)) == 0.0


def test_pt_rows_moves_the_entries_partial_transpose_moves():
    """The row map of the partial transpose, on random complex matrices
    that are not Hermitian, gives partial_transpose's entries."""
    rng = np.random.default_rng(26)
    for _ in range(200):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert _pt_rows(_read(m)[1]) == partial_transpose(m).tolist()


def test_partial_transpose_bloch_matches_matrix_route():
    rng = np.random.default_rng(25)
    for _ in range(100):
        rho = ginibre_density(rng)
        t = to_bloch(rho)
        want = to_bloch(partial_transpose(rho))
        assert np.max(np.abs(partial_transpose_bloch(t) - want)) <= 1e-13


def test_validate_rejects_bad_matrices():
    with pytest.raises(ValueError):
        validate_density_matrix(np.eye(3) / 3.0)
    bad = np.eye(4, dtype=complex) / 4.0
    bad[0, 1] = 0.5
    with pytest.raises(ValueError):
        validate_density_matrix(bad)  # not Hermitian
    with pytest.raises(ValueError):
        validate_density_matrix(np.eye(4, dtype=complex) / 2.0)  # trace 2
    neg = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        validate_density_matrix(neg)
    huge = np.eye(4, dtype=complex) / 4.0
    huge[0, 1] = huge[1, 0] = 1e200  # finite, and no OverflowError on the way
    with pytest.raises(ValueError, match=r"semidefinite \(min eig -1\.000e\+200\)"):
        validate_density_matrix(huge)
    huge[0, 1] = complex(1e308, 1e308)  # |m_01 - conj(m_10)| overflows
    with pytest.raises(ValueError, match="not Hermitian"):
        validate_density_matrix(huge)


def test_validate_rejects_flushed_negative_eigenvalue():
    """The closed form's b0 ~ 0 gate can report 0.0 for the smallest
    eigenvalue of this spectrum; the PSD check must still see -1e-9."""
    rng = np.random.default_rng(41)
    spectrum = (0.5, 0.5 - 1e-5 + 1e-9, 1e-5, -1e-9)
    for _ in range(20):
        with pytest.raises(ValueError, match="not positive semidefinite"):
            validate_density_matrix(haar_rotated(spectrum, rng))


def test_validate_psd_threshold():
    rng = np.random.default_rng(42)
    for _ in range(20):
        with pytest.raises(ValueError, match=r"min eig -2\.000e-10"):
            validate_density_matrix(haar_rotated((0.5, 0.3, 0.2 + 2e-10, -2e-10), rng))
        validate_density_matrix(haar_rotated((0.5, 0.3, 0.2 + 5e-11, -5e-11), rng))
        validate_density_matrix(pure_density(haar_pure(rng)))
        validate_density_matrix(rank_deficient_density(rng, 2))


def test_validate_psd_agrees_with_oracle():
    """Accepted exactly when the oracle's smallest eigenvalue is >= -PSD_TOL:
    on seeded states as drawn, and on the same states shifted and rescaled
    so the smallest eigenvalue lands within 3e-10 of zero."""
    rng = np.random.default_rng(43)
    states = [ginibre_density(rng) for _ in range(200)]
    states += [rank_deficient_density(rng, 1 + k % 3) for k in range(200)]
    states += [pure_density(haar_pure(rng)) for _ in range(200)]
    shifted = []
    for m in states:
        target = rng.uniform(-3e-10, 3e-10)
        d = (eig_hermitian_oracle(m)[-1] - target) / (1.0 - 4.0 * target)
        shifted.append((m - d * np.eye(4)) / (1.0 - 4.0 * d))
    accepted = []
    for m in states + shifted:
        try:
            validate_density_matrix(m)
            accepted.append(True)
        except ValueError:
            accepted.append(False)
        assert accepted[-1] == (eig_hermitian_oracle(m)[-1] >= -PSD_TOL)
    assert all(accepted[: len(states)])
    assert 0 < sum(accepted[len(states):]) < len(shifted)


def test_to_bloch_requires_unit_trace():
    with pytest.raises(ValueError):
        to_bloch(np.eye(4, dtype=complex) / 2.0)


@pytest.mark.parametrize(
    "entry, bad", [((0, 1), 1e-6j), ((0, 1), np.nan), ((2, 2), np.nan), ((1, 3), np.inf)]
)
def test_to_bloch_rejects_non_hermitian_and_non_finite(entry, bad):
    """to_bloch runs validation's hermiticity rule: an asymmetric 1e-6j
    entry is refused in its words. A NaN or inf entry is rejected by the
    read before any sum."""
    m = np.eye(4, dtype=complex) / 4.0
    m[entry] += bad
    with pytest.raises(ValueError, match="not Hermitian" if np.isfinite(bad) else "non-finite"):
        to_bloch(m)


@pytest.mark.parametrize("scale, refused", [(1.5, True), (0.999, False)])
def test_to_bloch_and_validation_share_one_hermiticity_rule(scale, refused):
    """I/4 with scale * HERMITIAN_TOL * i added at entry (0, 1): its pair
    difference |m_01 - conj(m_10)| is scale * HERMITIAN_TOL, so both refuse
    it past the tolerance, with one message, and both take it inside."""
    m = np.eye(4, dtype=complex) / 4.0
    m[0, 1] += scale * HERMITIAN_TOL * 1j
    for f in (to_bloch, validate_density_matrix):
        assert _outcome(f, m) == ("matrix is not Hermitian" if refused else None)


def test_to_bloch_takes_every_trace_validation_accepts():
    """Diagonal states whose trace sits within a few ulps of 1 +- TRACE_TOL:
    validation and to_bloch run one trace rule, so they agree on which
    traces are one."""
    rng = np.random.default_rng(46)
    outcomes = []
    for _ in range(200):
        d = rng.dirichlet(np.ones(4)) * (1.0 + rng.choice((-1.0, 1.0)) * TRACE_TOL)
        d[3] += rng.integers(-4, 5) * np.spacing(d[3])
        m = np.diag(d).astype(complex)
        outcomes.append(_outcome(validate_density_matrix, m))
        assert (_outcome(to_bloch, m) is None) == (outcomes[-1] is None)
    assert 0 < outcomes.count(None) < len(outcomes)


def test_from_bloch_guards():
    t = np.zeros((4, 4))
    t[0, 0] = 0.5
    with pytest.raises(ValueError):
        from_bloch(t)
    with pytest.raises(ValueError):
        from_bloch(np.zeros((3, 4)))
    t = np.zeros((4, 4))
    t[0, 0] = 1.0
    t[1, 1] = np.inf
    with pytest.raises(ValueError):
        from_bloch(t)


def ref_to_bloch(rho):
    """The numpy formulation of the Bloch map: the real part of
    np.einsum("mnij,ji->mn", _BASIS, rho), with a[0, 0] set to 1."""
    a = np.einsum("mnij,ji->mn", _BASIS, np.asarray(rho, dtype=complex)).real.copy()
    a[0, 0] = 1.0
    return a


def hermitian_part(rho):
    """(rho + rho^dagger) / 2 in numpy."""
    rho = np.asarray(rho, dtype=complex)
    return (rho + rho.conj().T) / 2.0


@pytest.mark.parametrize("family", sorted(DRAWS))
def test_to_bloch_matches_einsum_bit_for_bit(family):
    """The written-out sums add the einsum's nonzero terms in its order, so
    every coefficient has the bits of the einsum of rho's Hermitian part,
    the signs of zeros included. Every family but pure (numpy's complex
    outer product is Hermitian only to rounding) draws exactly Hermitian
    matrices, whose tensor is also the einsum of rho itself."""
    exact = family != "pure"
    rng = np.random.default_rng(sorted(DRAWS).index(family) + 140)
    for _ in range(5000):
        rho = DRAWS[family](rng)
        got = to_bloch(rho).tobytes()
        assert got == ref_to_bloch(hermitian_part(rho)).tobytes()
        if exact:
            assert np.array_equal(rho, rho.conj().T)
            assert got == ref_to_bloch(rho).tobytes()
    for rho in (np.eye(4, dtype=complex) / 4.0, pure_density(bell_state()), np.diag([1.0, 0, 0, 0])):
        assert np.array_equal(rho, rho.conj().T)
        assert to_bloch(rho).tobytes() == ref_to_bloch(rho).tobytes()


def hermitian_completion(diag, upper):
    """Rows of the Hermitian matrix with diagonal diag and upper triangle
    upper (01, 02, 03, 12, 13, 23), its lower triangle their conjugates."""
    d0, d1, d2, d3 = diag
    u01, u02, u03, u12, u13, u23 = upper
    return (
        (d0, u01, u02, u03),
        (u01.conjugate(), d1, u12, u13),
        (u02.conjugate(), u12.conjugate(), d2, u23),
        (u03.conjugate(), u13.conjugate(), u23.conjugate(), d3),
    )


def test_hermitian_tensor_rows_is_tensor_rows_of_the_completion():
    """The upper-triangle Bloch rows have the bits of the einsum of the
    Hermitian completion, the signs of zeros included: random trace-one
    inputs, parts drawn from signed zeros and tiny numbers, and real
    inputs, as complex numbers with a signed zero imaginary part and as
    floats."""
    rng = np.random.default_rng(147)
    parts = (0.0, -0.0, 1e-300, -1e-300, 0.125, -0.125)
    diags = ((0.25,) * 4, (1.0, 0.0, -0.0, 0.0), (0.5, -0.0, 0.5, -0.0), (-0.0, 0.0, 1.0, -0.0))
    cases = []
    for _ in range(2000):
        d = rng.random(4)
        d = [float(x) for x in d / d.sum()]
        u = (0.3 * rng.standard_normal((6, 2))).tolist()
        cases.append((d, [complex(a, b) for a, b in u]))
        cases.append((d, [complex(a, -0.0 if b < 0.0 else 0.0) for a, b in u]))
        cases.append((d, [a for a, _ in u]))
        signed = [complex(*rng.choice(parts, 2).tolist()) for _ in range(6)]
        cases.append((diags[int(rng.integers(4))], signed))
    for diag, upper in cases:
        got = _hermitian_tensor_rows(diag, upper)
        want = ref_to_bloch(np.array(hermitian_completion(diag, upper), dtype=complex)).tolist()
        assert [x.hex() for row in got for x in row] == [x.hex() for row in want for x in row]


def ref_validate(m):
    """The numpy formulation of validate_density_matrix: isfinite,
    is_hermitian, trace and eigvalsh, in that order and with its words."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError("expected a 4x4 matrix")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")
    if not is_hermitian(m, tol=HERMITIAN_TOL):
        raise ValueError("matrix is not Hermitian")
    tr = complex(m.trace())
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"trace must be one, got {tr}")
    lo = float(np.linalg.eigvalsh(m)[0])
    if lo < -PSD_TOL:
        raise ValueError(f"matrix is not positive semidefinite (min eig {lo:.3e})")
    return m


def _outcome(validate, m):
    """None if ``validate`` accepts m, else its message."""
    try:
        validate(m)
    except ValueError as exc:
        return str(exc)
    return None


def _hermitian_states(rng, n):
    """Ginibre states made exactly Hermitian, so a perturbation is the
    whole asymmetry."""
    out = []
    for _ in range(n):
        m = ginibre_density(rng)
        out.append((m + m.conj().T) / 2.0)
    return out


def _perturbed(rng, n):
    """(kind, matrix) pairs on both sides of each tolerance, at a relative
    distance of 1e-6 from it."""
    out = []
    for m in _hermitian_states(rng, n):
        for side in (-1.0, 1.0):
            size = 1e-10 * (1.0 + side * 1e-6)
            i, j = rng.choice(4, size=2, replace=False)
            a = m.copy()
            a[i, j] += size * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            out.append(("asymmetry", a))
            k = rng.integers(4)
            a = m.copy()
            a[k, k] += 1j * rng.choice((-1.0, 1.0)) * size / 2.0
            out.append(("diagonal imag", a))
            a = m.copy()
            a[k, k] += rng.choice((-1.0, 1.0)) * size
            out.append(("trace", a))
    return out


def test_validate_matches_numpy_reference_at_each_tolerance():
    """Same decision and same message as the numpy formulation, within a
    relative 1e-6 of the hermiticity and trace tolerances; both sides of
    each tolerance are reached."""
    rng = np.random.default_rng(44)
    seen = {}
    for kind, m in _perturbed(rng, 200):
        got = _outcome(validate_density_matrix, m)
        assert got == _outcome(ref_validate, m)
        seen.setdefault(kind, set()).add(got is None)
    assert seen == {k: {True, False} for k in ("asymmetry", "diagonal imag", "trace")}


def _shifted(states, rng):
    """The states shifted and rescaled so the smallest eigenvalue lands
    uniformly within 3e-10 of zero."""
    out = []
    for m in states:
        target = rng.uniform(-3e-10, 3e-10)
        d = (eig_hermitian_oracle(m)[-1] - target) / (1.0 - 4.0 * target)
        out.append((m - d * np.eye(4)) / (1.0 - 4.0 * d))
    return out


def _psd_draws(rng, n):
    """n each of Ginibre, rank-1/2/3 and Haar pure states."""
    states = [ginibre_density(rng) for _ in range(n)]
    states += [rank_deficient_density(rng, 1 + k % 3) for k in range(3 * n)]
    return states + [pure_density(haar_pure(rng)) for _ in range(n)]


def test_validate_matches_numpy_reference_near_psd_threshold():
    """On the shifted recipe of test_validate_psd_agrees_with_oracle the
    decision and the message (eigvalsh's min eig) are the numpy
    formulation's."""
    rng = np.random.default_rng(45)
    outcomes = []
    for m in _shifted(_psd_draws(rng, 100), rng):
        outcomes.append(_outcome(validate_density_matrix, m))
        assert outcomes[-1] == _outcome(ref_validate, m)
    assert 0 < outcomes.count(None) < len(outcomes)


def test_psd_certificate_is_sound_and_covers_states(monkeypatch):
    """A certificate that accepts implies eigvalsh accepts: on states with
    lambda_min drawn within 3e-10 of zero, and on (0.5, 0.3, 0.2 + e, -e)
    Haar-rotated for e in [5e-11, 1e-10], the band just past the shift of
    PSD_TOL / 2. It accepts whenever lambda_min >= -4e-11, which covers
    every unshifted Ginibre, rank-1/2/3 and pure draw, so on those
    validation never calls eigvalsh. The certificate is the factor of m
    at rank 4, or that of m + (PSD_TOL / 2) I; it accepts when validation
    accepts m without calling eigvalsh. (The unshifted factor alone
    declined 12 band draws with lambda_min from -3.7e-11 to -2.7e-11.)"""
    real = np.linalg.eigvalsh
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)

    def certified(m):
        before = len(calls)
        try:
            validate_density_matrix(m)
        except ValueError:
            return False
        return len(calls) == before

    rng = np.random.default_rng(46)
    states = _psd_draws(rng, 100)
    assert all(certified(m) for m in states)
    candidates = _shifted(states, rng)
    for _ in range(200):
        e = rng.uniform(5e-11, 1e-10)
        candidates.append(haar_rotated((0.5, 0.3, 0.2 + e, -e), rng))
    accepted = 0
    for m in candidates:
        lo = float(real(m)[0])
        if certified(m):
            accepted += 1
            assert lo >= -PSD_TOL
        else:
            assert lo < -4e-11
    assert 0 < accepted < len(candidates)


def test_validation_reads_the_lower_triangle_as_eigvalsh_does():
    """Near-threshold states whose strict upper triangle moves along that
    of +-v v^dagger, v the eigenvector of lambda_min, by at most
    HERMITIAN_TOL, so they stay Hermitian to tolerance while the upper
    triangle's lambda_min moves by up to about 1e-10. The factor reads the
    lower triangle, as eigvalsh does, so validation decides each as the
    numpy reference does, and with its message; the upper triangle's
    spectrum decides 106 of the 600 otherwise, and a factor reading it
    disagreed with the reference on 27."""
    rng = np.random.default_rng(47)
    differ = 0
    for m in _shifted(_psd_draws(rng, 100), rng):
        m = (m + m.conj().T) / 2.0
        v = np.linalg.eigh(m)[1][:, 0]
        e = np.triu(np.outer(v, v.conj()), 1)
        m = m + rng.choice((-1.0, 1.0)) * 0.99 * HERMITIAN_TOL * e / np.abs(e).max()
        assert _outcome(validate_density_matrix, m) == _outcome(ref_validate, m)
        lower_ok = np.linalg.eigvalsh(m, UPLO="L")[0] >= -PSD_TOL
        differ += lower_ok != (np.linalg.eigvalsh(m, UPLO="U")[0] >= -PSD_TOL)
    assert differ > 0
