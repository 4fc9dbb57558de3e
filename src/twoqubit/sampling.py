"""Random-state generators for tests and the fuzz command.

Everything takes a numpy Generator so runs are reproducible from a single
seed. Density matrices come out Hermitian with trace one, and PSD
families PSD, up to rounding: pure_density's complex products leave
entries up to about 6e-17 off their conjugate partners.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .linalg import kron


def ginibre_density(rng: np.random.Generator) -> np.ndarray:
    """Full-rank random density matrix G G^dag / tr(G G^dag), complex
    Gaussian G. This is the Hilbert-Schmidt ensemble."""
    return rank_deficient_density(rng, 4)


def rank_deficient_density(rng: np.random.Generator, rank: int) -> np.ndarray:
    """Random density matrix of the given rank (1..4), via a rectangular
    Ginibre factor."""
    if rank not in (1, 2, 3, 4):  # NaN and 2.5 included
        raise ValueError(f"rank must be 1..4, got {rank}")
    rank = int(rank)
    g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    m = g @ g.conj().T
    m /= m.trace().real
    return (m + m.conj().T) / 2.0


def random_hermitian_trace_one(rng: np.random.Generator) -> np.ndarray:
    """Random Hermitian matrix with trace one but no positivity: Gaussian
    Hermitian, then the trace surplus is spread over the diagonal. Probes
    the solver on the full Hermitian domain, not just density matrices."""
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (g + g.conj().T) / 2.0
    h += (1.0 - h.trace().real) / 4.0 * _EYE4
    return h


def near_quarter_density(rng: np.random.Generator) -> np.ndarray:
    """U diag(1/4 + d v) U^dag with U Haar (QR of a complex Gaussian), v a
    random traceless unit vector and d log-uniform in [1e-9, 1e-2]: a state
    whose spectrum lies within d of the maximally mixed one."""
    v = rng.standard_normal(4)
    v -= v.mean()
    v *= 10.0 ** rng.uniform(-9.0, -2.0) / np.linalg.norm(v)
    q, r = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    m = (u * (0.25 + v)) @ u.conj().T
    return (m + m.conj().T) / 2.0


def haar_pure(rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure two-qubit state vector (length-4, unit norm)."""
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return v / np.linalg.norm(v)


def random_product_pure(rng: np.random.Generator) -> np.ndarray:
    """Product of two Haar-random single-qubit states."""
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    return np.kron(a, b)


def pure_density(state) -> np.ndarray:
    """Projector |psi><psi| from a state vector."""
    v = np.asarray(state, dtype=complex).ravel()
    return v[:, None] * v.conj()  # the multiply np.outer runs


def bell_state() -> np.ndarray:
    """(|00> + |11>)/sqrt(2)."""
    return np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)


# Constant operands of the samplers, built once: each draw reads the same
# values in the same expression order it would build them in. The Bell
# projector is built on first use: its numpy arithmetic, run at import,
# raised a fresh process's peak RSS by about 0.2 MB.
_EYE4 = np.eye(4)


@functools.cache
def _bell_density() -> np.ndarray:
    return pure_density(bell_state())


def werner_state(p: float) -> np.ndarray:
    """p |Phi+><Phi+| + (1-p) I/4; a density matrix for p in [-1/3, 1],
    entangled exactly when p > 1/3."""
    if not -1.0 / 3.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [-1/3, 1], got {p}")
    return p * _bell_density() + (1.0 - p) * _EYE4 / 4.0


def embed_four_qubit(c, mid, d) -> np.ndarray:
    """|c> (x) |mid> (x) |d> for single-qubit c, d and a two-qubit middle."""
    return kron(c, kron(mid, d)).ravel()
