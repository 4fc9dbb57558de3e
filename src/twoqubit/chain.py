"""Entanglement transfer down a chain of noisy swaps.

Each hop swaps the carrier qubit with the next node and applies
depolarizing noise of strength epsilon, so after n hops an initial pure
state with invariant q = |ad - bc| has

    lambda_min(n) = (1/4) [1 - (1 - eps)^n (1 + 4 q)]

as the smallest partial-transpose eigenvalue. Entanglement survives while
this is negative, which bounds the transfer distance and, for a wanted
distance, the tolerable noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .separability import TAU_SEP


def swap_gate() -> np.ndarray:
    """Two-qubit swap, S|ab> = |ba>."""
    s = np.zeros((4, 4))
    s[0, 0] = s[3, 3] = 1.0
    s[1, 2] = s[2, 1] = 1.0
    return s


def _hops(n, least: int = 0) -> int:
    """A hop count n as an int; ValueError unless it is an integer >= least
    (0 or 1), in the words "n must be a nonnegative (positive) integer"."""
    # Written so that NaN fails it, and an infinite n before int() sees it.
    if not least <= n < math.inf or n != int(n):
        word = "positive" if least else "nonnegative"
        raise ValueError(f"n must be a {word} integer, got {n}")
    return int(n)


def _check_epsilon(epsilon: float) -> None:
    """ValueError unless the noise strength lies in [0, 1]; NaN does not."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")


def _matrix(rho) -> np.ndarray:
    """rho as a complex array; ValueError unless it is 4x4."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):  # a smaller array would broadcast against I/4
        raise ValueError("expected a 4x4 matrix")
    return rho


def depolarize(rho, epsilon: float) -> np.ndarray:
    """One noisy hop: rho -> (1 - eps) rho + eps I/4."""
    _check_epsilon(epsilon)
    return (1.0 - epsilon) * _matrix(rho) + epsilon * np.eye(4) / 4.0


def evolve_chain(rho0, epsilon: float, n: int) -> np.ndarray:
    """n applications of the depolarizing hop, applied step by step.

    The closed form (1-eps)^n rho0 + (1 - (1-eps)^n) I/4 is what the tests
    compare against; this function deliberately iterates so it stays an
    independent simulation. ValueError unless n is a nonnegative integer,
    epsilon lies in [0, 1] and rho0 is 4x4, also for n = 0.
    """
    n = _hops(n)
    _check_epsilon(epsilon)
    rho = _matrix(rho0)
    for _ in range(n):
        rho = depolarize(rho, epsilon)
    return rho


def chain_lambda_min(q: float, epsilon: float, n: int) -> float:
    """Smallest PT eigenvalue after n hops, in closed form."""
    return 0.25 * (1.0 - (1.0 - epsilon) ** n * (1.0 + 4.0 * q))


def max_transfer_distance(q: float, epsilon: float) -> int | float:
    """Largest hop count n with chain_lambda_min(q, eps, n) < -TAU_SEP.

    The log-ratio estimate floor(-log(1+4q)/log(1-eps)) is refined by
    direct evaluation, in steps of 1, 2, 4, ... and then by bisection, so
    a floating-point wobble at the boundary cannot shift the answer and a
    rounded base 1 - eps far from the exact one costs about a hundred
    evaluations. Exact zero counts as separable. q = 0 gives 0; eps = 0
    with q > 0 never disentangles and returns math.inf, as does an eps for
    which 1 - eps rounds to 1.
    """
    if not 0.0 <= q <= 0.5:
        raise ValueError(f"q must lie in [0, 1/2], got {q}")
    _check_epsilon(epsilon)
    if q <= TAU_SEP:
        return 0
    if 1.0 - epsilon == 1.0:
        return math.inf
    if epsilon >= 1.0:
        return 0

    def entangled(n: int) -> bool:
        return chain_lambda_min(q, epsilon, n) < -TAU_SEP

    # Bracket the answer by lo entangled (n = 0 is, as q > TAU_SEP) and
    # hi not, galloping from the estimate, then bisect.
    lo = max(math.floor(-math.log1p(4.0 * q) / math.log1p(-epsilon)), 0)
    hi, step = lo + 1, 1
    while entangled(hi):
        lo, hi, step = hi, hi + step, 2 * step
    while lo > 0 and not entangled(lo):
        lo, hi, step = max(lo - step, 0), lo, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if entangled(mid):
            lo = mid
        else:
            hi = mid
    return lo


def critical_noise(q: float, n: int) -> float:
    """Largest noise strength that still leaves entanglement after n hops:

        eps* = 1 - (1 + 4q)^(-1/n)

    with lambda_min exactly zero there. Computed through expm1/log1p so
    the boundary stays exact to machine precision.
    """
    if not 0.0 < q <= 0.5:
        raise ValueError(f"q must lie in (0, 1/2], got {q}")
    n = _hops(n, 1)
    return -math.expm1(-math.log1p(4.0 * q) / n)


@dataclass(frozen=True)
class ChainReport:
    lambda_min_per_step: tuple[float, ...]
    n_max: int | float
    epsilon_critical: float | None


def chain_report(q: float, epsilon: float, n: int | None = None) -> ChainReport:
    """Per-step lambda_min table plus the distance and noise thresholds.

    Rows cover steps 0..n when n is given, otherwise 0..n_max+1 so the
    first separable step is visible. epsilon_critical refers to the
    requested n (or to n_max when n is omitted); it is None when that
    distance is 0. An unbounded n_max with no explicit n is an error since
    the table would never end.
    """
    n_max = max_transfer_distance(q, epsilon)
    if n is None:
        if n_max is math.inf:
            raise ValueError("n is required when the transfer distance is unbounded")
        last = int(n_max) + 1
        crit_n = int(n_max)
    else:
        last = crit_n = _hops(n)
    steps = tuple(chain_lambda_min(q, epsilon, k) for k in range(last + 1))
    crit = critical_noise(q, crit_n) if (crit_n >= 1 and q > 0.0) else None
    return ChainReport(
        lambda_min_per_step=steps,
        n_max=n_max,
        epsilon_critical=crit,
    )
