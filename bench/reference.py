"""Independent correctness reference for the benchmark.

Everything here uses numpy's LAPACK routines (``eigh``/``eigvalsh``) and
shares no code with ``twoqubit``: the partial transpose and the spin flip
are written out again, and the concurrence follows Wootters (PRL 80, 2245,
1998) through the Hermitian matrix sqrt(rho) rho~ sqrt(rho) rather than the
library's characteristic-polynomial route.

Tolerances are fixed from the accuracies the README states, not from
observed results:

- ``EIG_TOL``: the 1e-9 eigenvalue acceptance gate.
- ``SINGLE_TRIPLE_TOL``: a single+triple split narrower than about 2e-7
  collapses to the fully degenerate answer, so strata whose partial
  transpose is (near) single+triple by construction get this floor.
- ``FLIP_TOL``: the smallest spin-flip-product eigenvalue is resolved only
  to about 1e-6, which bounds the concurrence.
"""

from __future__ import annotations

import json
import math

import numpy as np

EIG_TOL = 1e-9
SINGLE_TRIPLE_TOL = 2e-7
FLIP_TOL = 1e-6
# The verdict carries a sign only where |lambda_min(PT)| exceeds this.
VERDICT_MARGIN = 1e-8
# The library treats an own eigenvalue at or below this as zero (rank gate
# of the EoF bound).
RANK_GATE = 1e-8

_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SY, _SY)


def partial_transpose(rho: np.ndarray) -> np.ndarray:
    """Transpose of qubit B: (2i+k, 2j+l) -> (2i+l, 2j+k)."""
    return rho.reshape(2, 2, 2, 2).swapaxes(1, 3).reshape(4, 4)


def flip_product_eigs(rho: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of sqrt(rho) rho~ sqrt(rho), rho~ = (YY) rho* (YY)."""
    w, v = np.linalg.eigh(rho)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    r = root @ (_YY @ rho.conj() @ _YY) @ root
    return np.linalg.eigvalsh((r + r.conj().T) / 2.0)


def concurrence(rho: np.ndarray) -> float:
    """Wootters concurrence from the eigenvalues of sqrt(rho) rho~ sqrt(rho)."""
    s = np.sqrt(np.clip(flip_product_eigs(rho), 0.0, None))[::-1]
    return max(0.0, float(s[0] - s[1] - s[2] - s[3]))


def check_report(rho: np.ndarray, sep, ent, eig_tol: float) -> list[str]:
    """Names of the checks that a (SeparabilityReport, EntanglementReport)
    pair for ``rho`` fails; empty when every output agrees.

    ``eig_tol`` is the stratum's eigenvalue tolerance. Negativity and the
    EoF bound combine up to four eigenvalues, so they get four times it.
    """
    pt_eigs = np.linalg.eigvalsh(partial_transpose(rho))
    lam = float(pt_eigs[0])
    own_min = float(np.linalg.eigvalsh(rho)[0])
    failed = []
    if not abs(sep.lambda_min_pt - lam) <= eig_tol:
        failed.append("lambda_min_pt")
    if abs(lam) > VERDICT_MARGIN and sep.separable != (lam >= 0.0):
        failed.append("verdict")
    neg = float(-pt_eigs[pt_eigs < 0.0].sum())
    if not abs(ent.negativity - neg) <= 4.0 * eig_tol:
        failed.append("negativity")
    if not abs(ent.concurrence - concurrence(rho)) <= FLIP_TOL:
        failed.append("concurrence")
    bound = ent.eof_upper_bound
    if bound is None:
        if own_min > RANK_GATE + eig_tol:
            failed.append("eof_bound_missing")
    elif own_min < RANK_GATE - eig_tol:
        failed.append("eof_bound_on_rank_deficient")
    elif not abs(bound - min(max(1.0 - 4.0 * lam, 0.0), 1.0)) <= 4.0 * eig_tol:
        failed.append("eof_bound")
    return failed


def check_chain(report, rho0: np.ndarray, epsilon: float) -> list[str]:
    """Checks of a ChainReport for a pure initial state rho0: every tabulated
    lambda_min against the PT spectrum of the depolarized state, and n_max
    as the last entangled step of that table."""
    failed = []
    steps = report.lambda_min_per_step
    ref = []
    for k in range(len(steps)):
        keep = (1.0 - epsilon) ** k
        rho = keep * rho0 + (1.0 - keep) * np.eye(4) / 4.0
        ref.append(float(np.linalg.eigvalsh(partial_transpose(rho))[0]))
    if any(not abs(a - b) <= EIG_TOL for a, b in zip(steps, ref)):
        failed.append("chain_lambda_min")
    n_max = report.n_max
    if not (isinstance(n_max, int) and n_max == len(steps) - 2):
        failed.append("chain_table_rows")
    elif not (ref[n_max] < VERDICT_MARGIN and ref[n_max + 1] > -VERDICT_MARGIN):
        failed.append("chain_n_max")
    return failed


def check_fuzz(code: int, text: str, samples: int, seed: int, family: str) -> list[str]:
    """Checks of one ``twoqubit fuzz`` call's exit code and JSON summary."""
    try:
        doc = json.loads(text)
    except ValueError:
        return ["fuzz_output_not_json"]
    failed = []
    if (doc.get("samples"), doc.get("seed"), doc.get("family")) != (samples, seed, family):
        failed.append("fuzz_echo")
    errors = doc.get("max_error", {})
    if not errors or not all(math.isfinite(e) for e in errors.values()):
        failed.append("fuzz_max_error")
    ok = doc.get("ok")
    if ok is not (doc.get("breaches") == 0) or (code == 0) is not ok:
        failed.append("fuzz_exit_code")
    if ok is False:
        failed.append("fuzz_breach")
    return failed
