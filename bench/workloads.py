"""Seeded inputs, units of work and their checks for the three workloads.

A workload is a list of units built from ``--seed`` alone; the library only
ever sees the generated inputs. One unit is one library call sequence:

- ``generic_report``: ``peres_test(rho)`` then ``entanglement_report(rho)``,
  both with their default validation, on Hilbert-Schmidt (Ginibre) states.
- ``structured_report``: the same unit on an equal-share, interleaved mix of
  strata where degenerate branches and rescaled flip products do the work.
  Chain units also call ``chain_report(q, epsilon)``.
- ``fuzz_cli``: one in-process ``twoqubit fuzz`` call of ``FUZZ_SAMPLES``
  samples, cycling through all six families.

Library functions are always looked up on their module at call time, so the
traced run sees every call through its rebound attributes.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass

import numpy as np

import reference

# Samples per fuzz call. Real calls are larger (the README shows 20000, the
# repo's fuzz tests use 40-60), but a call is timed whole, and only calls
# short enough to fall between other tenants' bursts on a shared host give a
# steady fastest repeat. Ten seeds on a 2-vCPU host spread the timings by up
# to 11% of their median at 20 samples a call (about 15 ms), and by up to
# 38% at 40 (four seeds); at 10 samples (about 8 ms) by under 5%. The CLI's
# own per-call cost (parser, JSON output) is about 0.8 ms of such a call.
FUZZ_SAMPLES = 10
FUZZ_FAMILIES = ("ginibre", "hermitian", "pure", "rank2", "rank3", "werner")

# Units per pass. For the report workloads, large enough that the ten units
# beyond the tail percentile sit inside the slowest stratum; small enough
# that a 30 s run repeats every unit about fifty times, which the per-unit
# fastest repeat needs to settle on a shared machine. For fuzz_cli, ten
# calls per family: the tail percentile (p83) has ten calls beyond it.
UNITS = {"generic_report": 300, "structured_report": 300, "fuzz_cli": 60}
# Units checked against the reference: the timed ones plus more run once,
# enough that a defect hitting one input in a thousand shows in most runs.
# A fuzz call checks its samples against the CLI's own oracle.
CHECKED_UNITS = {"generic_report": 3000, "structured_report": 3000, "fuzz_cli": 240}

STRATA = (
    "rank2",
    "rank3",
    "pure",
    "werner",
    "chain",
    "near_mixed_g1e-7",
    "near_mixed_g1e-9",
    "rank2_mix_p1e-2",
    "rank2_mix_p1e-4",
    "rank2_mix_p1e-6",
)

# Strata whose partial transpose is (near) single+triple by construction
# and so sit on the README's single+triple resolution floor.
_SINGLE_TRIPLE_STRATA = {"werner", "near_mixed_g1e-7", "near_mixed_g1e-9"}

# Defects present when this benchmark was defined. They count in fail_frac
# and wrong_frac like any other failure. Each may occur without making a run
# incorrect only on a unit that shows its signature, as the reference
# measures it (see known_defect); any other exception or failed check sets
# "correct" to false. The signatures cover every failure seen on 33000
# structured (seeds 1-11) and 39000 Ginibre units (seeds 1-13).
DEFECTS = {
    "3(a)": "ROADMAP 3(a): valid near-maximally-mixed states raise "
    "InternalInconsistencyError. Signature: that exception, on a state whose "
    "spectrum lies within 1e-6 of 1/4",
    "3(b)": "ROADMAP 3(b): the single+triple pre-gate of quartic_eigs claims "
    "rank-2 input. The flip-product spectrum (mu1, mu2, 0, 0) comes back as "
    "(mu1, x, x, x) when mu2 is small, and a state (1-p, p, 0, 0) with small p "
    "as full rank. Signature, on a state of rank at most 2: the concurrence "
    "off by at most (sqrt(3) - 1) sqrt(mu2) + 1e-6 with mu2 at most 1e-5, or "
    "the EoF bound returned where the state's third eigenvalue is at most 1e-5 "
    "(the largest of either seen is 1.05e-6)",
    "3(c)": "ROADMAP 3(c): near-triple and near-all-quarter spectra lose "
    "accuracy. Signature: a failed lambda_min_pt, negativity or eof_bound check "
    "where three eigenvalues of the partial transpose lie within 1e-2 and "
    "lambda_min is at most 1e-6 off",
    "b0-gate": "not yet in the ROADMAP: on about 0.04% of Ginibre states the "
    "b0 ~ 0 gate of quartic_eigs zeroes a small but genuine flip-product "
    "eigenvalue mu4. Signature: the concurrence off by at most sqrt(mu4) + 1e-6, "
    "with mu4 at most 1e-7 (the largest seen is 7.8e-9)",
}
NEAR_QUARTER = 1e-6
NEAR_TRIPLE = 1e-2
LAMBDA_ERR = 1e-6
NEAR_SINGLE = 1e-5  # an eigenvalue this small beside a dominant one
B0_FLIP_MIN = 1e-7


@dataclass
class Unit:
    stratum: str
    rho: np.ndarray | None = None
    eig_tol: float = reference.EIG_TOL
    chain: tuple | None = None  # (rho0, q, epsilon) for chain units
    fuzz: tuple | None = None  # (samples, seed, family) for fuzz units


def _haar_unitary(rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _hermitize(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2.0


def _structured_unit(tq, stratum: str, rng: np.random.Generator) -> Unit:
    s = tq.sampling
    tol = reference.SINGLE_TRIPLE_TOL if stratum in _SINGLE_TRIPLE_STRATA else reference.EIG_TOL
    if stratum == "rank2":
        return Unit(stratum, s.rank_deficient_density(rng, 2), tol)
    if stratum == "rank3":
        return Unit(stratum, s.rank_deficient_density(rng, 3), tol)
    if stratum == "pure":
        return Unit(stratum, s.pure_density(s.haar_pure(rng)), tol)
    if stratum == "werner":
        return Unit(stratum, s.werner_state(rng.uniform(-1.0 / 3.0, 1.0)), tol)
    if stratum == "chain":
        v = s.haar_pure(rng)
        rho0 = s.pure_density(v)
        q = float(abs(v[0] * v[3] - v[1] * v[2]))
        eps = float(rng.uniform(0.05, 0.3))
        rho = tq.chain.evolve_chain(rho0, eps, int(rng.integers(1, 9)))
        return Unit(stratum, rho, tol, chain=(rho0, q, eps))
    if stratum.startswith("near_mixed_g"):
        # ROADMAP 3(a): U diag(1/4+3g, 1/4-g, 1/4-g/2, 1/4-3g/2) U^dag.
        g = float(stratum.removeprefix("near_mixed_g"))
        u = _haar_unitary(rng)
        d = np.array([0.25 + 3 * g, 0.25 - g, 0.25 - g / 2, 0.25 - 1.5 * g])
        return Unit(stratum, _hermitize((u * d) @ u.conj().T), tol)
    if stratum.startswith("rank2_mix_p"):
        # ROADMAP 3(b): (1-p)|v><v| + p|u><u| with v, u Haar.
        p = float(stratum.removeprefix("rank2_mix_p"))
        v = s.pure_density(s.haar_pure(rng))
        u = s.pure_density(s.haar_pure(rng))
        return Unit(stratum, _hermitize((1.0 - p) * v + p * u), tol)
    raise ValueError(f"unknown stratum {stratum!r}")


def generate(tq, workload: str, seed: int, n_units: int) -> list[Unit]:
    """The workload's units, a pure function of (workload, seed, n_units)."""
    rng = np.random.default_rng(seed)
    if workload == "generic_report":
        return [Unit("ginibre", tq.sampling.ginibre_density(rng)) for _ in range(n_units)]
    if workload == "structured_report":
        return [_structured_unit(tq, STRATA[i % len(STRATA)], rng) for i in range(n_units)]
    if workload == "fuzz_cli":
        return [
            Unit(
                FUZZ_FAMILIES[i % len(FUZZ_FAMILIES)],
                fuzz=(FUZZ_SAMPLES, int(rng.integers(0, 2**31)), FUZZ_FAMILIES[i % len(FUZZ_FAMILIES)]),
            )
            for i in range(n_units)
        ]
    raise ValueError(f"unknown workload {workload!r}")


def states_per_unit(workload: str) -> int:
    return FUZZ_SAMPLES if workload == "fuzz_cli" else 1


def run_unit(tq, unit: Unit):
    """Run one unit; the result is compared by value between passes."""
    if unit.fuzz is not None:
        samples, seed, family = unit.fuzz
        argv = ["fuzz", "--samples", str(samples), "--seed", str(seed), "--family", family]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = tq.cli.main(argv)
            except SystemExit as exc:  # argparse rejecting the arguments
                code = exc.code
        return code, buf.getvalue()
    sep = tq.separability.peres_test(unit.rho)
    ent = tq.entanglement.entanglement_report(unit.rho)
    chain = None
    if unit.chain is not None:
        _, q, eps = unit.chain
        chain = tq.chain.chain_report(q, eps)
    return sep, ent, chain


def fuzz_failed(result) -> bool:
    """A CLI call that exited non-zero for a reason other than a breach."""
    code = result[0]
    return code not in (0, 3)


def check_unit(unit: Unit, result) -> list[str]:
    """Names of the reference checks the unit's result fails."""
    if unit.fuzz is not None:
        return reference.check_fuzz(result[0], result[1], *unit.fuzz)
    sep, ent, chain = result
    failed = reference.check_report(unit.rho, sep, ent, unit.eig_tol)
    if chain is not None:
        rho0, _, eps = unit.chain
        failed += reference.check_chain(chain, rho0, eps)
    return failed


def known_defect(unit: Unit, failure: str, result=None) -> str | None:
    """The known defect whose signature explains ``failure`` on ``unit``, or
    None. ``failure`` is an exception type name or a failed check name;
    ``result`` is the unit's output when it returned."""
    if unit.rho is None:
        return None
    eigs = np.linalg.eigvalsh(unit.rho)
    if failure == "InternalInconsistencyError":
        return "3(a)" if np.max(np.abs(eigs - 0.25)) <= NEAR_QUARTER else None
    if result is None:
        return None
    sep, ent, _ = result
    if failure in ("lambda_min_pt", "negativity", "eof_bound"):
        pt = np.linalg.eigvalsh(reference.partial_transpose(unit.rho))
        triple = min(pt[2] - pt[0], pt[3] - pt[1])
        if triple <= NEAR_TRIPLE and abs(sep.lambda_min_pt - pt[0]) <= LAMBDA_ERR:
            return "3(c)"
        return None
    rank2 = eigs[1] <= reference.EIG_TOL
    if failure == "eof_bound_on_rank_deficient":
        return "3(b)" if rank2 and eigs[2] <= NEAR_SINGLE else None
    if failure == "concurrence":
        mu = reference.flip_product_eigs(unit.rho)
        root = np.sqrt(np.clip(mu, 0.0, None))
        err = abs(ent.concurrence - reference.concurrence(unit.rho))
        if rank2 and mu[2] <= NEAR_SINGLE and err <= (np.sqrt(3.0) - 1.0) * root[2] + reference.FLIP_TOL:
            return "3(b)"
        if mu[0] <= B0_FLIP_MIN and err <= root[0] + reference.FLIP_TOL:
            return "b0-gate"
    return None
