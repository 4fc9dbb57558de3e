"""The benchmark's own tests:

    python3 -m pytest bench -q
"""

import dataclasses
import json
import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

SPEC = run.load_spec()
TINY = {"generic_report": 4, "structured_report": len(workloads.STRATA), "fuzz_cli": 6}


@pytest.fixture(scope="module")
def tq():
    return run.fresh_import()


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_every_metric(workload, trace, monkeypatch):
    monkeypatch.setattr(workloads, "FUZZ_SAMPLES", 4)
    out = run.run(workload, 3, 0.01, trace, SPEC, n_timed=TINY[workload], n_checked=TINY[workload] + 2)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    result = json.loads(json.dumps(out["result"]))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out["problems"]
    assert result["attempted"] >= TINY[workload]
    assert list(result["metrics"]) == [d["name"] for d in declared]
    assert out["absent"] == []
    for d in declared:
        got = result["metrics"][d["name"]]
        assert got["unit"] == d["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])


def test_attempted_and_failed_do_not_depend_on_run_length(monkeypatch):
    real = workloads.run_unit

    def flaky(tq, unit):
        if unit.rho[0, 0].real > 0.25:
            raise ArithmeticError("injected")
        return real(tq, unit)

    monkeypatch.setattr(workloads, "run_unit", flaky)
    short, long = (
        run.run("generic_report", 2, seconds, False, SPEC, n_timed=6, n_checked=10)
        for seconds in (0.001, 0.3)
    )
    assert long["metrics"]["passes"] > short["metrics"]["passes"]
    assert short["result"]["attempted"] == long["result"]["attempted"] == 10
    assert short["result"]["failed"] == long["result"]["failed"] > 0


def test_same_seed_traced_runs_repeat_every_count():
    counted = [d["name"] for d in SPEC["per_layer"]
               if d["name"].endswith((".calls_per_unit", ".raised")) or ".branch." in d["name"]]
    first, second = (
        run.run("structured_report", 5, 0.01, True, SPEC, n_timed=20, n_checked=20)["metrics"] for _ in range(2)
    )
    assert {k: first[k] for k in counted} == {k: second[k] for k in counted}
    assert first["trace.overhead"] > 0


def test_reference_flags_perturbed_results(tq):
    rng = np.random.default_rng(7)
    rho = tq.sampling.ginibre_density(rng)
    sep = tq.separability.peres_test(rho)
    ent = tq.entanglement.entanglement_report(rho)
    tol = reference.EIG_TOL
    assert reference.check_report(rho, sep, ent, tol) == []
    moved = dataclasses.replace(sep, lambda_min_pt=sep.lambda_min_pt + 1e-7)
    assert reference.check_report(rho, moved, ent, tol) == ["lambda_min_pt"]
    flipped = dataclasses.replace(sep, separable=not sep.separable)
    assert reference.check_report(rho, flipped, ent, tol) == ["verdict"]
    off = dataclasses.replace(ent, concurrence=ent.concurrence + 1e-5)
    assert reference.check_report(rho, sep, off, tol) == ["concurrence"]
    off = dataclasses.replace(ent, negativity=ent.negativity + 1e-7)
    assert reference.check_report(rho, sep, off, tol) == ["negativity"]

    v = tq.sampling.haar_pure(rng)
    q = float(abs(v[0] * v[3] - v[1] * v[2]))
    chain = tq.chain.chain_report(q, 0.1)
    rho0 = tq.sampling.pure_density(v)
    assert reference.check_chain(chain, rho0, 0.1) == []
    steps = list(chain.lambda_min_per_step)
    steps[1] += 1e-6
    moved = dataclasses.replace(chain, lambda_min_per_step=tuple(steps))
    assert reference.check_chain(moved, rho0, 0.1) == ["chain_lambda_min"]

    doc = {"family": "ginibre", "samples": 2, "seed": 1, "max_error": {"x": 1e-3},
           "breaches": 1, "counterexamples": [], "ok": False}
    assert reference.check_fuzz(3, json.dumps(doc), 2, 1, "ginibre") == ["fuzz_breach"]
    assert "fuzz_exit_code" in reference.check_fuzz(0, json.dumps(doc), 2, 1, "ginibre")


def test_known_defects_admit_only_their_signatures(tq):
    rng = np.random.default_rng(11)
    generic = workloads.Unit("ginibre", tq.sampling.ginibre_density(rng))
    sep = tq.separability.peres_test(generic.rho)
    ent = tq.entanglement.entanglement_report(generic.rho)
    off = dataclasses.replace(ent, concurrence=ent.concurrence + 1e-5)
    assert reference.check_report(generic.rho, sep, off, reference.EIG_TOL) == ["concurrence"]
    assert workloads.known_defect(generic, "concurrence", (sep, off, None)) is None
    moved = dataclasses.replace(sep, lambda_min_pt=sep.lambda_min_pt + 1e-7)
    assert workloads.known_defect(generic, "lambda_min_pt", (moved, ent, None)) is None
    assert workloads.known_defect(generic, "InternalInconsistencyError") is None

    # 3(b): a rank-2 state whose concurrence is off by less, then by more,
    # than reading its flip spectrum (mu1, mu2, 0, 0) as (mu1, x, x, x) gives.
    rank2 = workloads._structured_unit(tq, "rank2_mix_p1e-4", rng)
    mu2 = reference.flip_product_eigs(rank2.rho)[2]
    sep = tq.separability.peres_test(rank2.rho)
    ent = tq.entanglement.entanglement_report(rank2.rho)
    for shift, admitted in ((0.5, "3(b)"), (2.0, None)):
        c = reference.concurrence(rank2.rho) + shift * (np.sqrt(3.0) - 1.0) * np.sqrt(mu2) + 1e-6
        assert workloads.known_defect(rank2, "concurrence", (sep, dataclasses.replace(ent, concurrence=c), None)) == admitted

    quarter = workloads.Unit("near_mixed_g1e-7", np.eye(4, dtype=complex) / 4)
    assert workloads.known_defect(quarter, "InternalInconsistencyError") == "3(a)"


def test_reference_concurrence_matches_known_values():
    bell = np.zeros((4, 4), dtype=complex)
    bell[np.ix_([0, 3], [0, 3])] = 0.5
    assert abs(reference.concurrence(bell) - 1.0) < 1e-12
    for p in (0.0, 0.2, 0.5, 0.9):
        werner = p * bell + (1 - p) * np.eye(4) / 4
        assert abs(reference.concurrence(werner) - max(0.0, (3 * p - 1) / 2)) < 1e-12


def test_tracer_restores_module_attributes(tq):
    modules = [tq] + [getattr(tq, m) for m in LAYERS]
    before = [dict(vars(m)) for m in modules]
    tracer = Tracer(tq, ["spectrum.no_such_function"])
    tracer.install()
    try:
        assert tq.separability.quartic_eigs is not before[0]["quartic_eigs"]
        tq.separability.peres_test(np.eye(4, dtype=complex) / 4)
    finally:
        tracer.restore()
    assert tracer.funcs["spectrum.quartic_eigs"].calls >= 1
    assert tracer.absent == ["spectrum.no_such_function"]
    for mod, saved in zip(modules, before):
        assert all(vars(mod)[k] is v for k, v in saved.items())


def test_missing_package_exits_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path))
    assert run.main(["--workload", "generic_report", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
