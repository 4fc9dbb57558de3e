#!/usr/bin/env python3
"""Benchmark of the twoqubit library, run from the root of a checkout:

    python3 bench/run.py --workload generic_report --seed 1 --seconds 30 --trace 0

One process, one caller thread, closed loop: each unit starts when the one
before it has returned. A run imports ``twoqubit`` from ``src/`` of this
checkout, builds the workload's units from ``--seed``, and runs passes over
the timed units until ``--seconds`` have elapsed. The first pass's outputs,
and those of further units run once afterwards, are checked against the
independent numpy reference in ``reference.py``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer ones (see ``tracing.py``). Human-readable lines come first, one
metric per line with its unit; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import workloads as W  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

SETUP_REPEATS = 15
YARDSTICK_REPEATS = 5
PROBE_REPEATS = 3

# Machine-speed probe: a fixed mix of small numpy calls and interpreted
# arithmetic, shaped like the library's own work but sharing no code with
# it. On a CPU shared with other tenants, their load can slow every repeat
# of a 30 s run by half. End-to-end times are therefore reported at the
# probe's reference speed: each is multiplied by PROBE_REF_US over a probe
# taken in the same run. The raw times are printed beside them (suffix
# _raw). On a loaded 2-vCPU Xeon host, ten seeds per workload spread the
# raw times by 8-28% of their median (IQR) and the scaled ones by 3-8%.
PROBE_REF_US = 815.0  # about the median fastest probe on that host
_g = np.random.default_rng(0).standard_normal((2, 50, 4, 4))
PROBE_MATRICES = list((_g[0] + 1j * _g[1]) @ (_g[0] + 1j * _g[1]).conj().transpose(0, 2, 1))


def probe_us() -> float:
    """Fastest of a few runs of the machine-speed probe, in microseconds."""
    best = math.inf
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter_ns()
        acc = 0.0
        for m in PROBE_MATRICES:
            acc += float(np.linalg.eigvalsh(m)[0]) + float(np.trace(m @ m).real)
            for k in range(100):
                acc += k * 0.5
        best = min(best, (time.perf_counter_ns() - t0) / 1e3)
    return best


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def fresh_import():
    """Import ``twoqubit`` (and its CLI) anew from this checkout's ``src``."""
    for name in [n for n in sys.modules if n == "twoqubit" or n.startswith("twoqubit.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    tq = importlib.import_module("twoqubit")
    importlib.import_module("twoqubit.cli")
    if not os.path.abspath(tq.__file__).startswith(SRC + os.sep):
        raise ImportError(f"twoqubit was imported from {tq.__file__}, not from {SRC}")
    return tq


def setup(workload: str, seed: int, n_units: int, n_timed: int):
    """Import, generate the inputs and warm up on the first timed unit of
    each stratum or family; returns (seconds, package, units)."""
    t0 = time.perf_counter()
    tq = fresh_import()
    units = W.generate(tq, workload, seed, n_units)
    for unit in {u.stratum: u for u in reversed(units[:n_timed])}.values():
        run_safely(tq, unit)
    return time.perf_counter() - t0, tq, units


def run_safely(tq, unit):
    """("ok", result) or ("raised", exception type, message)."""
    try:
        return ("ok", W.run_unit(tq, unit))
    except Exception as exc:  # a unit that raises is counted, not fatal
        return ("raised", type(exc).__name__, str(exc))


def one_pass(tq, units, per_unit_ns):
    """Run every unit once, appending each unit's time to its list in
    ``per_unit_ns``; returns (wall seconds, outcomes).

    As in ``timeit``, the cyclic garbage collector is off while units run
    and collects once after the pass: its pauses, driven mostly by the
    benchmark's own retained objects, would otherwise land on the same
    few units in every pass."""
    clock = time.perf_counter_ns
    outcomes = []
    gc.disable()
    try:
        t0 = time.perf_counter()
        for times, unit in zip(per_unit_ns, units):
            start = clock()
            outcomes.append(run_safely(tq, unit))
            times.append(clock() - start)
        wall = time.perf_counter() - t0
    finally:
        gc.enable()
    gc.collect()
    return wall, outcomes


def best_us(per_unit_ns):
    """Each unit's fastest repeat, in microseconds. Other tenants of a shared
    machine show up as stalls that hit some repeats and not others; the
    fastest repeat is the unit's own cost."""
    return [min(ts) / 1e3 for ts in per_unit_ns]


def judge(units, outcomes) -> dict:
    """Check every outcome against the reference and classify it."""
    strata: dict[str, dict[str, int]] = {}
    defects: dict[str, int] = {}
    failed_at = []
    wrong = unexpected = 0
    for i, (unit, out) in enumerate(zip(units, outcomes)):
        row = strata.setdefault(unit.stratum, {"units": 0, "failed": 0, "wrong": 0})
        row["units"] += 1
        if out[0] == "raised" or (unit.fuzz is not None and W.fuzz_failed(out[1])):
            kind = out[1] if out[0] == "raised" else f"exit {out[1][0]}"
            failed_at.append(i)
            row["failed"] += 1
            row[kind] = row.get(kind, 0) + 1
            known = [W.known_defect(unit, kind)] if out[0] == "raised" else [None]
        else:
            checks = W.check_unit(unit, out[1])
            if not checks:
                continue
            wrong += 1
            row["wrong"] += 1
            for c in checks:
                row[c] = row.get(c, 0) + 1
            known = [W.known_defect(unit, c, out[1]) for c in checks]
        unexpected += None in known
        for d in set(known) - {None}:
            defects[d] = defects.get(d, 0) + 1
    n = len(units)
    failed = len(failed_at)
    return {
        "failed_at": failed_at,
        "wrong": wrong,
        "unexpected": unexpected,
        "fail_frac": failed / n,
        "wrong_frac": wrong / n,
        "right_frac": (n - failed - wrong) / n,
        "strata": strata,
        "defects": defects,
    }


def tail(values):
    """Highest percentile that leaves at least ten values beyond it:
    (value, percentile, values beyond). With ten or fewer values, the max."""
    s = sorted(values)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, 0
    return s[n - 11], 100.0 * (n - 10) / n, 10


def measure(tq, units, workload, seconds, probes):
    """Passes over all units until ``seconds`` have elapsed, with a probe
    after each pass appended to ``probes``. Raw times; throughput is the
    states of one pass over the summed per-unit times."""
    per_unit_ns = [[] for _ in units]
    passes = 0
    first = None
    # Passes after the first run the units in a shuffled order, so that a
    # periodic stall of a shared host cannot land on the same units in
    # every pass and lift their fastest repeat.
    order = list(range(len(units)))
    shuffle = random.Random(0).shuffle
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        _, outcomes = one_pass(tq, [units[i] for i in order], [per_unit_ns[i] for i in order])
        probes.append(probe_us())
        passes += 1
        first = first or outcomes
        shuffle(order)
    per_unit_us = best_us(per_unit_ns)
    states = len(units) * W.states_per_unit(workload)
    tail_us, pct, beyond = tail(per_unit_us)
    return {
        "passes": passes,
        "states_per_s_raw": states / (sum(per_unit_us) / 1e6),
        "call_p50_us_raw": statistics.median(per_unit_us),
        "call_tail_us_raw": tail_us,
        "tail_percentile": pct,
        "tail_units_beyond": beyond,
        "first_outcomes": first,
    }


def yardstick(states) -> dict:
    """Scalar and stacked np.linalg.eigvalsh per state on the given states,
    fastest of a few repeats."""
    stack = np.array(states)
    scalar, stacked = [], []
    for _ in range(YARDSTICK_REPEATS):
        t0 = time.perf_counter()
        for rho in states:
            np.linalg.eigvalsh(rho)
        scalar.append((time.perf_counter() - t0) / len(states))
        t0 = time.perf_counter()
        np.linalg.eigvalsh(stack)
        stacked.append((time.perf_counter() - t0) / len(states))
    return {
        "yardstick.eigvalsh_us": min(scalar) * 1e6,
        "yardstick.eigvalsh_stacked_us": min(stacked) * 1e6,
    }


def traced_run(tq, units, workload, seed, seconds, wanted):
    """Alternate untraced and traced passes; per-layer metrics and checks.

    Per-unit counts and times come from the traced passes alone. Building
    the inputs again under a tracer of its own checks that tracing leaves
    them unchanged; what the library did there is reported with the prefix
    ``setup.``."""
    gen = Tracer(tq)
    try:
        gen.install()
        regenerated = W.generate(tq, workload, seed, len(units))
    finally:
        gen.restore()
    problems = []
    if not all(_same_input(a, b) for a, b in zip(units, regenerated)):
        problems.append("regenerated inputs differ")

    tracer = Tracer(tq, wanted)
    untraced = [[] for _ in units]
    traced = [[] for _ in units]
    traced_wall = 0.0
    passes = 0
    first_untraced = first_traced = None
    snapshots = [tracer.counts()]
    deadline = time.perf_counter() + seconds
    try:
        while passes < 2 or time.perf_counter() < deadline:
            _, outcomes = one_pass(tq, units, untraced)
            first_untraced = first_untraced or outcomes
            tracer.install()
            try:
                wall, outcomes = one_pass(tq, units, traced)
            finally:
                tracer.restore()
            passes += 1
            traced_wall += wall
            first_traced = first_traced or outcomes
            snapshots.append(tracer.counts())
            if passes == 1:
                pass_samples = list(tracer.sampled)
    finally:
        tracer.restore()

    if first_traced != first_untraced:
        problems.append("traced outputs differ from untraced outputs")
    counts = _delta(snapshots[0], snapshots[1])
    if counts != _delta(snapshots[1], snapshots[2]):
        problems.append("counts differ between two traced passes")

    n_states = len(units) * W.states_per_unit(workload)
    metrics = {}
    for prefix, t, n in (("", tracer, n_states), ("setup.", gen, len(units))):
        for key, stats in sorted(t.funcs.items()):
            calls = counts.get(f"{key}.calls", 0) if t is tracer else stats.calls
            if prefix and not calls:
                continue
            metrics[f"{prefix}{key}.calls_per_unit"] = calls / n
            metrics[f"{prefix}{key}.self_us"] = statistics.median(stats.self_ns) / 1e3 if stats.self_ns else 0.0
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = tracer.module_self_ns[layer] / 1e9 / traced_wall
        metrics[f"{layer}.raised"] = counts.get(f"{layer}.raised", 0)
    for branch in getattr(tq.spectrum, "Branch", ()):
        metrics[f"spectrum.quartic_eigs.branch.{branch.value}"] = counts.get(f"branch.{branch.value}", 0)
    states = pass_samples if workload == "fuzz_cli" else [u.rho for u in units]
    metrics.update(yardstick(states))
    base = metrics["yardstick.eigvalsh_us"]
    metrics["yardstick.quartic_eigs_ratio"] = metrics.get("spectrum.quartic_eigs.self_us", 0.0) / base
    metrics["trace.overhead"] = sum(best_us(traced)) / sum(best_us(untraced))
    return metrics, first_untraced, problems, tracer.absent


def _same_input(a, b) -> bool:
    if a.fuzz is not None:
        return a.fuzz == b.fuzz
    return a.stratum == b.stratum and np.array_equal(a.rho, b.rho)


def _delta(before: dict, after: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items()}


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": commit(),
        "seed": seed,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, spec: dict,
        n_timed=None, n_checked=None) -> dict:
    """One benchmark run; returns the result line plus details.

    The first ``n_timed`` units are timed. All ``n_checked`` units are
    checked against the reference, the rest after timing with one untimed
    call each, so that defects rarer than one in a few hundred inputs show.
    ``attempted`` and ``failed`` count these checked units once each, so
    they depend on the seed alone, not on how many passes fit in the time.
    """
    n_timed = n_timed or W.UNITS[workload]
    n_checked = max(n_timed, n_checked or W.CHECKED_UNITS[workload])
    setups, probes = [], []
    for _ in range(1 if trace else SETUP_REPEATS):
        took, tq, units = setup(workload, seed, n_checked, n_timed)
        setups.append(took)
        probes.append(probe_us())
    timed = units[:n_timed]
    if trace:
        wanted = [m["name"].rsplit(".", 1)[0] for m in spec["per_layer"]
                  if m["name"].endswith((".calls_per_unit", ".self_us"))]
        metrics, outcomes, problems, absent = traced_run(
            tq, timed, workload, seed, seconds, wanted)
        declared = spec["per_layer"]
    else:
        metrics = measure(tq, timed, workload, seconds, probes)
        outcomes, problems, absent = metrics.pop("first_outcomes"), [], []
        # Each set-up is scaled by the probe run right after it; the unit
        # times, fastest repeats, by the fastest probe of the run.
        metrics["setup_s_raw"] = statistics.median(setups)
        metrics["setup_s"] = statistics.median(
            t * PROBE_REF_US / p for t, p in zip(setups, probes))
        metrics["probe_us"] = min(probes)
        speed = PROBE_REF_US / metrics["probe_us"]
        metrics["states_per_s"] = metrics["states_per_s_raw"] / speed
        for name in ("call_p50_us", "call_tail_us"):
            metrics[name] = metrics[name + "_raw"] * speed
        declared = spec["end_to_end"]
    outcomes = outcomes + [run_safely(tq, u) for u in units[n_timed:]]
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    verdict = judge(units, outcomes)
    metrics.update(fail_frac=verdict["fail_frac"], wrong_frac=verdict["wrong_frac"],
                   right_frac=verdict["right_frac"])
    if verdict["unexpected"]:
        problems.append(f"{verdict['unexpected']} units failed outside the known defects' signatures")
    missing = [d["name"] for d in declared if d["name"] not in metrics]
    result = {
        "correct": not problems,
        "attempted": len(units),
        "failed": len(verdict["failed_at"]),
        "metrics": {d["name"]: {"value": metrics.get(d["name"], 0), "unit": d["unit"]} for d in declared},
    }
    return {
        "result": result,
        "metrics": metrics,
        "units": {d["name"]: d["unit"] for d in spec["end_to_end"] + spec["per_layer"]},
        "verdict": verdict,
        "problems": problems,
        "absent": sorted(set(absent) | set(missing)),
        "env": environment(seed),
    }


def report(out: dict, workload: str) -> None:
    env = " ".join(f"{k}={v}" for k, v in out["env"].items())
    print(f"# workload={workload} {env}")
    units = out["units"]
    for name, value in sorted(out["metrics"].items()):
        unit = units.get(name.removesuffix("_raw"))
        if unit is None:
            unit = next((u for end, u in SUFFIX_UNITS if name.endswith(end)), "")
        print(f"{name} {value!r} {unit}".rstrip())
    for name in out["absent"]:
        print(f"{name} absent")
    for stratum, row in sorted(out["verdict"]["strata"].items()):
        print(f"# stratum {stratum} {json.dumps(row, sort_keys=True)}")
    print(f"# known defects {json.dumps(out['verdict']['defects'], sort_keys=True)}")
    for problem in out["problems"]:
        print(f"# problem: {problem}")
    print(json.dumps(out["result"]))


# Units of the metrics printed but not declared in BENCHMARK.json.
SUFFIX_UNITS = ((".calls_per_unit", "calls/unit"), ("_us", "us"), ("_s", "s"), ("_percentile", "%"),
                ("_beyond", "count"), ("passes", "count"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.UNITS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "twoqubit", "__init__.py")):
        print(f"error: no twoqubit package under {SRC}", file=sys.stderr)
        return 2
    try:
        spec = load_spec()
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    out = run(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    report(out, args.workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
