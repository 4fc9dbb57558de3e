#!/usr/bin/env python3
"""Run every workload untraced and traced, print every metric by name with
its unit beside the environment, and optionally write the baseline file:

    python3 bench/baseline.py --seed 1 --seconds 30 [--out bench/baseline.json]

Each run is a separate ``bench/run.py`` process, so set-up time and peak
memory are measured as the benchmark reports them.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=run.ROOT, check=True)
    lines = proc.stdout.splitlines()
    print("\n".join(lines[:-1]), flush=True)
    metrics, strata, defects = {}, {}, {}
    for line in lines[:-1]:
        if line.startswith("# stratum "):
            name, row = line[len("# stratum "):].split(" ", 1)
            strata[name] = json.loads(row)
        elif line.startswith("# known defects "):
            defects = json.loads(line[len("# known defects "):])
        elif not line.startswith("#"):
            parts = line.split()
            if len(parts) >= 2 and parts[1] != "absent":
                metrics[parts[0]] = float(parts[1])
    return {"result": json.loads(lines[-1]), "metrics": metrics, "strata": strata, "defects": defects}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out", help="write the baseline JSON here")
    args = parser.parse_args(argv)
    spec = run.load_spec()
    seconds = args.seconds or spec["run_seconds"]
    env = dict(run.environment(args.seed), cpu=cpu_model(), seconds=seconds)
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()), flush=True)
    doc = {"environment": env, "workloads": {}}
    for w in spec["workloads"]:
        e2e = one(w["name"], args.seed, seconds, 0)
        traced = one(w["name"], args.seed, seconds, 1)
        doc["workloads"][w["name"]] = {
            "why": w["why"],
            "correct": e2e["result"]["correct"] and traced["result"]["correct"],
            "end_to_end": e2e["result"]["metrics"],
            "per_layer": traced["result"]["metrics"],
            "details": {k: v for k, v in e2e["metrics"].items() if k not in e2e["result"]["metrics"]},
            "per_layer_details": {k: v for k, v in traced["metrics"].items()
                                  if k not in traced["result"]["metrics"]},
            "strata": e2e["strata"],
            "defects_seen": e2e["defects"],
        }
    doc["known_defects"] = workloads.DEFECTS
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
