#!/usr/bin/env python3
"""Print one SHA-256 per (workload, seed) over the benchmark's answers:

    python3 tools/answer_digest.py [--root CHECKOUT]

For each workload and seed below, the benchmark's checked units are built
with ``bench/workloads.generate`` and run one by one through
``bench/workloads.run_unit``. The digest covers the ``repr`` of every unit's
result, or the type and message of the exception it raised, in unit order.
Two trees that print the same line for a (workload, seed) gave every unit of
it the same answer, bit for bit. ``--root`` names the checkout whose ``src/``
and ``bench/`` are used (default: the one holding this script), so one copy
of the script can digest any tree that has both.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import os
import sys

SEEDS = {
    "generic_report": (1, 2, 3),
    "structured_report": (1, 2, 3, 4, 5),
    "fuzz_cli": (1, 2, 3),
}


def load(root: str):
    """The ``twoqubit`` package and the benchmark's ``workloads`` module of
    the checkout at ``root``."""
    src = os.path.join(root, "src")
    sys.path[:0] = [src, os.path.join(root, "bench")]
    tq = importlib.import_module("twoqubit")
    importlib.import_module("twoqubit.cli")
    if not os.path.abspath(tq.__file__).startswith(src + os.sep):
        raise ImportError(f"twoqubit was imported from {tq.__file__}, not from {src}")
    return tq, importlib.import_module("workloads")


def answer(tq, workloads, unit) -> str:
    try:
        return repr(workloads.run_unit(tq, unit))
    except Exception as exc:  # a raise is an answer too
        return f"raised {type(exc).__name__}: {exc}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="checkout to digest (default: the one holding this script)",
    )
    root = os.path.abspath(parser.parse_args().root)
    tq, workloads = load(root)
    for workload, seeds in SEEDS.items():
        n_units = workloads.CHECKED_UNITS[workload]
        for seed in seeds:
            digest = hashlib.sha256()
            for unit in workloads.generate(tq, workload, seed, n_units):
                digest.update(answer(tq, workloads, unit).encode())
                digest.update(b"\n")
            print(f"{workload} seed {seed} units {n_units}: {digest.hexdigest()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
