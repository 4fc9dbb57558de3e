#!/usr/bin/env python3
"""Compare the benchmark's answers unit by unit between two checkouts:

    python3 tools/answer_diff.py ROOT_A ROOT_B

For each tree, a fresh interpreter imports ``twoqubit`` from ``ROOT/src``,
builds the checked units of every (workload, seed) of
``tools/answer_digest.py`` with ``ROOT/bench/workloads.generate`` and runs
them one by one through ``workloads.run_unit``; nothing under ``bench/`` is
written. Each result is flattened into named fields (dataclass fields,
JSON keys of a fuzz call's output; list entries share one name, ``[*]``).

Per (workload, seed), one line per field, B against A:

- ``max|d|``: the largest |B - A| over the units where the field is a
  number on both sides, with the unit where it occurs;
- ``moved``: the number of units where that number differs at all;
- ``changed``: the number of units where any other value (a flag, a branch
  name, ``None``, a list length) differs, with the first few unit indices.

A field that no unit of one tree has (a field added or removed between the
trees) reads ``only in A`` or ``only in B`` in place of those counts.

Then the units that raise on one side only, and those whose exception
differs. Where ``tools/answer_digest.py`` only says whether any answer
changed, this says which, and by how much.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import json
import math
import multiprocessing
import os
import re
import sys

from answer_digest import SEEDS, load

SHOWN_UNITS = 5


def _flatten(value, path: str, out: dict) -> None:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        for f in dataclasses.fields(value):
            _flatten(getattr(value, f.name), f"{path}.{f.name}", out)
    elif isinstance(value, tuple) and hasattr(value, "_fields"):  # a NamedTuple
        for name in value._fields:
            _flatten(getattr(value, name), f"{path}.{name}", out)
    elif isinstance(value, dict):
        for key, item in value.items():
            _flatten(item, f"{path}.{key}", out)
    elif isinstance(value, (list, tuple)):
        out[f"{path}.len"] = len(value)
        for i, item in enumerate(value):
            _flatten(item, f"{path}[{i}]", out)
    elif isinstance(value, enum.Enum):
        out[path] = value.value
    elif value is None or isinstance(value, (bool, str)):
        out[path] = value
    else:
        try:
            out[path] = float(value)
        except (TypeError, ValueError):
            out[path] = repr(value)


def _fields(unit, result) -> dict:
    out: dict = {}
    if unit.fuzz is not None:  # (exit code, JSON output)
        code, text = result
        out["fuzz.exit"] = code
        try:
            _flatten(json.loads(text), "fuzz", out)
        except json.JSONDecodeError:
            out["fuzz.output"] = text
        return out
    for name, part in zip(("peres_test", "entanglement_report", "chain_report"), result):
        _flatten(part, name, out)
    return out


def collect(root: str) -> dict:
    """{(workload, seed): [fields dict, or "raised Type: message"]} for the
    checkout at root. Runs in a process of its own."""
    tq, workloads = load(root)
    answers = {}
    for workload, seeds in SEEDS.items():
        n_units = workloads.CHECKED_UNITS[workload]
        for seed in seeds:
            rows = []
            for unit in workloads.generate(tq, workload, seed, n_units):
                try:
                    rows.append(_fields(unit, workloads.run_unit(tq, unit)))
                except Exception as exc:  # a raise is an answer too
                    rows.append(f"raised {type(exc).__name__}: {exc}")
            answers[(workload, seed)] = rows
    return answers


def _units(indices: list[int]) -> str:
    shown = ", ".join(str(i) for i in indices[:SHOWN_UNITS])
    return shown + (", ..." if len(indices) > SHOWN_UNITS else "")


def _field(path: str) -> str:
    """The row a path reports under: list entries share one name."""
    return re.sub(r"\[\d+\]", "[*]", path)


def _names(rows: list) -> set[str]:
    return {_field(path) for row in rows if not isinstance(row, str) for path in row}


def compare(rows_a: list, rows_b: list) -> list[str]:
    """Report lines for one (workload, seed)."""
    names_a, names_b = _names(rows_a), _names(rows_b)
    only = {n: "only in A" for n in names_a - names_b} | {n: "only in B" for n in names_b - names_a}
    fields: dict[str, dict] = {}
    appear, disappear, differ = [], [], []
    for i, (a, b) in enumerate(zip(rows_a, rows_b)):
        if isinstance(a, str) or isinstance(b, str):
            if not isinstance(a, str):
                appear.append(i)
            elif not isinstance(b, str):
                disappear.append(i)
            elif a != b:
                differ.append(i)
            continue
        for path in sorted(a.keys() | b.keys()):
            stat = fields.setdefault(
                _field(path),
                {"max": 0.0, "at": None, "moved": set(), "changed": set()},
            )
            x, y = a.get(path, "<absent>"), b.get(path, "<absent>")
            if isinstance(x, float) and isinstance(y, float):
                if math.isnan(x) or math.isnan(y):
                    if not (math.isnan(x) and math.isnan(y)):
                        stat["changed"].add(i)
                    continue
                d = abs(y - x)
                if d > 0.0:
                    stat["moved"].add(i)
                if d > stat["max"]:
                    stat["max"], stat["at"] = d, i
            elif x != y:
                stat["changed"].add(i)
    lines = [f"  {'field':<48} {'max|d|':>9} {'at':>5} {'moved':>6} {'changed':>7}"]
    for name, stat in sorted(fields.items()):
        if name in only:
            lines.append(f"  {name:<48} {only[name]}")
            continue
        at = "-" if stat["at"] is None else str(stat["at"])
        line = f"  {name:<48} {stat['max']:9.2e} {at:>5} {len(stat['moved']):6d} {len(stat['changed']):7d}"
        if stat["changed"]:
            line += f"  units {_units(sorted(stat['changed']))}"
        lines.append(line)
    for what, units in (
        ("raise appears", appear),
        ("raise disappears", disappear),
        ("raise differs", differ),
    ):
        lines.append(f"  {what}: {len(units)}" + (f"  units {_units(units)}" if units else ""))
    if len(rows_a) != len(rows_b):
        lines.append(f"  unit counts differ: {len(rows_a)} vs {len(rows_b)}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root_a", help="checkout A (the baseline)")
    parser.add_argument("root_b", help="checkout B (compared against A)")
    args = parser.parse_args()
    roots = [os.path.abspath(r) for r in (args.root_a, args.root_b)]
    # One fresh interpreter per tree: each imports its own twoqubit.
    ctx = multiprocessing.get_context("spawn")
    answers = []
    for root in roots:
        with ctx.Pool(1) as pool:
            answers.append(pool.apply(collect, (root,)))
    print(f"A = {roots[0]}\nB = {roots[1]}")
    for key in answers[0]:
        workload, seed = key
        print(f"{workload} seed {seed}")
        print("\n".join(compare(answers[0][key], answers[1][key])), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
