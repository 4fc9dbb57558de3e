#!/usr/bin/env python3
"""Print the per-layer timing table for one or more checkouts:

    python3 tools/layer_us.py [ROOT ...]

This is the table of ROADMAP's "Measured performance" aim. Each row is one
call: an entry point, a layer, one of the two reference routes a fuzz
sample runs (``charpoly_flv``, and the Jacobi oracle on a state and on
its partial transpose), or LAPACK's ``eigvalsh`` as the yardstick. The
row "_jacobi, on _pt_rows of a record's rows" is that second oracle call
as fuzz runs it, with no second read of the matrix: the oracle's body on
the rows of the state's record, moved by the partial transpose's row
map, the map included in the time. Its inputs come from 30 Ginibre
states of seed 0 (drawn here with numpy, so every tree sees the same
ones); one repeat makes 300 calls, cycling over the states. Each tree runs in 3 workers, and the row shows the median
over them of each worker's fastest of 9 repeats, in microseconds per
call. The two "stacked" rows are one call on all states, shown per state:
LAPACK's ``eigvalsh``, and ``coeffs_from_traces``' Faddeev-LeVerrier
reference as fuzz runs it on a block of samples (``spectrum``'s private
stack entry).
The row "entanglement_report, rank 2" runs on 30 rank-2 states of seed 0
instead, G G† / tr(G G†) with complex Gaussian 4x2 G.
The last row is the benchmark's fuzz_cli unit, one in-process ``twoqubit
fuzz`` call of 10 samples, on the tree's own first 30 units of seed 0,
shown per sample: a million over it is fuzz samples per second. Cyclic
GC is off while a repeat runs. The "machine-speed probe" row is the tree's
own ``bench/run.probe_us``, the benchmark's fixed mix of numpy calls and
interpreted arithmetic that shares no code with the library: divide a row
by it to compare tables taken at different times or host loads.

The public calls keep the record of the last matrix they were given. The
per-call rows cycle over the states, and each row is warmed up on the last
state, so no call follows one on the same matrix and the memo never serves
them. The row "peres_test + entanglement_report" is the benchmark's unit:
both calls on one state, which share its record.

Every worker of a tree (default: the checkout holding this script) is a
fresh spawned interpreter that imports ``twoqubit`` from ``ROOT/src`` with
``answer_digest.load``, and all workers take turns repeat by repeat, so a
change in host load hits them alike. A second set of workers of the first
tree gives the last column, "A/A": the spread (largest less smallest) of
the first tree's workers over both its sets, relative to its row, the
noise floor of a comparison between two worker sets. A later tree's row
that differs from the first tree's by no more than that floor prints
"(=)" after its time, and otherwise its relative change. A row a tree
cannot run, such as a layer it does not have, prints as "-".
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib
import itertools
import multiprocessing
import os
import statistics
import sys
import time

import numpy as np

from answer_digest import load

CALLS, REPEATS, STATES, SEED = 300, 9, 30, 0
# Spawned workers per tree, and in the first tree's A/A set.
WORKERS = 3


def _bloch(tq, rho):
    return tq.bloch.to_bloch(rho)


def _rows(tq, rho):
    """The argument of the factorization and of the Bloch sums: the rows
    its record read."""
    return (tq.separability._State(rho).rows,)


def _flip_args(tq, rho):
    """The pass's argument: its record's factor of rho."""
    return (tq.separability._State(rho).factor,)


def _pt_oracle(tq, rows):
    """The oracle on a record's partial transpose, as fuzz runs it."""
    return tq.linalg._jacobi(tq.bloch._pt_rows(rows))


def _unit(tq, rho):
    return tq.peres_test(rho), tq.entanglement_report(rho)


# (row, the function to time, its arguments for one state)
ROWS = (
    ("peres_test", lambda tq: tq.peres_test, lambda tq, r: (r,)),
    ("entanglement_report", lambda tq: tq.entanglement_report, lambda tq, r: (r,)),
    ("entanglement_report, rank 2", lambda tq: tq.entanglement_report, lambda tq, r: (r,)),
    ("eof_upper_bound", lambda tq: tq.eof_upper_bound, lambda tq, r: (r,)),
    ("peres_test + entanglement_report", lambda tq: functools.partial(_unit, tq), lambda tq, r: (r,)),
    ("validate_density_matrix", lambda tq: tq.bloch.validate_density_matrix, lambda tq, r: (r,)),
    ("to_bloch", lambda tq: tq.bloch.to_bloch, lambda tq, r: (r,)),
    ("_tensor_rows", lambda tq: tq.bloch._tensor_rows, _rows),
    ("_bloch_pass", lambda tq: tq.spectrum._bloch_pass, lambda tq, r: (_bloch(tq, r).tolist(),)),
    (
        "quartic_eigs",
        lambda tq: tq.spectrum.quartic_eigs,
        lambda tq, r: (tq.spectrum.coeffs_from_bloch(_bloch(tq, r)),),
    ),
    (
        "inequality_rhs",
        lambda tq: tq.separability.inequality_rhs,
        lambda tq, r: (tq.separability.pt_coeffs(_bloch(tq, r)),),
    ),
    ("_factor", lambda tq: tq.bloch._factor, _rows),
    ("_flip_product_eigs", lambda tq: tq.entanglement._flip_product_eigs, _flip_args),
    ("spin_flip", lambda tq: tq.entanglement.spin_flip, lambda tq, r: (r,)),
    ("charpoly_flv", lambda tq: tq.linalg.charpoly_flv, lambda tq, r: (r,)),
    ("eig_hermitian_oracle", lambda tq: tq.linalg.eig_hermitian_oracle, lambda tq, r: (r,)),
    (
        "eig_hermitian_oracle, partial transpose",
        lambda tq: tq.linalg.eig_hermitian_oracle,
        lambda tq, r: (tq.bloch.partial_transpose(r),),
    ),
    ("_jacobi, on _pt_rows of a record's rows", lambda tq: functools.partial(_pt_oracle, tq), _rows),
    ("eigvalsh", lambda tq: np.linalg.eigvalsh, lambda tq, r: (r,)),
)
# The rank of the states a row runs on, where it is not 4.
RANK = {"entanglement_report, rank 2": 2}
# (row, the function to time) of the rows that take every state in one call.
STACKED = (
    ("eigvalsh, stacked", lambda tq: np.linalg.eigvalsh),
    ("coeffs_from_traces, stacked", lambda tq: tq.spectrum._coeffs_from_traces),
)
FUZZ = "twoqubit fuzz, per sample"
PROBE = "machine-speed probe"

# Worker state: {row: (function, [argument tuples], states per call)}.
_CALLS: dict = {}
# Worker state: the tree's bench/run.probe_us, where it has one.
_PROBE: list = []


def ginibre_states(n: int, seed: int, rank: int = 4) -> list[np.ndarray]:
    """n rank-r states G G† / tr(G G†) with complex Gaussian 4 x rank G."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
        m = g @ g.conj().T
        out.append(m / np.trace(m).real)
    return out


def _load(root: str, n_states: int, seed: int) -> None:
    """Import ``twoqubit`` from ROOT/src and prepare every row's calls."""
    tq, workloads = load(root)
    states = {rank: ginibre_states(n_states, seed, rank) for rank in {4, *RANK.values()}}
    for name, fn_of, args_of in ROWS:
        try:
            fn = fn_of(tq)
            args = [args_of(tq, r) for r in states[RANK.get(name, 4)]]
            fn(*args[-1])
        except Exception:  # a row this tree cannot run
            continue
        _CALLS[name] = (fn, args, 1)
    stack = np.array(states[4])
    for name, fn_of in STACKED:
        try:
            fn = fn_of(tq)
            fn(stack)
        except Exception:  # a row this tree cannot run
            continue
        _CALLS[name] = (fn, [(stack,)], n_states)
    try:
        _PROBE.append(importlib.import_module("run").probe_us)
    except Exception:  # a tree without the benchmark's probe
        pass
    try:
        units = [(u,) for u in workloads.generate(tq, "fuzz_cli", seed, n_states)]
        run_unit = functools.partial(workloads.run_unit, tq)
        run_unit(*units[-1])
    except Exception:  # a tree without the fuzz_cli workload
        return
    _CALLS[FUZZ] = (run_unit, units, workloads.states_per_unit("fuzz_cli"))


def _round(calls: int) -> dict:
    """{row: µs per state} of one repeat of every row this tree runs."""
    out = {}
    gc.collect()
    gc.disable()
    try:
        for name, (fn, args, per_call) in _CALLS.items():
            seq = list(itertools.islice(itertools.cycle(args), calls))
            t0 = time.perf_counter_ns()
            for a in seq:
                fn(*a)
            out[name] = (time.perf_counter_ns() - t0) / 1e3 / calls / per_call
        for probe in _PROBE:
            out[PROBE] = probe()
    finally:
        gc.enable()
    return out


def measure(roots: list[str], calls: int, repeats: int, n_states: int, seed: int) -> list[list[dict]]:
    """Per worker set (one per tree, then the first tree's A/A set), per
    worker, {row: fastest µs per state over the repeats}."""
    ctx = multiprocessing.get_context("spawn")
    sets = [
        [ctx.Pool(1, initializer=_load, initargs=(root, n_states, seed)) for _ in range(WORKERS)]
        for root in roots + roots[:1]
    ]
    best: list[list[dict]] = [[{} for _ in range(WORKERS)] for _ in sets]
    try:
        for _ in range(repeats):
            for k in range(WORKERS):
                for pools, fastest in zip(sets, best):
                    for name, us in pools[k].apply(_round, (calls,)).items():
                        fastest[k][name] = min(us, fastest[k].get(name, us))
    finally:
        for pool in itertools.chain.from_iterable(sets):
            pool.terminate()
            pool.join()
    return best


def _fmt(us: float | None) -> str:
    if us is None:
        return "-"
    return f"{us:.0f}" if us >= 10.0 else f"{us:.1f}"


def table(roots: list[str], sets: list[list[dict]]) -> list[str]:
    """Markdown rows, one per call: a column per tree, the median of its
    workers, each after the first marked "(=)" where it lies within the
    A/A floor of the first tree's and with its relative change elsewhere;
    then the floor, the spread of the first tree's workers over both its
    sets, as a fraction of the first tree's median."""
    lines = ["| call | " + " | ".join(f"µs, {r}" for r in roots) + " | A/A |"]
    lines.append("|---|" + "---|" * (len(roots) + 1))
    for name in [row[0] for row in ROWS + STACKED] + [FUZZ, PROBE]:
        func, _, variant = name.partition(", ")
        label = name if name == PROBE else f"`{func}`" + (f", {variant}" if variant else "")
        med = [statistics.median(w[name] for w in ws) if name in ws[0] else None for ws in sets]
        own = [w[name] for w in sets[0] + sets[-1] if name in w]
        ref = med[0]
        floor = (max(own) - min(own)) / ref if ref else None
        cells = [_fmt(ref)]
        for us in med[1:-1]:
            cell = _fmt(us)
            if us is not None and floor is not None:
                move = us / ref - 1.0
                cell += " (=)" if abs(move) <= floor else f" ({move:+.0%})"
            cells.append(cell)
        cells.append("-" if floor is None else f"{floor:.0%}")
        lines.append(f"| {label} | " + " | ".join(cells) + " |")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser.add_argument("roots", nargs="*", default=[here], help="checkouts to time (default: this one)")
    args = parser.parse_args(argv)
    roots = [os.path.abspath(r) for r in args.roots]
    best = measure(roots, CALLS, REPEATS, STATES, SEED)
    print("\n".join(table(args.roots, best)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
