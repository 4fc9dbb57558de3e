"""Command-line surface: analyze a state file, tabulate the noisy chain,
or fuzz the closed forms against the Jacobi oracle.

Exit codes: 0 success, 1 input parse error, 2 validation error (bad matrix
or bad parameter ranges), 3 tolerance breach during fuzzing, 4 internal
error (a closed form failed its own consistency check, or, in fuzz, the
Jacobi oracle did not converge), 141 stdout closed before the output was
written (as in ``twoqubit chain ... | head -1``; 128 + SIGPIPE, the code
of a process the signal ends), with nothing on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .bloch import _pt_rows, from_bloch
from .chain import chain_report, max_transfer_distance
from .entanglement import _concurrence, _report, concurrence_pure
from .errors import InternalInconsistencyError, OracleConvergenceError
from .linalg import _jacobi
from .sampling import (
    ginibre_density,
    haar_pure,
    near_quarter_density,
    pure_density,
    random_hermitian_trace_one,
    rank_deficient_density,
    werner_state,
)
from .separability import (
    TAU_SEP,
    _State,
    _checked_state,
    _pure_q,
    _verdict,
    pure_pt_spectrum,
    pure_separable,
)
from .spectrum import _coeffs_from_traces, quartic_eigs

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_TOLERANCE = 3
EXIT_INTERNAL = 4
EXIT_BROKEN_PIPE = 141

# The most rows a chain table prints, a --sweep's or an --epsilon one's.
_SWEEP_MAX_POINTS = 10**6

# Fuzz samples drawn, and their trace-route coefficients computed in one
# stacked call, before any of them is checked: numpy's per-call cost is
# paid once a block, and the block bounds what a long run holds.
_FUZZ_BLOCK = 256


class _ParseFailure(Exception):
    pass


class _ValidationFailure(Exception):
    pass


def _is_number(v) -> bool:
    # JSON true/false load as bool, which Python counts as an int
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _complex_entry(x):
    re_im = x if isinstance(x, (list, tuple)) and len(x) == 2 else (x, 0.0)
    if not all(_is_number(v) for v in re_im):
        raise _ParseFailure(f"expected a number or an [re, im] pair, got {x!r}")
    try:
        return complex(float(re_im[0]), float(re_im[1]))
    except OverflowError as exc:  # a JSON integer beyond the float range
        raise _ParseFailure(f"entry out of range: {exc}") from exc


def _load_state_file(path: str) -> np.ndarray:
    """Read a {"matrix": ...} / {"bloch": ...} / {"pure": ...} JSON file
    and return the matrix it describes; _analysis_dict validates it."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise _ParseFailure(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer too long to read
        raise _ParseFailure(f"{path} is not valid JSON: {exc}") from exc

    if not isinstance(doc, dict):
        raise _ParseFailure("top-level JSON value must be an object")
    keys = [k for k in ("matrix", "bloch", "pure") if k in doc]
    if len(keys) != 1:
        raise _ParseFailure(
            'exactly one of "matrix", "bloch", "pure" must be present, '
            f"found {keys or 'none'}"
        )
    kind = keys[0]
    data = doc[kind]

    if kind == "matrix":
        if not (isinstance(data, list) and len(data) == 4):
            raise _ParseFailure('"matrix" must be a 4x4 array')
        rows = []
        for row in data:
            if not (isinstance(row, list) and len(row) == 4):
                raise _ParseFailure('"matrix" must be a 4x4 array')
            rows.append([_complex_entry(x) for x in row])
        rho = np.array(rows, dtype=complex)
    elif kind == "bloch":
        try:
            t = np.array(data, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise _ParseFailure(f'"bloch" must be a 4x4 real array: {exc}') from exc
        # numpy would read true/false (and numeric strings) as numbers
        if t.shape != (4, 4) or not all(_is_number(x) for row in data for x in row):
            raise _ParseFailure('"bloch" must be a 4x4 array of real numbers')
        try:
            rho = from_bloch(t)
        except ValueError as exc:
            raise _ValidationFailure(str(exc)) from exc
    else:
        if not (isinstance(data, list) and len(data) == 4):
            raise _ParseFailure('"pure" must be a length-4 array')
        v = np.array([_complex_entry(x) for x in data])
        try:
            _pure_q(v)  # the library's normalization rule, on |v|^2
        except ValueError as exc:
            raise _ValidationFailure(str(exc)) from exc
        rho = pure_density(v)
    return rho


def _analysis_dict(rho: np.ndarray) -> dict:
    try:
        s = _checked_state(rho)
    except ValueError as exc:
        raise _ValidationFailure(str(exc)) from exc
    spec = quartic_eigs(s.c)
    pt_spec = s.pt
    sep = _verdict(s)
    ent = _report(s)
    return {
        "eigenvalues": [float(x) for x in spec.eigenvalues],
        "branch": spec.branch.value,
        "bloch": [list(row) for row in s.t_rows],
        "purity": float(s.c.tr2),
        "pt_eigenvalues": [float(x) for x in pt_spec.eigenvalues],
        "separable": sep.separable,
        "marginal": sep.marginal,
        "concurrence": float(ent.concurrence),
        "eof": float(ent.eof),
        "negativity": float(ent.negativity),
        "eof_upper_bound": None
        if ent.eof_upper_bound is None
        else float(ent.eof_upper_bound),
    }


def _print_analysis(out: dict) -> None:
    eigs = " ".join(repr(x) for x in out["eigenvalues"])
    pt = " ".join(repr(x) for x in out["pt_eigenvalues"])
    print(f"eigenvalues: {eigs}")
    print(f"branch: {out['branch']}")
    print(f"purity: {out['purity']!r}")
    print(f"pt eigenvalues: {pt}")
    verdict = "yes" if out["separable"] else "no"
    if out["marginal"]:
        verdict += " (marginal)"
    print(f"separable: {verdict}")
    print(f"concurrence: {out['concurrence']!r}")
    print(f"eof: {out['eof']!r}")
    print(f"negativity: {out['negativity']!r}")
    bound = out["eof_upper_bound"]
    print(f"eof upper bound: {'n/a' if bound is None else repr(bound)}")


def cmd_analyze(args) -> int:
    rho = _load_state_file(args.file)
    out = _analysis_dict(rho)
    if args.json:
        print(json.dumps(out, indent=2, sort_keys=True))
    else:
        _print_analysis(out)
    return EXIT_OK


def _parse_sweep(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise _ValidationFailure("--sweep expects start:stop:step")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise _ValidationFailure(f"--sweep values must be numbers: {exc}") from exc
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise _ValidationFailure("--sweep values must be finite")
    if not 0.0 <= start <= 1.0 or not 0.0 <= stop <= 1.0:
        raise _ValidationFailure("--sweep endpoints must lie in [0, 1]")
    if step <= 0 or stop < start:
        raise _ValidationFailure("--sweep needs step > 0 and stop >= start")
    span = (stop - start) / step + 1e-9
    if span >= _SWEEP_MAX_POINTS:
        raise _ValidationFailure(f"--sweep gives more than {_SWEEP_MAX_POINTS} points")
    # Rounding can put start + k * step one ulp past stop.
    return [min(start + k * step, stop) for k in range(int(span) + 1)]


def cmd_chain(args) -> int:
    if not 0.0 <= args.q <= 0.5:
        raise _ValidationFailure(f"--q must lie in [0, 1/2], got {args.q}")

    if args.sweep is not None:
        if args.n is not None:
            raise _ValidationFailure("--n only applies with --epsilon")
        rows = []
        for eps in _parse_sweep(args.sweep):
            n_max = max_transfer_distance(args.q, eps)
            rows.append((eps, n_max))
        if args.csv:
            print("epsilon,n_max")
            for eps, n_max in rows:
                cell = "inf" if n_max is math.inf else str(int(n_max))
                print(f"{eps!r},{cell}")
        else:
            doc = [
                {"epsilon": eps, "n_max": None if n_max is math.inf else int(n_max)}
                for eps, n_max in rows
            ]
            print(json.dumps(doc, indent=2, sort_keys=True))
        return EXIT_OK

    eps = args.epsilon
    if not 0.0 <= eps <= 1.0:
        raise _ValidationFailure(f"--epsilon must lie in [0, 1], got {eps}")
    # Rows 0..n, n the given --n or n_max + 1; an unbounded n_max with no
    # --n is chain_report's error.
    rows = max_transfer_distance(args.q, eps) + 2 if args.n is None else args.n + 1
    if rows > _SWEEP_MAX_POINTS and rows != math.inf:
        raise _ValidationFailure(
            f"the table would have {rows} rows, more than {_SWEEP_MAX_POINTS}; "
            "--n sets its length"
        )
    try:
        report = chain_report(args.q, eps, n=args.n)
    except ValueError as exc:
        raise _ValidationFailure(str(exc)) from exc

    entangled = [lam < -TAU_SEP for lam in report.lambda_min_per_step]
    if args.csv:
        print("n,lambda_min,entangled")
        for k, (lam, ent) in enumerate(zip(report.lambda_min_per_step, entangled)):
            print(f"{k},{lam!r},{str(ent).lower()}")
    else:
        doc = {
            "q": args.q,
            "epsilon": eps,
            "n_max": None if report.n_max is math.inf else int(report.n_max),
            "epsilon_critical": report.epsilon_critical,
            "rows": [
                {"n": k, "lambda_min": lam, "entangled": ent}
                for k, (lam, ent) in enumerate(
                    zip(report.lambda_min_per_step, entangled)
                )
            ],
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    return EXIT_OK


def _matrix_json(m: np.ndarray):
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m, dtype=complex)]


class _FuzzTally:
    """Running maxima per check plus capped counterexample dumps."""

    _DUMP_CAP = 3

    def __init__(self):
        self.max_error = {}
        self.breaches = 0
        self.dumps = []

    def record(self, check: str, error: float, tol: float, index: int, payload):
        """Fold one check's error into the tally; payload() builds the
        input dump and is called only for a breach that is dumped."""
        # Every check that ran is listed, an exact 0.0 included. max() keeps
        # a NaN only in first place: a NaN error goes first, and a NaN
        # already kept is kept as it is. NaN is not <= tol: a breach.
        prev = self.max_error.get(check, 0.0)
        self.max_error[check] = prev if math.isnan(prev) else max(error, prev)
        if not error <= tol:
            self.breaches += 1
            if len(self.dumps) < self._DUMP_CAP:
                self.dumps.append(
                    {
                        "check": check,
                        "error": float(error),
                        "tolerance": tol,
                        "index": index,
                        "input": payload(),
                    }
                )


# Each fuzz family's draw: rng -> (its matrix, its state vector for pure or
# its p for werner, else None), the only step of a sample that reads rng.
# The lambdas look the samplers up on this module at each call, so a name
# rebound here (by a tracer or a test) is the one that draws.
_FUZZ_FAMILIES = {
    "ginibre": lambda rng: (ginibre_density(rng), None),
    "hermitian": lambda rng: (random_hermitian_trace_one(rng), None),
    "pure": lambda rng: (pure_density(v := haar_pure(rng)), v),
    "rank2": lambda rng: (rank_deficient_density(rng, 2), None),
    "rank3": lambda rng: (rank_deficient_density(rng, 3), None),
    "werner": lambda rng: (werner_state(p := rng.uniform(-1.0 / 3.0, 1.0)), p),
    "near_quarter": lambda rng: (near_quarter_density(rng), None),
}


def _gap(a, b) -> float:
    """max |a_i - b_i| over four entries, or NaN if any difference is NaN:
    max() keeps a NaN only in first place, and the sum of the four (each
    >= 0 or NaN) is NaN exactly when one of them is."""
    e0, e1, e2, e3 = abs(a[0] - b[0]), abs(a[1] - b[1]), abs(a[2] - b[2]), abs(a[3] - b[3])
    total = e0 + e1 + e2 + e3
    return max(e0, e1, e2, e3) if total == total else total


def _fuzz_check(family: str, rho, extra, ref, idx: int, tally: _FuzzTally) -> None:
    """Every check of one drawn sample, in the order its breaches are
    dumped; extra is the draw's second value, ref rho's trace-route
    coefficients (None for pure, which has no coefficient check). The
    record reads rho once; the oracle runs on its rows and on their
    partial transpose."""
    s = _State(rho)
    if family == "pure":
        v = extra
        payload = lambda: [[float(x.real), float(x.imag)] for x in v]
        err = _gap(pure_pt_spectrum(v), _jacobi(_pt_rows(s.rows)))
        tally.record("pure_pt_vs_oracle", err, 1e-12, idx, payload)
        err = abs(_concurrence(s) - concurrence_pure(v))
        tally.record("pure_concurrence_bridge", err, 1e-10, idx, payload)
        agree = pure_separable(v) == _verdict(s).separable
        tally.record("pure_verdict_agreement", 0.0 if agree else 1.0, 0.5, idx, payload)
        return

    payload = lambda: _matrix_json(rho)
    err = _gap(quartic_eigs(s.c).eigenvalues, _jacobi(s.rows))
    tally.record("eigenvalues_vs_oracle", err, 1e-9, idx, payload)
    cb = s.c
    err = _gap((ref.b0, ref.b1, ref.b2, ref.tr2), (cb.b0, cb.b1, cb.b2, cb.tr2))
    tally.record("bloch_vs_flv_coeffs", err, 1e-10, idx, payload)
    if family == "hermitian":  # not a state: no verdict to check
        return

    sep = _verdict(s)
    pt_oracle_min = _jacobi(_pt_rows(s.rows))[-1]
    lam_err = abs(sep.lambda_min_pt - pt_oracle_min)
    tally.record("pt_lambda_min_vs_oracle", lam_err, 1e-9, idx, payload)
    if abs(pt_oracle_min) > TAU_SEP and abs(sep.lambda_min_pt) > TAU_SEP:
        agree = sep.separable == (pt_oracle_min >= 0.0)
        tally.record("verdict_vs_oracle_sign", 0.0 if agree else 1.0, 0.5, idx, payload)
    c = None
    if abs(sep.lambda_min_pt) > 1e-8:
        c = _concurrence(s)
        agree = (c > TAU_SEP) == (not sep.separable)
        tally.record("concurrence_vs_verdict", 0.0 if agree else 1.0, 0.5, idx, payload)
    if family == "werner":
        p = extra
        if c is None:
            c = _concurrence(s)
        err = abs(c - max(0.0, (3.0 * p - 1.0) / 2.0))
        tally.record("werner_concurrence_formula", err, 1e-10, idx, lambda: [p])


def cmd_fuzz(args) -> int:
    if args.samples < 1:
        raise _ValidationFailure(f"--samples must be >= 1, got {args.samples}")
    if args.seed < 0:
        raise _ValidationFailure(f"--seed must be >= 0, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    tally = _FuzzTally()
    draw = _FUZZ_FAMILIES[args.family]
    for start in range(0, args.samples, _FUZZ_BLOCK):
        n = min(_FUZZ_BLOCK, args.samples - start)
        block = [draw(rng) for _ in range(n)]
        rhos = np.array([rho for rho, _ in block])
        refs = [None] * n if args.family == "pure" else _coeffs_from_traces(rhos)
        for idx, ((rho, extra), ref) in enumerate(zip(block, refs), start):
            _fuzz_check(args.family, rho, extra, ref, idx, tally)
    summary = {
        "family": args.family,
        "samples": args.samples,
        "seed": args.seed,
        "max_error": {k: float(v) for k, v in sorted(tally.max_error.items())},
        "breaches": tally.breaches,
        "counterexamples": tally.dumps,
        "ok": tally.breaches == 0,
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK if tally.breaches == 0 else EXIT_TOLERANCE


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    later main call in the process: parse_args keeps no state between
    calls. It names the subcommand (args.command) and binds no function,
    so main finds cmd_* on this module at each call."""
    parser = argparse.ArgumentParser(
        prog="twoqubit",
        description="Closed-form two-qubit spectra, separability, and the "
        "noisy entanglement-transfer chain.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "analyze",
        help="full report for a state file "
        '({"matrix": 4x4 [re,im]}, {"bloch": 4x4 reals}, or {"pure": 4 [re,im]})',
    )
    p.add_argument("file", help="path to the JSON state file")
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("chain", help="noisy-chain lambda_min table or epsilon sweep")
    p.add_argument("--q", type=float, required=True, help="initial |ad - bc|")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--epsilon", type=float, help="fixed noise strength")
    group.add_argument(
        "--sweep",
        help=f"epsilon range start:stop:step, at most {_SWEEP_MAX_POINTS} points",
    )
    p.add_argument("--n", type=int, help="last step to tabulate (default n_max + 1)")
    p.add_argument("--csv", action="store_true", help="CSV instead of JSON")

    p = sub.add_parser("fuzz", help="randomized closed-form vs oracle comparison")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument(
        "--family",
        required=True,
        choices=list(_FUZZ_FAMILIES),
    )
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        command = {"analyze": cmd_analyze, "chain": cmd_chain, "fuzz": cmd_fuzz}[args.command]
        code = command(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # What is still buffered goes to the null device, so the
        # interpreter's own flush at exit finds a sink and says nothing.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except _ParseFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except _ValidationFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (InternalInconsistencyError, OracleConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
