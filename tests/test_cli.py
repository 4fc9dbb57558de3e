"""Command-line interface: exit codes, JSON shape, and determinism."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import twoqubit.bloch
import twoqubit.cli
import twoqubit.separability
from twoqubit.bloch import to_bloch
from twoqubit.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_TOLERANCE,
    EXIT_VALIDATION,
    main,
)
from twoqubit.entanglement import entanglement_report
from twoqubit.errors import InternalInconsistencyError, OracleConvergenceError
from twoqubit.sampling import bell_state, ginibre_density, pure_density, werner_state
from twoqubit.separability import peres_test
from twoqubit.spectrum import coeffs_from_bloch, quartic_eigs


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def matrix_doc(rho):
    return {"matrix": [[[x.real, x.imag] for x in row] for row in rho]}


def bell_matrix_doc():
    return matrix_doc(pure_density(bell_state()))


def test_analyze_bell(tmp_path, capsys):
    path = write_json(tmp_path, "bell.json", bell_matrix_doc())
    code, out, err = run(capsys, "analyze", path)
    assert code == EXIT_OK
    assert err == ""
    assert "separable: no" in out
    assert "branch:" in out


def test_analyze_json_output(tmp_path, capsys):
    path = write_json(tmp_path, "bell.json", bell_matrix_doc())
    code, out, _ = run(capsys, "analyze", path, "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["separable"] is False
    assert abs(doc["concurrence"] - 1.0) <= 1e-10
    assert abs(doc["negativity"] - 0.5) <= 1e-10
    assert doc["eof_upper_bound"] is None
    assert min(doc["pt_eigenvalues"]) < -0.49


def test_analyze_json_matches_library(tmp_path, capsys):
    """Every analyze --json field equals what the library returns for the
    same matrix, exactly: the CLI adds no arithmetic of its own. The
    library's own route reads the coefficients off the Bloch tensor."""
    rng = np.random.default_rng(62)
    states = [ginibre_density(rng), pure_density(bell_state()), werner_state(0.2)]
    for k, rho in enumerate(states):
        path = write_json(tmp_path, f"s{k}.json", matrix_doc(rho))
        code, out, _ = run(capsys, "analyze", path, "--json")
        assert code == EXIT_OK
        doc = json.loads(out)
        t = to_bloch(rho)
        c = coeffs_from_bloch(t)
        spec = quartic_eigs(c)
        sep = peres_test(rho)
        ent = entanglement_report(rho)
        assert doc == {
            "eigenvalues": list(spec.eigenvalues),
            "branch": spec.branch.value,
            "bloch": t.tolist(),
            "purity": c.tr2,
            "pt_eigenvalues": list(quartic_eigs(sep.pt_coeffs).eigenvalues),
            "separable": sep.separable,
            "marginal": sep.marginal,
            "concurrence": ent.concurrence,
            "eof": ent.eof,
            "negativity": ent.negativity,
            "eof_upper_bound": ent.eof_upper_bound,
        }


@pytest.mark.parametrize(
    "module, name, error, command",
    [
        (twoqubit.separability, "quartic_eigs", InternalInconsistencyError, "analyze"),
        # fuzz is the only command that runs the Jacobi oracle
        (twoqubit.cli, "_jacobi", OracleConvergenceError, "fuzz"),
    ],
    ids=["inconsistency", "oracle"],
)
def test_internal_errors_exit_4(tmp_path, capsys, monkeypatch, module, name, error, command):
    def fail(*args, **kwargs):
        raise error("solver gave up")

    monkeypatch.setattr(module, name, fail)
    if command == "analyze":
        argv = ["analyze", write_json(tmp_path, "bell.json", bell_matrix_doc())]
    else:
        argv = ["fuzz", "--samples", "1", "--seed", "1", "--family", "ginibre"]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INTERNAL == 4
    assert out == ""
    assert err == "error: solver gave up\n"


def test_analyze_matrix_and_bloch_agree(tmp_path, capsys):
    """The same state supplied both ways: identical verdicts, and every
    number equal up to the rounding of the tensor round trip."""
    rho = 0.9 * pure_density(bell_state()) + 0.1 * np.eye(4) / 4.0
    m_doc = matrix_doc(rho)
    t_doc = {"bloch": [[float(x) for x in row] for row in to_bloch(rho)]}
    code_m, out_m, _ = run(capsys, "analyze", write_json(tmp_path, "m.json", m_doc), "--json")
    code_t, out_t, _ = run(capsys, "analyze", write_json(tmp_path, "t.json", t_doc), "--json")
    assert code_m == code_t == EXIT_OK
    doc_m, doc_t = json.loads(out_m), json.loads(out_t)
    assert doc_m.keys() == doc_t.keys()
    for key in ("separable", "marginal", "branch"):
        assert doc_m[key] == doc_t[key]
    for key in ("purity", "concurrence", "eof", "negativity", "eof_upper_bound"):
        assert abs(doc_m[key] - doc_t[key]) <= 1e-12
    for key in ("eigenvalues", "pt_eigenvalues"):
        assert np.max(np.abs(np.array(doc_m[key]) - np.array(doc_t[key]))) <= 1e-12
    assert np.max(np.abs(np.array(doc_m["bloch"]) - np.array(doc_t["bloch"]))) <= 1e-14


def test_analyze_pure_input(tmp_path, capsys):
    s = 1.0 / math.sqrt(2.0)
    doc = {"pure": [[s, 0.0], [0.0, 0.0], [0.0, 0.0], [s, 0.0]]}
    code, out, _ = run(capsys, "analyze", write_json(tmp_path, "p.json", doc), "--json")
    assert code == EXIT_OK
    assert abs(json.loads(out)["concurrence"] - 1.0) <= 1e-10
    # a product state's PT has a zero eigenvalue: separable, and marginal
    code, out, _ = run(capsys, "analyze", write_json(tmp_path, "prod.json", {"pure": [1, 0, 0, 0]}))
    assert code == EXIT_OK
    assert "separable: yes (marginal)\n" in out
    # |v|^2 = 1 + 5e-11 is inside the trace tolerance
    doc = {"pure": [math.sqrt(1.0 + 5e-11), 0, 0, 0]}
    code, _, _ = run(capsys, "analyze", write_json(tmp_path, "near.json", doc))
    assert code == EXIT_OK


def test_analyze_parse_failures(tmp_path, capsys):
    code, _, err = run(capsys, "analyze", str(tmp_path / "missing.json"))
    assert code == EXIT_PARSE and "error:" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == EXIT_PARSE

    code, _, _ = run(capsys, "analyze", write_json(tmp_path, "two.json", {"matrix": [], "pure": []}))
    assert code == EXIT_PARSE

    code, _, _ = run(capsys, "analyze", write_json(tmp_path, "shape.json", {"matrix": [[1, 2], [3, 4]]}))
    assert code == EXIT_PARSE

    code, _, _ = run(capsys, "analyze", write_json(tmp_path, "scalar.json", [1, 2, 3]))
    assert code == EXIT_PARSE

    def matrix_with(entry):
        rows = [[0.25 if i == j else 0 for j in range(4)] for i in range(4)]
        rows[0][0] = entry
        return {"matrix": rows}

    big = 10**400  # a valid JSON integer beyond the float range
    docs = {
        "matrix_str_pair": matrix_with(["a", 0]),
        "matrix_null_pair": matrix_with([None, 0]),
        "matrix_bool_pair": matrix_with([0.25, True]),
        "matrix_bool": matrix_with(True),
        "matrix_big": matrix_with(big),
        "matrix_ragged_row": {
            "matrix": [[0.25, 0, 0, 0], [0, 0.25, 0], [0, 0, 0.25, 0], [0, 0, 0, 0.25]]
        },
        "pure_str_pair": {"pure": [["a", 0], 0, 0, 0]},
        "pure_null_pair": {"pure": [[None, 0], 0, 0, 0]},
        "pure_bool": {"pure": [True, 0, 0, 0]},
        "pure_big_pair": {"pure": [[big, 0], 0, 0, 0]},
        "pure_length_3": {"pure": [1, 0, 0]},
        "bloch_shape": {"bloch": [[1, 0], [0, 0]]},
        "bloch_str": {"bloch": [["a", 0, 0, 0]] + [[0, 0, 0, 0]] * 3},
        "bloch_ragged": {"bloch": [[1, 0, 0, 0], [0, 0, 0]] + [[0, 0, 0, 0]] * 2},
        "bloch_big": {"bloch": [[big, 0, 0, 0]] + [[0, 0, 0, 0]] * 3},
        # numpy reads these as 1.0 and 0.0, which is I/4
        "bloch_bool": {"bloch": [[True, 0, 0, 0], [0] * 4, [0] * 4, [0, 0, 0, False]]},
        "bloch_numeric_str": {"bloch": [["1", 0, 0, 0]] + [[0, 0, 0, 0]] * 3},
    }
    paths = {name: write_json(tmp_path, f"{name}.json", doc) for name, doc in docs.items()}
    # an integer too long for Python to read back from text
    paths["long_int"] = str(tmp_path / "long_int.json")
    (tmp_path / "long_int.json").write_text('{"pure": [' + "1" * 5000 + ", 0, 0, 0]}")
    for name, path in paths.items():
        code, out, err = run(capsys, "analyze", path)
        assert code == EXIT_PARSE and out == "", name
        assert err.startswith("error: ") and err.count("\n") == 1, name


def test_analyze_validation_failures(tmp_path, capsys):
    # Hermitian, trace one, but not positive
    doc = {"matrix": [[1.2, 0, 0, 0], [0, -0.2, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]}
    code, _, err = run(capsys, "analyze", write_json(tmp_path, "neg.json", doc))
    assert code == EXIT_VALIDATION and "error:" in err

    # finite but huge off-diagonal entries: one error line, no traceback
    rows = [[0.25 if i == j else 0.0 for j in range(4)] for i in range(4)]
    rows[0][1] = rows[1][0] = 1e200
    code, out, err = run(capsys, "analyze", write_json(tmp_path, "huge.json", {"matrix": rows}))
    assert code == EXIT_VALIDATION and out == ""
    assert err == "error: matrix is not positive semidefinite (min eig -1.000e+200)\n"

    doc = {"pure": [[1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}
    code, _, _ = run(capsys, "analyze", write_json(tmp_path, "norm.json", doc))
    assert code == EXIT_VALIDATION
    # |v| - 1 = 8e-11, but the trace |v|^2 is 1.6e-10 off: refused at the
    # normalization step, not by validation's trace check
    doc = {"pure": [1.00000000008, 0, 0, 0]}
    code, out, err = run(capsys, "analyze", write_json(tmp_path, "norm2.json", doc))
    assert code == EXIT_VALIDATION and out == ""
    assert err == "error: state is not normalized (norm^2 = 1.00000000016)\n"

    # well-formed tensors that describe no trace-one matrix
    zeros = [[0.0] * 4 for _ in range(3)]
    for name, first in (("t00", [2.0, 0, 0, 0]), ("nan", [1.0, math.nan, 0, 0])):
        path = write_json(tmp_path, f"{name}.json", {"bloch": [first] + zeros})
        code, out, err = run(capsys, "analyze", path)
        assert code == EXIT_VALIDATION and out == "", name
        assert err.startswith("error: ") and err.count("\n") == 1, name


def test_analyze_near_hermitian_matrix(tmp_path, capsys):
    """A matrix inside the hermiticity tolerance is analyzed: each pair
    difference m_ij - conj(m_ji) is 0.999e-10, within validation's rule,
    and the record's Bloch tensor is that of its Hermitian part."""
    rho = ginibre_density(np.random.default_rng(64))
    k = np.ones((4, 4)) - np.eye(4)
    path = write_json(tmp_path, "near.json", matrix_doc(rho + 0.4995e-10j * k))
    code, out, err = run(capsys, "analyze", path)
    assert (code, err) == (EXIT_OK, "")
    assert "separable:" in out


def test_analyze_reads_and_validates_the_state_once(tmp_path, capsys, monkeypatch):
    """analyze builds one checked record: the file's matrix is read once,
    by the record, whose factor validation and the concurrence share; a
    matrix the record rejects gets validation's message and exit code 2."""
    reads = []

    def counted(m):
        reads.append(1)
        return real(m)

    real = twoqubit.bloch._read
    monkeypatch.setattr(twoqubit.bloch, "_read", counted)
    monkeypatch.setattr(twoqubit.separability, "_read", counted)
    rng = np.random.default_rng(63)
    for k in range(5):
        path = write_json(tmp_path, f"g{k}.json", matrix_doc(ginibre_density(rng)))
        del reads[:]
        code, _, _ = run(capsys, "analyze", path, "--json")
        assert code == EXIT_OK
        assert len(reads) == 1

    rows = [[0.25 if i == j else 0.0 for j in range(4)] for i in range(4)]
    rows[0][1] = 1e-3
    code, out, err = run(capsys, "analyze", write_json(tmp_path, "asym.json", {"matrix": rows}))
    assert (code, out, err) == (EXIT_VALIDATION, "", "error: matrix is not Hermitian\n")


def test_chain_table(capsys):
    code, out, _ = run(capsys, "chain", "--q", "0.5", "--epsilon", "0.1")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["n_max"] == 10
    assert len(doc["rows"]) == 12
    assert doc["rows"][0]["lambda_min"] == -0.5
    assert doc["rows"][10]["entangled"] is True
    assert doc["rows"][11]["entangled"] is False
    assert abs(doc["epsilon_critical"] - 0.1040415401592378) <= 1e-12


def test_chain_csv(capsys):
    code, out, _ = run(capsys, "chain", "--q", "0.5", "--epsilon", "0.1", "--n", "3", "--csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "n,lambda_min,entangled"
    assert len(lines) == 5
    assert lines[1].startswith("0,-0.5,true")
    code, out, _ = run(capsys, "chain", "--q", "0.5", "--sweep", "0:0.2:0.1", "--csv")
    assert code == EXIT_OK
    assert out == "epsilon,n_max\n0.0,inf\n0.1,10\n0.2,4\n"


def test_chain_sweep(capsys):
    code, out, _ = run(capsys, "chain", "--q", "0.5", "--sweep", "0.1:0.3:0.1")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert [row["epsilon"] for row in doc] == [0.1, 0.2, 0.3]
    assert doc[0]["n_max"] == 10
    # 0.09 + 13 * 0.07 rounds one ulp past 1; the point is clamped to stop
    code, out, _ = run(capsys, "chain", "--q", "0.4", "--sweep", "0.09:1:0.07")
    assert code == EXIT_OK
    eps = [row["epsilon"] for row in json.loads(out)]
    assert len(eps) == 14 and eps[-1] == 1.0


def test_chain_validation_failures(capsys):
    # the ranges of q and epsilon are the library's, in its words
    for argv, message in (
        (("--q", "0.7", "--epsilon", "0.1"), "q must lie in [0, 1/2], got 0.7"),
        (("--q", "0.7", "--sweep", "0:0.2:0.1"), "q must lie in [0, 1/2], got 0.7"),
        (("--q", "0.5", "--epsilon", "1.5"), "epsilon must lie in [0, 1], got 1.5"),
    ):
        code, out, err = run(capsys, "chain", *argv)
        assert (code, out, err) == (EXIT_VALIDATION, "", f"error: {message}\n"), argv
    code, _, _ = run(capsys, "chain", "--q", "0.5", "--sweep", "0.1:0.3:0.1", "--n", "5")
    assert code == EXIT_VALIDATION
    code, _, _ = run(capsys, "chain", "--q", "0.5", "--sweep", "0.3:0.1")
    assert code == EXIT_VALIDATION
    code, _, _ = run(capsys, "chain", "--q", "0.5", "--sweep", "0.3:0.1:0.1")
    assert code == EXIT_VALIDATION
    # non-finite or out-of-range sweep fields are rejected before any row
    for sweep in ("nan:1:0.1", "0:inf:0.1", "0:0.3:nan", "-0.1:0.3:0.1", "0:1.5:0.1"):
        code, out, err = run(capsys, "chain", "--q", "0.5", f"--sweep={sweep}")
        assert code == EXIT_VALIDATION and out == "" and "error:" in err, sweep
    # about 1e300 points: refused from the count, before any list is built
    code, out, err = run(capsys, "chain", "--q", "0.5", "--sweep", "0:1:1e-300")
    assert code == EXIT_VALIDATION and out == "" and "points" in err
    # unbounded table: eps = 0 with no n to stop it
    code, _, _ = run(capsys, "chain", "--q", "0.5", "--epsilon", "0")
    assert code == EXIT_VALIDATION


def test_chain_tiny_epsilon_answers(capsys):
    """An eps so small that 1 - eps rounds to 1 has an unbounded distance:
    the table needs --n, a sweep reads null, and nothing hangs or raises."""
    for eps in ("1e-17", "5e-324"):
        code, out, err = run(capsys, "chain", "--q", "0.3", "--epsilon", eps)
        assert code == EXIT_VALIDATION and out == "" and err.startswith("error: "), eps
    code, out, _ = run(capsys, "chain", "--q", "0.3", "--epsilon", "1e-17", "--n", "3")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["n_max"] is None and len(doc["rows"]) == 4
    code, out, _ = run(capsys, "chain", "--q", "0.3", "--sweep", "0:1e-17:1e-17")
    assert code == EXIT_OK
    assert json.loads(out) == [{"epsilon": 0.0, "n_max": None}, {"epsilon": 1e-17, "n_max": None}]


def test_chain_epsilon_table_is_bounded(capsys):
    """An --epsilon table is refused past the --sweep bound, before any row
    is built: q = 0.3 at eps = 1e-9 has n_max = 788457381, and --n sets the
    length."""
    for argv in (
        ("--q", "0.3", "--epsilon", "1e-9"),
        ("--q", "0.5", "--epsilon", "0.1", "--n", "2000000"),
        ("--q", "0.5", "--epsilon", "0.1", "--n", "1000000"),  # 10^6 + 1 rows
    ):
        code, out, err = run(capsys, "chain", *argv)
        assert code == EXIT_VALIDATION and out == "", argv
        assert err.startswith("error: ") and "--n" in err and err.count("\n") == 1, argv


@pytest.mark.parametrize("family", list(twoqubit.cli._FUZZ_FAMILIES))
def test_fuzz_families_pass(capsys, family):
    code, out, _ = run(capsys, "fuzz", "--samples", "60", "--seed", "5", "--family", family)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["breaches"] == 0
    assert doc["counterexamples"] == []
    assert all(v >= 0.0 for v in doc["max_error"].values())
    if family != "pure":
        # the Bloch route of the solver against the trace route
        assert "bloch_vs_flv_coeffs" in doc["max_error"]


@pytest.mark.parametrize("family", list(twoqubit.cli._FUZZ_FAMILIES))
def test_fuzz_output_does_not_depend_on_the_block(capsys, monkeypatch, family):
    """Samples are drawn and their reference coefficients computed a block
    at a time; one sample per block prints the same bytes and exit code
    over a run that crosses a block boundary."""
    samples = str(twoqubit.cli._FUZZ_BLOCK + 3)
    argv = ["fuzz", "--samples", samples, "--seed", "12", "--family", family]
    want = run(capsys, *argv)
    monkeypatch.setattr(twoqubit.cli, "_FUZZ_BLOCK", 1)
    assert run(capsys, *argv) == want


def test_fuzz_indexes_samples_across_blocks(capsys, monkeypatch):
    """With every dump kept, an oracle 1e-6 off breaches each ginibre
    sample's two eigenvalue checks, in sample order through the second
    block."""
    oracle = twoqubit.cli._jacobi
    monkeypatch.setattr(
        twoqubit.cli, "_jacobi", lambda m: [x + 1e-6 for x in oracle(m)]
    )
    monkeypatch.setattr(twoqubit.cli._FuzzTally, "_DUMP_CAP", 10**6)
    samples = twoqubit.cli._FUZZ_BLOCK + 3
    argv = ["fuzz", "--samples", str(samples), "--seed", "3", "--family", "ginibre"]
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_TOLERANCE
    assert [d["index"] for d in json.loads(out)["counterexamples"]] == [
        i for i in range(samples) for _ in range(2)
    ]


def test_fuzz_breach_exits_3(capsys, monkeypatch):
    """An oracle 1e-6 off breaches both eigenvalue checks on every sample:
    each breach is counted, and only the first three are dumped."""
    oracle = twoqubit.cli._jacobi
    monkeypatch.setattr(
        twoqubit.cli, "_jacobi", lambda m: [x + 1e-6 for x in oracle(m)]
    )
    code, out, _ = run(capsys, "fuzz", "--samples", "4", "--seed", "3", "--family", "ginibre")
    assert code == EXIT_TOLERANCE == 3
    doc = json.loads(out)
    assert doc["ok"] is False
    assert doc["breaches"] == 8
    assert [d["check"] for d in doc["counterexamples"]] == [
        "eigenvalues_vs_oracle",
        "pt_lambda_min_vs_oracle",
        "eigenvalues_vs_oracle",
    ]
    assert [d["index"] for d in doc["counterexamples"]] == [0, 0, 1]
    assert all(len(d["input"]) == 4 for d in doc["counterexamples"])


@pytest.mark.parametrize("position", [0, -1], ids=["first", "last"])
def test_fuzz_nan_difference_is_a_breach(capsys, monkeypatch, position):
    """An oracle with a NaN among its eigenvalues breaches the eigenvalue
    check wherever the NaN sits: max() keeps a NaN only in first place, and
    NaN > tol is false, so both runs used to exit 0."""
    oracle = twoqubit.cli._jacobi

    def with_nan(rows):
        out = oracle(rows)
        out[position] = math.nan
        return out

    monkeypatch.setattr(twoqubit.cli, "_jacobi", with_nan)
    code, out, _ = run(capsys, "fuzz", "--samples", "5", "--seed", "1", "--family", "ginibre")
    assert code == EXIT_TOLERANCE
    doc = json.loads(out)
    assert doc["ok"] is False
    assert math.isnan(doc["max_error"]["eigenvalues_vs_oracle"])
    assert doc["counterexamples"][0]["check"] == "eigenvalues_vs_oracle"
    assert math.isnan(doc["counterexamples"][0]["error"])


def test_fuzz_tally_keeps_a_nan_once_recorded():
    """A later finite error does not replace a NaN in max_error."""
    tally = twoqubit.cli._FuzzTally()
    for error in (0.0, math.nan, 1e-3, 0.0):
        tally.record("check", error, 1e-9, 0, lambda: None)
    assert math.isnan(tally.max_error["check"])
    assert tally.breaches == 2


FUZZ_SAMPLERS = [
    ("ginibre", "ginibre_density"),
    ("hermitian", "random_hermitian_trace_one"),
    ("pure", "haar_pure"),
    ("rank2", "rank_deficient_density"),
    ("rank3", "rank_deficient_density"),
    ("werner", "werner_state"),
    ("near_quarter", "near_quarter_density"),
]


@pytest.mark.parametrize("family, sampler", FUZZ_SAMPLERS)
def test_fuzz_draws_through_the_sampler_bound_on_the_module(
    capsys, monkeypatch, family, sampler
):
    """Each family's draw looks its sampler up on twoqubit.cli at call
    time, where the benchmark's tracer rebinds it: a counter bound there
    sees one call a sample."""
    calls = []
    sample = getattr(twoqubit.cli, sampler)

    def counted(*args):
        calls.append(args)
        return sample(*args)

    monkeypatch.setattr(twoqubit.cli, sampler, counted)
    code, _, _ = run(capsys, "fuzz", "--samples", "3", "--seed", "4", "--family", family)
    assert code == EXIT_OK
    assert len(calls) == 3


DENSITY_CHECKS = (
    "eigenvalues_vs_oracle",
    "bloch_vs_flv_coeffs",
    "pt_lambda_min_vs_oracle",
    "verdict_vs_oracle_sign",
    "concurrence_vs_verdict",
)
# Per family: every check a sample runs, in order, and those of them an
# oracle 1e-6 off breaches on seed 3's first three samples.
FUZZ_CHECK_ORDER = {
    "ginibre": (DENSITY_CHECKS, ("eigenvalues_vs_oracle", "pt_lambda_min_vs_oracle")),
    "hermitian": (DENSITY_CHECKS[:2], ("eigenvalues_vs_oracle",)),
    "pure": (
        ("pure_pt_vs_oracle", "pure_concurrence_bridge", "pure_verdict_agreement"),
        ("pure_pt_vs_oracle",),
    ),
    "rank2": (DENSITY_CHECKS, ("eigenvalues_vs_oracle", "pt_lambda_min_vs_oracle")),
    "rank3": (DENSITY_CHECKS, ("eigenvalues_vs_oracle", "pt_lambda_min_vs_oracle")),
    "werner": (
        DENSITY_CHECKS + ("werner_concurrence_formula",),
        ("eigenvalues_vs_oracle", "pt_lambda_min_vs_oracle"),
    ),
    "near_quarter": (DENSITY_CHECKS, ("eigenvalues_vs_oracle", "pt_lambda_min_vs_oracle")),
}


@pytest.mark.parametrize("family", list(FUZZ_CHECK_ORDER))
def test_fuzz_runs_each_family_checks_in_dump_order(capsys, monkeypatch, family):
    """With an oracle 1e-6 off and every dump kept, each sample runs its
    family's checks in a fixed order, and the dumps follow it sample by
    sample."""
    checks, breached = FUZZ_CHECK_ORDER[family]
    oracle = twoqubit.cli._jacobi
    monkeypatch.setattr(
        twoqubit.cli, "_jacobi", lambda m: [x + 1e-6 for x in oracle(m)]
    )
    monkeypatch.setattr(twoqubit.cli._FuzzTally, "_DUMP_CAP", 10**6)
    ran = []
    record = twoqubit.cli._FuzzTally.record

    def logged(self, check, error, tol, index, payload):
        ran.append((check, index))
        return record(self, check, error, tol, index, payload)

    monkeypatch.setattr(twoqubit.cli._FuzzTally, "record", logged)
    code, out, _ = run(capsys, "fuzz", "--samples", "3", "--seed", "3", "--family", family)
    assert code == EXIT_TOLERANCE
    assert ran == [(check, i) for i in range(3) for check in checks]
    assert [(d["check"], d["index"]) for d in json.loads(out)["counterexamples"]] == [
        (check, i) for i in range(3) for check in breached
    ]


def test_no_call_path_evaluates_the_inequality(tmp_path, capsys, monkeypatch):
    """The paper's explicit form is public, but neither the verdict, the
    report, analyze nor a fuzz sample evaluates it."""

    def refuse(c):
        raise AssertionError("inequality_rhs was called")

    monkeypatch.setattr(twoqubit.separability, "inequality_rhs", refuse)
    rho = ginibre_density(np.random.default_rng(21))
    peres_test(rho)
    entanglement_report(rho)
    code, _, _ = run(capsys, "analyze", write_json(tmp_path, "g.json", matrix_doc(rho)))
    assert code == EXIT_OK
    code, _, _ = run(capsys, "fuzz", "--samples", "1", "--seed", "21", "--family", "ginibre")
    assert code == EXIT_OK


def test_werner_fuzz_computes_each_concurrence_once(capsys, monkeypatch):
    """A Werner sample's verdict check and its formula check share one
    concurrence: one flip-product pass per sample."""
    calls = []
    real = twoqubit.entanglement._flip_product_eigs

    def counted(factor):
        calls.append(1)
        return real(factor)

    monkeypatch.setattr(twoqubit.entanglement, "_flip_product_eigs", counted)
    code, out, _ = run(capsys, "fuzz", "--samples", "40", "--seed", "8", "--family", "werner")
    assert code == EXIT_OK
    assert len(calls) == 40
    checks = json.loads(out)["max_error"]
    assert "concurrence_vs_verdict" in checks and "werner_concurrence_formula" in checks


def _run_into_closed_pipe(*argv):
    """Run the CLI in a fresh interpreter whose stdout is a pipe with its
    read end already closed; (exit code, stderr)."""
    src = os.path.dirname(os.path.dirname(twoqubit.cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "twoqubit.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    return proc.returncode, proc.stderr.decode()


@pytest.mark.parametrize("command", ["chain", "analyze"])
def test_closed_stdout_is_a_quiet_exit(tmp_path, command):
    """As in ``chain ... | head -1`` or ``analyze FILE | true``: a closed
    stdout exits EXIT_BROKEN_PIPE, not 1, the parse-error code, with
    nothing on stderr, also from the interpreter's flush at exit."""
    if command == "chain":
        argv = ["chain", "--q", "0.4", "--sweep", "0:1:0.0001", "--csv"]
    else:
        argv = ["analyze", write_json(tmp_path, "bell.json", bell_matrix_doc())]
    code, err = _run_into_closed_pipe(*argv)
    assert code == EXIT_BROKEN_PIPE
    assert err == ""  # no traceback, no "Exception ignored"


def test_fuzz_is_deterministic(capsys):
    _, first, _ = run(capsys, "fuzz", "--samples", "40", "--seed", "11", "--family", "ginibre")
    _, second, _ = run(capsys, "fuzz", "--samples", "40", "--seed", "11", "--family", "ginibre")
    assert first == second


def test_fuzz_rejects_bad_sample_count(capsys):
    code, _, err = run(capsys, "fuzz", "--samples", "0", "--seed", "1", "--family", "pure")
    assert code == EXIT_VALIDATION and "error:" in err


def test_fuzz_rejects_negative_seed(capsys):
    """numpy refuses a negative seed with a traceback; the CLI refuses it
    first, as a validation error with one error line."""
    code, out, err = run(capsys, "fuzz", "--samples", "3", "--seed", "-1", "--family", "ginibre")
    assert code == EXIT_VALIDATION and out == ""
    assert err == "error: --seed must be >= 0, got -1\n"


def test_unknown_family_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit):
        main(["fuzz", "--samples", "5", "--seed", "1", "--family", "unknown"])


def test_exit_tolerance_is_distinct():
    # the breach exit code must stay distinguishable for scripting
    assert EXIT_TOLERANCE not in (EXIT_OK, EXIT_PARSE, EXIT_VALIDATION, EXIT_INTERNAL)
    codes = (EXIT_OK, EXIT_PARSE, EXIT_VALIDATION, EXIT_TOLERANCE, EXIT_INTERNAL)
    assert EXIT_BROKEN_PIPE not in codes


def test_shared_parser_carries_no_state_between_calls(tmp_path, capsys, monkeypatch):
    """main parses with one parser, built on its first call (_build_parser
    is cached). Calls through it that drop options the call before gave,
    with an argparse rejection (exit 2) between them, print what the same
    calls print on a freshly built parser each. The parser binds no
    command function: main looks cmd_* up on the module at each call, so
    one rebound after the first build (as the benchmark's tracer rebinds
    it) is the one that runs."""
    path = write_json(tmp_path, "g.json", matrix_doc(ginibre_density(np.random.default_rng(64))))
    calls = [
        ["chain", "--q", "0.4", "--epsilon", "0.05", "--n", "3"],
        ["chain", "--q", "0.4", "--epsilon", "0.05"],
        ["fuzz", "--samples", "2", "--seed", "5", "--family", "werner"],
        ["chain", "--q", "0.4"],  # one of --epsilon and --sweep is required
        ["fuzz", "--samples", "2", "--seed", "5", "--family", "rank2"],
        ["analyze", path, "--json"],
        ["analyze", path],
    ]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejecting the arguments
            code = exc.code
        return code, capsys.readouterr().out

    shared = [outcome(argv) for argv in calls]
    assert twoqubit.cli._build_parser() is twoqubit.cli._build_parser()
    fresh = []
    for argv in calls:
        twoqubit.cli._build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert shared == fresh
    assert [code for code, _ in shared] == [EXIT_OK, EXIT_OK, EXIT_OK, 2, EXIT_OK, EXIT_OK, EXIT_OK]
    assert len(json.loads(shared[0][1])["rows"]) == 4
    assert len(json.loads(shared[1][1])["rows"]) != 4
    assert shared[2][1] != shared[4][1]
    assert shared[5][1] != shared[6][1]

    ran = []
    monkeypatch.setattr(twoqubit.cli, "cmd_chain", lambda args: ran.append(args.q) or EXIT_OK)
    assert main(["chain", "--q", "0.25", "--epsilon", "0.1"]) == EXIT_OK
    assert ran == [0.25]
