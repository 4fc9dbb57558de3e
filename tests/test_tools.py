"""The answer comparison script under tools/."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools"))

import answer_diff  # noqa: E402


def test_answer_diff_counts_each_kind_of_change():
    """Numbers report their largest move, other values the units where they
    changed, a field that one tree never has is named as such, and a unit
    that raises on one side only is counted apart."""
    a = [
        {"x": 1.0, "flag": True, "v.len": 2, "v[0]": 0.5, "v[1]": 0.25, "old": None},
        {"x": 2.0, "flag": False, "v.len": 1, "v[0]": 0.5, "old": True},
        "raised ValueError: bad",
        {"x": 3.0, "flag": None, "v.len": 0, "old": False},
    ]
    b = [
        {"x": 1.5, "flag": True, "v.len": 2, "v[0]": 0.5, "v[1]": 0.5},
        {"x": 2.0, "flag": None, "v.len": 1, "v[0]": 0.5, "new": 1.0},
        {"x": 0.0, "flag": True, "v.len": 0, "new": 2.0},
        "raised ValueError: bad",
    ]
    lines = answer_diff.compare(a, b)
    rows = {f[0]: f[1:] for f in (line.split() for line in lines[1:7])}
    assert rows == {
        "flag": ["0.00e+00", "-", "0", "1", "units", "1"],
        "new": ["only", "in", "B"],
        "old": ["only", "in", "A"],
        "v.len": ["0.00e+00", "-", "0", "0"],
        "v[*]": ["2.50e-01", "0", "1", "0"],
        "x": ["5.00e-01", "0", "1", "0"],
    }
    assert [line.strip() for line in lines[7:]] == [
        "raise appears: 1  units 3",
        "raise disappears: 1  units 2",
        "raise differs: 0",
    ]


def test_answer_diff_flattens_named_tuples_by_field():
    """A NamedTuple, such as a report's pt_coeffs, flattens by field name
    as a dataclass does; a plain tuple flattens by position."""
    from twoqubit.spectrum import CharCoeffs

    out = {}
    answer_diff._flatten({"c": CharCoeffs(0.5, 0.25, -0.125), "v": (1.0, 2.0)}, "r", out)
    assert out == {
        "r.c.s": 0.5,
        "r.c.k3": 0.25,
        "r.c.k4": -0.125,
        "r.v.len": 2,
        "r.v[0]": 1.0,
        "r.v[1]": 2.0,
    }


def test_layer_us_prints_one_row_per_call():
    """Two tiny repeats on this checkout, given twice: every row has a
    number in each tree's column and an A/A floor, the second tree's cells
    carry their move against the first or "(=)" inside the floor, and a
    row a tree cannot run would print as "-"."""
    import layer_us

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sets = layer_us.measure([root, root], calls=2, repeats=2, n_states=2, seed=0)
    assert [len(workers) for workers in sets] == [layer_us.WORKERS] * 3
    lines = layer_us.table(["here", "again"], sets)
    assert lines[0] == "| call | µs, here | µs, again | A/A |"
    cells = [[c.strip() for c in line.strip("|").split("|")] for line in lines[2:]]
    rows = {label: rest for label, *rest in cells}
    assert list(rows) == [
        "`peres_test`",
        "`entanglement_report`",
        "`entanglement_report`, rank 2",
        "`eof_upper_bound`",
        "`peres_test + entanglement_report`",
        "`validate_density_matrix`",
        "`to_bloch`",
        "`_tensor_rows`",
        "`_bloch_pass`",
        "`quartic_eigs`",
        "`inequality_rhs`",
        "`_factor`",
        "`_flip_product_eigs`",
        "`spin_flip`",
        "`charpoly_flv`",
        "`eig_hermitian_oracle`",
        "`eig_hermitian_oracle`, partial transpose",
        "`_jacobi`, on _pt_rows of a record's rows",
        "`eigvalsh`",
        "`eigvalsh`, stacked",
        "`coeffs_from_traces`, stacked",
        "`twoqubit fuzz`, per sample",
        "machine-speed probe",
    ]
    for label, (here, again, floor) in rows.items():
        assert float(here) > 0.0, label
        us, mark = again.split(" ")
        assert float(us) > 0.0, label
        assert floor.endswith("%") and float(floor[:-1]) >= 0.0, label
        if mark != "(=)":
            move = float(mark.strip("()%"))
            assert abs(move) >= float(floor[:-1]), label
    assert layer_us.table(["x"], [[{}], [{}]])[2].endswith("| - | - |")
