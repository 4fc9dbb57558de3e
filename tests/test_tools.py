"""The answer comparison script under tools/."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools"))

import answer_diff  # noqa: E402


def test_answer_diff_counts_each_kind_of_change():
    """Numbers report their largest move, other values the units where they
    changed, and a unit that raises on one side only is counted apart."""
    a = [
        {"x": 1.0, "flag": True, "v.len": 2, "v[0]": 0.5, "v[1]": 0.25},
        {"x": 2.0, "flag": False, "v.len": 1, "v[0]": 0.5},
        "raised ValueError: bad",
        {"x": 3.0, "flag": None, "v.len": 0},
    ]
    b = [
        {"x": 1.5, "flag": True, "v.len": 2, "v[0]": 0.5, "v[1]": 0.5},
        {"x": 2.0, "flag": None, "v.len": 1, "v[0]": 0.5},
        {"x": 0.0, "flag": True, "v.len": 0},
        "raised ValueError: bad",
    ]
    lines = answer_diff.compare(a, b)
    rows = {f[0]: f[1:] for f in (line.split() for line in lines[1:5])}
    assert rows == {
        "flag": ["0.00e+00", "-", "0", "1", "units", "1"],
        "v.len": ["0.00e+00", "-", "0", "0"],
        "v[*]": ["2.50e-01", "0", "1", "0"],
        "x": ["5.00e-01", "0", "1", "0"],
    }
    assert [line.strip() for line in lines[5:]] == [
        "raise appears: 1  units 3",
        "raise disappears: 1  units 2",
        "raise differs: 0",
    ]
