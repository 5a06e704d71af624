"""Fresh runs of the golden cases match the records under `tests/golden/`.

Integer columns, empty cells and every non-float JSON value match exactly;
floats match to 1e-12 (absolute, or relative above magnitude 1), since BLAS
summation order can differ between machines. `tests/golden/regenerate.py`
rewrites the records.
"""
import csv
import io
import json
import math
from pathlib import Path

import pytest

from golden.regenerate import CASES, run_case

GOLDEN = Path(__file__).resolve().parent / "golden"
INTEGER_COLUMNS = ("t", "n_experts", "n_active")
TOL = 1e-12


def close(got: float, want: float) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= TOL * max(1.0, abs(want))


def rounds_mismatches(got: str, want: str) -> list:
    got_rows, want_rows = (list(csv.reader(io.StringIO(text))) for text in (got, want))
    if got_rows[0] != want_rows[0] or len(got_rows) != len(want_rows):
        return [f"header or length: {got_rows[0]} x {len(got_rows)} rows"]
    bad = []
    for g_row, w_row in zip(got_rows[1:], want_rows[1:]):
        for column, g, w in zip(want_rows[0], g_row, w_row):
            exact = column in INTEGER_COLUMNS or g == "" or w == ""
            if (g != w) if exact else not close(float(g), float(w)):
                bad.append(f"t={w_row[0]} {column}: {g} != {w}")
    return bad


def json_mismatches(got, want, where="") -> list:
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in json_mismatches(got[k], want[k], f"{where}/{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: {got} != {want}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in json_mismatches(g, w, f"{where}/{i}")]
    if isinstance(want, float) and type(got) is float:
        return [] if close(got, want) else [f"{where}: {got!r} != {want!r}"]
    return [] if type(got) is type(want) and got == want else [f"{where}: {got!r} != {want!r}"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_matches_golden_record(name, tmp_path):
    files = run_case(name, tmp_path)
    case_dir = GOLDEN / name
    assert sorted(files) == sorted(p.name for p in case_dir.iterdir())
    for file_name, text in files.items():
        want = (case_dir / file_name).read_text(encoding="utf-8")
        if file_name == "regret.json":
            bad = json_mismatches(json.loads(text), json.loads(want))
        else:
            bad = rounds_mismatches(text, want)
        assert not bad, f"{name}/{file_name}: " + "; ".join(bad[:5])


def test_comparison_catches_changes():
    header = "t,val_loss,dp,n_active\n"
    want = header + "1,0.5,,2\n"
    assert rounds_mismatches(want, want) == []
    assert rounds_mismatches(header + "1,0.5000000000001,,2\n", want) == []
    assert rounds_mismatches(header + "1,0.500000000002,,2\n", want)
    assert rounds_mismatches(header + "1,0.5,0.1,2\n", want)
    assert rounds_mismatches(header + "1,0.5,,3\n", want)
    assert json_mismatches({"a": [1.0, True]}, {"a": [1.0 + 1e-13, True]}) == []
    assert json_mismatches({"a": [1.0, False]}, {"a": [1.0, True]})
    assert json_mismatches({"a": [1.0, 2]}, {"a": [1.0, 3]})
    assert json_mismatches({"a": 1.0}, {"a": 1.0, "b": 2})
