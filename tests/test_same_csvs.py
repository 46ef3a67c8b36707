import importlib.util
import json
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_csvs.py"
spec = importlib.util.spec_from_file_location("same_csvs", TOOL)
same_csvs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_csvs)

# One numeric move, a signed zero, a number turned empty and an error text;
# gamma_1 moves relative to its column's and the tables' largest magnitude, 3.
MOVED = (
    "theta,gamma_1,gamma_2,error\n"
    "1.0000000000000000e+00,-2.0000000000000000e+00,0.0000000000000000e+00,\n"
    "2.0000000000000000e+00,3.0000000000000000e+00,1.0000000000000000e+00,\n",
    "theta,gamma_1,gamma_2,error\n"
    "1.0000000000000000e+00,-2.0000000000000004e+00,-0.0000000000000000e+00,\n"
    "2.0000000000000000e+00,,1.0000000000000000e+00,ResidualTooLarge\n",
)
# A row added, one column renamed.
RESHAPED = ("K,a\n1,2\n", "K,b\n1,2\n3,4\n")


def test_column_moves_name_each_moved_column():
    assert same_csvs.column_moves(*MOVED) == [
        "gamma_1: largest move 4.441e-16, relative 1.5e-16 of the column and 1.5e-16 of the table, "
        "text changed",
        "gamma_2: largest move 0.000e+00, relative 0.0e+00 of the column and 0.0e+00 of the table",
        "error: text changed",
    ]
    assert same_csvs.column_moves(*RESHAPED) == ["rows: 1 -> 2", "a: only in base", "b: only in head"]
    assert same_csvs.column_moves(MOVED[0], MOVED[0]) == []


def test_a_rounding_move_near_zero_is_small_against_the_table():
    # an error estimate at rounding level moves by one rounding step of a phase near 2
    base = "gamma,quadrature_error\n2.0,0.0\n-1.5,4.440892098500626e-16\n"
    head = "gamma,quadrature_error\n2.0,2.220446049250313e-16\n-1.5,4.440892098500626e-16\n"
    assert same_csvs.column_moves(base, head) == [
        "quadrature_error: largest move 2.220e-16, relative 5.0e-01 of the column and 1.1e-16 "
        "of the table"]
    assert same_csvs.column_moves("x\n0.0\n", "x\n-0.0\n") == ["x: largest move 0.000e+00"]


def test_main_lists_moves_under_each_differing_csv(monkeypatch, capsys):
    trees = {
        "base": {"same.csv": b"x\n1\n", "moved.csv": MOVED[0].encode(), "gone.csv": b"x\n"},
        "head": {"same.csv": b"x\n1\n", "moved.csv": MOVED[1].encode()},
    }
    monkeypatch.setattr(same_csvs, "contents", lambda tree, out: trees[tree.name])
    monkeypatch.setattr(sys, "argv", ["same_csvs.py", "base", "head"])
    assert same_csvs.main() == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs: gone.csv",
        "differs: moved.csv",
        "  gamma_1: largest move 4.441e-16, relative 1.5e-16 of the column and 1.5e-16 of the table, "
        "text changed",
        "  gamma_2: largest move 0.000e+00, relative 0.0e+00 of the column and 0.0e+00 of the table",
        "  error: text changed",
        "3 CSVs, 2 differ",
    ]
    trees["head"] = trees["base"]
    assert same_csvs.main() == 0
    assert capsys.readouterr().out.splitlines() == ["3 CSVs, 0 differ"]


def test_main_reports_a_row_that_stops_at_another_rung(monkeypatch, capsys):
    """Equal CSVs whose run_meta.json records differ in where their rows ended."""
    def meta(samples_used, failed=0):
        return json.dumps({"failed_rows": failed, "rows": 2, "samples_used": samples_used},
                          sort_keys=True).encode()

    trees = {
        "base": {"t/x.csv": b"x\n1\n", "t/run_meta.json": meta({"256": 2})},
        "head": {"t/x.csv": b"x\n1\n", "t/run_meta.json": meta({"256": 1, "512": 1}, failed=1)},
    }
    monkeypatch.setattr(same_csvs, "contents", lambda tree, out: trees[tree.name])
    monkeypatch.setattr(sys, "argv", ["same_csvs.py", "base", "head"])
    assert same_csvs.main() == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs: t/run_meta.json",
        "  failed_rows: 0 -> 1",
        '  samples_used: {"256": 2} -> {"256": 1, "512": 1}',
        "1 CSVs, 0 differ",
        "1 run_meta.json records, 1 differ",
    ]
