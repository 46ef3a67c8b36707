import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_csvs.py"
spec = importlib.util.spec_from_file_location("same_csvs", TOOL)
same_csvs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_csvs)

# One numeric move, a signed zero, a number turned empty and an error text.
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
        "gamma_1: largest move 4.441e-16, text changed",
        "gamma_2: largest move 0.000e+00",
        "error: text changed",
    ]
    assert same_csvs.column_moves(*RESHAPED) == ["rows: 1 -> 2", "a: only in base", "b: only in head"]
    assert same_csvs.column_moves(MOVED[0], MOVED[0]) == []


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
        "  gamma_1: largest move 4.441e-16, text changed",
        "  gamma_2: largest move 0.000e+00",
        "  error: text changed",
        "3 CSVs, 2 differ",
    ]
    trees["head"] = trees["base"]
    assert same_csvs.main() == 0
    assert capsys.readouterr().out.splitlines() == ["3 CSVs, 0 differ"]
