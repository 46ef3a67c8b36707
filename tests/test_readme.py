from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    blocks = [part.split("```", 1)[0] for part in README.read_text().split("```python\n")[1:]]
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
