import json
import math
import re
from pathlib import Path

from holonomy.cli import _EXPERIMENTS, _POSITIVE, ExperimentConfig, _sweep

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    blocks = [part.split("```", 1)[0] for part in README.read_text().split("```python\n")[1:]]
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_config_example_is_valid():
    # every value is read and checked when the sweep points are built
    blocks = [part.split("```", 1)[0] for part in README.read_text().split("```json\n")[1:]]
    assert blocks
    for block in blocks:
        _, rows, *_ = _sweep(ExperimentConfig.from_dict(json.loads(block)))
        assert rows and not any(row["error"] for row in rows)


_SETTING = re.compile(r"`(\w+)` = (.+?)( \(> 0\))?")


def readme_settings() -> dict[str, dict[str, dict[str, tuple[str, bool]]]]:
    """experiment -> section -> setting -> (default as written, must be positive)."""
    table = README.read_text().split("| experiment | `params` | `numerics` |\n", 1)[1]
    settings = {}
    for line in table.splitlines()[1:]:
        if not line.startswith("|"):
            break
        name, *cells = [cell.strip() for cell in line.strip("|").split("|")]
        settings[name.strip("`")] = {
            section: {m[1]: (m[2], bool(m[3]))
                      for m in map(_SETTING.fullmatch, cell.split("; "))}
            for section, cell in zip(("params", "numerics"), cells)
        }
    return settings


def test_settings_table_matches_the_experiments():
    """README's settings table lists each experiment's declared settings with
    their defaults, kinds and signs.  A default may be written as an
    expression of ``pi``, ``sqrt`` and the row's other defaults."""
    readme = readme_settings()
    assert list(readme) == list(_EXPERIMENTS)
    for name, (_, _, _, params, numerics) in _EXPERIMENTS.items():
        for section, declared in (("params", params), ("numerics", numerics)):
            scope = {"pi": math.pi, "sqrt": math.sqrt, **declared}
            written = {key: (repr(eval(text, {"__builtins__": {}}, scope)), positive)
                       for key, (text, positive) in readme[name][section].items()}
            assert written == {key: (repr(default), key in _POSITIVE)
                               for key, default in declared.items()}, (name, section)
