import json
from pathlib import Path

from holonomy.cli import _EXPERIMENTS, ExperimentConfig

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
        cfg = ExperimentConfig.from_dict(json.loads(block))
        points, _, _ = _EXPERIMENTS[cfg.experiment]
        assert points(cfg)
