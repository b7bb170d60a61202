"""README states every cap on the work a scenario may ask for, and every
fixed sample count, with its value; its Python API sketch runs as written."""

import pathlib
import re

import pytest

from kcone import certify, expressions, integrators, limitsets, report, scenario

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

CAPS = [
    (limitsets, "LOOP_POINTS", 256),
    (scenario, "TAIL_GRID_CAP", 1_000_000),
    (scenario, "LAMBDA_GRID_CAP", 10_000),
    (scenario, "PAIRS_CAP", 1_000_000),
    (expressions, "MAX_DEPTH", 128),
    (integrators, "MAX_NODES", 500_000),
    (report, "MARGIN_POINTS", 400),
    (certify, "FEEDBACK_SAMPLES", 1000),
]


@pytest.mark.parametrize("module, name, value", CAPS, ids=[c[1] for c in CAPS])
def test_readme_names_the_cap_with_its_value(module, name, value):
    assert getattr(module, name) == value
    text = " ".join(README.read_text(encoding="utf-8").split())
    # The value, then within a clause the cap's full name in backticks.
    pattern = rf"(?<![\d,]){value:,}(?!,?\d)[^`]{{0,60}}`{module.__name__}\.{name}`"
    assert re.search(pattern, text), f"README does not give {name} as {value:,}"


def test_readme_python_sketch_runs():
    text = README.read_text(encoding="utf-8")
    sketch = text.split("## Python API sketch", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(sketch, str(README), "exec"), {})
