"""Public names: every name in ``__all__`` exists and README's library example runs."""

import importlib
import re
from pathlib import Path

import pytest

from crosszone.estimator import BoundaryMismatchWarning

README = Path(__file__).resolve().parents[1] / "README.md"

MODULES = [
    "crosszone",
    "crosszone.cli",
    "crosszone.config",
    "crosszone.dynamics",
    "crosszone.estimator",
    "crosszone.linalg",
    "crosszone.lp",
    "crosszone.model",
    "crosszone.scenario",
    "crosszone.svgplot",
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"


def test_readme_library_example_runs_as_described():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library") :]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    ns: dict = {}
    with pytest.warns(BoundaryMismatchWarning) as record:
        exec(compile(code, "README.md", "exec"), ns)
    assert [w.category for w in record] == [BoundaryMismatchWarning]
    report = ns["report"]
    # README: zone 1 ends 1.48 degC below baseline and form b is 0.02 $ below form a.
    assert round(ns["base"].temps_c[-1, 0] - ns["exp"].temps_c[-1, 0], 2) == 1.48
    assert round(report.corrected_form_a_usd - report.corrected_form_b_usd, 2) == 0.02
