"""The benchmark's tracer wraps qkd3 functions by name and raises
AttributeError on a missing one, so each name it lists must stay a
module-level function of its qkd3 module.  The list is read from
perfbench/spans.py as source; perfbench is not imported."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def layer_functions() -> list[str]:
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYER_FUNCTIONS" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    raise AssertionError(f"no LAYER_FUNCTIONS in {SPANS}")


@pytest.mark.parametrize("name", layer_functions())
def test_layer_is_module_level_function(name):
    module, func = name.split(".")
    mod = importlib.import_module(f"qkd3.{module}")
    fn = getattr(mod, func, None)
    assert inspect.isfunction(fn), f"qkd3.{name} is not a function"
    assert fn.__module__ == mod.__name__ and fn.__qualname__ == func
