"""The names that perfbench/tracer.py wraps must exist in cf2.

The tracer finds functions and methods by name.  A refactor that renames or
drops one would break only a traced bench run; these tests make it fail here.
"""

import ast
import importlib
import inspect
from pathlib import Path

from cf2.doubling import double_stream

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_tables() -> dict:
    """SPANNED and COUNTED, read from the tracer's source without importing it."""
    tables = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("SPANNED", "COUNTED"):
                tables[name] = ast.literal_eval(node.value)
    return tables


def test_traced_names_resolve():
    tables = _tracer_tables()
    assert set(tables) == {"SPANNED", "COUNTED"}
    for layer, funcs in tables["SPANNED"].items():
        module = importlib.import_module(f"cf2.{layer}")
        for func in funcs:
            assert callable(getattr(module, func, None)), f"cf2.{layer}.{func}"
    for metric, (layer, cls_name, method) in tables["COUNTED"].items():
        cls = getattr(importlib.import_module(f"cf2.{layer}"), cls_name, None)
        assert inspect.isclass(cls), metric
        assert callable(getattr(cls, method, None)), metric


def test_double_stream_is_a_generator_function():
    # The tracer spans each resumption of a generator, not the call that makes it.
    assert inspect.isgeneratorfunction(double_stream)
