"""The names that perfbench/tracer.py wraps must exist in cf2.

The tracer finds functions and methods by name.  A refactor that renames or
drops one would break only a traced bench run; these tests make it fail here.
"""

import ast
import importlib
import inspect
from pathlib import Path

import cf2.bounds
import cf2.doubling
import cf2.equiv
import cf2.search
from cf2.cf import CF
from cf2.doubling import double_stream
from cf2.surd import QuadraticSurd

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


def test_equiv_calls_surd_layers_through_module_globals(monkeypatch):
    # The tracer wraps cf2.equiv.expand_surd and cf2.equiv.linear_fractional in
    # place; an image table of functions bound at import time would bypass them.
    # class_contains_self_similar reads the principal cycle and calls neither.
    calls = {"expand_surd": 0, "linear_fractional": 0}
    for name in calls:
        def counted(*args, _f=getattr(cf2.equiv, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(cf2.equiv, name, counted)
    s = QuadraticSurd(3, 17, 2)  # in the self-similar class (1, 1, 3)
    assert cf2.equiv.class_contains_self_similar(s)
    assert calls == {"expand_surd": 0, "linear_fractional": 0}, calls
    assert cf2.equiv.two_of_three(s, (1, 1, 3))
    assert calls["expand_surd"] >= 2 and calls["linear_fractional"] >= 2, calls
    calls.update(dict.fromkeys(calls, 0))
    assert cf2.equiv.build_chain(s, 2).checks == ((1, 1, 3),) * 3
    assert calls["expand_surd"] >= 2 and calls["linear_fractional"] >= 2, calls


def test_convergent_callers_call_fold_word_through_module_globals(monkeypatch):
    # The tracer wraps cf2.<layer>.fold_word in place, so cf.fold_word.calls counts
    # these callers only while they look fold_word up at call time.
    calls = []
    for module in (cf2.bounds, cf2.doubling, cf2.search):
        def counted(word, _f=module.fold_word, _name=module.__name__):
            calls.append(_name)
            return _f(word)
        monkeypatch.setattr(module, "fold_word", counted)
    for module, check in ((cf2.bounds, lambda: cf2.bounds.classify_b2(CF(0, (1,), (2,)))),
                          (cf2.doubling, lambda: cf2.doubling.classify_windows(CF(0, (), (1,)), 4)),
                          (cf2.search, lambda: cf2.search.witness_q(QuadraticSurd(3, 17, 2))),
                          (cf2.search, lambda: cf2.search.try_exclude((1, 2), 2))):
        calls.clear()
        check()
        assert calls and set(calls) == {module.__name__}, (module.__name__, calls)


def test_double_stream_is_a_generator_function():
    # The tracer spans each resumption of a generator, not the call that makes it.
    assert inspect.isgeneratorfunction(double_stream)
