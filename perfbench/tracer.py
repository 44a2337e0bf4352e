"""Outside-in tracing of cf2: spans around public functions, counters on hot methods.

`Tracer.install()` replaces each function in SPANNED, in every cf2 module
namespace that binds it (`from .doubling import double_cf` copies the name
into `cf2.bounds` and `cf2`), with a wrapper that records one span per call:
name, parent span, start and end.  Spans stay in flat arrays in memory and
are written out once, after the timed region.  A layer's self time is its
span minus the wrapped child spans inside it and minus the reference bursts
of speed.py that interrupted it (`add_gap`).

The hot methods `DoublingState.step` and `CF.__post_init__` get counters
only; a span per call would distort the run they are meant to describe.
`double_stream` returns a generator, so its spans cover each resumption of
the generator rather than the call that creates it.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from pathlib import Path

SPANNED = {
    "search": ("run", "try_exclude"),
    "cf": ("fold_word", "least_rotation"),
    "surd": ("expand_surd", "linear_fractional"),
    "doubling": ("double_cf", "halve_cf", "halve_plus1_cf", "double_stream"),
    "equiv": ("class_key", "class_contains_self_similar", "scan_self_similar"),
    "bounds": ("classify_b2", "verify_b2_exhaustive", "falsify_b_bound"),
}
COUNTED = {  # metric name -> (module, class, method)
    "doubling.step.calls": ("doubling", "DoublingState", "step"),
    "cf.CF.calls": ("cf", "CF", "__post_init__"),
}

# Span file layout: one JSON header line, then the arrays of FIELDS, then those
# of GAP_FIELDS.  A gap is a reference burst (speed.py) that interrupted the
# span `parent`; it is not part of that span's self time.
FIELDS = (("name", "i"), ("parent", "i"), ("start_ns", "q"), ("end_ns", "q"))
GAP_FIELDS = (("parent", "i"), ("duration_ns", "q"))


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.spans = {field: array(code) for field, code in FIELDS}
        self.gaps = {field: array(code) for field, code in GAP_FIELDS}
        self.counters = {name: [0] for name in COUNTED}
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.excluded = 0             # try_exclude calls that returned a witness
        self.self_similar = 0         # class_contains_self_similar calls that returned True
        self.expanded_digits = 0      # digits in the expansions expand_surd returned
        self.double_args: set = set()
        self.double_periods: set = set()
        self._observers = {
            "search.try_exclude": self._observe_exclude,
            "equiv.class_contains_self_similar": self._observe_self_similar,
            "surd.expand_surd": self._observe_expansion,
            "doubling.double_cf": self._observe_double,
        }

    # -- observers (run after the span closes) -----------------------------

    def _observe_exclude(self, args, result):
        self.excluded += result is not None

    def _observe_self_similar(self, args, result):
        self.self_similar += bool(result)

    def _observe_expansion(self, args, result):
        self.expanded_digits += 1 + len(result.pre) + len(result.period)

    def _observe_double(self, args, result):
        self.double_args.add(args[0])
        self.double_periods.add(args[0].period)

    # -- wrappers ----------------------------------------------------------

    def _function_wrapper(self, fn, nid: int, observe):
        names, parents = self.spans["name"], self.spans["parent"]
        starts, ends = self.spans["start_ns"], self.spans["end_ns"]
        open_, calls, clock = self._open, self.calls, time.perf_counter_ns

        def traced(*args, **kwargs):
            calls[nid] += 1
            idx = len(names)
            names.append(nid)
            parents.append(open_[-1] if open_ else -1)
            ends.append(0)
            open_.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                open_.pop()
            if observe is not None:
                observe(args, result)
            return result
        return traced

    def _generator_wrapper(self, fn, nid: int):
        names, parents = self.spans["name"], self.spans["parent"]
        starts, ends = self.spans["start_ns"], self.spans["end_ns"]
        open_, calls, clock = self._open, self.calls, time.perf_counter_ns

        def traced(*args, **kwargs):
            calls[nid] += 1
            inner = fn(*args, **kwargs)
            try:
                while True:
                    idx = len(names)
                    names.append(nid)
                    parents.append(open_[-1] if open_ else -1)
                    ends.append(0)
                    open_.append(idx)
                    starts.append(clock())
                    try:
                        value = next(inner)
                    except StopIteration:
                        return
                    finally:
                        ends[idx] = clock()
                        open_.pop()
                    yield value
            finally:
                inner.close()
        return traced

    def add_gap(self, start: float, end: float):
        """Record time spent outside cf2 (perf_counter seconds) inside the open span.

        Called from a signal handler, so it touches only the gap arrays: a
        handler can run between two appends of a span wrapper.
        """
        self.gaps["parent"].append(self._open[-1] if self._open else -1)
        self.gaps["duration_ns"].append(round((end - start) * 1e9))

    @staticmethod
    def _counting_wrapper(fn, cell: list[int]):
        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return counted

    def _replace(self, owner, attr: str, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        modules = [mod for name, mod in sys.modules.items()
                   if name == "cf2" or name.startswith("cf2.")]
        for layer, funcs in SPANNED.items():
            home = sys.modules[f"cf2.{layer}"]
            for func in funcs:
                name = f"{layer}.{func}"
                nid = len(self.names)
                self.names.append(name)
                self.calls.append(0)
                original = getattr(home, func)
                if inspect.isgeneratorfunction(original):
                    wrapper = self._generator_wrapper(original, nid)
                else:
                    wrapper = self._function_wrapper(original, nid, self._observers.get(name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._replace(mod, attr, wrapper)
        for metric, (layer, cls_name, method) in COUNTED.items():
            cls = getattr(sys.modules[f"cf2.{layer}"], cls_name)
            self._replace(cls, method, self._counting_wrapper(getattr(cls, method),
                                                              self.counters[metric]))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Self time per spanned function: span time minus wrapped child and gap time."""
        names, parents = self.spans["name"], self.spans["parent"]
        starts, ends = self.spans["start_ns"], self.spans["end_ns"]
        child_ns = [0] * len(names)
        for i, parent in enumerate(parents):
            if parent >= 0:
                child_ns[parent] += ends[i] - starts[i]
        for parent, ns in zip(self.gaps["parent"], self.gaps["duration_ns"]):
            if parent >= 0:
                child_ns[parent] += ns
        self_ns = [0] * len(self.names)
        for i, nid in enumerate(names):
            self_ns[nid] += ends[i] - starts[i] - child_ns[i]
        return {name: ns / 1e9 for name, ns in zip(self.names, self_ns)}

    def metrics(self, scale: float = 1.0) -> dict[str, float]:
        """Per-layer metrics; self times are multiplied by `scale` (to reference seconds)."""
        calls = dict(zip(self.names, self.calls))
        out: dict[str, float] = {}
        for name, seconds in self.self_seconds().items():
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = seconds * scale
        for metric, cell in self.counters.items():
            out[metric] = cell[0]
        out["search.exclude_ratio"] = _ratio(self.excluded, calls["search.try_exclude"])
        out["equiv.hit_ratio"] = _ratio(self.self_similar,
                                        calls["equiv.class_contains_self_similar"])
        out["surd.expand_surd.digits"] = self.expanded_digits
        doubled = calls["doubling.double_cf"]
        out["doubling.double_cf.distinct_ratio"] = _ratio(len(self.double_args), doubled)
        out["doubling.double_cf.period_ratio"] = _ratio(len(self.double_periods), doubled)
        return out

    def write_spans(self, path: Path):
        """Header line, then each span array and each gap array in native byte order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"names": self.names, "fields": [list(f) for f in FIELDS],
                  "count": len(self.spans["name"]),
                  "gap_fields": [list(f) for f in GAP_FIELDS],
                  "gap_count": len(self.gaps["parent"]), "byteorder": sys.byteorder}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for field, _ in FIELDS:
                self.spans[field].tofile(fh)
            for field, _ in GAP_FIELDS:
                self.gaps[field].tofile(fh)
