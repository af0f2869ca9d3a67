"""Spans around calls into epicmp's public functions.

`Tracer.install` wraps every public function of the traced modules in
every epicmp namespace that binds it: the defining module (so calls inside
one module are seen too, e.g. `search.frame_relations`) and each importing
module (`from .search import check_validity`).  Modules imported later are
wrapped as they load.  epicmp itself is not modified on disk.

A span is ``[name, start, end, parent, op, note]``: the function's
``module.name``, perf_counter start and end, the index of the enclosing
span (-1 for none), the benchmark operation id and a small per-call fact
used by the counters (see _FACTS).  Spans stay in memory and are written
out when the run ends.

A generator function gets one span per resumption, so
`search.enumerate_models` is timed only while it runs, with its consumer as
parent.

Self time is per layer, a layer being a module: a span's self time is its
duration minus the time covered by spans of *other* modules below it.  Time
a function spends in helpers of its own module counts as its own, so the
self times of nested functions of one module overlap; the ``layer.*``
totals take only the outermost span of each module run and do not.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import inspect
import sys
import time
from collections import defaultdict

MODULES = ("syntax", "kripke", "semantics", "search", "corpus", "cli")


def public_functions(mod) -> dict[str, object]:
    """Functions (plain or lru-cached) a module defines under a public name."""
    out = {}
    for name, obj in vars(mod).items():
        if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == mod.__name__:
            out[name] = obj
    return out


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


# Per-call facts kept for the counters below; JSON-friendly, so spans from
# traced CLI subprocesses can be merged in.
_FACTS = {
    "search.check_validity": lambda a, k, r: [
        repr(_arg(a, k, 1, "bounds")), getattr(r, "models_checked", 0)],
    "search.check_schema": lambda a, k, r: len(r),
    "corpus.run_claim": lambda a, k, r: _arg(a, k, 0, "claim_id"),
}


def _module_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        # id(original) -> (original, wrapper)
        self._wrapped: dict[int, tuple] = {}

    # --- recording --------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op,
                           None])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def merge(self, spans: list[list]) -> None:
        """Adopt spans recorded in a subprocess (perf_counter is the
        system-wide monotonic clock) under the current span."""
        offset = len(self.spans)
        top = self.stack[-1] if self.stack else -1
        for name, start, end, parent, _, note in spans:
            self.spans.append([name, start, end,
                               top if parent < 0 else parent + offset,
                               self.op, note])

    def _wrap(self, name: str, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    idx = tracer.begin(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.end(idx)
                    tracer.spans[idx][5] = "yield"
                    yield item
            return gen_wrapper

        info = getattr(fn, "cache_info", None)
        fact = _FACTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            misses = info().misses if info is not None else 0
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if info is not None:
                tracer.spans[idx][5] = info().misses > misses
            elif fact is not None:
                tracer.spans[idx][5] = fact(args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        """Wrap the public functions of the loaded MODULES wherever epicmp
        binds them, now and whenever one of them is imported later.

        Nothing is imported here, so a module epicmp loads lazily stays
        unloaded until epicmp itself asks for it.
        """
        if not any(isinstance(f, _WrapOnImport) for f in sys.meta_path):
            sys.meta_path.insert(0, _WrapOnImport(self))
        wrappers = {id(w) for _, w in self._wrapped.values()}
        for short in MODULES:
            mod = sys.modules.get(f"epicmp.{short}")
            if mod is None:
                continue
            for name, fn in public_functions(mod).items():
                if id(fn) not in self._wrapped and id(fn) not in wrappers:
                    self._wrapped[id(fn)] = (fn, self._wrap(f"{short}.{name}",
                                                            fn))
        for ns_name in ("epicmp",) + tuple(f"epicmp.{m}" for m in MODULES):
            ns = sys.modules.get(ns_name)
            if ns is None:
                continue
            for name, obj in list(vars(ns).items()):
                hit = self._wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(ns, name, hit[1])

    def uninstall(self) -> None:
        """Put the original functions back everywhere."""
        sys.meta_path[:] = [f for f in sys.meta_path
                            if not isinstance(f, _WrapOnImport)]
        originals = {id(w): fn for fn, w in self._wrapped.values()}
        for ns_name in ("epicmp",) + tuple(f"epicmp.{m}" for m in MODULES):
            ns = sys.modules.get(ns_name)
            for name, obj in list(vars(ns).items()) if ns else ():
                if id(obj) in originals:
                    setattr(ns, name, originals[id(obj)])


class _WrapOnImport(importlib.abc.MetaPathFinder):
    """Re-runs Tracer.install right after an epicmp module executes."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        if not fullname.startswith("epicmp."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return None
        exec_module = spec.loader.exec_module

        def exec_and_wrap(module):
            exec_module(module)
            self.tracer.install()
        spec.loader.exec_module = exec_and_wrap
        return spec


def self_times(spans: list[list]) -> list[float]:
    """Per span: duration minus time in spans of other modules below."""
    foreign = [0.0] * len(spans)
    for idx in range(len(spans) - 1, -1, -1):
        name, start, end, parent = spans[idx][:4]
        if parent < 0:
            continue
        if _module_of(spans[parent][0]) == _module_of(name):
            foreign[parent] += foreign[idx]
        else:
            foreign[parent] += end - start
    return [s[2] - s[1] - foreign[i] for i, s in enumerate(spans)]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counters and times of a list of spans: `<fn>.calls` and
    `<fn>.self_s` for every traced function, the counters below, and
    `layer.<module>.self_s`."""
    self_s = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    own: dict[str, float] = defaultdict(float)
    layer: dict[str, float] = defaultdict(float)
    out: dict[str, float] = defaultdict(float)
    bounds = set()
    for idx, (name, start, end, parent, _, note) in enumerate(spans):
        calls[name] += 1
        own[name] += self_s[idx]
        mod = _module_of(name)
        if parent < 0 or _module_of(spans[parent][0]) != mod:
            layer[mod] += self_s[idx]
        if name == "search.enumerate_models" and note == "yield":
            out["search.enumerate_models.yields"] += 1
        elif name == "search.frame_relations" and note is True:
            out["search.frame_relations.misses"] += 1
            out["search.frame_relations.cold_s"] += end - start
        elif name == "search.check_validity" and note is not None:
            bounds.add(note[0])
            out["search.check_validity.models"] += note[1]
        elif name == "search.check_schema" and note is not None:
            out["search.check_schema.instances"] += note
        elif name == "corpus.run_claim" and note is not None:
            out[f"corpus.claim.{note}.s"] += end - start
    for name in calls:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = own[name]
    out["search.check_validity.calls_per_bounds"] = (
        calls["search.check_validity"] / len(bounds) if bounds else 0.0)
    for mod in MODULES + ("bench",):
        out[f"layer.{mod}.self_s"] = layer[mod]
    out["trace.spans"] = len(spans)
    return dict(out)
