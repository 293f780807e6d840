"""Layer-boundary spans recorded from outside the program.

`Tracer.install` rebinds, in every `ramlab` module, each function attribute
whose `__module__` is another `ramlab` module (private imports included),
and, in modules that other modules reach as `module.name` (gensums, even,
verify), the module's own functions. Each wrapper records one span per
cross-layer call: (function, start, end, parent span). A call into the
layer that is already innermost is passed straight through, so a span
always marks a layer boundary. Nothing under `src/` is edited.

Spans stay in flat arrays until `summary()` folds them into per-layer call
counts and self time: a span's duration minus the part its child spans
cover, credited to the span's layer.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from array import array

PACKAGE = "ramlab"


def _layer(module_name: str) -> str:
    return module_name.split(".", 1)[1] if "." in module_name else module_name


def _is_function(obj) -> bool:
    return isinstance(obj, (types.FunctionType, functools._lru_cache_wrapper))


def _ours(obj) -> bool:
    return getattr(obj, "__module__", "").startswith(PACKAGE + ".")


def layer_modules() -> dict[str, types.ModuleType]:
    """Every imported `ramlab` submodule, by layer name."""
    return {
        _layer(name): mod
        for name, mod in sorted(sys.modules.items())
        if name.startswith(PACKAGE + ".") and mod is not None
    }


def find_caches(modules: dict[str, types.ModuleType]) -> dict[str, list]:
    """Every lru_cache a module defines itself; call before `Tracer.install`."""
    return {
        layer: [
            obj for obj in vars(mod).values()
            if callable(getattr(obj, "cache_info", None))
            and getattr(obj, "__module__", None) == mod.__name__
        ]
        for layer, mod in modules.items()
    }


def cache_stats(caches: dict[str, list]) -> dict[str, dict[str, int]]:
    """`cache_info()` summed over each layer's caches."""
    out = {}
    for layer, found in caches.items():
        infos = [c.cache_info() for c in found]
        out[layer] = {
            "entries": sum(i.currsize for i in infos),
            "hits": sum(i.hits for i in infos),
            "misses": sum(i.misses for i in infos),
        }
    return out


class Tracer:
    def __init__(self):
        self.names: list[tuple[str, str]] = []  # (layer, qualified name) per function id
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[tuple[int, str]] = []  # (span index, layer) of open spans
        self._wrappers: dict[int, object] = {}

    def wrap(self, fn, layer: str):
        """A wrapper that records a span whenever `fn` is entered from another layer."""
        known = self._wrappers.get(id(fn))
        if known is not None:
            return known
        fn_id = len(self.names)
        self.names.append((layer, f"{fn.__module__}.{fn.__qualname__}"))
        stack, fns, parents, starts, ends = (
            self._stack, self.fn, self.parent, self.start, self.end)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            idx = len(fns)
            fns.append(fn_id)
            parents.append(stack[-1][0] if stack else -1)
            ends.append(0.0)
            stack.append((idx, layer))
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__traced__ = True
        self._wrappers[id(fn)] = traced
        return traced

    def install(self, modules: dict[str, types.ModuleType]) -> None:
        reached = {
            obj.__name__
            for mod in modules.values()
            for obj in vars(mod).values()
            if isinstance(obj, types.ModuleType) and obj.__name__.startswith(PACKAGE + ".")
        }
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if not _is_function(obj) or not _ours(obj) or hasattr(obj, "__traced__"):
                    continue
                if obj.__module__ != mod.__name__ or mod.__name__ in reached:
                    setattr(mod, name, self.wrap(obj, _layer(obj.__module__)))

    def summary(self) -> dict:
        """Per-layer span counts and self time, and the same per function."""
        n = len(self.fn)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        layers: dict[str, dict[str, float]] = {}
        functions: dict[str, dict[str, float]] = {}
        for i in range(n):
            layer, qualname = self.names[self.fn[i]]
            dur = self.end[i] - self.start[i]
            for key, table in ((layer, layers), (qualname, functions)):
                row = table.setdefault(key, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
                row["calls"] += 1
                row["self_s"] += dur - covered[i]
                row["total_s"] += dur
            functions[qualname]["layer"] = layer
        return {"spans": n, "layers": layers, "functions": functions}
