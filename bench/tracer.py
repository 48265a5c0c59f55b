"""Spans and counts around the public functions of each boxworld layer.

The tracer lives in the benchmark, not in the package: ``install`` replaces
every public function of the layer modules, at every name it is looked up
under (``boxworld.hybrid.pr_extend`` and ``boxworld.audit.pr_extend`` are
one function reached through two module attributes), with a wrapper that
records a span. ``uninstall`` puts the originals back.

A span is (op, id, parent, name, start, end). Spans of the first ops are
kept whole for the trace file; all spans feed per-function call counts,
inclusive times and per-layer self time (duration minus the child spans
it covers).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "dsl", "hybrid", "quantum", "boxes", "protocol", "audit")

# Class methods traced besides module-level functions: constructor
# validation (a count of objects built) and the density of a hybrid state.
METHODS = (
    ("quantum", "DensityOperator", "__post_init__"),
    ("quantum", "Unitary", "__post_init__"),
    ("boxes", "ConditionalBox", "__post_init__"),
    ("hybrid", "HybridState", "to_density"),
)

KEEP_SPANS = 20_000


def _work_count(name: str, args, result) -> dict[str, float]:
    """Work done by one call, counted from its arguments or result."""
    if name == "hybrid.pr_extend":
        return {"branches": len(result.branches)}
    if name == "protocol.copy_distance":
        return {"terms": int(args[1]) + 1}
    if name == "protocol.simulate":
        return {"shots": int(args[2])}
    if name == "dsl.parse":
        return {"bytes": len(args[0].encode("utf-8"))}
    return {}


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.work: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.op = 0
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # -------------------------------------------------------------- wrapping

    def _wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.calls[name] += 1
                tracer.seconds[name] += duration
                tracer.self_seconds[layer] += duration - frame[1]
                if len(tracer.spans) < KEEP_SPANS:
                    tracer.spans.append((tracer.op, span_id, parent, name, start, end))
            for key, value in _work_count(name, args, result).items():
                tracer.work[f"{name}.{key}"] += value
            return result

        return wrapper

    def install(self) -> None:
        modules = {layer: sys.modules[f"boxworld.{layer}"] for layer in LAYERS}
        wrappers: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        # Patch every module of the package that holds one of those functions.
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "boxworld" and not mod_name.startswith("boxworld."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)][1])
                elif isinstance(obj, dict):  # dispatch tables such as cli._COMMANDS
                    for key, value in list(obj.items()):
                        if id(value) in wrappers and wrappers[id(value)][0] is value:
                            self._patched.append((obj, key, value))
                            obj[key] = wrappers[id(value)][1]
        for layer, cls_name, method in METHODS:
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__[method]
            self._patched.append((cls, method, original))
            setattr(cls, method, self._wrap(f"{layer}.{cls_name}.{method}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    # -------------------------------------------------------------- results

    def snapshot(self) -> dict:
        """Plain-data totals, mergeable across processes with :func:`merge`."""
        return {
            "calls": dict(self.calls),
            "seconds": dict(self.seconds),
            "work": dict(self.work),
            "self_seconds": dict(self.self_seconds),
        }


def merge(total: dict, part: dict) -> dict:
    for key, values in part.items():
        bucket = total.setdefault(key, {})
        for name, value in values.items():
            bucket[name] = bucket.get(name, 0) + value
    return total
