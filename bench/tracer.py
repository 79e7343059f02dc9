"""Outside-in tracing of srrealize's layers.

The layers are the package's modules.  The tracer wraps a fixed list of
their public functions from outside: it replaces every binding of each
function in every loaded `srrealize` module (a `from .complexes import pmax`
copies the binding, so the defining module alone is not enough), and the
`MaxIntersectionPoset.covers` method on its class.  Each call records a span
(name, start, end, parent span, operation id) in memory.  Uninstalling puts
every original binding back.

A function that a later change renames or removes is reported as missing,
and its metrics are left out, instead of failing the run.

A span's self time is its duration minus the durations of its direct child
spans, so time in an untraced helper counts toward the traced caller.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

PACKAGE = "srrealize"


@dataclass(frozen=True)
class Target:
    metric: str  # "<module>.<function>", the prefix of the metric names
    module: str
    attr: str  # "function" or "Class.method"
    reported: tuple[str, ...]  # metric suffixes printed for this target


TARGETS = (
    Target("complexes.covers", "complexes", "MaxIntersectionPoset.covers",
           ("calls", "self_s", "pairs")),
    Target("complexes.pmax", "complexes", "pmax", ("calls", "self_s")),
    Target("complexes.all_faces", "complexes", "all_faces", ("calls", "faces")),
    Target("complexes.complex_from_json", "complexes", "complex_from_json",
           ("self_s",)),
    Target("hilbert.sr_hilbert", "hilbert", "sr_hilbert", ("calls", "self_s")),
    Target("hilbert.free_hilbert", "hilbert", "free_hilbert", ("calls", "self_s")),
    Target("admissible.classify", "admissible", "classify",
           ("calls", "self_s", "distinct_frac")),
    Target("admissible.aguade_table_member", "admissible", "aguade_table_member",
           ("calls", "self_s")),
    Target("decide.decide_main", "decide", "decide_main", ("self_s",)),
    Target("decide.necessary_condition", "decide", "necessary_condition",
           ("self_s",)),
    Target("decide.find_partition", "decide", "find_partition",
           ("calls", "self_s", "classify_calls", "found_frac")),
    Target("diagram.label_node", "diagram", "label_node", ("calls", "self_s")),
    Target("diagram.build_diagram", "diagram", "build_diagram", ("self_s",)),
    Target("diagram.emit_json", "diagram", "emit_json", ("self_s", "bytes")),
    Target("diagram.diagram_from_json", "diagram", "diagram_from_json",
           ("self_s",)),
    Target("verify.verify_construction", "verify", "verify_construction",
           ("self_s",)),
    Target("verify.pushout_recurrence_check", "verify", "pushout_recurrence_check",
           ("self_s", "total_s")),
    Target("cli.main", "cli", "main", ("calls", "self_s")),
)

UNITS = {
    "calls": "count", "pairs": "count", "faces": "count",
    "classify_calls": "count", "bytes": "bytes",
    "self_s": "s", "total_s": "s",
    "distinct_frac": "ratio", "found_frac": "ratio",
}

# Per-call counters: metric suffix -> value added from (args, result).
COUNTERS: dict[str, dict[str, Callable[[tuple, Any], int]]] = {
    "complexes.covers": {"pairs": lambda args, result: len(result)},
    "complexes.all_faces": {"faces": lambda args, result: len(result)},
    "diagram.emit_json": {"bytes": lambda args, result: len(result.encode())},
    "decide.find_partition": {"found": lambda args, result: result is not None},
}


def package_modules() -> list[Any]:
    return [
        m for name, m in sorted(sys.modules.items())
        if name == PACKAGE or name.startswith(PACKAGE + ".")
    ]


class Tracer:
    def __init__(self) -> None:
        # (target index, start, end, parent span or -1, operation id); a
        # span's slot is taken when it starts and filled when it ends.
        self.spans: list[tuple[int, float, float, int, int]] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._op = [0]
        self._counts: dict[tuple[str, str], int] = {}
        self._classify_keys: set[tuple[int, ...]] = set()
        self._restore: list[tuple[Any, str, Any]] = []

    def _wrap(self, index: int, target: Target, fn: Callable) -> Callable:
        spans, stack, op, clock = self.spans, self._stack, self._op, time.perf_counter
        counters = list(COUNTERS.get(target.metric, {}).items())
        counts = self._counts
        for suffix, _ in counters:
            counts.setdefault((target.metric, suffix), 0)
        keys = self._classify_keys if target.metric == "admissible.classify" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                op[0] += 1
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)  # type: ignore[arg-type]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (index, start, end, parent, op[0])
            for suffix, count in counters:
                counts[(target.metric, suffix)] += count(args, result)
            if keys is not None:
                keys.add(tuple(sorted(args[0])))
            return result

        return traced

    def install(self) -> None:
        self.missing = []
        for index, t in enumerate(TARGETS):
            try:
                module = importlib.import_module(f"{PACKAGE}.{t.module}")
            except ImportError:
                self.missing.append(t.metric)
                continue
            owner_name, _, name = t.attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(name) if owner is not None else None
            if not inspect.isfunction(original):
                self.missing.append(t.metric)
                continue
            wrapper = self._wrap(index, t, original)
            if owner_name:
                setattr(owner, name, wrapper)
                self._restore.append((owner, name, original))
                continue
            for m in package_modules():
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._restore.append((m, key, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit); missing targets are
        left out."""
        spans = self.spans
        n = len(TARGETS)
        calls, total, own = [0] * n, [0.0] * n, [0.0] * n
        child = [0.0] * len(spans)
        for index, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        fp = next(i for i, t in enumerate(TARGETS) if t.metric == "decide.find_partition")
        cl = next(i for i, t in enumerate(TARGETS) if t.metric == "admissible.classify")
        classify_in_search = 0
        for sid, (index, start, end, parent, _) in enumerate(spans):
            calls[index] += 1
            total[index] += end - start
            own[index] += end - start - child[sid]
            if index == cl:
                while parent >= 0 and spans[parent][0] != fp:
                    parent = spans[parent][3]
                classify_in_search += parent >= 0
        values: dict[str, float] = {}
        for index, t in enumerate(TARGETS):
            values[f"{t.metric}.calls"] = calls[index]
            values[f"{t.metric}.self_s"] = own[index]
            values[f"{t.metric}.total_s"] = total[index]
        for (metric, suffix), count in self._counts.items():
            values[f"{metric}.{suffix}"] = count
        found = values.get("decide.find_partition.found", 0)
        values["decide.find_partition.found_frac"] = (
            found / calls[fp] if calls[fp] else 0.0
        )
        values["decide.find_partition.classify_calls"] = classify_in_search
        values["admissible.classify.distinct_frac"] = (
            len(self._classify_keys) / calls[cl] if calls[cl] else 0.0
        )
        return {
            f"{t.metric}.{s}": (values[f"{t.metric}.{s}"], UNITS[s])
            for t in TARGETS if t.metric not in self.missing
            for s in t.reported
        }

    def write(self, path: Path) -> None:
        """Spans as tab-separated lines, times in seconds from the first."""
        spans = self.spans
        t0 = spans[0][1] if spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tspan\tparent\tname\tstart_s\tend_s\n")
            for sid, (index, start, end, parent, op) in enumerate(spans):
                fh.write(
                    f"{op}\t{sid}\t{parent}\t{TARGETS[index].metric}\t"
                    f"{start - t0:.9f}\t{end - t0:.9f}\n"
                )
