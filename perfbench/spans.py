"""In-memory span recorder for the traced benchmark run.

A span is (name, parent span, start, end).  Spans are recorded by wrappers
that replace module attributes of kstab (including the names other kstab
modules imported), so the engine itself carries no instrumentation.  The
wrappers are removed again by ``Tracer.uninstall``; while none are
installed the engine runs untouched, which is how end-to-end numbers are
measured.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array
from pathlib import Path

# Modules whose public functions get a span.  ``kstab.rationals`` is the
# scalar layer under every other one and is left out, and of ``kstab.cli``
# only ``main`` is wrapped, so that the self time of ``cli.main`` is the
# CLI's argument parsing and output rendering.
LAYER_MODULES = (
    "kstab.scenarios",
    "kstab.invariants",
    "kstab.series",
    "kstab.zariski",
    "kstab.geometry",
    "kstab.lattice",
    "kstab.poly",
)
EXTRA_FUNCTIONS = (("kstab.cli", "main"),)
METHODS = (("kstab.zariski", "ChamberDecomposition", "validate_partition"),)
# Value types whose constructions are counted (a counter, not a span).
COUNTED_CLASSES = (("kstab.poly", "Polynomial2"), ("kstab.poly", "AffineForm"))


def short_name(module: str, attr: str) -> str:
    return f"{module.removeprefix('kstab.')}.{attr}"


class Tracer:
    """Records spans and counters; ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: dict[str, int] = {}
        self.band_keys: list[tuple] = []
        self.chambers_placed = 0
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, name: str) -> int:
        idx = len(self.span_start)
        self.span_name.append(self.name_id(name))
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(self.clock())
        return idx

    def exit(self, idx: int) -> None:
        self.span_end[idx] = self.clock()
        self._stack.pop()

    def wrap(self, fn, name: str, *, label=None, observe=None):
        """A wrapper recording one span per call of ``fn``.

        ``label(*args)`` picks a per-call span name under ``name``;
        ``observe(args, kwargs, result)`` sees every completed call.
        """
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = enter(name if label is None else f"{name}.{label(*args)}")
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(idx)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def counting_init(self, init, key: str):
        counters = self.counters
        counters.setdefault(key, 0)

        @functools.wraps(init)
        def wrapper(*args, **kwargs):
            counters[key] += 1
            return init(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------------

    def _replacements(self) -> dict[int, tuple[object, object]]:
        """id(original) -> (original, wrapper) for every module-level target."""
        out: dict[int, tuple[object, object]] = {}

        def add(fn, name, **hooks):
            out[id(fn)] = (fn, self.wrap(fn, name, **hooks))

        for modname in LAYER_MODULES:
            module = sys.modules.get(modname)
            if module is None:
                continue
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == modname
                ):
                    add(value, short_name(modname, attr), **self._hooks(modname, attr))
        for modname, attr in EXTRA_FUNCTIONS:
            fn = getattr(sys.modules.get(modname), attr, None)
            if fn is not None:
                add(fn, short_name(modname, attr))
        return out

    def _hooks(self, modname: str, attr: str) -> dict:
        if (modname, attr) == ("kstab.series", "compute_band"):
            return {"observe": lambda args, kwargs, result: self.band_keys.append(args[:2])}
        if (modname, attr) == ("kstab.zariski", "decompose_parametric"):
            return {"observe": self._count_chambers}
        return {}

    def _count_chambers(self, args, kwargs, result) -> None:
        self.chambers_placed += len(getattr(result, "chambers", ()))

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Replace every target, and every kstab name bound to one, by its wrapper."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        replacements = self._replacements()
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "kstab" or modname.startswith("kstab.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])
        for modname, clsname, attr in METHODS:
            cls = getattr(sys.modules.get(modname), clsname, None)
            if cls is not None and attr in cls.__dict__:
                self._patch(cls, attr, self.wrap(cls.__dict__[attr], short_name(modname, attr)))
        runtime = getattr(sys.modules.get("kstab.scenarios"), "ScenarioRuntime", None)
        if runtime is not None and "evaluate" in runtime.__dict__:
            self._patch(runtime, "evaluate", self.wrap(
                runtime.__dict__["evaluate"], "scenarios.op", label=lambda _self, op, *rest: op,
            ))
        for modname, clsname in COUNTED_CLASSES:
            cls = getattr(sys.modules.get(modname), clsname, None)
            if cls is not None and "__init__" in cls.__dict__:
                key = f"{short_name(modname, clsname)}.constructed"
                self._patch(cls, "__init__", self.counting_init(cls.__dict__["__init__"], key))

    def uninstall(self) -> None:
        """Put back every attribute ``install`` replaced, in reverse order."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        out = [end - start for start, end in zip(self.span_start, self.span_end)]
        for idx, parent in enumerate(self.span_parent):
            if parent >= 0:
                out[parent] -= self.span_end[idx] - self.span_start[idx]
        return out

    def _inside_same_name(self, idx: int) -> bool:
        nid, parent = self.span_name[idx], self.span_parent[idx]
        while parent >= 0:
            if self.span_name[parent] == nid:
                return True
            parent = self.span_parent[parent]
        return False

    def aggregate(self) -> dict[str, dict]:
        """Per span name: calls, summed self time, total time and the durations.

        Total time sums the spans not nested in a span of the same name, so
        it is the wall time spent inside that name, children included.
        """
        selfs = self.self_times()
        stats: dict[str, dict] = {}
        for idx, nid in enumerate(self.span_name):
            entry = stats.get(self.names[nid])
            if entry is None:
                entry = stats[self.names[nid]] = {
                    "calls": 0, "self_s": 0.0, "total_s": 0.0, "durations": []}
            duration = self.span_end[idx] - self.span_start[idx]
            entry["calls"] += 1
            entry["self_s"] += selfs[idx]
            entry["durations"].append(duration)
            if not self._inside_same_name(idx):
                entry["total_s"] += duration
        return stats

    def parent_name(self, idx: int) -> str | None:
        parent = self.span_parent[idx]
        return None if parent < 0 else self.names[self.span_name[parent]]

    def write(self, path: Path) -> None:
        """All spans as gzipped TSV: index, name, parent, start_s, end_s."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.span_start[0] if self.span_start else 0.0
        with gzip.open(path, "wt", compresslevel=3) as out:
            out.write("span\tname\tparent\tstart_s\tend_s\n")
            for idx, nid in enumerate(self.span_name):
                out.write(
                    f"{idx}\t{self.names[nid]}\t{self.span_parent[idx]}\t"
                    f"{self.span_start[idx] - origin:.9f}\t{self.span_end[idx] - origin:.9f}\n"
                )
