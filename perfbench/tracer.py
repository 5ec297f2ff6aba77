"""Spans around the public functions of cayleypst's layers, installed from outside.

`Tracer.install` wraps every public function of the six modules and rebinds
each name wherever it was imported (the package namespace and every module
that did `from .x import name`), so calls between layers are seen too.
`jsonio.dumps` is wrapped only where `cli` imported it: its own recursion
goes through the module global and stays untraced.

Each span knows its parent, so a layer's self time is its span time minus
the time of its direct child spans.  Spans are aggregated in memory: per
function (calls, self time, errors), per function family (outermost time),
and per parent -> child edge (calls).
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter

LAYERS = ("groups", "spectra", "walk", "pst", "jsonio", "cli")

# Functions timed together: the outermost call of any member counts once.
FAMILIES = {
    "groups.parse_group": "groups.parse",
    "groups.parse_element": "groups.parse",
    "groups.parse_connection_set": "groups.parse",
}

# Names that must be rebound after install; a miss means calls escape the trace.
REQUIRED_SITES = (
    "cayleypst.characterize_pst",
    "cayleypst.cli.characterize_pst",
    "cayleypst.cli.dumps",
    "cayleypst.cli.main",
    "cayleypst.cli.parse_group",
    "cayleypst.pst.detect_pst_numeric",
    "cayleypst.pst.integral_spectrum",
    "cayleypst.pst.is_power_closed",
    "cayleypst.walk.character_table",
    "cayleypst.spectra.character_table",
)


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # [qualname, child seconds] per open span
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.errors: Counter = Counter()
        self.total_s: Counter = Counter()  # per family, outermost spans only
        self.depth: Counter = Counter()  # open spans per family
        self.edges: Counter = Counter()  # "parent>child" -> calls
        self.counts: Counter = Counter()
        self.tables_seen: set = set()

    def _hook(self, qualname: str, args, result) -> None:
        if qualname == "spectra.character_table":
            group = args[0]
            if group not in self.tables_seen:
                self.tables_seen.add(group)
                # computed from |G|, not measured: one complex128 per table entry
                self.counts["spectra.table_bytes_computed"] += 16 * group.order**2
        elif qualname == "jsonio.dumps":
            self.counts["jsonio.bytes_out"] += len(result.encode("utf-8"))
        elif qualname == "pst.enumerate_pst_sets":
            self.counts["pst.emitted"] += len(result)

    def wrap(self, qualname: str, fn):
        family = FAMILIES.get(qualname, qualname)
        hooked = qualname in ("spectra.character_table", "jsonio.dumps", "pst.enumerate_pst_sets")
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else "-"
            frame = [qualname, 0.0]
            stack.append(frame)
            self.depth[family] += 1
            failed = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                self.depth[family] -= 1
                if not self.depth[family]:
                    self.total_s[family] += elapsed
                self.calls[qualname] += 1
                self.self_s[qualname] += elapsed - frame[1]
                self.errors[qualname] += failed
                self.edges[f"{parent}>{qualname}"] += 1
            if hooked:
                self._hook(qualname, args, result)
            return result

        traced.__perfbench_traced__ = True
        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"cayleypst.{layer}") for layer in LAYERS}
        namespaces = [importlib.import_module("cayleypst"), *modules.values()]
        for layer, module in modules.items():
            for name, fn in list(vars(module).items()):
                if (
                    name.startswith("_")
                    or isinstance(fn, type)
                    or not callable(fn)
                    or getattr(fn, "__module__", None) != module.__name__
                ):
                    continue
                wrapper = self.wrap(f"{layer}.{name}", fn)
                for space in namespaces:
                    if layer == "jsonio" and space is module:
                        continue
                    for attr, value in list(vars(space).items()):
                        if value is fn:
                            setattr(space, attr, wrapper)
        for site in REQUIRED_SITES:
            module_name, _, attr = site.rpartition(".")
            target = getattr(importlib.import_module(module_name), attr)
            if not getattr(target, "__perfbench_traced__", False):
                raise RuntimeError(f"tracer did not rebind {site}")
        if getattr(modules["jsonio"].dumps, "__perfbench_traced__", False):
            raise RuntimeError("jsonio.dumps must stay untraced inside jsonio")

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "errors": dict(self.errors),
            "total_s": dict(self.total_s),
            "edges": dict(self.edges),
            "counts": dict(self.counts),
        }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh)


def merge(snapshots: list[dict]) -> dict:
    """Sum the snapshots of several processes (one traced round)."""
    merged: dict[str, Counter] = {}
    for snap in snapshots:
        for key, table in snap.items():
            merged.setdefault(key, Counter()).update(table)
    return merged


def _layer_sum(table: dict, layer: str) -> float:
    return sum(v for k, v in table.items() if k.startswith(layer + "."))


def layer_metrics(snap: dict) -> dict[str, float]:
    """Per-layer metrics of one traced round, by the names BENCHMARK.json lists."""
    calls, self_s = snap.get("calls", {}), snap.get("self_s", {})
    errors, total = snap.get("errors", {}), snap.get("total_s", {})
    edges, counts = snap.get("edges", {}), snap.get("counts", {})
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = _layer_sum(calls, layer)
        metrics[f"{layer}.self_s"] = _layer_sum(self_s, layer)
        metrics[f"{layer}.errors"] = _layer_sum(errors, layer)
    for family in (
        "groups.parse",
        "groups.list_power_classes",
        "groups.is_power_closed",
        "spectra.character_table",
        "spectra.integral_spectrum",
        "walk.detect_pst_numeric",
        "walk.transition_amplitude",
        "walk.adjacency_matrix",
        "walk.dense_expm",
        "pst.characterize_pst",
        "pst.character_criterion",
        "pst.enumerate_pst_sets",
        "jsonio.dumps",
        "cli.main",
    ):
        metrics[f"{family}_s"] = total.get(family, 0.0)
    candidates = edges.get("pst.enumerate_pst_sets>pst.characterize_pst", 0)
    metrics["spectra.table_bytes_computed"] = counts.get("spectra.table_bytes_computed", 0)
    metrics["pst.candidates"] = candidates
    metrics["pst.scans"] = edges.get("pst.enumerate_pst_sets>walk.detect_pst_numeric", 0)
    metrics["pst.characterize_pst_calls"] = calls.get("pst.characterize_pst", 0)
    metrics["pst.hit_ratio"] = counts.get("pst.emitted", 0) / candidates if candidates else 0.0
    metrics["jsonio.bytes_out"] = counts.get("jsonio.bytes_out", 0)
    return metrics
