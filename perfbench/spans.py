"""Per-layer tracing from outside the library.

``Tracer.install`` wraps every public function of every ``siglab`` module
(the names in its ``__all__``) and rebinds each name wherever a ``siglab``
module imported it, so a call from one layer into another becomes a child
span. A span records wall time, the part of it covered by child spans, and the
``tracemalloc`` peak above the allocation level at entry. Spans are folded
into per-function totals as they close, so a pass with hundreds of thousands
of calls keeps a small, fixed amount of state.

The layer of a function is the module that defines it. Counts are taken at the
same boundaries, from arguments and results: vectors handed to
``norm_values``, edges returned by ``build_ksig``, file bytes at ``io`` calls.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

MB = 1e6
# position of the file argument of the io functions whose bytes are counted
_PATH_ARG = {"io.parse_points": 0, "io.read_graph_json": 0, "io.export_graph": 2}


@dataclass
class Totals:
    calls: int = 0
    total_s: float = 0.0  # every call, nested or not
    outer_s: float = 0.0  # calls with no enclosing span of the same layer
    self_s: float = 0.0
    peak_bytes: int = 0


class _Frame:
    __slots__ = ("key", "layer", "start", "child", "base", "peak", "outer")

    def __init__(self, key, layer, base, outer):
        self.key, self.layer, self.base, self.peak, self.outer = key, layer, base, base, outer
        self.child = 0.0
        self.start = time.perf_counter()


class Tracer:
    """Spans and counters for one pass; ``job`` names the root span in progress."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.memory = False  # take tracemalloc peaks; the caller starts tracemalloc
        self.reset()

    def reset(self):
        self.totals: dict[tuple[str, str], Totals] = defaultdict(Totals)
        self.counts: dict[str, float] = defaultdict(float)
        self.job = ""
        self._stack: list[_Frame] = []
        self._depth: dict[str, int] = defaultdict(int)

    # -- spans ---------------------------------------------------------------
    def enter(self, key: str, layer: str) -> _Frame:
        cur = 0
        if self.memory:
            cur, peak = tracemalloc.get_traced_memory()
            if self._stack:
                parent = self._stack[-1]
                parent.peak = max(parent.peak, peak)
            tracemalloc.reset_peak()
        self._depth[layer] += 1
        self._depth[key] += 1
        frame = _Frame(key, layer, cur, self._depth[layer] == 1)
        self._stack.append(frame)
        return frame

    def exit(self, frame: _Frame):
        elapsed = time.perf_counter() - frame.start
        if self.memory:
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            frame.peak = max(frame.peak, peak)
        self._stack.pop()
        self._depth[frame.layer] -= 1
        self._depth[frame.key] -= 1
        if self._stack:
            parent = self._stack[-1]
            parent.child += elapsed
            parent.peak = max(parent.peak, frame.peak)
        t = self.totals[(self.job, frame.key)]
        t.calls += 1
        t.total_s += elapsed
        t.self_s += elapsed - frame.child
        if frame.outer:
            t.outer_s += elapsed
        t.peak_bytes = max(t.peak_bytes, frame.peak - frame.base)

    def span(self, key: str, layer: str, fn, *args, **kwargs):
        frame = self.enter(key, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit(frame)

    def active(self, name: str) -> bool:
        """Whether a span of this layer (``sig``) or function (``sig.build_ksig``) is open."""
        return self._depth.get(name, 0) > 0

    # -- counters --------------------------------------------------------------
    def _observe(self, key: str, args, kwargs, result):
        c = self.counts
        if key == "norms.norm_values":
            shape = np.shape(args[1] if len(args) > 1 else kwargs["X"])
            vectors = math.prod(shape[:-1])
            c["norms.vectors"] += vectors
            c["norms.input_bytes"] += 8 * vectors * shape[-1]
            if self.active("sig.build_ksig"):
                c["sig.build_vectors"] += vectors
            if self.active("packing"):
                c["packing.norm_calls"] += 1
        elif key == "sig.build_ksig":
            c["sig.edges"] += len(result.edges)
        elif key == "sig.build_aux_graph":
            c["sig.aux_edges"] += len(result.edges)
        elif key == "suites.random_instances":
            c["suites.instances"] += len(result)
        elif key == "suites.run_verify_suite":
            c["suites.checks"] += len(result.checks)
        elif key in _PATH_ARG:
            index = _PATH_ARG[key]
            c["io.bytes"] += os.path.getsize(args[index] if len(args) > index else kwargs["path"])

    def _wrap(self, fn, layer: str, name: str):
        key = f"{layer}.{name}"
        enter, exit_, observe = self.enter, self.exit, self._observe

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(key, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(frame)
            observe(key, args, kwargs, result)
            return result

        return wrapper

    def _wrap_probe(self, fn):
        """Counts for the greedy insertion step; not a span (the function is private)."""

        @functools.wraps(fn)
        def probe(norm, accepted, chunk):
            before = len(accepted)
            result = fn(norm, accepted, chunk)
            self.counts["packing.candidates"] += len(chunk)
            self.counts["packing.accepted"] += len(accepted) - before
            return result

        return probe

    # -- installing ------------------------------------------------------------
    def install(self) -> list[str]:
        """Wrap siglab's public functions; returns the names of probes not found."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "siglab" or n.startswith("siglab.")]
        wrappers = {}
        for module in modules:
            layer = module.__name__.rpartition(".")[2]
            for name in getattr(module, "__all__", ()):
                fn = getattr(module, name, None)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[fn] = self._wrap(fn, layer, name)
        packing = sys.modules.get("siglab.packing")
        insert = getattr(packing, "_insert_chunk", None)
        missing = []
        if inspect.isfunction(insert):
            wrappers[insert] = self._wrap_probe(insert)
        else:
            missing.append("siglab.packing._insert_chunk")
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        return missing

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


def _sum(tracer: Tracer, field: str, keys, job: str | None = None) -> float:
    keys = set(keys)
    return sum(
        getattr(t, field)
        for (j, k), t in tracer.totals.items()
        if k in keys and (job is None or j == job)
    )


def _layer_keys(tracer: Tracer, layer: str) -> set[str]:
    return {k for (_, k) in tracer.totals if k.split(".", 1)[0] == layer}


def pass_metrics(
    tracer: Tracer, wall_s: float, rows: dict[str, str], growth: tuple[str, str]
) -> dict[str, float]:
    """Per-layer metrics of one traced pass, as named in BENCHMARK.json.

    ``rows`` maps a row prefix (e.g. ``l2_m2000``) to the job whose stage times
    it reports, for the ROADMAP baseline table. ``growth`` names the jobs at m
    and 2m whose sig-layer time ratio gives ``sig.growth_exponent``.
    """
    c = tracer.counts
    s = functools.partial(_sum, tracer)
    layer = functools.partial(_layer_keys, tracer)

    def peak_mb(keys):
        return max((t.peak_bytes for (_, k), t in tracer.totals.items() if k in keys), default=0) / MB

    norm_values_s = s("total_s", ["norms.norm_values"])
    vectors = c["norms.vectors"]
    out = {
        "norms.calls": s("calls", ["norms.norm_values"]),
        "norms.self_s": s("self_s", layer("norms")),
        "norms.vectors": vectors,
        "norms.input_mb_computed": c["norms.input_bytes"] / MB,
        "norms.vectors_per_s": vectors / norm_values_s if norm_values_s else 0.0,
        "norms.peak_alloc_mb": peak_mb(layer("norms")),
        "sig.radii_s": s("total_s", ["sig.kth_radii"]),
        "sig.build_s": s("total_s", ["sig.build_ksig"]),
        "sig.aux_s": s("total_s", ["sig.build_aux_graph"]),
        "sig.color_s": s("total_s", ["sig.greedy_color"]),
        "sig.verify_s": s("total_s", ["sig.verify_bounds"]),
        "sig.calls": s("calls", layer("sig")),
        "sig.edges": c["sig.edges"],
        "sig.aux_edges": c["sig.aux_edges"],
        "sig.edge_yield": c["sig.edges"] / c["sig.build_vectors"] if c["sig.build_vectors"] else 0.0,
        "sig.peak_alloc_mb": peak_mb(layer("sig")),
        "lemmas.counting_s": s("total_s", ["lemmas.counting_check"]),
        "lemmas.sweep_s": s("outer_s", layer("lemmas") - {"lemmas.counting_check"}),
        "lemmas.calls": s("calls", layer("lemmas")),
        "lemmas.peak_alloc_mb": peak_mb(layer("lemmas")),
        "packing.search_s": s("total_s", ["packing.greedy_pack"]),
        "packing.validate_s": s("total_s", ["packing.validate_packing"]),
        "packing.candidates": c["packing.candidates"],
        "packing.accepted": c["packing.accepted"],
        "packing.accept_ratio": (
            c["packing.accepted"] / c["packing.candidates"] if c["packing.candidates"] else 0.0
        ),
        "packing.norm_calls": c["packing.norm_calls"],
        "suites.self_s": s("self_s", layer("suites")),
        "suites.oracle_s": s("total_s", ["suites.brute_force_radii", "suites.edges_from_rule"]),
        "suites.instances": c["suites.instances"],
        "suites.checks": c["suites.checks"],
        "io.parse_s": s("total_s", ["io.parse_points"]),
        "io.export_s": s("total_s", ["io.export_graph"]),
        "io.read_s": s("total_s", ["io.read_graph_json"]),
        "io.bytes": c["io.bytes"],
        "cli.self_s": s("self_s", layer("cli")),
    }
    io_s = out["io.parse_s"] + out["io.export_s"] + out["io.read_s"]
    out["io.share"] = io_s / wall_s if wall_s else 0.0

    sig_layer = layer("sig")
    for prefix, job in rows.items():
        out[f"{prefix}.radii_s"] = s("total_s", ["sig.kth_radii"], job)
        out[f"{prefix}.build_s"] = s("total_s", ["sig.build_ksig"], job)
        out[f"{prefix}.aux_color_s"] = s("total_s", ["sig.build_aux_graph", "sig.greedy_color"], job)
        out[f"{prefix}.peak_alloc_mb"] = s("peak_bytes", ["bench.job"], job) / MB
    small, large = (s("outer_s", sig_layer, job) for job in growth)
    out["sig.growth_exponent"] = math.log2(large / small) if small and large else 0.0
    return out
