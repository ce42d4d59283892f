"""In-memory span tracer for the benchmark's traced run.

The tracer wraps the public functions of each layer in every ``eqdesign.*``
module namespace that binds them, so calls made by imported name (``design``
calling ``solve``) are seen too.  A name that no module binds records zero
calls.  Spans are recorded only while an operation is active; the benchmark's
own checks run with no active operation and stay out of the trace.

Each span is a dict with ``id``, ``layer``, ``fn``, ``start``, ``end``
(``time.perf_counter`` seconds, CLOCK_MONOTONIC on Linux, so spans from child
processes share the parent's time base), ``parent`` (span id or ``None``) and
``op`` (operation id), plus per-layer counters.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import statistics
import sys
import time

# Layer name -> public functions it covers.
LAYERS = {
    "io": (
        "load_json",
        "load_game",
        "load_policy",
        "load_reward",
        "load_baseline",
        "reward_to_doc",
        "utility_to_doc",
        "dump_json",
    ),
    "installability": (
        "check",
        "check_markov",
        "check_sce",
        "check_scce",
        "check_sne",
    ),
    "witness": (
        "witness_utility",
        "gamma_ce",
        "gamma_cce",
        "epsilon_witness",
        "markov_witness",
        "epsilon_markov_witness",
    ),
    "design.build": ("build_mg_lp", "build_nfg_lp"),
    "lp": ("solve",),
    "design": ("design",),
    "verify": (
        "check_strict",
        "nfg_oracle",
        "policy_eval",
        "visitation",
        "best_response",
    ),
}

# Per-layer metric names the traced run reports, in BENCHMARK.json order.
PER_LAYER_METRICS = (
    ("lp.solve.self_ms", "ms"),
    ("lp.pivots", "count"),
    ("lp.rows", "count"),
    ("lp.vars", "count"),
    ("lp.ms_per_pivot", "ms"),
    ("lp.nonoptimal", "count"),
    ("design.build.calls", "count"),
    ("design.build.self_ms", "ms"),
    ("design.calls", "count"),
    ("design.self_ms", "ms"),
    ("verify.calls", "count"),
    ("verify.self_ms", "ms"),
    ("installability.calls", "count"),
    ("installability.self_ms", "ms"),
    ("witness.calls", "count"),
    ("witness.self_ms", "ms"),
    ("io.calls", "count"),
    ("io.self_ms", "ms"),
    ("io.bytes_read", "bytes"),
    ("io.bytes_written", "bytes"),
    ("cli.calls", "count"),
    ("cli.wall_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("trace.overhead_share", "share"),
)


class Tracer:
    """Collects spans for the operation set in :attr:`op`."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op = None
        self._stack: list[int] = []
        self._wrapped: dict = {}
        self._wrappers: set = set()
        self._bindings: list = []

    def install(self) -> None:
        """Wrap every traced name in every loaded ``eqdesign`` module."""
        layer_of = {fn: layer for layer, fns in LAYERS.items() for fn in fns}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == "eqdesign" or mod_name.startswith("eqdesign.")
            ):
                continue
            for name, layer in layer_of.items():
                fn = module.__dict__.get(name)
                if not inspect.isfunction(fn) or fn in self._wrappers:
                    continue
                if fn not in self._wrapped:
                    self._wrapped[fn] = self._wrap(layer, name, fn)
                    self._wrappers.add(self._wrapped[fn])
                self._bindings.append((module, name, fn))
                setattr(module, name, self._wrapped[fn])

    def uninstall(self) -> None:
        """Restore the bindings :meth:`install` replaced."""
        for module, name, fn in self._bindings:
            setattr(module, name, fn)
        self._bindings.clear()

    @contextlib.contextmanager
    def activate(self, op_id):
        """Trace one operation: wrappers are in place only inside."""
        self.install()
        self.op = op_id
        try:
            yield
        finally:
            self.end_op()
            self.uninstall()

    def open_span(self, layer: str, fn: str) -> dict:
        span = {
            "id": len(self.spans),
            "layer": layer,
            "fn": fn,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def close_span(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def end_op(self) -> None:
        """Close spans an interrupted operation left open."""
        now = time.perf_counter()
        for span_id in self._stack:
            if self.spans[span_id]["end"] is None:
                self.spans[span_id]["end"] = now
        self._stack.clear()
        self.op = None

    def _wrap(self, layer: str, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            span = tracer.open_span(layer, name)
            if name == "load_json" and args:
                span["bytes_read"] = _file_size(args[0])
            elif name == "solve" and args:
                span["rows"] = len(args[0].constraints)
                span["vars"] = args[0].num_vars
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["status"] = "error"
                raise
            finally:
                tracer.close_span(span)
            if name == "solve":
                span["status"] = result.status.value
                span["pivots"] = result.iterations
            elif name == "dump_json" and (
                len(args) > 1 and args[1] is not None or kwargs.get("target")
            ):
                span["bytes_written"] = len(result.encode("utf-8"))
            return result

        return traced

    def adopt(self, spans: list[dict], parent: dict) -> None:
        """Merge spans recorded in a child process under ``parent``."""
        base = len(self.spans)
        for span in spans:
            span = dict(span)
            span["id"] += base
            span["parent"] = (
                parent["id"] if span["parent"] is None else span["parent"] + base
            )
            span["op"] = parent["op"]
            self.spans.append(span)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [span["end"] - span["start"] for span in spans]
    index = {span["id"]: k for k, span in enumerate(spans)}
    for span in spans:
        if span["parent"] is not None:
            out[index[span["parent"]]] -= span["end"] - span["start"]
    return out


def layer_metrics(
    spans: list[dict], passes: int, import_ms: float, overhead: float
) -> dict:
    """Per-layer metrics per pass over the workload's operation plan."""
    own = self_times(spans)
    calls: dict = {}
    self_ms: dict = {}
    for span, sec in zip(spans, own):
        calls[span["layer"]] = calls.get(span["layer"], 0) + 1
        self_ms[span["layer"]] = self_ms.get(span["layer"], 0.0) + 1e3 * sec
    solves = [s for s in spans if s["layer"] == "lp"]
    pivots = sum(s.get("pivots", 0) for s in solves)
    cli_walls = [
        1e3 * (s["end"] - s["start"]) for s in spans if s["layer"] == "cli"
    ]
    lp_ms = self_ms.get("lp", 0.0)
    values = {
        "lp.solve.self_ms": lp_ms / passes,
        "lp.pivots": pivots / passes,
        "lp.rows": statistics.fmean(s["rows"] for s in solves) if solves else 0,
        "lp.vars": statistics.fmean(s["vars"] for s in solves) if solves else 0,
        "lp.ms_per_pivot": lp_ms / pivots if pivots else 0.0,
        "lp.nonoptimal": sum(s.get("status") != "optimal" for s in solves)
        / passes,
        "io.bytes_read": sum(s.get("bytes_read", 0) for s in spans) / passes,
        "io.bytes_written": sum(s.get("bytes_written", 0) for s in spans)
        / passes,
        "cli.calls": len(cli_walls) / passes,
        "cli.wall_ms": statistics.median(cli_walls) if cli_walls else 0.0,
        "cli.import_ms": import_ms,
        "trace.overhead_share": overhead,
    }
    for layer in ("design.build", "design", "verify", "installability",
                  "witness", "io"):
        values[f"{layer}.calls"] = calls.get(layer, 0) / passes
        values[f"{layer}.self_ms"] = self_ms.get(layer, 0.0) / passes
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit in PER_LAYER_METRICS
    }
