"""Spans and counts around floworder's module functions, for the traced run.

The tracer replaces module attributes with timing wrappers while a traced
round runs and puts the originals back afterwards; the program itself
carries no instrumentation. Each call records a span (name, start, end,
parent span) in memory. A layer's time is its self time: the span's
duration minus that of the traced calls made inside it, so a faster rate
table build shows in `model.rate_tables_s` and not in the layer above it.
`expr` and `tandem` run inside model parsing, and `rng` inside the
simulators; no command reaches `stateflow`.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

# (metric, unit, better); the order is the order of the printout.
PER_LAYER = (
    ("model.parse_s", "s", "lower"),
    ("model.rate_tables_s", "s", "lower"),
    ("model.digest_s", "s", "lower"),
    ("ctmc.generator_s", "s", "lower"),
    ("ctmc.generator_nnz", "count", "lower"),
    ("ctmc.stationary_s", "s", "lower"),
    ("ctmc.transient_s", "s", "lower"),
    ("ctmc.mean_flow_s", "s", "lower"),
    ("ctmc.mean_flow_points", "count", "lower"),
    ("ctmc.simulate_events_per_s", "events/s", "higher"),
    ("ctmc.event_csv_s", "s", "lower"),
    ("coupling.simulate_events_per_s", "events/s", "higher"),
    ("coupling.paired_csv_s", "s", "lower"),
    ("ordering.flow_conditions_s", "s", "lower"),
    ("ordering.population_conditions_s", "s", "lower"),
    ("ordering.pairs_scanned", "count", "lower"),
    ("ordering.closure_s", "s", "lower"),
    ("ordering.closure_checked", "count", "lower"),
    ("ordering.pathwise_s", "s", "lower"),
    ("ordering.mean_order_s", "s", "lower"),
    ("cli.write_s", "s", "lower"),
    ("cli.report_bytes", "bytes", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)

_RATES = {
    "ctmc.simulate_events_per_s": ("ctmc.simulate_events", "ctmc.simulate"),
    "coupling.simulate_events_per_s": ("coupling.simulate_events", "coupling.simulate"),
}


def _pairs(args, result):
    return {"ordering.pairs_scanned": len(args[0].states) * len(args[1].states)}


def _written(args, result):
    return {"cli.report_bytes": os.path.getsize(args[0])}


def _targets():
    """(owner, attribute, span name, counter) for every traced call site.

    Functions are patched where the caller looks them up: `cli` imports
    most of them by name, `tandem` imports parse_model, `ordering` imports
    transient_mean_flow, and ctmc calls its own build_generator and
    transient_distribution.
    """
    from floworder import cli, ctmc, model, ordering, tandem

    def nnz(args, result):
        return {"ctmc.generator_nnz": result.matrix.nnz}

    return (
        (tandem, "parse_model", "model.parse", None),
        (model, "parse_model", "model.parse", None),
        (model.NetworkSpec, "rate_table", "model.rate_tables", None),
        (model.NetworkSpec, "rate_vector", "model.rate_tables", None),
        (cli, "model_digest", "model.digest", None),
        (cli, "build_generator", "ctmc.generator", nnz),
        (ctmc, "build_generator", "ctmc.generator", nnz),
        (cli, "stationary_distribution", "ctmc.stationary", None),
        (ctmc, "transient_distribution", "ctmc.transient", None),
        (ordering, "transient_mean_flow", "ctmc.mean_flow",
         lambda args, result: {"ctmc.mean_flow_points": 1}),
        (cli, "simulate_path", "ctmc.simulate",
         lambda args, result: {"ctmc.simulate_events": len(result.events)}),
        (cli, "event_log_csv", "ctmc.event_csv", None),
        (cli, "simulate_coupled", "coupling.simulate",
         lambda args, result: {"coupling.simulate_events": len(result.events)}),
        (cli, "paired_log_csv", "coupling.paired_csv", None),
        (cli, "check_flow_conditions", "ordering.flow_conditions", _pairs),
        (cli, "check_population_conditions", "ordering.population_conditions", _pairs),
        (cli, "verify_tight_configurations", "ordering.closure",
         lambda args, result: {"ordering.closure_checked": result.checked}),
        (cli, "pathwise_flow_order_check", "ordering.pathwise", None),
        (cli, "mean_order_check", "ordering.mean_order", None),
        (cli, "_write_json", "cli.write", _written),
        (cli, "_write_csv", "cli.write", _written),
    )


class Tracer:
    """In-memory spans and counts; `installed()` patches, `restore()` unpatches."""

    def __init__(self):
        self.spans: list = []  # span id -> (name, start, end, parent id)
        self._stack: list = []  # open spans: [id, time covered by child spans]
        self._saved: list = []
        self.self_time: dict = defaultdict(float)
        self.counts: dict = defaultdict(float)

    def wrap(self, name, fn, counter=None):
        spans, stack, self_time = self.spans, self._stack, self.self_time

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[frame[0]] = (name, start, end, parent[0] if parent else None)
                if parent is not None:
                    parent[1] += end - start
                self_time[name] += end - start - frame[1]
            if counter is not None:
                for key, value in counter(args, result).items():
                    self.counts[key] += value
            return result

        return traced

    def span(self, name, fn, *args):
        """Call fn(*args) inside a span of its own (rounds and invocations)."""
        return self.wrap(name, fn)(*args)

    def install(self):
        for owner, attr, name, counter in _targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, counter))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take(self) -> tuple[dict, dict]:
        """Self times and counts since the last take."""
        taken = dict(self.self_time), dict(self.counts)
        self.self_time.clear()
        self.counts.clear()
        return taken

    def write(self, path: str, meta: dict, rounds: list):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta}) + "\n")
            for sid, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "start": start, "end": end}) + "\n")
            for r, (self_time, counts) in rounds:
                fh.write(json.dumps({"round": r, "self_s": self_time, "counts": counts}) + "\n")


def layer_metrics(self_time: dict, counts: dict) -> dict:
    """Per-layer metrics of one traced round (trace.overhead_pct is added by the runner)."""
    out = {}
    for name, unit, _ in PER_LAYER:
        if name in _RATES:
            events, span = _RATES[name]
            busy = self_time.get(span, 0.0)
            out[name] = counts.get(events, 0.0) / busy if busy > 0 else 0.0
        elif unit == "s":
            out[name] = self_time.get(name[: -len("_s")], 0.0)
        elif name != "trace.overhead_pct":
            out[name] = counts.get(name, 0.0)
    return out
