"""Outside-in tracing of the tomoreduce package, installed from the benchmark.

Every public function of every ``tomoreduce`` module is replaced by a wrapper
that records a span (name, start, end, parent) and then calls the original.
The wrapper is bound wherever the original was: in the defining module and in
every other ``tomoreduce.*`` namespace that imported it, because callers look
the name up in their own module's globals. ``DensityMatrix.__post_init__`` is
wrapped on the class, since the dataclass ``__init__`` calls it through the
instance. Spans are kept in flat arrays and aggregated after the run.
"""

from __future__ import annotations

import sys
import time
import types
from array import array
from collections import defaultdict
from typing import Any, Callable

import numpy as np

# Counters fed from a wrapped call's arguments or result: (args, kwargs, result) -> amount.
_COUNTERS: dict[str, dict[str, Callable[[tuple, dict, Any], int]]] = {
    "measurement.sample_shots": {
        "measurement.copies_sampled": lambda a, k, res: int(k.get("shots", a[2] if len(a) > 2 else 0)),
    },
    "reduction.proposition_search": {
        "reduction.triples_checked": lambda a, k, res: int(res.checked),
    },
    "harness.write_records": {
        "harness.records": lambda a, k, res: len(a[0]),
    },
}

POST_INIT_SPAN = "states.DensityMatrix.__post_init__"

# The per-layer metrics of BENCHMARK.json and their units. Counts and times
# are per traced round; harness.record_bytes and trace.overhead are filled in
# by run.py from the record files and the round times.
LAYER_UNITS = {
    "tomography.calibration_evals": "count",
    "tomography.calibration_yield": "1/eval",
    "tomography.oracle_mixed.calls": "count",
    "tomography.oracle_mixed.self_s": "s",
    "tomography.oracle_pure.s": "s",
    "states.fidelity_mixed.calls": "count",
    "states.fidelity_mixed.s": "s",
    "states.density_matrix.builds": "count",
    "states.density_matrix.validate_s": "s",
    "tomography.inversion_mixed.self_s": "s",
    "tomography.inversion_pure.self_s": "s",
    "states.haar_unitary.calls": "count",
    "states.haar_unitary.s": "s",
    "measurement.sample_shots.s": "s",
    "measurement.copies_sampled": "count",
    "measurement.projection.s": "s",
    "tomography.oracle_trace.self_s": "s",
    "states.trace_distance.calls": "count",
    "states.trace_distance.s": "s",
    "reduction.gentle.self_s": "s",
    "reduction.prop_search.s": "s",
    "reduction.triples_checked": "count",
    "reduction.run_reduction.calls": "count",
    "reduction.run_reduction.self_s": "s",
    "states.partial_trace.s": "s",
    "seeding.child_seed.calls": "count",
    "seeding.child_seed.s": "s",
    "harness.run_experiment.self_s": "s",
    "harness.write_records.s": "s",
    "harness.records": "count",
    "harness.record_bytes": "B",
    "trace.overhead": "ratio",
}


class Tracer:
    """Span recorder plus the bindings it replaced, so it can be removed again."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counters: dict[str, int] = defaultdict(int)
        self._replaced: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        counters = _COUNTERS.get(name, {})
        clock = time.perf_counter
        stack = self._stack
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        totals = self.counters

        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1])
            span_start.append(0.0)
            span_end.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[idx] = clock()
                span_start[idx] = start
                stack.pop()
            for counter, amount in counters.items():
                totals[counter] += amount(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if isinstance(mod, types.ModuleType) and (name == "tomoreduce" or name.startswith("tomoreduce."))
        }
        wrappers: dict[int, Callable] = {}
        for mod_name, mod in modules.items():
            if mod_name == "tomoreduce":
                continue
            short = mod_name.split(".", 1)[1]
            public = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
            for attr in public:
                fn = getattr(mod, attr, None)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod_name:
                    wrappers[id(fn)] = self._wrap(f"{short}.{attr}", fn)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._replaced.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        density = modules["tomoreduce.states"].DensityMatrix
        original = density.__dict__["__post_init__"]
        self._replaced.append((density, "__post_init__", original))
        density.__post_init__ = self._wrap(POST_INIT_SPAN, original)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._replaced):
            setattr(owner, attr, original)
        self._replaced.clear()

    def aggregate(self) -> tuple[dict[str, dict[str, float]], dict[tuple[str, str], int]]:
        """Calls, total time and self time per span name, and the number of
        calls of each span name made directly from each other span name.

        Self time is a span's duration minus the durations of its direct
        children. Calls are nested, never concurrent, so the children of one
        span do not overlap and their durations add up to the part of the
        parent's interval they cover.
        """
        names = np.asarray(self.span_name, dtype=np.int64)
        parents = np.asarray(self.span_parent, dtype=np.int64)
        duration = np.asarray(self.span_end) - np.asarray(self.span_start)
        has_parent = parents >= 0
        child_time = np.bincount(parents[has_parent], weights=duration[has_parent], minlength=names.size)
        self_time = duration - child_time
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=duration, minlength=k)
        self_total = np.bincount(names, weights=self_time, minlength=k)
        table = {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_total[i])}
            for i, name in enumerate(self.names)
        }
        pairs, counts = np.unique(
            names[has_parent] * k + names[parents[has_parent]], return_counts=True
        )
        edges = {
            (self.names[int(p) // k], self.names[int(p) % k]): int(c) for p, c in zip(pairs, counts)
        }
        return table, edges


def layer_metrics(tracer: Tracer, rounds: int) -> tuple[dict[str, float], dict[str, dict[str, float]]]:
    """The per-layer metrics of BENCHMARK.json, per traced round, and the
    full span table they were taken from."""
    table, edges = tracer.aggregate()

    def get(span: str, key: str) -> float:
        return table.get(span, {}).get(key, 0)

    def child(span: str, parent: str) -> int:
        return edges.get((span, parent), 0)

    # Discrepancy evaluations: the fidelity or trace-distance calls an oracle
    # estimator makes itself while it calibrates.
    evals = child("states.fidelity_mixed", "tomography.oracle_mixed_estimate") + child(
        "states.trace_distance", "tomography.oracle_trace_distance_estimate"
    )
    estimates = get("tomography.oracle_mixed_estimate", "calls") + get(
        "tomography.oracle_trace_distance_estimate", "calls"
    )
    raw = {
        "tomography.calibration_evals": evals,
        "tomography.oracle_mixed.calls": get("tomography.oracle_mixed_estimate", "calls"),
        "tomography.oracle_mixed.self_s": get("tomography.oracle_mixed_estimate", "self_s"),
        "tomography.oracle_pure.s": get("tomography.oracle_pure_estimate", "total_s"),
        "states.fidelity_mixed.calls": get("states.fidelity_mixed", "calls"),
        "states.fidelity_mixed.s": get("states.fidelity_mixed", "total_s"),
        "states.density_matrix.builds": get(POST_INIT_SPAN, "calls"),
        "states.density_matrix.validate_s": get(POST_INIT_SPAN, "total_s"),
        "tomography.inversion_mixed.self_s": get("tomography.estimate_mixed_state_from_measurements", "self_s"),
        "tomography.inversion_pure.self_s": get("tomography.estimate_pure_state_from_measurements", "self_s"),
        "states.haar_unitary.calls": get("states.haar_random_unitary", "calls"),
        "states.haar_unitary.s": get("states.haar_random_unitary", "total_s"),
        "measurement.sample_shots.s": get("measurement.sample_shots", "total_s"),
        "measurement.copies_sampled": tracer.counters["measurement.copies_sampled"],
        "measurement.projection.s": get("measurement.outcome_probability", "total_s")
        + get("measurement.project_and_renormalize", "total_s"),
        "tomography.oracle_trace.self_s": get("tomography.oracle_trace_distance_estimate", "self_s"),
        "states.trace_distance.calls": get("states.trace_distance", "calls"),
        "states.trace_distance.s": get("states.trace_distance", "total_s"),
        "reduction.gentle.self_s": get("reduction.gentle_measurement_experiment", "self_s"),
        "reduction.prop_search.s": get("reduction.proposition_search", "total_s"),
        "reduction.triples_checked": tracer.counters["reduction.triples_checked"],
        "reduction.run_reduction.calls": get("reduction.run_reduction", "calls"),
        "reduction.run_reduction.self_s": get("reduction.run_reduction", "self_s"),
        "states.partial_trace.s": get("states.partial_trace_x", "total_s"),
        "seeding.child_seed.calls": get("seeding.child_seed", "calls"),
        "seeding.child_seed.s": get("seeding.child_seed", "total_s"),
        "harness.run_experiment.self_s": get("harness.run_experiment", "self_s"),
        "harness.write_records.s": get("harness.write_records", "total_s"),
        "harness.records": tracer.counters["harness.records"],
    }
    metrics = {name: value / rounds for name, value in raw.items()}
    metrics["tomography.calibration_yield"] = estimates / evals if evals else 0.0
    return metrics, table
