"""Outside-in layer tracing for the benchmark.

The benchmark measures the package from outside ``src/``: it wraps the
public entry point of each layer, records one span per call, and derives
the per-layer metrics from those spans.  Nothing inside the package is
edited, so the traced code is byte-for-byte the code being measured.

A span has a name, a start, an end, the span that was open when it began
(its parent), and the id of the benchmark operation it belongs to.  A
layer's self time is its span's duration minus the part of that interval
its child spans cover.  Each operation runs inside a top-level span whose
self time is reported as ``unattributed.self_s``, so the self times sum
to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    op: Optional[str] = None
    attrs: Dict[str, Any] = field(default_factory=dict)


class Recorder:
    """Collects spans in memory; nothing is written until :meth:`dump`."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op: Optional[str] = None
        self._open: List[int] = []

    def wrap(self, name: str, fn: Callable,
             note: Optional[Callable] = None) -> Callable:
        """``fn`` with a span around every call.

        ``note(span, args, kwargs, result)`` runs after the span closes
        and may rename the span or attach counts to ``span.attrs``.
        """
        spans, open_stack, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, clock(),
                        parent=open_stack[-1] if open_stack else None,
                        op=self.op)
            open_stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                open_stack.pop()
            if note is not None:
                note(span, args, kwargs, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": span.name, "start": span.start,
                    "end": span.end, "parent": span.parent, "op": span.op,
                    **span.attrs,
                }, sort_keys=True) + "\n")


def _covered(intervals: Sequence[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the time its direct children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        (span.end - span.start) - _covered(children.get(index, ()))
        for index, span in enumerate(spans)
    ]


# ---------------------------------------------------------------------------
# Installing wrappers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``module``'s ``qualname`` (a function or a
    ``Class.method``) recorded under span ``name``."""

    name: str
    module: str
    qualname: str
    note: Optional[Callable] = None


def install(recorder: Recorder, targets: Sequence[Target],
            package: str = "repro") -> Tuple[Callable[[], None], List[str]]:
    """Wrap every target; return ``(uninstall, missing)``.

    A function is replaced where it is defined *and* in every already
    imported ``package`` module whose global refers to it, so by-name
    imports (``from x import f``) are traced too.  Modules imported later
    read the wrapped attribute.  A target whose module or attribute no
    longer exists is listed in ``missing`` and simply records no calls.
    """
    undo: List[Tuple[Any, str, Any]] = []
    missing: List[str] = []
    for target in targets:
        try:
            owner: Any = importlib.import_module(target.module)
        except ImportError:
            missing.append(f"{target.module}.{target.qualname}")
            continue
        path = target.qualname.split(".")
        for part in path[:-1]:
            owner = getattr(owner, part, None)
        attr = path[-1]
        original = getattr(owner, attr, None)
        if original is None or not callable(original):
            missing.append(f"{target.module}.{target.qualname}")
            continue
        wrapper = recorder.wrap(target.name, original, target.note)
        undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        if len(path) > 1:
            continue  # a method: every caller reaches it through the class
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                    mod_name == package or mod_name.startswith(package + ".")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, key, original))
                    setattr(module, key, wrapper)

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall, missing


# ---------------------------------------------------------------------------
# This repository's layers
# ---------------------------------------------------------------------------


def _note_experiment(span, args, kwargs, result):
    span.attrs["experiment"] = args[0] if args else kwargs.get("name")


def _note_sweep(span, args, kwargs, result):
    span.attrs["evaluations"] = getattr(result, "evaluations", 0)


def _note_des(span, args, kwargs, result):
    config = getattr(args[0], "_config", None)
    span.attrs["requests"] = (getattr(config, "warmup_requests", 0)
                              + getattr(result, "measured_requests", 0))


def _note_cluster(span, args, kwargs, result):
    sim = args[0]
    # A simulator that no longer reports an engine has only one left,
    # the packed-event (cohort) lifecycle.
    engine = getattr(sim, "engine_used", "cohort")
    span.name = "cluster.scalar" if engine == "scalar" else "cluster.cohort"
    span.attrs["requests"] = sum(getattr(result, "server_completions", ()))
    span.attrs["fallback"] = getattr(sim, "fallback_reason", None) is not None


def _note_execute(span, args, kwargs, result):
    span.attrs["runs"] = len(getattr(result, "runs", ()))


def _note_export(span, args, kwargs, result):
    span.attrs["bytes"] = os.path.getsize(result) if isinstance(result, str) else 0
    if span.name == "obs.write_spans_jsonl" and args:
        span.attrs["spans"] = sum(
            len(trace.spans) for _, traces in args[0] for trace in traces)


#: The span the harness opens around each benchmark operation; its self
#: time is the traced time no layer claims.
OP_SPAN = "unattributed"

#: The wrapped entry point of each layer.
TARGETS = (
    Target("experiments.run_experiment", "repro.experiments.runner",
           "run_experiment", _note_experiment),
    Target("experiments.render", "repro.experiments.reporting",
           "ExperimentResult.render"),
    Target("core.evaluate_designs", "repro.core.analysis", "evaluate_designs"),
    Target("costmodel.breakdown", "repro.costmodel.tco", "TcoModel.breakdown"),
    Target("workloads.make_workload", "repro.workloads.suite", "make_workload"),
    Target("workloads.calibration_factors", "repro.workloads._calibrate",
           "calibration_factors"),
    Target("sweep.find_peak", "repro.simulator.sweep", "QosSweep.find_peak",
           _note_sweep),
    Target("simulator.run", "repro.simulator.server_sim",
           "ServerSimulator.run", _note_des),
    Target("cluster.run", "repro.cluster.balancer", "ClusterSimulator.run",
           _note_cluster),
    Target("scenario.cli", "repro.scenario.cli", "main"),
    Target("scenario.load", "repro.scenario.loader", "load_scenario"),
    Target("scenario.compile", "repro.scenario.compiler", "compile_scenario"),
    Target("scenario.execute", "repro.scenario.compiler",
           "CompiledScenario.execute", _note_execute),
    Target("memsim.make_remote_memory_model", "repro.memsim.remote_memory",
           "make_remote_memory_model"),
    Target("obs.write_spans_jsonl", "repro.obs.export", "write_spans_jsonl",
           _note_export),
    Target("obs.write_chrome_trace", "repro.obs.export", "write_chrome_trace",
           _note_export),
)

#: Experiments whose inclusive time is reported as ``experiments.<name>.s``.
TIMED_EXPERIMENTS = ("figure2", "table3", "figure5", "validation")

#: Span names whose self time is reported as ``<name>.self_s``.
SELF_TIMED = (
    "workloads.calibration_factors", "workloads.make_workload",
    "simulator.run", "sweep.find_peak", "core.evaluate_designs",
    "costmodel.breakdown", "experiments.run_experiment", "experiments.render",
    "cluster.cohort", "cluster.scalar", "scenario.cli", "scenario.load",
    "scenario.compile", "scenario.execute", "memsim.make_remote_memory_model",
    "obs.write_spans_jsonl", "obs.write_chrome_trace", OP_SPAN,
)

def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: Sequence[Span]) -> Dict[str, float]:
    """The span-derived per-layer metrics of one traced run, whose
    operations each ran inside an ``OP_SPAN`` span.

    ``perf.jobs2_wall_s`` and ``trace.overhead_ratio`` need other runs;
    the caller adds them.
    """
    own = self_times(spans)
    calls: Dict[str, int] = {}
    self_s: Dict[str, float] = {}
    attr_sum: Dict[Tuple[str, str], float] = {}
    for span, seconds in zip(spans, own):
        calls[span.name] = calls.get(span.name, 0) + 1
        self_s[span.name] = self_s.get(span.name, 0.0) + seconds
        for key, value in span.attrs.items():
            if isinstance(value, (int, float)):
                attr_sum[span.name, key] = attr_sum.get((span.name, key), 0) + value

    def total(name: str, key: str) -> float:
        return attr_sum.get((name, key), 0)

    def under_sweep(index: int) -> bool:
        parent = spans[index].parent
        while parent is not None:
            if spans[parent].name == "sweep.find_peak":
                return True
            parent = spans[parent].parent
        return False

    metrics: Dict[str, float] = {}
    for name in SELF_TIMED:
        metrics[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in ("workloads.calibration_factors", "workloads.make_workload",
                 "simulator.run", "sweep.find_peak", "core.evaluate_designs",
                 "costmodel.breakdown", "memsim.make_remote_memory_model"):
        metrics[f"{name}.calls"] = calls.get(name, 0)
    metrics["simulator.requests"] = total("simulator.run", "requests")
    metrics["simulator.us_per_request"] = 1e6 * _ratio(
        self_s.get("simulator.run", 0.0), metrics["simulator.requests"])
    evaluations = total("sweep.find_peak", "evaluations")
    des_runs = sum(1 for i, span in enumerate(spans)
                   if span.name == "simulator.run" and under_sweep(i))
    metrics["sweep.evaluations"] = evaluations
    metrics["sweep.des_runs"] = des_runs
    metrics["sweep.memo_hit_ratio"] = _ratio(evaluations - des_runs, evaluations)
    for name in TIMED_EXPERIMENTS:
        metrics[f"experiments.{name}.s"] = sum(
            span.end - span.start for span in spans
            if span.name == "experiments.run_experiment"
            and span.attrs.get("experiment") == name)
    for engine in ("cohort", "scalar"):
        name = f"cluster.{engine}"
        metrics[f"{name}.runs"] = calls.get(name, 0)
        metrics[f"{name}.requests"] = total(name, "requests")
        metrics[f"{name}.us_per_request"] = 1e6 * _ratio(
            self_s.get(name, 0.0), metrics[f"{name}.requests"])
    cluster_runs = calls.get("cluster.cohort", 0) + calls.get("cluster.scalar", 0)
    metrics["cluster.fallback_ratio"] = _ratio(
        total("cluster.cohort", "fallback") + total("cluster.scalar", "fallback"),
        cluster_runs)
    metrics["scenario.runs"] = total("scenario.execute", "runs")
    metrics["obs.spans_written"] = total("obs.write_spans_jsonl", "spans")
    metrics["obs.bytes_written"] = (total("obs.write_spans_jsonl", "bytes")
                                    + total("obs.write_chrome_trace", "bytes"))
    metrics["trace.wall_s"] = sum(
        span.end - span.start for span in spans if span.name == OP_SPAN)
    return metrics
