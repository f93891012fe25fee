"""The ``repro-trace`` command: trace cluster runs and export the spans.

Examples::

    repro-trace --measure 400 --chrome traces.json --jsonl spans.jsonl
    repro-trace N2 --sample-rate 0.1 --metrics
    repro-trace srvr1 --no-faults --measure 200 --validate
    python -m repro.obs.cli --jobs 3 --chrome traces.json

Builds the EXT-11 library scenario (``ext11-trace-attribution``) from
the flags and runs it: the section 3.6 designs (default: srvr1, N1, N2)
through the cluster simulator with per-request tracing enabled, by
default under the accelerated fault profile and full degradation stack.
Prints each design's critical-path attribution table and trace digest,
and optionally writes the spans as a Chrome trace-event file (loadable
in Perfetto / ``chrome://tracing``) and as a compact JSONL span log.

Everything is deterministic per seed: rerunning with the same arguments
reproduces the printed digests and the exported files byte-for-byte,
regardless of ``--jobs``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.obs.critical_path import attribute_critical_path, format_attribution
from repro.obs.export import (
    chrome_trace,
    trace_digest,
    validate_chrome_trace,
    write_chrome_trace,
    write_spans_jsonl,
)
from repro.perf.parallel import merge_telemetry

_DESIGNS = ("srvr1", "N1", "N2")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Trace the unified-design clusters and export spans.",
    )
    parser.add_argument(
        "designs",
        nargs="*",
        default=list(_DESIGNS),
        help=f"designs to run (default: {' '.join(_DESIGNS)})",
    )
    parser.add_argument("--servers", type=int, default=6)
    parser.add_argument("--clients", type=int, default=6,
                        help="clients per server")
    parser.add_argument("--warmup", type=int, default=200,
                        help="warmup completions discarded per run")
    parser.add_argument("--measure", type=int, default=1800,
                        help="measured completions per run")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--fault-seed", type=int, default=7)
    parser.add_argument("--sample-rate", type=float, default=1.0,
                        help="head-based sampling probability [0, 1]")
    parser.add_argument("--trace-seed", type=int, default=17,
                        help="sampling hash seed (decorrelates sampling)")
    parser.add_argument(
        "--no-faults",
        action="store_true",
        help="healthy runs (no fault injection or retry stack)",
    )
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (one design each)")
    parser.add_argument("--chrome", metavar="PATH",
                        help="write a Chrome trace-event JSON file")
    parser.add_argument("--jsonl", metavar="PATH",
                        help="write the compact span JSONL log")
    parser.add_argument(
        "--validate",
        action="store_true",
        help="schema-check the Chrome trace document (CI smoke gate)",
    )
    parser.add_argument("--metrics", action="store_true",
                        help="print the labeled metrics registry")
    args = parser.parse_args(argv)

    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    unknown = [d for d in args.designs if d not in _DESIGNS]
    if unknown:
        parser.error(
            f"unknown design(s) {', '.join(unknown)}; "
            f"choose from {', '.join(_DESIGNS)}"
        )
    # Imported here so ``repro-trace --help`` stays instant and the obs
    # package never hard-depends on the scenario layer.
    from repro.scenario import ScenarioValidationError, run_scenario
    from repro.scenario.library import ext11_trace_attribution

    try:
        scenario = ext11_trace_attribution(
            servers=args.servers,
            clients_per_server=args.clients,
            warmup=args.warmup,
            measure=args.measure,
            seed=args.seed,
            fault_seed=args.fault_seed,
            sample_rate=args.sample_rate,
            trace_seed=args.trace_seed,
            designs=args.designs,
            faults=not args.no_faults,
        )
    except ScenarioValidationError as exc:
        parser.error(str(exc))
    records = run_scenario(scenario, jobs=args.jobs).runs

    groups = [(record.tier, record.tracer.traces) for record in records]
    for record in records:
        name = record.tier
        tracer = record.tracer
        completed = tracer.completed_traces()
        print(f"=== {name} ===")
        print(
            f"requests={tracer.requests_seen} traces={len(tracer.traces)} "
            f"completed={len(completed)} "
            f"digest={trace_digest([(name, tracer.traces)])[:16]}"
        )
        result = record.result
        print(
            f"{result.per_server_rps:.1f} rps/server, "
            f"p95 {result.qos_percentile_ms:.0f} ms, "
            f"p99 {result.p99_ms:.0f} ms"
        )
        print(format_attribution(attribute_critical_path(completed)))
        if args.metrics:
            print(record.metrics.render())
        print()

    if args.metrics and len(records) > 1:
        combined = merge_telemetry(record.metrics for record in records)
        print("=== combined (all designs, lossless merge) ===")
        print(combined.render())
        print()

    if args.jsonl:
        write_spans_jsonl(groups, args.jsonl)
        print(f"wrote span log: {args.jsonl}")
    if args.chrome:
        write_chrome_trace(groups, args.chrome)
        print(f"wrote Chrome trace: {args.chrome}")
    if args.validate:
        if args.chrome:
            with open(args.chrome, encoding="utf-8") as handle:
                document = json.load(handle)
        else:
            document = chrome_trace(groups)
        problems = validate_chrome_trace(document)
        if problems:
            for problem in problems:
                print(f"invalid Chrome trace: {problem}", file=sys.stderr)
            return 1
        print("Chrome trace document is valid")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via console script
    sys.exit(main())
