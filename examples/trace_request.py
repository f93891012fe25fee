"""Trace requests through a faulted cluster and read the bill.

The scalar cluster results say *how slow* the tail is; the tracing layer
(`repro.obs`) says *where the milliseconds went*.  This example runs a
small N2 cluster (remote-memory blade + flash cache) under accelerated
fault injection with every request traced, then:

1. prints the p50/p95/p99 critical-path attribution table -- each row
   charges 100% of the tail's latency to queue/cpu/mem/remote_mem/
   flash/disk/net/retry/other;
2. prints the labeled metrics the instrumented components recorded;
3. dumps one slow request's span tree, indented, so the structure --
   attempts, hedges, queue gaps, typed service spans -- is visible;
4. writes `trace_request.chrome.json`, loadable in Perfetto
   (https://ui.perfetto.dev) or chrome://tracing for the full timeline.

Tracing consumes no RNG state and adds no simulated events: rerun this
with `TRACED = False` and the printed cluster numbers do not change.

Run:  python examples/trace_request.py
"""

from repro.cluster import ClusterSimulator, RetryPolicy
from repro.faults import STRESS_FAULT_PROFILE
from repro.flashcache.analysis import disk_configuration
from repro.memsim.remote_memory import make_remote_memory_model
from repro.obs import (
    MetricsRegistry,
    Tracer,
    attribute_critical_path,
    format_attribution,
    write_chrome_trace,
)
from repro.platforms import platform
from repro.workloads import make_workload

BENCH = "websearch"
CHROME_OUT = "trace_request.chrome.json"


def print_span_tree(trace) -> None:
    """One request's spans, indented by parent/child depth."""
    by_parent = {}
    for span in trace.spans:
        by_parent.setdefault(span.parent_id, []).append(span)

    def walk(span, depth):
        flag = "" if span.critical else "  [off critical path]"
        print(
            f"  {'  ' * depth}{span.kind}:{span.name}  "
            f"{span.start_ms:.1f} -> {span.end_ms:.1f} ms "
            f"({span.duration_ms:.2f} ms){flag}"
        )
        for child in by_parent.get(span.span_id, []):
            walk(child, depth + 1)

    walk(trace.root, 0)


def main() -> None:
    config = disk_configuration("remote-laptop+flash")
    tracer = Tracer(sample_rate=1.0, seed=17)
    metrics = MetricsRegistry()
    result = ClusterSimulator(
        platform("srvr1"),
        make_workload(BENCH),
        servers=4,
        clients_per_server=5,
        seed=1,
        warmup_requests=100,
        measure_requests=900,
        remote_memory=make_remote_memory_model(
            BENCH, local_fraction=0.25, trace_length=100_000
        ),
        disk_spec=config.disk_spec(BENCH),
        faults=STRESS_FAULT_PROFILE,
        fault_seed=7,
        retry=RetryPolicy(
            timeout_ms=500.0, max_retries=3, backoff_base_ms=20.0,
            hedge_after_ms=250.0,
        ),
        enclosure_size=4,
        tracer=tracer,
        metrics=metrics,
    ).run()

    completed = tracer.completed_traces()
    print(
        f"cluster: {result.per_server_rps:.1f} rps/server, "
        f"p95 {result.qos_percentile_ms:.0f} ms, p99 {result.p99_ms:.0f} ms; "
        f"{len(completed)} of {len(tracer.traces)} traces completed\n"
    )

    print("critical-path attribution (rows sum to 100%):")
    print(format_attribution(attribute_critical_path(completed)))

    print("\nlabeled metrics:")
    print(metrics.render())

    slowest = max(completed, key=lambda t: t.duration_ms)
    print(
        f"\nslowest request (trace {slowest.trace_id}, "
        f"{slowest.duration_ms:.1f} ms end to end):"
    )
    print_span_tree(slowest)

    write_chrome_trace([("n2-faulted", tracer.traces)], CHROME_OUT)
    print(f"\nwrote {CHROME_OUT} -- open it at https://ui.perfetto.dev")


if __name__ == "__main__":
    main()
