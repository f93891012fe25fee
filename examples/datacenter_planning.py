"""Datacenter planning: size a fleet for a target aggregate throughput.

The warehouse-computing question the paper motivates: given a service
that must sustain N requests/second in aggregate, which building block
(srvr1 / desk / emb1 / the unified N2 design) minimizes total cost of
ownership, power, and rack count?

The fleet model follows the paper's scale-out assumption: cluster
throughput is the aggregation of single-server throughputs (section 4
discusses the Amdahl's-law caveat).

Run:  python examples/datacenter_planning.py
"""

import math

from repro.core.designs import baseline_design, n2_design
from repro.simulator import measure_performance
from repro.workloads import make_workload

#: Target aggregate websearch load for the service, requests/second.
TARGET_RPS = 50_000.0


def plan(design, bench: str = "websearch"):
    """Fleet size, cost, power, and racks for one building block."""
    workload = make_workload(bench)
    perf = measure_performance(
        design.platform,
        workload,
        disk_spec=design.disk_model_for(bench),
        memory_slowdown=design.memory_slowdown,
    )
    servers = math.ceil(TARGET_RPS / perf.throughput_rps)
    breakdown = design.tco_breakdown()
    rack = design.rack()
    racks = math.ceil(servers / rack.servers_per_rack)
    return {
        "design": design.name,
        "per_server_rps": perf.throughput_rps,
        "servers": servers,
        "racks": racks,
        "fleet_tco_usd": servers * breakdown.total_usd,
        "fleet_power_kw": servers * breakdown.consumed_power_w / 1000.0,
    }


def main() -> None:
    designs = [
        baseline_design("srvr1"),
        baseline_design("desk"),
        baseline_design("emb1"),
        n2_design(),
    ]
    print(f"Fleet plan for {TARGET_RPS:,.0f} websearch req/s aggregate\n")
    header = (f"{'design':<8} {'req/s/srv':>10} {'servers':>9} {'racks':>7} "
              f"{'fleet TCO':>14} {'power':>9}")
    print(header)
    print("-" * len(header))
    plans = [plan(d) for d in designs]
    for p in plans:
        print(
            f"{p['design']:<8} {p['per_server_rps']:>10.1f} {p['servers']:>9,} "
            f"{p['racks']:>7,} ${p['fleet_tco_usd']:>12,.0f} "
            f"{p['fleet_power_kw']:>7.1f}kW"
        )

    best = min(plans, key=lambda p: p["fleet_tco_usd"])
    baseline = next(p for p in plans if p["design"] == "srvr1")
    saving = 1.0 - best["fleet_tco_usd"] / baseline["fleet_tco_usd"]
    print(
        f"\nCheapest fleet: {best['design']} "
        f"({saving:.0%} lower TCO than srvr1 for the same throughput)"
    )


if __name__ == "__main__":
    main()
