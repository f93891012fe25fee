"""Compare two benchmark result files.

    python3 bench/compare.py A.json B.json

A is the parent, B the change; both are written by ``bench/run.py``.  For
every (metric, workload) row it prints each side's median and quartiles,
the share of run pairs each side wins, and a verdict, by the bounds in
``BENCHMARK.json``:

- ``regressed``: B's median is worse than A's by more than the bound;
- ``unresolved``: a side's spread (quartile distance over median) is wider
  than the bound, so the runs cannot tell a change from noise -- unless
  every run of B beats every run of A;
- ``improved``: B wins at least nine tenths of the run pairs and the
  medians differ by more than A's quartile distance; this needs at least
  ten runs on each side;
- ``unchanged``: none of these.

Exit status 1 when any row regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

REPO = Path(__file__).resolve().parent.parent
#: Fewest runs per side before a gain may be claimed.
MIN_RUNS_FOR_GAIN = 10
#: Rows compared as single values with an absolute bound: the fidelity
#: numbers are deterministic per seed (the in-band count may not drop, the
#: mean delta may rise 0.5 pp) and no operation may newly fail.
EXACT_ROWS = {
    "validation_in_band": ("higher", 0.0),
    "validation_mean_abs_pp": ("lower", 0.5),
    "error_rate": ("lower", 0.0),
}


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: float) -> Tuple[str, float, float]:
    """``(verdict, b_wins, a_wins)`` for one row; wins are shares of every
    (A run, B run) pair."""
    sign = 1.0 if better == "lower" else -1.0
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    worse_by = sign * (b_med - a_med) / a_med if a_med else 0.0
    pairs = [(x, y) for x in a for y in b]
    b_wins = sum(1 for x, y in pairs if sign * (y - x) < 0) / len(pairs)
    a_wins = sum(1 for x, y in pairs if sign * (y - x) > 0) / len(pairs)
    enough = min(len(a), len(b)) >= MIN_RUNS_FOR_GAIN
    spread = max((a_q3 - a_q1) / a_med if a_med else 0.0,
                 (b_q3 - b_q1) / b_med if b_med else 0.0)
    if spread > bound:
        result = "improved" if enough and b_wins == 1.0 else "unresolved"
    elif worse_by > bound:
        result = "regressed"
    elif enough and b_wins >= 0.9 and abs(b_med - a_med) > a_q3 - a_q1:
        result = "improved"
    else:
        result = "unchanged"
    return result, b_wins, a_wins


def exact_verdict(a: float, b: float, better: str, bound: float) -> str:
    worse_by = (b - a) if better == "lower" else (a - b)
    if worse_by > bound:
        return "regressed"
    return "improved" if worse_by < 0 else "unchanged"


def describe(meta: dict) -> str:
    load = meta.get("loadavg_before", ["?"])[0], meta.get("loadavg_after", ["?"])[0]
    return (f"commit {meta.get('git_commit', '?')[:12]}  python {meta.get('python')}"
            f"  nproc {meta.get('nproc')}  load {load[0]} -> {load[1]}"
            f"  {' '.join(meta.get('argv', []))}")


def compare(a: dict, b: dict, spec: dict) -> Tuple[List[str], int]:
    """The comparison's lines and the number of regressed rows."""
    lines = [f"A: {describe(a['meta'])}", f"B: {describe(b['meta'])}", "",
             f"{'workload':<24} {'metric':<24} {'A median [q1, q3]':<28}"
             f" {'B median [q1, q3]':<28} {'B wins':>6} {'A wins':>6}  verdict"]
    regressed = 0
    for workload in (w["name"] for w in spec["workloads"]):
        wa, wb = a["workloads"].get(workload), b["workloads"].get(workload)
        if wa is None or wb is None:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            sa, sb = wa.get("samples", {}).get(name), wb.get("samples", {}).get(name)
            if not sa or not sb:
                continue
            result, b_wins, a_wins = verdict(
                sa, sb, metric["better"], metric["bound"])
            regressed += result == "regressed"
            qa, qb = quartiles(sa), quartiles(sb)
            lines.append(
                f"{workload:<24} {name:<24} {_fmt(qa, metric['unit']):<28}"
                f" {_fmt(qb, metric['unit']):<28}"
                f" {b_wins:>6.0%} {a_wins:>6.0%}  {result}"
                f" (B {(qb[1] - qa[1]) / qa[1]:+.1%} vs A, {metric['better']} is"
                f" better, bound {metric['bound']:.0%}, runs {len(sa)}/{len(sb)})")
        for name, (better, bound) in EXACT_ROWS.items():
            va, vb = _exact_value(wa, name), _exact_value(wb, name)
            if va is None or vb is None:
                continue
            result = exact_verdict(va, vb, better, bound)
            regressed += result == "regressed"
            lines.append(
                f"{workload:<24} {name:<24} {va:<28.4g} {vb:<28.4g}"
                f" {'':>6} {'':>6}  {result} (bound {bound:g} absolute)")
        same = wa.get("output_digest") == wb.get("output_digest")
        lines.append(f"{workload:<24} {'output_digest':<24} "
                     f"{'same' if same else 'DIFFERENT'}")
        lines += _layer_rows(wa.get("per_layer", {}), wb.get("per_layer", {}))
    return lines, regressed


def _fmt(q: Tuple[float, float, float], unit: str) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}] {unit}"


def _exact_value(entry: dict, name: str):
    if name == "error_rate":
        return entry["failed"] / entry["attempted"] if entry.get("attempted") else None
    return entry.get("fidelity", {}).get(name)


def _layer_rows(la: Dict[str, float], lb: Dict[str, float]) -> List[str]:
    """Per-layer metrics that are non-zero on either side (one traced run
    each, so no verdict)."""
    rows = []
    for name in la:
        if name in lb and (la[name] or lb[name]):
            rows.append(f"{'':<24}   {name:<40} {la[name]:>14.6g} {lb[name]:>14.6g}")
    if rows:
        rows.insert(0, f"{'':<24}   per-layer (traced run){'A':>33} {'B':>14}")
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    lines, regressed = compare(a, b, spec)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
