"""Run the repository benchmark.

    python3 bench/run.py [--seed S] [--repeats N]
        every workload: N timed runs and one traced run each; writes
        bench/out/result.json (or --out FILE) and prints a summary.

    python3 bench/run.py --workload W --seed S --seconds T --trace 0|1
        one workload.  ``--trace 0`` repeats fresh-process runs for T
        seconds and reports the end-to-end metrics (medians); ``--trace 1``
        makes one untraced, one traced and one ``--jobs 2`` run and reports
        the per-layer metrics.  The last line of standard output is
        ``{"correct", "attempted", "failed", "metrics"}``.

Every measured run is a fresh interpreter (``bench/child.py``) with empty
caches, ``PYTHONHASHSEED=0`` and one BLAS thread, so each one costs what a
user pays for one CLI run.  Metric names, units and bounds are defined in
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
OUT = BENCH / "out"
#: setup_s is the median of at least this many fresh-process set-ups.
SETUP_SAMPLES = 5
#: A child that runs longer than this is hung.
CHILD_TIMEOUT_S = 900


def load_spec() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))


def child(workload: str, seed: int, mode: str) -> dict:
    """One fresh-interpreter measurement (see ``child.py``)."""
    workdir = OUT / "work" / f"{workload}-{mode}-{os.getpid()}-{time.monotonic_ns()}"
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        TMPDIR=str(OUT / "tmp"),
    )
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), workload, str(seed), mode,
         str(workdir)],
        cwd=REPO, env=env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} {mode} run exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tally(records: List[dict], reference: dict) -> dict:
    """Count operations and failures; an operation also fails when its
    output differs from the same operation in ``reference``."""
    attempted, failures = 0, []
    for record in records:
        for op in record["ops"]:
            attempted += 1
            if op in record["problems"]:
                failures.append(f"[{record['mode']}] " + "; ".join(record["problems"][op]))
            elif record["digests"][op] != reference["digests"].get(op):
                failures.append(f"[{record['mode']}] {op}: output differs from "
                                f"the first {reference['mode']} run")
    return {"attempted": attempted, "failed": len(failures), "failures": failures}


def output_digest(record: dict) -> str:
    lines = "".join(f"{op} {record['digests'].get(op, '')}\n" for op in record["ops"])
    return hashlib.sha256(lines.encode("utf-8")).hexdigest()


def measure(workload: str, seed: int, seconds: Optional[float],
            repeats: int) -> dict:
    """Untraced fresh-process runs: for ``seconds`` if given, else
    ``repeats`` times.  Reports the medians and every sample."""
    runs: List[dict] = []
    start = time.perf_counter()
    while not runs or (len(runs) < repeats if seconds is None
                       else time.perf_counter() - start < seconds):
        runs.append(child(workload, seed, "run"))
    setups = [run["setup_s"] for run in runs]
    while len(setups) < SETUP_SAMPLES:
        setups.append(child(workload, seed, "setup")["setup_s"])
    samples = {
        "wall_s": [run["wall_s"] for run in runs],
        "setup_s": setups,
        "peak_rss_mb": [run["peak_rss_mb"] for run in runs],
    }
    return {
        **tally(runs, runs[0]),
        "runs": len(runs),
        "samples": samples,
        "end_to_end": {name: statistics.median(v) for name, v in samples.items()},
        "fidelity": runs[0]["fidelity"],
        "output_digest": output_digest(runs[0]),
    }


def trace(workload: str, seed: int) -> dict:
    """One untraced, one traced and one ``--jobs 2`` run; the traced and
    parallel outputs must equal the untraced ones."""
    base = child(workload, seed, "run")
    traced = child(workload, seed, "traced")
    parallel = child(workload, seed, "jobs2")
    per_layer = dict(traced["layers"])
    per_layer["perf.jobs2_wall_s"] = parallel["wall_s"]
    # Per operation, so one slow spell on a noisy machine moves one ratio.
    per_layer["trace.overhead_ratio"] = statistics.median(
        traced["op_s"][op] / base["op_s"][op] for op in base["ops"])
    return {
        **tally([base, traced, parallel], base),
        "per_layer": per_layer,
        "missing_targets": traced["missing_targets"],
        "output_digest": output_digest(base),
    }


def metadata(argv: List[str]) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
            text=True, timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "argv": argv,
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "loadavg_before": os.getloadavg(),
    }


def metric_block(values: Dict[str, float], declared: List[dict]) -> dict:
    """Exactly the declared metrics, each with its unit."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


def report(name: str, seed: int, entry: dict, spec: dict) -> None:
    """Human-readable lines: every metric by name, with its unit."""
    print(f"== {name}  seed {seed}  ops {entry['attempted'] - entry['failed']}"
          f"/{entry['attempted']} ok  output_digest {entry['output_digest'][:16]}")
    for failure in entry["failures"]:
        print(f"   FAILED {failure.splitlines()[-1]}")
    samples = entry.get("samples", {})
    for metric in spec["end_to_end"]:
        if metric["name"] in entry.get("end_to_end", {}):
            values = samples[metric["name"]]
            print(f"   {metric['name']:<24} {entry['end_to_end'][metric['name']]:>12.4f}"
                  f" {metric['unit']:<6} median of {len(values)}: "
                  + " ".join(f"{v:.4g}" for v in values))
    for key, value in entry.get("fidelity", {}).items():
        unit = "pp" if key.endswith("_pp") else "cells"
        print(f"   {key:<24} {value:>12.4f} {unit}")
    for metric in spec["per_layer"] if "per_layer" in entry else ():
        print(f"   {metric['name']:<40} {entry['per_layer'][metric['name']]:>14.6g}"
              f" {metric['unit']}")
    for target in entry.get("missing_targets", ()):
        print(f"   (not traced: {target} no longer exists)")


def run_one(args, spec: dict) -> int:
    meta = metadata(sys.argv[1:])
    if args.trace:
        entry = trace(args.workload, args.seed)
        declared, values = spec["per_layer"], entry["per_layer"]
    else:
        entry = measure(args.workload, args.seed, args.seconds, args.repeats)
        declared, values = spec["end_to_end"], entry["end_to_end"]
    meta["loadavg_after"] = os.getloadavg()
    write_result(OUT / f"{args.workload}-seed{args.seed}-trace{int(args.trace)}.json",
                 meta, {args.workload: entry})
    report(args.workload, args.seed, entry, spec)
    print(json.dumps({
        "correct": entry["failed"] == 0,
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": metric_block(values, declared),
    }))
    return 0


def run_all(args, spec: dict) -> int:
    meta = metadata(sys.argv[1:])
    workloads = {}
    for workload in (w["name"] for w in spec["workloads"]):
        timed = measure(workload, args.seed, args.seconds, args.repeats)
        traced = trace(workload, args.seed)
        entry = {**timed, "per_layer": traced["per_layer"],
                 "missing_targets": traced["missing_targets"]}
        for key in ("attempted", "failed", "failures"):
            entry[key] = timed[key] + traced[key]
        if traced["output_digest"] != timed["output_digest"]:
            entry["failed"] += 1
            entry["failures"].append("output differs between the timed and traced runs")
        entry["error_rate"] = entry["failed"] / entry["attempted"]
        report(workload, args.seed, entry, spec)
        workloads[workload] = entry
    meta["loadavg_after"] = os.getloadavg()
    path = write_result(Path(args.out) if args.out else OUT / "result.json",
                        meta, workloads)
    print(f"wrote {path}")
    return 0 if all(e["failed"] == 0 for e in workloads.values()) else 1


def write_result(path: Path, meta: dict, workloads: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"meta": meta, "workloads": workloads},
                               indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="repeat timed runs for this long (overrides --repeats)")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="result file of a full run")
    args = parser.parse_args(argv)
    if not (REPO / "src" / "repro").is_dir():
        print(f"error: no package source under {REPO / 'src'}", file=sys.stderr)
        return 2
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is None:
        return run_all(args, spec)
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; known: {names}")
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
