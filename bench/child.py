"""One fresh-interpreter measurement of one workload (started by ``run.py``).

Usage: ``python3 bench/child.py WORKLOAD SEED MODE WORKDIR``, where MODE is

- ``setup``: imports and input generation only;
- ``run``: setup, then every operation serially, timed;
- ``traced``: as ``run``, with a span around each layer's entry point;
- ``jobs2``: as ``run``, fanned out over two worker processes.

Prints one JSON record as the last line of standard output.
"""

import time

T0 = time.perf_counter()  # setup_s counts from here, before any import

import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

JOBS = 2
OUT = Path(__file__).resolve().parent / "out"


def measure(name: str, seed: int, mode: str, workdir: Path) -> dict:
    workload = WORKLOADS[name]
    workdir.mkdir(parents=True, exist_ok=True)
    ops = workload.setup(seed, workdir)
    record = {"mode": mode, "setup_s": time.perf_counter() - T0}
    if mode == "setup":
        return record

    recorder = None
    run_op = workload.run
    if mode == "traced":
        recorder = layers.Recorder()
        uninstall, record["missing_targets"] = layers.install(
            recorder, layers.TARGETS)
        run_op = recorder.wrap(layers.OP_SPAN, workload.run)
    outputs, errors, op_s = {}, {}, {}
    if mode == "jobs2":
        start = time.perf_counter()
        outputs = workload.run_parallel(ops, JOBS)
        op_s["all"] = time.perf_counter() - start
    else:
        for op in ops:
            if recorder is not None:
                recorder.op = op
            start = time.perf_counter()
            try:
                outputs[op] = run_op(op)
            except Exception:  # an operation that raises counts as failed
                errors[op] = traceback.format_exc(limit=3)
            op_s[op] = time.perf_counter() - start
            # Drop this operation's garbage before the next one starts, as
            # a separate CLI run would; otherwise the peak RSS depends on
            # where the collector's cycle falls, not on the program.
            gc.collect()
    if recorder is not None:
        uninstall()
        record["layers"] = layers.layer_metrics(recorder.spans)
        recorder.dump(str(OUT / f"{name}.spans.jsonl"))

    digests, problems, fidelity = {}, {}, {}
    for op in ops:
        try:
            if op in errors:
                raise RuntimeError(errors[op])
            digests[op], op_problems, op_fidelity = workload.check(op, outputs[op])
        except Exception as exc:  # a check that cannot read the output fails
            problems[op] = [str(exc)]
            continue
        if op_problems:
            problems[op] = op_problems
        fidelity.update(op_fidelity)
    record.update(
        wall_s=sum(op_s.values()),
        op_s=op_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        ops=ops, digests=digests, problems=problems, fidelity=fidelity)
    return record


def main(argv) -> int:
    name, seed, mode, workdir = argv
    workdir = Path(workdir)
    try:
        record = measure(name, int(seed), mode, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
