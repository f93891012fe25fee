"""``repro-scenario``: validate, describe, and run scenario specs.

Examples::

    repro-scenario validate examples/multirack_diurnal.yaml
    repro-scenario describe multirack-diurnal
    repro-scenario run multirack-diurnal --quick --jobs 4
    repro-scenario run examples/scenarios/ext8_availability.yaml \\
        --output out/ --expect-digest <sha256>

A scenario argument is either a library name (``repro-scenario list``)
or a path to a ``.yaml``/``.yml``/``.json`` spec.  ``run`` prints the
per-run table, the modeled-scale block, and the scenario digest
(order-independent of ``--jobs``); ``--output DIR`` additionally writes
``result.json``, and -- when any overlay enables tracing --
``spans.jsonl`` plus a Perfetto-loadable ``trace.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.scenario.errors import ScenarioValidationError
from repro.scenario.library import LIBRARY, library_scenario
from repro.scenario.loader import load_scenario
from repro.scenario.spec import Scenario


def _resolve(argument: str) -> Scenario:
    if argument in LIBRARY:
        return library_scenario(argument)
    path = Path(argument)
    if path.exists():
        return load_scenario(path)
    raise SystemExit(
        f"error: {argument!r} is neither a library scenario "
        f"({sorted(LIBRARY)}) nor an existing spec file"
    )


def _write_outputs(result, output_dir: Path) -> list:
    """Persist the result (and any trace artifacts); return the paths."""
    from repro.obs.export import write_chrome_trace, write_spans_jsonl

    output_dir.mkdir(parents=True, exist_ok=True)
    written = []
    payload = {
        "scenario": result.scenario_name,
        "digest": result.digest(),
        "scale": result.scale,
        "runs": [
            {
                "run_id": r.run_id,
                "tier": r.tier,
                "overlay": r.overlay,
                "rack": r.rack,
                "segment": r.segment,
                "offered_rps": r.offered_rps,
                "throughput_rps": r.throughput_rps,
                "goodput_rps": r.goodput_rps,
                "per_server_rps": r.per_server_rps,
                "p99_ms": r.p99_ms,
                "qos_violation_rate": r.qos_violation_rate,
                "qos_met": r.qos_met,
                "digest": r.digest,
            }
            for r in result.runs
        ],
    }
    result_path = output_dir / "result.json"
    result_path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    written.append(result_path)
    groups = [
        (record.run_id, record.tracer.traces)
        for record in result.runs
        if record.tracer is not None and record.tracer.traces
    ]
    if groups:
        written.append(Path(write_spans_jsonl(
            groups, str(output_dir / "spans.jsonl"))))
        written.append(Path(write_chrome_trace(
            groups, str(output_dir / "trace.json"))))
    return written


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-scenario",
        description="Declarative warehouse-scale scenario engine.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list library scenarios")

    validate = sub.add_parser(
        "validate", help="check specs; print every problem with its path")
    validate.add_argument("scenarios", nargs="+",
                          help="library names or spec files")

    describe = sub.add_parser(
        "describe",
        help="show the compiled plan: runs, rates, modeled scale")
    describe.add_argument("scenario")
    describe.add_argument("--quick", action="store_true",
                          help="compile with shortened windows")

    run = sub.add_parser("run", help="compile and execute a scenario")
    run.add_argument("scenario")
    run.add_argument("--quick", action="store_true",
                     help="shorten every measurement window (CI smoke)")
    run.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="worker processes (results identical to --jobs 1)")
    run.add_argument("--output", metavar="DIR",
                     help="write result.json (and trace exports) to DIR")
    run.add_argument("--expect-digest", metavar="SHA256",
                     help="exit non-zero unless the scenario digest matches")
    args = parser.parse_args(argv)

    if args.command == "list":
        for name in LIBRARY:
            print(f"{name}: {library_scenario(name).description}")
        return 0

    if args.command == "validate":
        failed = 0
        for argument in args.scenarios:
            try:
                scenario = _resolve(argument)
                scenario.check()
            except ScenarioValidationError as exc:
                failed += 1
                print(f"{argument}: INVALID")
                print(str(exc))
            else:
                print(f"{argument}: ok ({scenario.name})")
        return 1 if failed else 0

    from repro.scenario.compiler import compile_scenario

    try:
        compiled = compile_scenario(_resolve(args.scenario), quick=args.quick)
    except ScenarioValidationError as exc:
        print(str(exc), file=sys.stderr)
        return 1

    if args.command == "describe":
        print(compiled.describe())
        return 0

    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    result = compiled.execute(jobs=args.jobs)
    print(result.render())
    if args.output:
        for path in _write_outputs(result, Path(args.output)):
            print(f"wrote {path}")
    if args.expect_digest:
        digest = result.digest()
        if digest != args.expect_digest:
            print(
                f"digest mismatch: expected {args.expect_digest}, "
                f"got {digest}",
                file=sys.stderr,
            )
            return 1
        print("digest matches")
    return 0


__all__ = ["main"]


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
