"""The repository's benchmark: one command, three workloads, two clocks.

    python3 perfbench/run.py --workload fill-random --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the workload untraced and then traced, and reports
the per-layer metrics and the tracing overhead.  Every output of the
program is checked; a wrong result or a failed check exits 1 without
printing numbers.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
are a readable table and the environment the numbers came from.

See ``perfbench/README.md`` for the workloads, the metrics and which
layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import (
    END_TO_END,
    PER_LAYER,
    PRINTED_ONLY,
    BenchFailure,
    environment,
    use_checkout_source,
)

WORKLOADS = ("fill-random", "read-uniform", "serve-mixed")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 600:
        parser.error("--seconds must be within 1..600")
    return args


def _table(title: str, metrics: dict, units: dict) -> str:
    lines = [title]
    for name, value in metrics.items():
        lines.append(f"  {name:<34} {value:>16.6g} {units[name]}")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        use_checkout_source()
        if args.workload == "serve-mixed":
            from serve import run
        else:
            from inproc import run
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchFailure as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    e2e = dict(result["e2e"])
    e2e_units = dict(END_TO_END)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds}  trace {args.trace}")
    shown = dict(e2e, error_rate=failed / attempted)
    if result.get("open_p999_us") is not None:
        shown["open_p999_us"] = result["open_p999_us"]
    print(_table("end to end", shown, dict(e2e_units, **PRINTED_ONLY)))
    print(f"  wall-clock ops/s of the timed (closed-loop) phase, "
          f"not normalized: {result['raw_ops_per_s']:.6g} ops/s")
    if args.workload == "serve-mixed":
        print(f"  open-loop generator lateness p99: "
              f"{result['late_p99_us']:.1f} us")
    if args.trace:
        metrics, units = result["layers"], PER_LAYER
        print(_table("per layer (traced pass)", metrics, units))
        print(f"  spans recorded: {result['num_spans']}")
    else:
        metrics, units = e2e, e2e_units
    print("env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
