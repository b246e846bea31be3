#!/usr/bin/env python3
"""Run one workload of the end-to-end benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload served_batches --seed 1 --seconds 12 --trace 0

``--trace 0`` measures untraced and reports the end-to-end metrics;
``--trace 1`` also measures a traced window and reports the per-layer
metrics.  Human-readable lines come first; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full report (environment, inputs, every metric, checks)
goes to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench.common import require_program  # noqa: E402

WORKLOAD_NAMES = ("interactive_query", "served_batches", "sharded_batches", "live_ingest")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="input sizes; 'tiny' is for the benchmark's own tests",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    require_program()
    from bench.runner import END_TO_END, PER_LAYER, result_line, run

    report = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    env = report["environment"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{env['cpu_count']} CPUs, backend {env['backend']}, python {env['python']}, "
          f"commit {env['git_commit'] or 'n/a'}, sources {env['source_sha1'][:12]}")
    print(f"inputs {json.dumps(report['inputs'], sort_keys=True)}")
    print(f"attempted {report['attempted']} failed {report['failed']} "
          f"passes {report['passes']}")
    for problem in report["problems"] + report["errors"]:
        print(f"  problem: {problem}")
    e2e = report["end_to_end"]
    for name, unit in END_TO_END.items():
        print(f"  {name:<24} {e2e[name]:>14.4f} {unit}")
    tail = e2e["batch_ms_tail"]
    print(f"  {'batch_ms_p50':<24} {e2e['batch_ms_p50']:>14.4f} ms (ungated)")
    print(f"  {'batch_ms_tail':<24} "
          + (f"{tail:>14.4f} ms" if tail is not None else f"{'n/a':>14} ms")
          + f" (p90 of {e2e['samples']} batches, ungated)")
    if args.trace:
        for name, unit in PER_LAYER.items():
            print(f"  {name:<32} {report['per_layer'][name]:>14.4f} {unit}")
    print(json.dumps(result_line(report, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
