"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload event_hybrid_full --seed 1 \
        --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The lines above it name every metric with its unit, the error rate and
the environment.  A full record (every call's time, the environment,
failure reasons) goes to ``perfbench/out/``, and a traced run also
writes its spans there.

Exit codes: 0 with a result, 2 when the program to measure is missing
(no result is printed).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent


def build_parser() -> argparse.ArgumentParser:
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny: small inputs on the same code paths (self-tests)",
    )
    return parser


def _missing_inputs() -> List[str]:
    required = [
        ROOT / "src" / "repro" / "__init__.py",
        ROOT / "tests" / "lint" / "data" / "stream_manifest.json",
    ]
    return [str(path.relative_to(ROOT)) for path in required if not path.is_file()]


def stop_helper_processes() -> None:
    """Stop every process the run started and wait for each to end.

    Pool workers are joined when their pool closes, but ``multiprocessing``
    keeps two helpers alive until the interpreter exits, and then lets
    them end on their own after it: the resource tracker that the megasim
    arena's shared-memory segment starts, and a forkserver if one was
    used.  Both are stopped and reaped here, so no process outlives the
    benchmark.
    """
    mp = sys.modules.get("multiprocessing")
    if mp is None:
        return
    for child in mp.active_children():
        child.join()
    for module, attr in (
        ("multiprocessing.resource_tracker", "_resource_tracker"),
        ("multiprocessing.forkserver", "_forkserver"),
    ):
        helper = getattr(sys.modules.get(module), attr, None)
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()


def main(argv: Optional[List[str]] = None) -> int:
    for entry in (str(ROOT), str(ROOT / "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    args = build_parser().parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    missing = _missing_inputs()
    if missing:
        print(
            "error: the program to measure is not here; missing "
            + ", ".join(missing),
            file=sys.stderr,
        )
        return 2
    from perfbench.harness import run_benchmark

    try:
        result = run_benchmark(
            args.workload, args.seed, args.seconds, bool(args.trace), args.size
        )
    finally:
        stop_helper_processes()
    env = result.record["env"]
    error_rate = result.failed / result.attempted
    print(
        f"{args.workload} seed={args.seed} size={args.size} trace={args.trace}: "
        f"{result.attempted} calls, {result.failed} failed, "
        f"error_rate={error_rate:g}"
    )
    for reason in result.record["failures"]:
        print(f"  failure: {reason}")
    for name, metric in result.metrics.items():
        print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']}")
    print("env " + json.dumps(env, sort_keys=True))
    print(result.line())
    return 0


if __name__ == "__main__":
    sys.exit(main())
