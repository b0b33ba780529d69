"""Pin the output digests the benchmark checks every call against.

Usage, from the repository root::

    python3 perfbench/pin.py --workload event_hybrid_full --seeds 0-15

Runs set-up and one measured call per seed and stores the output digest
in ``perfbench/digests.json`` under ``workload -> size -> seed``.  The
linter's output does not depend on the seed, so ``lint_tree`` is pinned
once under ``"*"``.  Pin only from a commit whose outputs are known to
be right: every later run is judged against these digests, and a change
that moves one is a change of behaviour.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/pin.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 0-15 or 1,5,9")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import DIGESTS
    from perfbench.workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    seeds = [0] if args.workload == "lint_tree" else _seeds(args.seeds)
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    pinned = table.setdefault(args.workload, {}).setdefault(args.size, {})
    for seed in seeds:
        workload = cls(seed, args.size)
        workload.setup()
        outcome = workload.run()
        reason = workload.invariants(outcome)
        if reason is not None:
            print(f"error: seed {seed}: {reason}", file=sys.stderr)
            return 1
        key = "*" if args.workload == "lint_tree" else str(seed)
        pinned[key] = outcome.digest
        DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(f"{args.workload} {args.size} seed {key}: pinned", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
