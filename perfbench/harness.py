"""Runs one workload for a fixed time and assembles its metrics.

Untraced run (``trace=False``): set up and make the measured call, over
and over until ``seconds`` have passed (at least three times), checking
every call's output.  The end-to-end metrics are medians over the calls.

Traced run (``trace=True``): one untraced call for reference, then the
same call with every layer wrapped.  The per-layer metrics come from
the traced call's spans; its wall time minus the untraced one is the
tracing overhead.  For megasim a further traced serial call stands in
for the work pool workers do, whose spans stay in the workers.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from perfbench import instrument
from perfbench.tracer import Tracer
from perfbench.workloads import ROOT, WORKLOADS, RepOutcome, Workload

BENCH_DIR = Path(__file__).resolve().parent
DIGESTS = BENCH_DIR / "digests.json"
OUT_DIR = BENCH_DIR / "out"

#: Fewest measured calls (each after its own set-up) in an untraced run.
MIN_CALLS = 3

#: ``(name, unit)`` of the end-to-end metrics, in report order.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

@dataclass
class Check:
    """Checks each call's output against the pinned digest for its seed,
    or, for a seed with none pinned, against the first call and the
    workload's invariants."""

    workload: Workload
    pinned: Optional[Dict[str, Any]]
    reference: Optional[Dict[str, Any]] = None
    failures: List[str] = field(default_factory=list)

    def __call__(self, outcome: RepOutcome) -> bool:
        reason = self.workload.invariants(outcome)
        expected = self.pinned if self.pinned is not None else self.reference
        if reason is None and expected is not None and outcome.digest != expected:
            reason = "output digest differs from " + (
                "the pinned digest" if self.pinned is not None
                else "the first call's"
            )
        if self.reference is None:
            self.reference = outcome.digest
        if reason is not None:
            self.failures.append(reason)
            return False
        return True


def load_pinned(workload: str, size: str, seed: int) -> Optional[Dict[str, Any]]:
    """The pinned digest for ``(workload, size, seed)``; ``"*"`` pins
    one digest for every seed."""
    if not DIGESTS.exists():
        return None
    table = json.loads(DIGESTS.read_text()).get(workload, {}).get(size, {})
    return table.get(str(seed), table.get("*"))


def environment(args: Dict[str, Any]) -> Dict[str, Any]:
    """What produced a result: machine, versions, commit and inputs."""
    import numpy

    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(ROOT),
        **args,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    """HEAD's commit read from ``.git`` directly (no subprocess, so the
    child-process memory figures stay the pool's own)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child
    (a megasim pool worker, or lint's import probe); Linux reports
    kilobytes."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Dict[str, Any]]
    record: Dict[str, Any]
    tracer: Optional[Tracer] = None

    def line(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": self.metrics,
            }
        )


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def _timed_call(
    workload: Workload, check: Check, serial: bool = False
) -> Tuple[Optional[RepOutcome], bool]:
    """One measured call; a call that raises counts as failed.

    Garbage left by the previous call is collected first, outside the
    timed region, so every call starts from the same heap.
    """
    gc.collect()
    try:
        outcome = workload.run(serial=serial)
    except Exception as exc:  # the boundary that must keep running
        check.failures.append(f"{type(exc).__name__}: {exc}")
        return None, False
    return outcome, check(outcome)


def run_untraced(workload: Workload, check: Check, seconds: float) -> Result:
    """Set up before every call, so set-up and call times are sampled
    across the same stretch of the run and their medians see the same
    machine conditions.  Collecting the previous call's garbage first
    keeps the peak memory from depending on when the collector last
    ran."""
    setups: List[float] = []
    walls: List[float] = []
    rates: List[float] = []
    attempted = failed = 0
    start = perf_counter()
    while attempted < MIN_CALLS or perf_counter() - start < seconds:
        gc.collect()
        setups.append(workload.setup())
        outcome, ok = _timed_call(workload, check)
        attempted += 1
        failed += 0 if ok else 1
        if outcome is not None:
            walls.append(outcome.wall_s)
            rates.append(outcome.work / outcome.wall_s)
    if not walls:
        raise RuntimeError("every measured call raised: " + "; ".join(check.failures))
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "items_per_s": statistics.median(rates),
        "peak_rss_mb": _peak_rss_mb(),
    }
    metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END}
    return Result(
        correct=failed == 0,
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        record={"setup_s": setups, "wall_s": walls, "items_per_s": rates},
    )


def run_traced(workload: Workload, check: Check) -> Result:
    tracer = Tracer()
    family = workload.family
    phases: Dict[str, Dict[str, Dict[str, float]]] = {}
    phase_counts: Dict[str, Counter] = {}

    def traced(run_id: int, phase: str, action: Any) -> Any:
        tracer.run_id = run_id
        tracer.counts.clear()
        patcher = instrument.install(tracer, family)
        try:
            return action()
        finally:
            patcher.restore()
            phases[phase] = tracer.summary(run_id)
            phase_counts[phase] = Counter(tracer.counts)

    traced(0, "setup", workload.setup)
    untraced, ok = _timed_call(workload, check)
    verdicts = [ok]
    measured, ok = traced(1, "measured", lambda: _timed_call(workload, check))
    verdicts.append(ok)
    if family == "megasim":
        # Pool workers keep their spans; a serial call stands in for them.
        _, ok = traced(2, "worker", lambda: _timed_call(workload, check, True))
        verdicts.append(ok)
    if untraced is None or measured is None:
        raise RuntimeError("a traced-run call raised: " + "; ".join(check.failures))
    values = instrument.layer_metrics(
        setup=phases.get("setup", {}),
        measured=phases["measured"],
        worker=phases.get("worker", {}),
        counts=phase_counts["measured"],
        outcome_counts=measured.counts,
    )
    values.update(
        {
            "trace.overhead_s": measured.wall_s - untraced.wall_s,
            "trace.untraced_wall_s": untraced.wall_s,
            "trace.traced_wall_s": measured.wall_s,
            "trace.spans": len(tracer),
        }
    )
    metrics = {
        name: _metric(values[name], unit) for name, unit in instrument.PER_LAYER
    }
    failed = verdicts.count(False)
    return Result(
        correct=failed == 0,
        attempted=len(verdicts),
        failed=failed,
        metrics=metrics,
        record={"spans": phases},
        tracer=tracer,
    )


def run_benchmark(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: str = "full",
) -> Result:
    workload = WORKLOADS[workload_name](seed, size)
    check = Check(workload, load_pinned(workload_name, size, seed))
    if trace:
        result = run_traced(workload, check)
    else:
        result = run_untraced(workload, check, seconds)
    env = environment(
        {
            "workload": workload_name,
            "seed": seed,
            "size": size,
            "seconds": seconds,
            "trace": int(trace),
            "digest_source": "pinned" if check.pinned is not None
            else "first call + invariants",
        }
    )
    stem = f"{workload_name}-{size}-seed{seed}-trace{int(trace)}"
    if result.tracer is not None:
        # One spans file per workload and size, replaced by the next
        # traced run: a paper-scale trace holds millions of spans.
        result.tracer.write(OUT_DIR / f"{workload_name}-{size}.spans.npz")
    result.record.update(
        {
            "env": env,
            "correct": result.correct,
            "attempted": result.attempted,
            "failed": result.failed,
            "failures": check.failures,
            "metrics": result.metrics,
        }
    )
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps(result.record, indent=2, sort_keys=True) + "\n"
    )
    return result
