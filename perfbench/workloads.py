"""The benchmark's workloads: inputs from a seed, one measured call each.

Every workload has the same shape.  :meth:`Workload.setup` builds what
the measured call needs and returns its own host seconds;
:meth:`Workload.run` makes one measured call and returns its wall time,
the work it did, and a digest of its output that the harness checks.
Set-up is never inside the measured call.

Sizes: ``full`` is what the benchmark measures; ``tiny`` runs the same
code paths on small inputs, for the benchmark's own tests.  The lint
tree is small already, so ``lint_tree`` is the same at both sizes.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
#: The CI stream manifest; read, never written.
PINNED_MANIFEST = ROOT / "tests" / "lint" / "data" / "stream_manifest.json"
LINT_TREE = ROOT / "src" / "repro"

SIZES = ("full", "tiny")


@dataclass
class RepOutcome:
    """One measured call."""

    wall_s: float
    #: Units of work done: node-deliveries, or files analysed.
    work: int
    digest: Dict[str, Any]
    #: Deterministic counts read from the output; keys that name a
    #: per-layer metric are reported as that metric.
    counts: Dict[str, float] = field(default_factory=dict)


class Workload:
    """Base class; subclasses fill in ``setup``, ``run`` and, where an
    impossible output can be named, ``invariants``."""

    name = ""
    why = ""
    #: Which wrapper table of :mod:`perfbench.instrument` traces it.
    family = ""

    def __init__(self, seed: int, size: str = "full") -> None:
        if size not in SIZES:
            raise ValueError(f"size must be one of {SIZES}, got {size!r}")
        self.seed = seed
        self.size = size

    def setup(self) -> float:
        raise NotImplementedError

    def run(self, serial: bool = False) -> RepOutcome:
        raise NotImplementedError

    def invariants(self, outcome: RepOutcome) -> Optional[str]:
        """A reason the output is impossible, or ``None``."""
        return None


# -- event kernel ---------------------------------------------------------------


def _hex(value: float) -> str:
    value = float(value)
    return "nan" if value != value else value.hex()


class EventWorkload(Workload):
    """``run_experiment`` on the Inet model at the paper's scale.

    The network model is the paper's FULL model (fixed topology seed);
    the workload seed is the experiment seed, which drives overlay
    bootstrap, gossip targets, traffic senders, failure victims and
    loss coins.
    """

    family = "event"

    def __init__(self, seed: int, size: str = "full") -> None:
        super().__init__(seed, size)
        from repro.experiments.figures import FULL, Scale

        self.scale = (
            FULL
            if size == "full"
            else Scale("tiny", clients=16, routers=200, messages=8,
                       warmup_ms=2_000.0)
        )
        self.model: Any = None

    def setup(self) -> float:
        from repro.experiments.figures import build_model
        from repro.topology.cache import shared_cache

        shared_cache().clear()
        start = perf_counter()
        self.model = build_model(self.scale)
        return perf_counter() - start

    def spec(self) -> Any:
        raise NotImplementedError

    def run(self, serial: bool = False) -> RepOutcome:
        from repro.experiments.golden import trace_digest
        from repro.experiments.runner import run_experiment

        spec = self.spec()
        start = perf_counter()
        result = run_experiment(self.model, spec)
        wall = perf_counter() - start
        digest = trace_digest(result)
        recorder = result.recorder
        return RepOutcome(
            wall_s=wall,
            work=recorder.delivery_count,
            digest=digest,
            counts={
                "deliveries": recorder.delivery_count,
                "alive": len(result.alive),
                "scheduler.retries": result.recovery.get("retries", 0),
            },
        )

    def _base(self, factory: Any, **extra: Any) -> Any:
        from repro.experiments.runner import ExperimentSpec
        from repro.experiments.workload import TrafficConfig
        from repro.gossip.config import GossipConfig
        from repro.runtime.cluster import ClusterConfig

        return ExperimentSpec(
            strategy_factory=factory,
            cluster=ClusterConfig(
                gossip=GossipConfig.for_population(self.scale.clients)
            ),
            traffic=TrafficConfig(messages=self.scale.messages),
            warmup_ms=self.scale.warmup_ms,
            seed=self.seed,
            **extra,
        )

    def invariants(self, outcome: RepOutcome) -> Optional[str]:
        digest = outcome.digest
        if digest["multicasts"] != self.scale.messages:
            return f"{digest['multicasts']} multicasts, want {self.scale.messages}"
        ceiling = self.scale.messages * outcome.counts["alive"]
        if not 0 < digest["deliveries"] <= ceiling:
            return f"{digest['deliveries']} deliveries outside (0, {ceiling}]"
        return None


class EventHybridFull(EventWorkload):
    name = "event_hybrid_full"
    why = (
        "paper headline (Fig. 5c Hybrid, best/low classes) on the 3037-router "
        "model, healthy: lazy-heavy, loads scheduler, strategies, monitors and "
        "the per-send network chain"
    )

    def spec(self) -> Any:
        from repro.experiments.scenarios import best_low_classes, hybrid_factory

        return self._base(hybrid_factory(), node_classes=best_low_classes())


class EventFlatFaultyFull(EventWorkload):
    name = "event_flat_faulty_full"
    why = (
        "same model and scale, Flat eager with 40% crash-stop and 5% loss on "
        "every link: full-size MSG traffic and the drop branches, scheduler "
        "pull path idle"
    )

    def spec(self) -> Any:
        from repro.experiments.scenarios import flat_factory
        from repro.failures.gray import GrayFailurePlan
        from repro.failures.injection import FailurePlan

        return self._base(
            flat_factory(1.0),
            failure=FailurePlan(fraction=0.4),
            gray=GrayFailurePlan(
                lossy_link_fraction=1.0, link_loss_probability=0.05
            ),
        )


# -- vectorized scale tier ---------------------------------------------------------


class MegasimOverlay(Workload):
    """``run_megasim`` over static 15-peer views, fanout 11, at 100k nodes.

    The workload seed is the megasim spec seed: plane positions, views,
    crash victims, origins and every message's dissemination and loss
    streams derive from it.
    """

    name = "megasim_overlay_100k"
    why = (
        "scale tier on the paper's overlay (15-peer views, fanout 11), Hybrid, "
        "10% crash, 5% loss, link tracking, 2-worker arena: bypasses every "
        "event-kernel layer"
    )
    family = "megasim"
    workers = 2

    def __init__(self, seed: int, size: str = "full") -> None:
        super().__init__(seed, size)
        from repro.experiments.scenarios import hybrid_factory
        from repro.failures.gray import GrayFailurePlan
        from repro.failures.injection import FailurePlan
        from repro.megasim.runner import MegasimSpec

        self.spec = MegasimSpec(
            strategy_factory=hybrid_factory(),
            nodes=100_000 if size == "full" else 2_000,
            fanout=11,
            view_degree=15,
            messages=4,
            seed=seed,
            track_links=True,
            failure=FailurePlan(fraction=0.1),
            gray=GrayFailurePlan(
                lossy_link_fraction=1.0, link_loss_probability=0.05
            ),
        )
        self.topology: Any = None
        self.views: Any = None

    def setup(self) -> float:
        import numpy as np

        from repro.megasim.adapter import build_views, compile_faults
        from repro.megasim.runner import build_topology
        from repro.sim.rng import RandomStreams

        spec = self.spec
        start = perf_counter()
        topology = build_topology(spec)
        views = build_views(
            spec.nodes,
            spec.view_degree,
            np.random.default_rng(
                RandomStreams(spec.seed).derive_seed("megasim.views")
            ),
        )
        compile_faults(spec.nodes, spec.seed, failure=spec.failure, gray=spec.gray)
        elapsed = perf_counter() - start
        self.topology, self.views = topology, views
        return elapsed

    def run(self, serial: bool = False) -> RepOutcome:
        from repro.megasim.runner import run_megasim

        start = perf_counter()
        result = run_megasim(
            self.spec,
            workers=1 if serial else self.workers,
            topology=self.topology,
            views=self.views,
        )
        wall = perf_counter() - start
        delivered = sum(o.delivered_count for o in result.outcomes)
        return RepOutcome(
            wall_s=wall,
            work=delivered,
            digest=megasim_digest(result),
            counts={
                "deliveries": delivered,
                "alive": self.spec.nodes - len(result.failed),
                "megasim.retries": result.retries,
                "megasim.control_packets": sum(
                    o.ihave_sent + o.iwant_sent for o in result.outcomes
                ),
            },
        )

    def invariants(self, outcome: RepOutcome) -> Optional[str]:
        ceiling = self.spec.messages * outcome.counts["alive"]
        if not 0 < outcome.work <= ceiling:
            return f"{outcome.work} deliveries outside (0, {ceiling}]"
        if outcome.digest["structure"] is None:
            return "link tracking produced no structure metrics"
        return None


def _array_digest(array: Any) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()[:32]


def megasim_digest(result: Any) -> Dict[str, Any]:
    """Exact per-message delivery slots, tallies and retries, plus the
    run's structure metrics."""
    messages = []
    for outcome in result.outcomes:
        messages.append(
            {
                "origin": outcome.origin,
                "deliver_slot": _array_digest(outcome.deliver_slot),
                "carried_round": _array_digest(outcome.carried_round),
                "payload_sent": _array_digest(outcome.payload_sent),
                "payload_received": _array_digest(outcome.payload_received),
                "links": _array_digest(outcome.link_keys)
                + _array_digest(outcome.link_sends),
                "delivered": outcome.delivered_count,
                "msg": outcome.msg_sent,
                "ihave": outcome.ihave_sent,
                "iwant": outcome.iwant_sent,
                "slots": outcome.slots_elapsed,
                "retries": outcome.retries,
            }
        )
    structure = result.structure
    return {
        "failed": len(result.failed),
        "messages": messages,
        "structure": None
        if structure is None
        else {
            "top_link_share": _hex(structure.top_link_share),
            "used_links": structure.used_links,
            "sending_nodes": structure.sending_nodes,
            "effective_degree": _hex(structure.effective_degree),
        },
    }


# -- determinism linter ---------------------------------------------------------------


class LintTree(Workload):
    """CI's ``python -m repro.lint src/repro`` plus ``--streams``, in-process.

    The workload seed shuffles the order the files are handed to the
    linter; its output must not depend on that order.
    """

    name = "lint_tree"
    why = (
        "CI's repro.lint gate and --streams manifest over src/repro, "
        "in-process: the only workload that measures the linter"
    )
    family = "lint"

    def __init__(self, seed: int, size: str = "full") -> None:
        super().__init__(seed, size)
        files = sorted(LINT_TREE.rglob("*.py"))
        files = [p for p in files if "__pycache__" not in p.parts]
        random.Random(seed).shuffle(files)
        self.files: List[Path] = files
        self.manifest_path = PINNED_MANIFEST

    def setup(self) -> float:
        """A cold import of ``repro.lint``, timed inside a fresh
        interpreter so nothing this process imported helps it."""
        code = (
            "import time; start = time.perf_counter(); import repro.lint; "
            "print(time.perf_counter() - start)"
        )
        path = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        probe = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            cwd=ROOT,
            env={**os.environ, "PYTHONPATH": path},
            timeout=120,
        )
        return float(probe.stdout)

    def run(self, serial: bool = False) -> RepOutcome:
        lint = importlib.import_module("repro.lint")
        start = perf_counter()
        findings = lint.lint_paths(self.files, root=ROOT)
        manifest = lint.stream_manifest(lint.collect_facts(self.files, root=ROOT))
        wall = perf_counter() - start
        text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        pinned = self.manifest_path.read_bytes()
        return RepOutcome(
            wall_s=wall,
            work=len(self.files),
            digest={
                "findings": [f.render() for f in findings],
                "manifest_sha256": hashlib.sha256(text.encode()).hexdigest(),
                "manifest_matches_pinned": text.encode() == pinned,
            },
            counts={"lint.files": len(self.files)},
        )

    def invariants(self, outcome: RepOutcome) -> Optional[str]:
        if outcome.digest["findings"]:
            return f"{len(outcome.digest['findings'])} lint findings, want 0"
        if not outcome.digest["manifest_matches_pinned"]:
            return f"stream manifest differs from {self.manifest_path.name}"
        return None


WORKLOADS = {
    cls.name: cls
    for cls in (EventHybridFull, EventFlatFaultyFull, MegasimOverlay, LintTree)
}
