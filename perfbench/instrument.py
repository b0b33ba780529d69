"""Which program functions are wrapped, and the per-layer metrics.

Each layer is measured from outside: the wrappers sit on the public
functions (and the callbacks the simulator dispatches to) of
``repro.*``; no program file changes.  A span's name is
``<layer>.<function>``, so a layer's self time is the sum over its
span names.
"""

from __future__ import annotations

import importlib
from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

from perfbench.tracer import Observer, Patcher, Tracer

DROP_REASONS = (
    "sender-silenced",
    "receiver-silenced",
    "loss",
    "link-loss",
    "partitioned",
    "no-handler",
    "purged",
)

LINT_RULES = (
    "DET001", "DET002", "DET003", "DET004", "DET005", "DET006",
    "DET010", "DET011", "DET012",
    "VEC001", "VEC002", "VEC003", "VEC004",
)

#: ``(module, class or None, attribute, span name)``.  Only classes the
#: workloads run are listed: Flat and Hybrid strategies (Flat inherits
#: ``first_request_delay``/``select_source`` from ``BaseStrategy``), the
#: oracle latency monitor and ranking, and the shuffled overlay.
EVENT_TARGETS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.experiments.runner", None, "run_experiment", "experiments.run_experiment"),
    ("repro.runtime.cluster", "Cluster", "__init__", "runtime.cluster_build"),
    ("repro.runtime.node", "ProtocolNode", "_receive", "runtime.receive"),
    ("repro.sim.engine", "Simulator", "run", "sim.run"),
    ("repro.network.transport", "Endpoint", "send", "network.endpoint_send"),
    ("repro.network.transport", "Endpoint", "_on_packet", "network.endpoint_receive"),
    ("repro.network.fabric", "NetworkFabric", "send", "network.send"),
    ("repro.network.fabric", "NetworkFabric", "abort", "network.abort"),
    ("repro.network.fabric", "NetworkFabric", "_deliver", "network.deliver"),
    ("repro.network.fabric", "NetworkFabric", "_drop", "network.drop"),
    ("repro.scheduler.lazy_point_to_point", "LazyPointToPoint", "l_send", "scheduler.l_send"),
    ("repro.scheduler.lazy_point_to_point", "LazyPointToPoint", "handle", "scheduler.handle"),
    ("repro.scheduler.requests", "RequestQueue", "queue", "scheduler.queue"),
    ("repro.scheduler.requests", "RequestQueue", "_fire", "scheduler.fire"),
    ("repro.gossip.protocol", "GossipProtocol", "l_receive", "gossip.l_receive"),
    ("repro.gossip.protocol", "GossipProtocol", "multicast_with_id", "gossip.multicast"),
    ("repro.membership.neem_overlay", "NeemOverlay", "sample", "membership.sample"),
    ("repro.membership.neem_overlay", "NeemOverlay", "handle", "membership.handle"),
    ("repro.membership.neem_overlay", "NeemOverlay", "_shuffle_once", "membership.shuffle"),
    ("repro.strategies.base", "BaseStrategy", "first_request_delay", "strategies.first_request_delay"),
    ("repro.strategies.base", "BaseStrategy", "select_source", "strategies.select_source"),
    ("repro.strategies.flat", "FlatStrategy", "eager", "strategies.eager"),
    ("repro.strategies.hybrid", "HybridStrategy", "eager", "strategies.eager"),
    ("repro.strategies.hybrid", "HybridStrategy", "first_request_delay", "strategies.first_request_delay"),
    ("repro.strategies.hybrid", "HybridStrategy", "select_source", "strategies.select_source"),
    ("repro.monitors.oracle", "OracleLatencyMonitor", "metric", "monitors.metric"),
    ("repro.monitors.ranking", "OracleRanking", "is_best", "monitors.is_best"),
    ("repro.metrics.recorder", "MetricsRecorder", "on_send", "metrics.observer"),
    ("repro.metrics.recorder", "MetricsRecorder", "on_deliver", "metrics.observer"),
    ("repro.metrics.recorder", "MetricsRecorder", "on_drop", "metrics.observer"),
    ("repro.metrics.recorder", "MetricsRecorder", "on_multicast", "metrics.observer"),
    ("repro.metrics.recorder", "MetricsRecorder", "on_app_deliver", "metrics.observer"),
    ("repro.metrics.analysis", None, "summarize", "metrics.summarize"),
    ("repro.metrics.analysis", None, "class_payload_rates", "metrics.class_stats"),
    ("repro.metrics.analysis", None, "class_latency", "metrics.class_stats"),
    ("repro.failures.injection", "FailureInjector", "apply", "failures.apply"),
    ("repro.failures.gray", "GrayFailureInjector", "apply", "failures.apply"),
    ("repro.topology.cache", "ModelKey", "build", "topology.build"),
)

MEGASIM_TARGETS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.megasim.runner", None, "run_megasim", "megasim.run"),
    ("repro.megasim.runner", None, "build_topology", "megasim.adapter.build_topology"),
    ("repro.megasim.adapter", None, "build_views", "megasim.adapter.build_views"),
    ("repro.megasim.adapter", None, "compile_faults", "megasim.adapter.compile_faults"),
    ("repro.megasim.adapter", None, "summary_from_outcomes", "megasim.adapter.summary"),
    ("repro.megasim.strategies", None, "compile_strategy", "megasim.strategies.compile"),
    ("repro.megasim.rounds", None, "disseminate", "megasim.rounds.disseminate"),
    ("repro.megasim.rounds", None, "sample_targets", "megasim.rounds.sample_targets"),
    ("repro.megasim.links", None, "merge_link_arrays", "megasim.links.merge"),
    ("repro.megasim.links", None, "structure_metrics", "megasim.links.structure"),
    ("repro.megasim.arena", "MegasimArena", "__init__", "megasim.arena.pack"),
    ("repro.experiments.parallel", None, "run_tasks", "parallel.run_tasks"),
)

LINT_TARGETS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.lint.engine", None, "lint_paths", "lint.lint_paths"),
    ("repro.lint.engine", None, "collect_facts", "lint.collect_facts"),
    ("repro.lint.engine", None, "stream_manifest", "lint.manifest"),
    ("repro.lint.engine", None, "_parse_context", "lint.parse"),
    ("repro.lint.rules", None, "collect_facts_for_module", "lint.facts"),
)

FAMILY_TARGETS = {
    "event": EVENT_TARGETS,
    "megasim": MEGASIM_TARGETS,
    "lint": LINT_TARGETS,
}


def _observers(tracer: Tracer) -> Dict[str, Observer]:
    counts = tracer.counts

    def sim_events(args: Tuple[Any, ...], result: Any) -> None:
        counts["sim.events"] += result

    def drop_reason(args: Tuple[Any, ...], result: Any) -> None:
        counts["network.drops." + args[2]] += 1

    def handled_kind(args: Tuple[Any, ...], result: Any) -> None:
        counts["scheduler.handle." + args[2]] += 1

    def eager_true(args: Tuple[Any, ...], result: Any) -> None:
        if result:
            counts["strategies.eager_true"] += 1

    def task_count(args: Tuple[Any, ...], result: Any) -> None:
        counts["parallel.tasks"] += len(args[0])

    return {
        "sim.run": sim_events,
        "network.drop": drop_reason,
        "scheduler.handle": handled_kind,
        "strategies.eager": eager_true,
        "parallel.run_tasks": task_count,
    }


def install(tracer: Tracer, family: str) -> Patcher:
    """Wrap every target of a workload family; returns the undo handle."""
    patcher = Patcher()
    observers = _observers(tracer)
    try:
        for module_name, class_name, attr, span in FAMILY_TARGETS[family]:
            module = importlib.import_module(module_name)
            observe = observers.get(span)
            if class_name is None:
                patcher.function(tracer, module_name, attr, span, observe)
            else:
                cls = getattr(module, class_name)
                patcher.method(tracer, cls, attr, span, observe)
        if family == "lint":
            _install_rules(tracer, patcher)
    except BaseException:
        patcher.restore()
        raise
    return patcher


def _install_rules(tracer: Tracer, patcher: Patcher) -> None:
    """One span name per rule: ``Rule.check`` for per-file rules,
    ``check_project`` for project rules (both are generators)."""
    from repro.lint.rules import RULES, ProjectRule

    for rule in RULES:
        cls = type(rule)
        attr = "check_project" if isinstance(rule, ProjectRule) else "check"
        patcher.method(
            tracer, cls, attr, f"lint.rule.{rule.rule_id}", materialize=True
        )


# -- per-layer metrics ---------------------------------------------------------------

#: ``(name, unit)`` of every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str]] = (
    [
        ("trace.overhead_s", "s"),
        ("trace.untraced_wall_s", "s"),
        ("trace.traced_wall_s", "s"),
        ("trace.spans", "count"),
        ("experiments.self_s", "s"),
        ("runtime.cluster_build_s", "s"),
        ("runtime.self_s", "s"),
        ("sim.events", "count"),
        ("sim.self_s", "s"),
        ("network.sends", "count"),
        ("network.send_self_s", "s"),
        ("network.self_s", "s"),
        ("network.delivered_ratio", "ratio"),
    ]
    + [(f"network.drops.{reason}", "count") for reason in DROP_REASONS]
    + [
        ("scheduler.l_send_calls", "count"),
        ("scheduler.handle_calls", "count"),
        ("scheduler.requests_queued", "count"),
        ("scheduler.retries", "count"),
        ("scheduler.self_s", "s"),
        ("scheduler.useful_payload_ratio", "ratio"),
        ("gossip.l_receive_calls", "count"),
        ("gossip.self_s", "s"),
        ("membership.sample_calls", "count"),
        ("membership.self_s", "s"),
        ("strategies.eager_calls", "count"),
        ("strategies.eager_ratio", "ratio"),
        ("strategies.self_s", "s"),
        ("monitors.metric_calls", "count"),
        ("monitors.self_s", "s"),
        ("metrics.observer_calls", "count"),
        ("metrics.self_s", "s"),
        ("metrics.summarize_s", "s"),
        ("failures.apply_s", "s"),
        ("topology.build_s", "s"),
        ("megasim.adapter.build_views_s", "s"),
        ("megasim.adapter.compile_faults_s", "s"),
        ("megasim.adapter.summary_s", "s"),
        ("megasim.rounds.disseminate_calls", "count"),
        ("megasim.rounds.disseminate_s", "s"),
        ("megasim.rounds.sample_targets_calls", "count"),
        ("megasim.rounds.sample_targets_s", "s"),
        ("megasim.retries", "count"),
        ("megasim.control_packets", "count"),
        ("megasim.links.merge_calls", "count"),
        ("megasim.links.merge_s", "s"),
        ("megasim.arena.pack_s", "s"),
        ("megasim.self_s", "s"),
        ("parallel.run_tasks_s", "s"),
        ("parallel.tasks", "count"),
        ("lint.files", "count"),
        ("lint.parses_per_file", "ratio"),
        ("lint.facts_s", "s"),
        ("lint.manifest_s", "s"),
        ("lint.self_s", "s"),
    ]
    + [(f"lint.rule.{code}_s", "s") for code in LINT_RULES]
)


def _layer_of(span: str) -> str:
    return span.split(".", 1)[0]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    setup: Dict[str, Dict[str, float]],
    measured: Dict[str, Dict[str, float]],
    worker: Dict[str, Dict[str, float]],
    counts: Counter,
    outcome_counts: Dict[str, float],
) -> Dict[str, float]:
    """Per-layer metrics from span summaries (see :meth:`Tracer.summary`).

    ``setup`` covers one traced set-up, ``measured`` the traced measured
    call, and ``worker`` a traced serial call whose spans stand in for
    work pool workers do (megasim only; empty elsewhere).
    """

    def calls(table: Dict[str, Dict[str, float]], span: str) -> int:
        return int(table.get(span, {}).get("calls", 0))

    def total(table: Dict[str, Dict[str, float]], span: str) -> float:
        return float(table.get(span, {}).get("total_s", 0.0))

    def layer_self(table: Dict[str, Dict[str, float]], layer: str) -> float:
        return sum(
            row["self_s"] for span, row in table.items()
            if _layer_of(span) == layer
        )

    def self_of(table: Dict[str, Dict[str, float]], spans: Tuple[str, ...]) -> float:
        return sum(table.get(s, {}).get("self_s", 0.0) for s in spans)

    m = measured
    sends = calls(m, "network.send")
    eager_calls = calls(m, "strategies.eager")
    msg_handled = counts.get("scheduler.handle.MSG", 0)
    files = outcome_counts.get("lint.files", 0)
    values: Dict[str, float] = {
        "experiments.self_s": layer_self(m, "experiments"),
        "runtime.cluster_build_s": total(m, "runtime.cluster_build"),
        "runtime.self_s": layer_self(m, "runtime"),
        "sim.events": counts.get("sim.events", 0),
        "sim.self_s": layer_self(m, "sim"),
        "network.sends": sends,
        "network.send_self_s": self_of(
            m, ("network.endpoint_send", "network.send", "network.abort")
        ),
        "network.self_s": layer_self(m, "network"),
        "network.delivered_ratio": _ratio(
            calls(m, "network.endpoint_receive"), sends
        ),
        "scheduler.l_send_calls": calls(m, "scheduler.l_send"),
        "scheduler.handle_calls": calls(m, "scheduler.handle"),
        "scheduler.requests_queued": calls(m, "scheduler.queue"),
        "scheduler.retries": outcome_counts.get("scheduler.retries", 0),
        "scheduler.self_s": layer_self(m, "scheduler"),
        "scheduler.useful_payload_ratio": _ratio(
            outcome_counts.get("deliveries", 0), msg_handled
        ),
        "gossip.l_receive_calls": calls(m, "gossip.l_receive"),
        "gossip.self_s": layer_self(m, "gossip"),
        "membership.sample_calls": calls(m, "membership.sample"),
        "membership.self_s": layer_self(m, "membership"),
        "strategies.eager_calls": eager_calls,
        "strategies.eager_ratio": _ratio(
            counts.get("strategies.eager_true", 0), eager_calls
        ),
        "strategies.self_s": layer_self(m, "strategies"),
        "monitors.metric_calls": calls(m, "monitors.metric"),
        "monitors.self_s": layer_self(m, "monitors"),
        "metrics.observer_calls": calls(m, "metrics.observer"),
        "metrics.self_s": layer_self(m, "metrics"),
        "metrics.summarize_s": total(m, "metrics.summarize"),
        "failures.apply_s": total(m, "failures.apply"),
        "topology.build_s": total(setup, "topology.build"),
        "megasim.adapter.build_views_s": total(setup, "megasim.adapter.build_views"),
        "megasim.adapter.compile_faults_s": total(
            setup, "megasim.adapter.compile_faults"
        ),
        "megasim.adapter.summary_s": total(m, "megasim.adapter.summary"),
        "megasim.rounds.disseminate_calls": calls(worker, "megasim.rounds.disseminate"),
        "megasim.rounds.disseminate_s": total(worker, "megasim.rounds.disseminate"),
        "megasim.rounds.sample_targets_calls": calls(
            worker, "megasim.rounds.sample_targets"
        ),
        "megasim.rounds.sample_targets_s": total(
            worker, "megasim.rounds.sample_targets"
        ),
        "megasim.retries": outcome_counts.get("megasim.retries", 0),
        "megasim.control_packets": outcome_counts.get(
            "megasim.control_packets", 0
        ),
        "megasim.links.merge_calls": calls(m, "megasim.links.merge"),
        "megasim.links.merge_s": total(m, "megasim.links.merge"),
        "megasim.arena.pack_s": total(m, "megasim.arena.pack"),
        "megasim.self_s": layer_self(m, "megasim"),
        "parallel.run_tasks_s": total(m, "parallel.run_tasks"),
        "parallel.tasks": counts.get("parallel.tasks", 0),
        "lint.files": files,
        "lint.parses_per_file": _ratio(calls(m, "lint.parse"), files),
        "lint.facts_s": total(m, "lint.facts"),
        "lint.manifest_s": total(m, "lint.manifest"),
        "lint.self_s": layer_self(m, "lint"),
    }
    for reason in DROP_REASONS:
        values[f"network.drops.{reason}"] = counts.get(
            f"network.drops.{reason}", 0
        )
    for code in LINT_RULES:
        values[f"lint.rule.{code}_s"] = total(m, f"lint.rule.{code}")
    return values
