"""The benchmark end to end on tiny inputs, and its output checks."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench import harness, instrument, run
from perfbench.harness import Check
from perfbench.tracer import Tracer
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(capsys, *args: str):
    code = run.main(list(args))
    out = capsys.readouterr().out.strip().splitlines()
    return code, out, json.loads(out[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_named_metric_with_its_unit(
    capsys, workload: str, trace: str
) -> None:
    code, lines, result = _run(
        capsys, "--workload", workload, "--seed", "3", "--seconds", "0.01",
        "--trace", trace, "--size", "tiny",
    )
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= (3 if trace == "0" else 2)
    declared = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    expected = {m["name"]: m["unit"] for m in declared}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    text = "\n".join(lines[:-1])
    for name, unit in expected.items():
        assert f"{name} " in text and f" {unit}" in text
    assert "error_rate=0" in lines[0]
    env = json.loads(next(l for l in lines if l.startswith("env "))[4:])
    for key in ("cpu_model", "nproc", "python", "numpy", "git_commit", "seed"):
        assert key in env
    assert env["seed"] == 3
    if trace == "0":
        for name in ("wall_s", "setup_s", "items_per_s", "peak_rss_mb"):
            assert result["metrics"][name]["value"] > 0


def test_no_helper_process_outlives_a_run(capsys) -> None:
    from multiprocessing import active_children, resource_tracker

    code, _, result = _run(
        capsys, "--workload", "megasim_overlay_100k", "--seed", "3",
        "--seconds", "0.01", "--trace", "0", "--size", "tiny",
    )
    assert code == 0 and result["correct"] is True
    assert active_children() == []
    # The arena's shared-memory segment starts the tracker; it is stopped
    # and reaped before the run returns.
    assert resource_tracker._resource_tracker._pid is None


def test_benchmark_file_names_the_workloads() -> None:
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["per_layer"]]
    assert names == [name for name, _ in instrument.PER_LAYER]
    assert [m["name"] for m in SPEC["end_to_end"]] == [
        name for name, _ in harness.END_TO_END
    ]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tracing_never_changes_the_output(workload: str) -> None:
    bench = WORKLOADS[workload](5, "tiny")
    bench.setup()
    plain = bench.run()
    tracer = Tracer()
    patcher = instrument.install(tracer, bench.family)
    try:
        traced = bench.run()
        serial = bench.run(serial=True)
    finally:
        patcher.restore()
    assert len(tracer) > 0
    assert traced.digest == plain.digest
    assert serial.digest == plain.digest
    assert bench.run().digest == plain.digest


class _Perturbed:
    """Wraps a workload; every second call's output is altered."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def run(self, serial: bool = False):
        outcome = self.inner.run(serial)
        self.calls += 1
        if self.calls % 2 == 0:
            digest = dict(outcome.digest)
            digest["perturbed"] = True
            outcome = replace(outcome, digest=digest)
        return outcome


def test_a_perturbed_output_counts_as_a_failed_run() -> None:
    bench = _Perturbed(WORKLOADS["event_flat_faulty_full"](2, "tiny"))
    result = harness.run_untraced(bench, Check(bench, pinned=None), seconds=0.0)
    assert result.attempted == harness.MIN_CALLS == 3
    assert result.failed == 1
    assert result.correct is False


def test_output_that_differs_from_the_pinned_digest_fails_every_call(
    capsys, monkeypatch
) -> None:
    bench = WORKLOADS["event_hybrid_full"](4, "tiny")
    bench.setup()
    wrong = dict(bench.run().digest, deliveries=-1)
    monkeypatch.setattr(harness, "load_pinned", lambda *args: wrong)
    code, lines, result = _run(
        capsys, "--workload", "event_hybrid_full", "--seed", "4",
        "--seconds", "0.01", "--trace", "0", "--size", "tiny",
    )
    assert code == 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 3
    assert "error_rate=1" in lines[0]


def test_pinned_digests_match_for_their_seed() -> None:
    pinned = harness.load_pinned("lint_tree", "full", 12345)
    assert pinned is not None and pinned["findings"] == []
    bench = WORKLOADS["lint_tree"](12345)
    bench.setup()
    assert bench.run().digest == pinned


def test_a_call_that_raises_counts_as_failed(monkeypatch) -> None:
    bench = WORKLOADS["event_hybrid_full"](1, "tiny")
    calls = []

    def flaky(serial: bool = False):
        calls.append(serial)
        if len(calls) == 1:
            raise RuntimeError("boom")
        return type(bench).run(bench, serial)

    monkeypatch.setattr(bench, "run", flaky)
    result = harness.run_untraced(bench, Check(bench, pinned=None), seconds=0.0)
    assert (result.attempted, result.failed) == (3, 1)


def test_without_the_program_it_fails_and_prints_no_result(tmp_path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "lint_tree",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
