"""Span bookkeeping: self time, nesting, counting, and clean restore."""

from __future__ import annotations

import numpy as np
import pytest

from perfbench.tracer import Patcher, Tracer, self_times


def test_self_time_subtracts_direct_children_only() -> None:
    # root(10) -> a(6) -> b(2), and root -> c(3); d(4) is another root.
    parents = np.array([-1, 0, 1, 0, -1])
    durations = np.array([10.0, 6.0, 2.0, 3.0, 4.0])
    assert self_times(parents, durations).tolist() == [1.0, 4.0, 2.0, 3.0, 4.0]


def test_self_times_sum_to_root_durations() -> None:
    parents = np.array([-1, 0, 0, 2, 2, 2, -1, 6])
    durations = np.array([9.0, 1.5, 6.0, 1.0, 2.0, 0.5, 3.0, 3.0])
    own = self_times(parents, durations)
    assert own.sum() == pytest.approx(durations[parents < 0].sum())
    assert own[2] == pytest.approx(2.5)
    assert own[7] == pytest.approx(3.0)
    assert own[6] == pytest.approx(0.0)


class _Layered:
    def outer(self, n: int) -> int:
        return sum(self.inner(i) for i in range(n))

    def inner(self, i: int) -> int:
        return i


def test_wrapped_calls_nest_and_summarize() -> None:
    tracer = Tracer()
    patcher = Patcher()
    patcher.method(tracer, _Layered, "outer", "a.outer")
    patcher.method(tracer, _Layered, "inner", "b.inner")
    tracer.run_id = 7
    try:
        assert _Layered().outer(4) == 6
    finally:
        patcher.restore()
    cols = tracer.columns()
    assert cols["parent"].tolist() == [-1, 0, 0, 0, 0]
    assert cols["run"].tolist() == [7] * 5
    del cols
    summary = tracer.summary(7)
    assert summary["a.outer"]["calls"] == 1
    assert summary["b.inner"]["calls"] == 4
    outer = summary["a.outer"]
    assert outer["self_s"] == pytest.approx(
        outer["total_s"] - summary["b.inner"]["total_s"]
    )
    assert tracer.summary(8) == {}


def test_restore_puts_originals_back() -> None:
    original = _Layered.__dict__["inner"]
    tracer = Tracer()
    patcher = Patcher()
    patcher.method(tracer, _Layered, "inner", "b.inner")
    assert _Layered.__dict__["inner"] is not original
    patcher.restore()
    assert _Layered.__dict__["inner"] is original
    _Layered().inner(1)
    assert len(tracer) == 0


def test_inherited_method_is_wrapped_on_the_subclass_only_while_patched() -> None:
    class Child(_Layered):
        pass

    tracer = Tracer()
    patcher = Patcher()
    patcher.method(tracer, Child, "inner", "b.inner")
    Child().inner(1)
    _Layered().inner(1)
    patcher.restore()
    assert "inner" not in Child.__dict__
    assert len(tracer) == 1


def test_observer_counts_and_materialize() -> None:
    tracer = Tracer()

    def numbers(n: int):
        yield from range(n)

    def count(args, result) -> None:
        tracer.counts["items"] += len(result)

    wrapped = tracer.wrap(numbers, "x.numbers", observe=count, materialize=True)
    assert wrapped(3) == [0, 1, 2]
    assert tracer.counts["items"] == 3


def test_span_closes_when_the_call_raises() -> None:
    tracer = Tracer()

    def boom() -> None:
        raise KeyError("x")

    wrapped = tracer.wrap(boom, "x.boom")
    with pytest.raises(KeyError):
        wrapped()
    assert tracer.ends[0] >= tracer.starts[0] > 0.0
    assert tracer._stack == [-1]
