"""In-memory spans recorded by wrapping a program's functions from outside.

A :class:`Tracer` keeps one span per call into a wrapped function: its
name, start, end, parent span and run id, in flat ``array`` columns so
millions of spans stay compact.  Nothing is written while the program
runs; :meth:`Tracer.write` saves every span once the run has ended.

A :class:`Patcher` installs the wrappers on classes and modules and
puts the originals back afterwards, so a traced call and an untraced
call run the very same program code.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: Called after a wrapped function returns, with its positional
#: arguments and its result, to count work at the same boundary.
Observer = Callable[[Tuple[Any, ...], Any], None]


class Tracer:
    """Spans and counters of one traced benchmark run."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("q")
        self.runs = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: List[int] = [-1]
        #: Run id stamped on new spans; the harness sets it per phase.
        self.run_id = 0
        self.counts: Counter = Counter()

    def __len__(self) -> int:
        return len(self.starts)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(
        self,
        function: Callable[..., Any],
        name: str,
        observe: Optional[Observer] = None,
        materialize: bool = False,
    ) -> Callable[..., Any]:
        """``function`` with a span around every call.

        ``materialize`` turns a returned iterator into a list inside the
        span, so a generator's work is timed where it is called.
        """
        nid = self.name_id(name)
        tracer = self
        stack = self._stack
        starts = self.starts
        ends = self.ends
        add_name = self.name_ids.append
        add_parent = self.parents.append
        add_run = self.runs.append
        add_start = starts.append
        add_end = ends.append
        clock = perf_counter

        # Two copies of the same wrapper: the plain one leaves out the
        # observer and iterator branches, because it runs millions of
        # times in one traced call.
        if observe is None and not materialize:

            def traced(*args: Any, **kwargs: Any) -> Any:
                index = len(starts)
                add_name(nid)
                add_parent(stack[-1])
                add_run(tracer.run_id)
                add_end(0.0)
                stack.append(index)
                add_start(clock())
                try:
                    return function(*args, **kwargs)
                finally:
                    ends[index] = clock()
                    stack.pop()

        else:

            def traced(*args: Any, **kwargs: Any) -> Any:
                index = len(starts)
                add_name(nid)
                add_parent(stack[-1])
                add_run(tracer.run_id)
                add_end(0.0)
                stack.append(index)
                add_start(clock())
                try:
                    result = function(*args, **kwargs)
                    if materialize:
                        result = list(result)
                finally:
                    ends[index] = clock()
                    stack.pop()
                if observe is not None:
                    observe(args, result)
                return result

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        return traced

    # -- analysis ---------------------------------------------------------

    def columns(self) -> Dict[str, np.ndarray]:
        """Every span as aligned numpy columns.

        The columns are views on the span arrays: drop them before the
        next traced call, which cannot grow an array while it is viewed.
        """
        return {
            "name": np.frombuffer(self.name_ids, dtype=np.int32),
            "parent": np.frombuffer(self.parents, dtype=np.int64),
            "run": np.frombuffer(self.runs, dtype=np.int32),
            "start": np.frombuffer(self.starts, dtype=np.float64),
            "end": np.frombuffer(self.ends, dtype=np.float64),
        }

    def summary(self, run_id: int) -> Dict[str, Dict[str, float]]:
        """Per span name in run ``run_id``: calls, total and self seconds."""
        cols = self.columns()
        durations = cols["end"] - cols["start"]
        self_s = self_times(cols["parent"], durations)
        keep = cols["run"] == run_id
        names = cols["name"][keep]
        del cols
        width = len(self.names)
        calls = np.bincount(names, minlength=width)
        total = np.bincount(names, weights=durations[keep], minlength=width)
        own = np.bincount(names, weights=self_s[keep], minlength=width)
        return {
            name: {
                "calls": int(calls[i]),
                "total_s": float(total[i]),
                "self_s": float(own[i]),
            }
            for i, name in enumerate(self.names)
            if calls[i]
        }

    def write(self, path: Path) -> None:
        """Save every span (and the name table) as one ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.columns())


def self_times(parents: np.ndarray, durations: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Spans come from synchronous calls, so children never overlap each
    other and lie inside their parent; a parent index of ``-1`` marks a
    root span.
    """
    durations = np.asarray(durations, dtype=np.float64)
    parents = np.asarray(parents, dtype=np.int64)
    has_parent = parents >= 0
    covered = np.bincount(
        parents[has_parent],
        weights=durations[has_parent],
        minlength=durations.shape[0],
    )
    return durations - covered


class Patcher:
    """Replaces attributes on classes and modules; restores them all."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, bool, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        own = vars(owner)
        self._undo.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, value)

    def method(
        self,
        tracer: Tracer,
        cls: type,
        attr: str,
        name: str,
        observe: Optional[Observer] = None,
        materialize: bool = False,
    ) -> None:
        """Wrap ``cls.attr`` (its own or inherited) for ``cls`` and its
        subclasses that do not override it."""
        original = getattr(cls, attr)
        self.set(cls, attr, tracer.wrap(original, name, observe, materialize))

    def function(
        self,
        tracer: Tracer,
        module: str,
        attr: str,
        name: str,
        observe: Optional[Observer] = None,
    ) -> None:
        """Wrap a module-level function in every loaded module that
        holds it, so callers that imported it by name see the wrapper
        too."""
        original = getattr(sys.modules[module], attr)
        wrapper = tracer.wrap(original, name, observe)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith(("repro", "perfbench")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, key, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, had, old = self._undo.pop()
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
