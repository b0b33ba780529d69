"""Engine behaviour: suppression comments, file walking, module naming."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.lint import (
    LintError,
    collect_facts,
    lint_file,
    lint_paths,
    lint_source,
    module_name_for,
    select_rules,
)
from repro.lint.rules import RULES


# -- noqa suppression --------------------------------------------------------------


def test_targeted_noqa_suppresses_matching_rule():
    assert lint_source("import time\nx = time.time()  # noqa: DET001\n") == []


def test_bare_noqa_suppresses_every_rule_on_the_line():
    assert lint_source("import time\nx = time.time()  # noqa\n") == []


def test_noqa_for_a_different_rule_does_not_suppress():
    findings = lint_source("import time\nx = time.time()  # noqa: DET002\n")
    assert [f.rule for f in findings] == ["DET001"]


def test_noqa_with_multiple_codes():
    source = (
        "import time, random\n"
        "x = time.time() + random.random()  # noqa: DET001, DET002\n"
    )
    assert lint_source(source) == []


def test_multi_code_noqa_suppresses_each_rule_independently():
    # "# noqa: DET001,DET002" is a set of codes, not an all-or-nothing
    # unit: listing only one code lets exactly the other rule through.
    line = "x = time.time() + random.random()"
    both = f"import time, random\n{line}  # noqa: DET001,DET002\n"
    only_001 = f"import time, random\n{line}  # noqa: DET001\n"
    only_002 = f"import time, random\n{line}  # noqa: DET002\n"
    assert lint_source(both) == []
    assert [f.rule for f in lint_source(only_001)] == ["DET002"]
    assert [f.rule for f in lint_source(only_002)] == ["DET001"]


def test_noqa_is_case_insensitive():
    assert lint_source("import time\nx = time.time()  # NOQA: det001\n") == []


def test_noqa_only_covers_its_own_line():
    source = (
        "import time\n"
        "a = time.time()  # noqa: DET001\n"
        "b = time.time()\n"
    )
    findings = lint_source(source)
    assert [(f.rule, f.line) for f in findings] == [("DET001", 3)]


# -- files and directories ---------------------------------------------------------


def test_lint_file_reports_relative_posix_paths(tmp_path):
    bad = tmp_path / "pkg" / "mod.py"
    bad.parent.mkdir()
    bad.write_text("import time\nx = time.time()\n")
    findings = lint_file(bad, root=tmp_path)
    assert [f.path for f in findings] == ["pkg/mod.py"]


def test_lint_paths_walks_directories_in_sorted_order(tmp_path):
    for name in ("b.py", "a.py"):
        (tmp_path / name).write_text("import time\nx = time.time()\n")
    (tmp_path / "__pycache__").mkdir()
    (tmp_path / "__pycache__" / "c.py").write_text("import time\ntime.time()\n")
    findings = lint_paths([tmp_path], root=tmp_path)
    assert [f.path for f in findings] == ["a.py", "b.py"]


def test_lint_paths_accepts_single_files(tmp_path):
    target = tmp_path / "one.py"
    target.write_text("def f(xs=[]):\n    return xs\n")
    findings = lint_paths([target], root=tmp_path)
    assert [f.rule for f in findings] == ["DET006"]


def test_syntax_error_raises_lint_error(tmp_path):
    target = tmp_path / "broken.py"
    target.write_text("def f(:\n")
    with pytest.raises(LintError, match="broken.py"):
        lint_file(target, root=tmp_path)


def test_lint_source_syntax_error():
    with pytest.raises(LintError):
        lint_source("def f(:\n")


# -- module naming and scoping -----------------------------------------------------


def test_module_name_from_src_layout():
    path = Path("src/repro/sim/engine.py")
    assert module_name_for(path) == "repro.sim.engine"


def test_module_name_for_package_init():
    assert module_name_for(Path("src/repro/lint/__init__.py")) == "repro.lint"


def test_module_name_fallback_for_loose_files():
    assert module_name_for(Path("benchmarks/bench_micro.py")) == "bench_micro"


def test_scoping_follows_derived_module_name(tmp_path):
    # A file under src/repro/sim/ gets DET004 core scoping even when the
    # tree lives somewhere else on disk.
    core = tmp_path / "src" / "repro" / "sim" / "mod.py"
    core.parent.mkdir(parents=True)
    core.write_text("import os\nv = os.getenv('X')\n")
    outside = tmp_path / "src" / "repro" / "experiments" / "mod.py"
    outside.parent.mkdir(parents=True)
    outside.write_text("import os\nv = os.getenv('X')\n")
    assert [f.rule for f in lint_file(core, root=tmp_path)] == ["DET004"]
    assert lint_file(outside, root=tmp_path) == []


# -- rule selection ----------------------------------------------------------------


def test_select_rules_defaults_to_all():
    assert select_rules(None) == RULES


def test_select_rules_filters_and_normalises():
    (rule,) = select_rules(["det003"])
    assert rule.rule_id == "DET003"


def test_select_rules_rejects_unknown_codes():
    with pytest.raises(LintError, match="DET099"):
        select_rules(["DET099"])


# -- one read, one parse, one walk per file ----------------------------------------


def test_lint_paths_parses_and_walks_each_file_once(tmp_path, monkeypatch):
    from repro.lint import engine

    for name in ("a.py", "b.py", "c.py"):
        (tmp_path / name).write_text(
            "import time\n"
            "def f(xs):\n"
            "    return [time.time() for x in {1, 2} if x in xs]\n"
        )
    calls = {"parse": 0, "collect": 0}
    # Enumerating a node's children is what any walk over it does.  Only
    # statements and expressions are counted (the parser shares one
    # Load/Store/operator node between all uses), and they are kept
    # alive so their ids stay unique across files.
    enumerated = {}
    real_children = ast.iter_child_nodes

    def children(node):
        if isinstance(node, (ast.stmt, ast.expr)):
            enumerated.setdefault(id(node), [node, 0])[1] += 1
        return real_children(node)

    def counting(key, real):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)

        return wrapper

    # Patched only while linting: pytest's own reporting uses ast.
    with monkeypatch.context() as patch:
        patch.setattr(
            engine, "_parse_context", counting("parse", engine._parse_context)
        )
        patch.setattr(
            engine,
            "collect_facts_for_module",
            counting("collect", engine.collect_facts_for_module),
        )
        patch.setattr(ast, "iter_child_nodes", children)
        # A file listed twice is still read once.
        findings = lint_paths([tmp_path, tmp_path / "b.py"], root=tmp_path)
    assert [(f.path, f.rule) for f in findings] == [
        (name, rule) for name in ("a.py", "b.py", "c.py")
        for rule in ("DET001", "DET003")
    ]
    assert calls == {"parse": 3, "collect": 3}
    assert enumerated and max(count for _, count in enumerated.values()) == 1


#: One module that trips every rule, under a scope where all of them apply.
EVERY_RULE = """\
import os
import random
import time
from dataclasses import dataclass

import numpy as np

clock = time.time()
draw = random.random()
for x in {1, 2}:
    pass
env = os.getenv("SEED")


@dataclass
class BuildFactory:
    p: float


def pick(xs=[]):
    return xs


def a(streams):
    return streams.stream("shared")


def b(streams, nodes):
    rng = random.Random(7)
    for node in nodes:
        streams.stream("shared")
    return rng


def vec(x, payload):
    order = np.argsort(x)
    noise = np.random.rand(3)
    vals, inverse = np.unique(x, return_inverse=True)
    return payload[inverse], np.array(set(x)), order, noise
"""


def test_rules_judge_facts_without_walking_a_syntax_tree(tmp_path, monkeypatch):
    module = tmp_path / "src" / "repro" / "megasim" / "every.py"
    module.parent.mkdir(parents=True)
    module.write_text(EVERY_RULE)
    facts = collect_facts([tmp_path], root=tmp_path)

    def forbidden(*args, **kwargs):
        raise AssertionError("a rule parsed or walked a syntax tree")

    with monkeypatch.context() as patch:
        for name in ("parse", "walk", "iter_child_nodes"):
            patch.setattr(ast, name, forbidden)
        fired = {
            finding.rule for rule in RULES for finding in rule.check_project(facts)
        }
    assert fired == {rule.rule_id for rule in RULES}
