"""Static determinism analysis (``python -m repro.lint``).

The reproduction's correctness rests on bit-exact golden traces: every
strategy's full event stream must be identical across runs, machines and
``--workers`` counts.  The golden tests catch a determinism bug *after*
it runs; this package catches the usual causes before that.  Linting is
a two-phase collect/analyze pipeline: each file is parsed and walked
once into structured facts (:mod:`repro.lint.facts` -- banned-call,
set-iteration, factory and default-argument sites, stream-name call
sites, RNG constructor sites, numpy call sites, ``# noqa`` comments),
then every rule judges the merged fact set; no rule walks a syntax tree.

Per-file rules, each judging one file's sites:

========  ==========================================================
DET001    no wall-clock calls outside the measurement allowlist
DET002    no calls into the process-global ``random`` generator
DET003    no iteration over sets without an explicit ``sorted(...)``
DET004    no environment/filesystem/entropy reads in the sim core
DET005    parallel-engine factories must be frozen dataclasses
DET006    no mutable default arguments
========  ==========================================================

Project-scope stream-lineage rules (whole-tree facts):

========  ==========================================================
DET010    no stream key derived from two distinct (module, function)
          sites -- collisions silently correlate subsystems
DET011    no RNG constructed from a constant or ambient seed outside
          the ``derive_seed``/``spawn`` lineage
DET012    no literal stream key derived inside a loop or per-index
          helper (an ``{index}``-style f-string is required)
========  ==========================================================

Vectorization-safety rules (scoped to ``repro.megasim``):

========  ==========================================================
VEC001    ``argsort``/``sort`` must pass ``kind="stable"``
VEC002    no calls into the legacy global ``np.random.*`` API
VEC003    ``np.unique`` companions used positionally require
          ``return_index=True``
VEC004    no numpy operand built from set/dict iteration order
========  ==========================================================

Per-line ``# noqa: DET0xx`` comments suppress a finding in place (for a
multi-site finding, on *any* of its locations); a JSON baseline file
grandfathers existing findings so the gate can be strict for new code.
This repository ships with an **empty** baseline -- the pytest gate
(``tests/lint/test_self_check.py``) asserts ``src/repro`` is clean.

``python -m repro.lint --streams`` emits the generated stream manifest:
sorted JSON of every statically resolvable RNG stream key pattern and
its call sites.  The pinned copy (``tests/lint/data/stream_manifest.json``,
gated by ``tests/lint/test_stream_manifest.py`` and ``make
lint-streams``) makes any new or renamed stream review-visible, the
same way the mypy ratchet list is.
"""

from repro.lint.baseline import Baseline
from repro.lint.engine import (
    MANIFEST_VERSION,
    LintError,
    collect_facts,
    lint_file,
    lint_paths,
    lint_source,
    module_name_for,
    repo_root_for,
    select_rules,
    stream_manifest,
)
from repro.lint.facts import (
    FactCollector,
    FileFacts,
    NumpySite,
    RngSite,
    Site,
    StreamSite,
    collect_facts_for_module,
)
from repro.lint.findings import Finding, Location
from repro.lint.rules import (
    CORE_MODULES,
    RULES,
    RULES_BY_ID,
    VECTOR_MODULES,
    ProjectRule,
    Rule,
)

__all__ = [
    "Baseline",
    "CORE_MODULES",
    "FactCollector",
    "FileFacts",
    "Finding",
    "LintError",
    "Location",
    "MANIFEST_VERSION",
    "NumpySite",
    "ProjectRule",
    "RULES",
    "RULES_BY_ID",
    "RngSite",
    "Rule",
    "Site",
    "StreamSite",
    "VECTOR_MODULES",
    "collect_facts",
    "collect_facts_for_module",
    "lint_file",
    "lint_paths",
    "lint_source",
    "module_name_for",
    "repo_root_for",
    "select_rules",
    "stream_manifest",
]
