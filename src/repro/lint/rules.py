"""The determinism rule set: DET001..DET006 per file, DET010..DET012
and VEC001..VEC004 over the whole project.

Every rule judges the facts :mod:`repro.lint.facts` collects in its one
walk per file; no rule walks a syntax tree.  The per-file rules read a
file's :class:`~repro.lint.facts.Site` records -- calls resolved
through the module's import table, so ``from time import perf_counter``
and ``import time as t`` are caught the same way as the plain spelling.
The project-scope rules read the stream, RNG and numpy sites merged
across every linted file, so they can see whole-program invariants no
single file reveals.

Why the per-file six exist: the reproduction's correctness story is the
golden-trace harness -- every strategy's full event trace must be
bit-identical across runs, machines and worker counts.  Each rule bans
one way that property has historically been lost in discrete-event
simulators:

- **DET001** wall clocks leak real time into simulated time.
- **DET002** the global :mod:`random` generator is shared, unseeded
  process state; only named seeded streams are reproducible.
- **DET003** set iteration order depends on string-hash salting
  (``PYTHONHASHSEED``), so any set that feeds scheduling or output must
  pass through ``sorted()`` first.
- **DET004** environment variables, the filesystem and the OS entropy
  pool are inputs the trace cannot replay.
- **DET005** strategy/experiment factories cross the process boundary
  into the parallel engine; frozen dataclasses are the picklable,
  hash-stable shape PR 3 standardised on.
- **DET006** mutable default arguments are shared state across calls --
  a classic source of order-dependent behaviour.

The stream-lineage family guards the `RandomStreams.derive_seed`
discipline the vector tier's bit-exactness hangs on:

- **DET010** the same resolved stream key derived from two distinct
  ``(module, function)`` sites silently *correlates* subsystems that
  believe they are independent.
- **DET011** an RNG constructed from a constant or ambient seed sits
  outside the root-seed lineage entirely.
- **DET012** a literal (non-parameterized) key derived inside a loop or
  per-index helper re-creates the *same* stream per iteration where an
  ``{index}``-style f-string is required.

The vectorization-safety family (scoped to ``repro.megasim``) bans the
numpy idioms whose result depends on sort stability, first-occurrence
bookkeeping or container iteration order:

- **VEC001** ``argsort``/``sort`` without ``kind="stable"`` breaks ties
  by implementation detail (``lexsort`` is stable by spec and passes).
- **VEC002** the legacy process-global ``np.random.*`` API is the
  vectorized twin of DET002.
- **VEC003** treating a positional companion of ``np.unique`` as
  first-occurrence indices requires ``return_index=True``.
- **VEC004** a numpy operand built from set/dict iteration has
  arbitrary element order (the vectorized twin of DET003).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.lint.facts import FileFacts, NumpySite, StreamSite, in_scope
# Re-exported: the phase-1 entry point the engine runs once per file.
from repro.lint.facts import collect_facts_for_module as collect_facts_for_module
from repro.lint.findings import Finding, Location

#: Modules (dotted-prefix match) that make up the deterministic sim core.
#: DET004 applies only here: the experiment/metrics/CLI layers legitimately
#: read model files and write results.
CORE_MODULES: Tuple[str, ...] = (
    "repro.sim",
    "repro.runtime",
    "repro.gossip",
    "repro.scheduler",
    "repro.strategies",
    "repro.network",
    "repro.membership",
    "repro.failures",
    "repro.baselines",
    "repro.megasim",
)

#: The one sanctioned user of ``multiprocessing.shared_memory`` inside
#: the core scope.  Creating a segment draws a random OS-level name
#: (``/psm_...``) -- ambient entropy by DET004's definition -- but the
#: arena's names are pure transport: they ship the environment to
#: workers and never reach a simulated result, which the dispatch
#: byte-equality suite checks directly.
SHARED_MEMORY_ALLOWLIST: Tuple[str, ...] = ("repro.megasim.arena",)

#: Modules exempt from DET001: measurement harnesses that time the *real*
#: world on purpose (benchmark drivers, the parallel engine's wall-clock
#: progress reporting).  Simulated time never flows through these.
WALL_CLOCK_ALLOWLIST: Tuple[str, ...] = (
    "repro.experiments.parallel",
    "repro.megasim.cli",
    "benchmarks",
    "bench_",
)


class Rule:
    """Base class: a rule id, a summary and a judgement over facts.

    A per-file rule implements :meth:`check` over one file's facts; the
    engine reaches it through :meth:`check_project`, which judges each
    file of the merged fact set in turn.
    """

    rule_id: str = ""
    summary: str = ""

    def check(self, facts: FileFacts) -> Iterator[Finding]:
        raise NotImplementedError

    def check_project(self, facts: Sequence[FileFacts]) -> Iterator[Finding]:
        for file_facts in facts:
            yield from self.check(file_facts)

    def site_finding(
        self,
        path: str,
        line: int,
        col: int,
        message: str,
        related: Tuple[Location, ...] = (),
    ) -> Finding:
        return Finding(
            path=path,
            line=line,
            col=col,
            rule=self.rule_id,
            message=message,
            related=related,
        )


class SiteRule(Rule):
    """A per-file rule over the collector's :class:`Site` records: one
    finding per site whose kind has a message template (``{name}`` is
    the site's name) in a module the rule applies to."""

    templates: Dict[str, str] = {}

    def applies(self, module: str, kind: str) -> bool:
        return True

    def check(self, facts: FileFacts) -> Iterator[Finding]:
        for site in facts.sites:
            template = self.templates.get(site.kind)
            if template is not None and self.applies(facts.module, site.kind):
                yield self.site_finding(
                    facts.path, site.line, site.col, template.format(name=site.name)
                )


class WallClockRule(SiteRule):
    """DET001: no wall-clock reads in deterministic code."""

    rule_id = "DET001"
    summary = (
        "wall-clock call in deterministic code; use sim.now / simulated "
        "timers instead"
    )
    templates = {
        "wall-clock": "wall-clock call {name}() is nondeterministic; "
        "read simulated time from the Simulator",
    }

    def applies(self, module: str, kind: str) -> bool:
        return not in_scope(module, WALL_CLOCK_ALLOWLIST)


class GlobalRandomRule(SiteRule):
    """DET002: the module-level random generator is banned; only
    constructing an explicitly seeded ``random.Random`` may be called."""

    rule_id = "DET002"
    summary = (
        "call into the global random generator; use a seeded "
        "random.Random(seed) or a sim.rng stream"
    )
    templates = {
        "global-random": "{name}() draws from the process-global generator; "
        "pass an explicitly seeded random.Random or use sim.rng",
    }


class UnsortedSetIterationRule(SiteRule):
    """DET003: iterating a set without sorted() first.

    CPython string hashing is salted per process (PYTHONHASHSEED), so the
    iteration order of any set containing strings -- and, transitively,
    any list built from one -- varies across runs.  The collector tracks
    set-typed locals by simple same-scope dataflow and records:

    - ``for x in <set-expr>`` and comprehension iteration, and
    - ``list()/tuple()/iter()/enumerate()`` applied to a set expression
      (order laundering: the arbitrary order escapes into a sequence).

    ``sorted(<set-expr>)`` is the sanctioned escape hatch; order-free
    reductions (``len``, ``sum``, ``min``, ``max``, ``any``, ``all``,
    membership tests) are untouched.
    """

    rule_id = "DET003"
    summary = "iteration over an unordered set; wrap it in sorted(...)"
    templates = {
        "set-for": "iterating a set in arbitrary order; "
        "wrap the iterable in sorted(...)",
        "set-comprehension": "comprehension iterates a set in arbitrary "
        "order; wrap the iterable in sorted(...)",
        "set-launder": "{name}() of a set leaks arbitrary iteration "
        "order; use sorted(...) instead",
    }


class EnvironmentReadRule(SiteRule):
    """DET004: no ambient-environment reads inside the sim core."""

    rule_id = "DET004"
    summary = (
        "environment/filesystem/entropy read in the sim core; inject the "
        "value through configuration instead"
    )
    templates = {
        "entropy": "{name}() reads ambient process state the golden traces "
        "cannot replay",
        "environment": "{name}() reads ambient process state the golden "
        "traces cannot replay",
        "open": "open() in the sim core reads the real filesystem; "
        "load data in the experiment layer and pass it in",
        "shared-memory": "{name}() creates an OS-named shared segment "
        "(ambient /psm_* name); only the megasim arena may own segments",
        "environ": "os.environ read in the sim core; environment "
        "lookups belong in the CLI/experiment layer",
    }

    def applies(self, module: str, kind: str) -> bool:
        if kind == "shared-memory" and in_scope(module, SHARED_MEMORY_ALLOWLIST):
            return False
        return in_scope(module, CORE_MODULES)


class UnfrozenFactoryRule(SiteRule):
    """DET005: factories shipped to the parallel engine must be frozen.

    The parallel engine pickles :class:`ExperimentSpec` payloads into
    worker processes.  PR 3 standardised every strategy/experiment
    factory as a frozen dataclass: frozen means hashable, comparable and
    safe to share; a mutable factory could diverge between parent and
    worker after dispatch.  The rule flags any dataclass that defines
    ``__call__`` (the factory protocol) or is named ``*Factory`` but is
    not declared ``frozen=True``.
    """

    rule_id = "DET005"
    summary = "factory dataclass must be @dataclass(frozen=True)"
    templates = {
        "unfrozen-factory": "factory dataclass {name} is not frozen; the "
        "parallel engine requires frozen (picklable, hash-stable) factories",
    }


class MutableDefaultRule(SiteRule):
    """DET006: no mutable default arguments."""

    rule_id = "DET006"
    summary = "mutable default argument; default to None and build inside"
    templates = {
        "mutable-default": "mutable default in {name}(); defaults are "
        "evaluated once and shared across every call",
    }


#: Modules (dotted-prefix match) the vectorization-safety rules apply
#: to: the struct-of-arrays scale tier, where every tie-break and
#: operand ordering feeds a bit-exact differential against the event
#: kernel.
VECTOR_MODULES: Tuple[str, ...] = ("repro.megasim",)


class ProjectRule(Rule):
    """A rule over the merged project-wide fact set (phase 2): it
    overrides :meth:`check_project` to see every file at once, so its
    findings may span files."""


class StreamCollisionRule(ProjectRule):
    """DET010: every resolved stream key must be globally unique.

    Two modules both deriving ``"failures"`` receive the *same* seeded
    generator sequence -- subsystems that believe they are independent
    become bit-for-bit correlated, exactly the failure class the
    loss-stream-independence tests probe dynamically.  Keys collide on
    their normalised pattern (placeholders reduced to ``{}``), so
    ``f"node.{i}"`` and ``f"node.{node}"`` are the same key; a key is a
    collision when it is derived from two or more distinct
    ``(module, function)`` sites (re-deriving within one function is a
    legal idiom).
    """

    rule_id = "DET010"
    summary = (
        "stream key derived at multiple distinct (module, function) "
        "sites; stream names must be globally unique"
    )

    def check_project(
        self, facts: Sequence[FileFacts]
    ) -> Iterator[Finding]:
        by_key: Dict[str, List[StreamSite]] = {}
        for file_facts in facts:
            for site in file_facts.streams:
                if site.dynamic:
                    continue
                by_key.setdefault(site.key, []).append(site)
        for key in sorted(by_key):
            sites = sorted(by_key[key])
            owners = len({(s.module, s.function) for s in sites})
            if owners < 2:
                continue
            primary = sites[0]
            related = tuple(
                Location(s.path, s.line, s.col) for s in sites[1:]
            )
            yield self.site_finding(
                primary.path,
                primary.line,
                primary.col,
                f'stream key "{primary.pattern}" is derived from {owners} '
                "distinct functions; a shared key silently correlates "
                "subsystems that expect independent streams",
                related=related,
            )


class RngLineageRule(ProjectRule):
    """DET011: every RNG must descend from the root-seed lineage.

    A generator seeded with a literal constant, with ambient process
    state (wall clock, entropy pool) or with nothing at all sits outside
    ``RandomStreams.derive_seed``/``spawn`` entirely: constants correlate
    every instance built from the same literal, ambient values make the
    trace unreplayable.  Seeds that provably flow from a
    ``derive_seed``/``spawn`` call (directly or through a same-scope
    local, as in DET003's dataflow) pass; parameters and other untracked
    expressions are given the benefit of the doubt.
    """

    rule_id = "DET011"
    summary = (
        "RNG constructed from a constant or ambient seed instead of a "
        "derive_seed/spawn lineage"
    )

    _REASONS = {
        "constant": "is seeded with a literal constant",
        "ambient": "is seeded from ambient process state",
        "missing": "is constructed without a seed (OS-entropy seeded)",
    }

    def check_project(
        self, facts: Sequence[FileFacts]
    ) -> Iterator[Finding]:
        for file_facts in facts:
            for site in file_facts.rngs:
                reason = self._REASONS.get(site.lineage)
                if reason is None:
                    continue
                yield self.site_finding(
                    site.path,
                    site.line,
                    site.col,
                    f"{site.constructor}() {reason}; derive the seed "
                    "from RandomStreams.derive_seed/spawn so the "
                    "generator joins the root-seed lineage",
                )


class UnparameterizedStreamRule(ProjectRule):
    """DET012: stream keys derived per iteration must embed the index.

    A literal key inside a loop (or inside a per-index helper -- a
    function taking an ``index``-like parameter) re-derives the *same*
    stream on every iteration, so logically independent draws share one
    sequence.  The fix is an ``{index}``-style f-string, as in
    ``megasim.message.{index}``.
    """

    rule_id = "DET012"
    summary = (
        "literal stream key derived inside a loop or per-index helper; "
        "parameterize it with the index"
    )

    def check_project(
        self, facts: Sequence[FileFacts]
    ) -> Iterator[Finding]:
        for file_facts in facts:
            for site in file_facts.streams:
                if site.dynamic or site.parameterized:
                    continue
                if site.in_loop:
                    where = "inside a loop"
                elif site.index_param:
                    where = (
                        f"in per-index helper {site.function}() "
                        f"(parameter {site.index_param!r})"
                    )
                else:
                    continue
                placeholder = site.index_param or "index"
                yield self.site_finding(
                    site.path,
                    site.line,
                    site.col,
                    f'literal stream key "{site.pattern}" derived {where} '
                    "re-creates the same stream per iteration; "
                    f'parameterize it (f"{site.pattern}.{{{placeholder}}}")',
                )


class _VectorRule(ProjectRule):
    """Base for the vectorization-safety family: scoped to the numpy
    scale tier, judged from the collected numpy call facts."""

    def check_project(
        self, facts: Sequence[FileFacts]
    ) -> Iterator[Finding]:
        for file_facts in facts:
            if not in_scope(file_facts.module, VECTOR_MODULES):
                continue
            for site in file_facts.numpy:
                finding = self.check_site(site)
                if finding is not None:
                    yield finding

    def check_site(self, site: NumpySite) -> Optional[Finding]:
        raise NotImplementedError


class UnstableSortRule(_VectorRule):
    """VEC001: ``argsort``/``sort`` must pin ``kind="stable"``.

    The default introsort breaks ties by implementation detail; any
    tie-break that feeds winner selection must preserve input order.
    ``np.lexsort`` is stable by specification and passes as-is.
    """

    rule_id = "VEC001"
    summary = 'numpy sort/argsort without kind="stable"'

    def check_site(self, site: NumpySite) -> Optional[Finding]:
        if site.op not in ("sort", "argsort") or site.stable:
            return None
        return self.site_finding(
            site.path,
            site.line,
            site.col,
            f'{site.func}() without kind="stable" breaks ties in '
            "implementation-defined order; pass kind=\"stable\" so equal "
            "keys keep their input order",
        )


class LegacyNumpyRandomRule(_VectorRule):
    """VEC002: the legacy global ``np.random.*`` API is banned.

    ``np.random.seed``/``rand``/``randint``/... share one hidden global
    generator, the vectorized twin of DET002.  Only the explicitly
    seeded constructors (``default_rng``, ``Generator``, bit
    generators, ``SeedSequence``) are allowed.
    """

    rule_id = "VEC002"
    summary = "call into the legacy global numpy.random API"

    def check_site(self, site: NumpySite) -> Optional[Finding]:
        if site.op != "legacy-random":
            return None
        return self.site_finding(
            site.path,
            site.line,
            site.col,
            f"{site.func}() draws from numpy's process-global legacy "
            "generator; use numpy.random.default_rng(derive_seed(...)) "
            "streams instead",
        )


class UniquePositionalRule(_VectorRule):
    """VEC003: positional companions of ``np.unique`` need
    ``return_index=True``.

    ``np.unique`` returns optional companion arrays in flag order; code
    that unpacks a companion and uses it as a subscript index is
    selecting *positions*, which is only first-occurrence-correct when
    ``return_index=True`` was actually requested (otherwise the
    companion is an inverse or a count array, silently wrong as an
    index).
    """

    rule_id = "VEC003"
    summary = (
        "np.unique companion used for positional selection without "
        "return_index=True"
    )

    def check_site(self, site: NumpySite) -> Optional[Finding]:
        if site.op != "unique" or site.return_index or not site.positional_use:
            return None
        return self.site_finding(
            site.path,
            site.line,
            site.col,
            "a positional companion of numpy.unique() is used as a "
            "subscript index but return_index=True was not requested; "
            "first-occurrence selection must ask for the index array "
            "explicitly",
        )


class SetOperandRule(_VectorRule):
    """VEC004: numpy operands must not be built from set/dict iteration.

    ``np.array(some_set)`` (or a ``list()``-laundered set, or a dict
    view) materialises elements in arbitrary hash order; any mask or
    reduction built from it inherits that order.  The vectorized twin of
    DET003 -- sort the elements first.
    """

    rule_id = "VEC004"
    summary = "numpy operand built from unordered set/dict iteration"

    def check_site(self, site: NumpySite) -> Optional[Finding]:
        if site.op != "set-operand":
            return None
        return self.site_finding(
            site.path,
            site.line,
            site.col,
            f"{site.func}() operand is built from unordered set/dict "
            "iteration, so element order varies per process; wrap the "
            "elements in sorted(...) first",
        )


#: The registry, in rule-id order.  The CLI, the pytest gate and the CI
#: job all consume this single list.
RULES: Tuple[Rule, ...] = (
    WallClockRule(),
    GlobalRandomRule(),
    UnsortedSetIterationRule(),
    EnvironmentReadRule(),
    UnfrozenFactoryRule(),
    MutableDefaultRule(),
    StreamCollisionRule(),
    RngLineageRule(),
    UnparameterizedStreamRule(),
    UnstableSortRule(),
    LegacyNumpyRandomRule(),
    UniquePositionalRule(),
    SetOperandRule(),
)

RULES_BY_ID: Dict[str, Rule] = {rule.rule_id: rule for rule in RULES}
