"""Phase-1 fact collection: one AST walk per file, structured facts out.

Every rule judges facts; none walks a syntax tree.  Following the
paper's own move (global structure derived from purely local rules), the
engine splits linting into

1. **collect** -- this module.  :class:`FactCollector` walks each file
   exactly once, tracking scopes, loop depth and same-scope dataflow
   (set-typed locals, derived seeds, ``np.unique`` companions), and
   reduces it to a :class:`FileFacts` record: the per-file rule sites
   (:class:`Site` -- banned calls, ``os.environ`` loads, set iteration
   and order laundering, unfrozen factory dataclasses, mutable
   defaults), every RNG stream-name call site (with its resolved
   literal/f-string pattern and loop context), every RNG constructor
   site (with the seed's dataflow lineage), every determinism-relevant
   numpy call site, and the file's ``# noqa`` comments.
2. **analyze** -- the rules in :mod:`repro.lint.rules` run over the
   merged, sorted fact set and emit findings, which may span files.

Each banned-call family is one table below, and the per-file rules and
the seed-lineage check share it: a wall-clock or OS-entropy read is a
DET001/DET004 site and an ambient DET011 seed by the same definition.

Facts are frozen and totally ordered so the analyze phase -- and the
generated stream manifest -- cannot depend on filesystem walk order.

Pattern resolution: a stream key that is a string literal resolves to
itself (``pattern == key``); an f-string resolves each ``{...}``
placeholder to the placeholder's expression text in ``pattern`` (for the
human-readable manifest) and to a bare ``{}`` in ``key`` (so
``f"node.{i}"`` and ``f"node.{node}"`` collide); anything else --
a variable, a concatenation -- is *dynamic* and exempt from the
pattern-level rules.
"""

from __future__ import annotations

import ast
import re
from collections import deque
from dataclasses import dataclass, field, replace
from typing import (
    Deque,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

#: Method names that name-derive an RNG stream (see repro/sim/rng.py).
STREAM_METHODS: Tuple[str, ...] = ("stream", "derive_seed", "spawn")

#: Resolved callables that construct an RNG from a seed argument.
RNG_CONSTRUCTORS: Tuple[str, ...] = (
    "random.Random",
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.SeedSequence",
)

#: numpy bit generators: ``Generator(PCG64(seed))`` -- lineage recurses
#: through these into their own seed argument.
NUMPY_BIT_GENERATORS: Tuple[str, ...] = (
    "numpy.random.PCG64",
    "numpy.random.PCG64DXSM",
    "numpy.random.MT19937",
    "numpy.random.Philox",
    "numpy.random.SFC64",
)

#: The modern, explicitly-seeded corner of ``numpy.random``.  Everything
#: else under that namespace is the legacy process-global API (VEC002).
NUMPY_RANDOM_ALLOWED: Tuple[str, ...] = (
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
) + tuple(name.rsplit(".", 1)[1] for name in NUMPY_BIT_GENERATORS)

#: Parameter names that mark a "per-index helper": a function called
#: once per message/node/slot whose stream key must embed that index.
INDEX_PARAM_NAMES: Tuple[str, ...] = ("index", "idx", "i")

# -- banned-call families ---------------------------------------------------
#
# One table per family.  The collector tags every call into a family as
# a Site of that kind (see call_family); the rules judge the sites, and
# the seed-lineage check treats the wall-clock and entropy families (and
# process identity) as ambient seeds.

#: Wall clocks: real time observed by the process.
WALL_CLOCK_CALLS: FrozenSet[str] = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.clock_gettime",
        "time.localtime",
        "time.gmtime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: The OS entropy pool; every ``secrets.*`` call counts too (by prefix).
ENTROPY_CALLS: FrozenSet[str] = frozenset(
    {"os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid4"}
)
ENTROPY_PREFIXES: Tuple[str, ...] = ("secrets.",)

#: Reads of the host environment and filesystem.
ENVIRONMENT_CALLS: FrozenSet[str] = frozenset(
    {"os.getenv", "os.putenv", "io.open", "socket.gethostname", "platform.node"}
)

#: Shared-memory constructors: creating a segment draws a random OS-level
#: name (``/psm_...``).
SHARED_MEMORY_CALLS: FrozenSet[str] = frozenset(
    {
        "multiprocessing.shared_memory.SharedMemory",
        "multiprocessing.shared_memory.ShareableList",
    }
)

#: Process identity: harmless to read, but never a valid seed.
PROCESS_STATE_CALLS: FrozenSet[str] = frozenset({"os.getpid"})

# -- predicate tables: sets, default arguments, numpy operands ---------------

#: Builtins that copy a set's arbitrary iteration order into a sequence.
ORDER_LAUNDERING_CALLS: Tuple[str, ...] = ("list", "tuple", "iter", "enumerate")

#: Set methods whose result is again a set.
SET_METHODS: Tuple[str, ...] = (
    "union",
    "intersection",
    "difference",
    "symmetric_difference",
    "copy",
)

#: Callables (by final name) whose result is a fresh mutable container.
MUTABLE_CALLS: Tuple[str, ...] = (
    "list",
    "dict",
    "set",
    "bytearray",
    "defaultdict",
    "deque",
    "Counter",
    "OrderedDict",
)

#: numpy constructors and predicates whose operand order is the result's.
NUMPY_OPERAND_CALLS: Tuple[str, ...] = (
    "numpy.array",
    "numpy.asarray",
    "numpy.asanyarray",
    "numpy.fromiter",
    "numpy.isin",
)

#: ``# noqa`` / ``# noqa: DET001`` / ``# noqa: DET001, VEC002``
_NOQA_RE = re.compile(
    r"#\s*noqa\b(?::\s*(?P<codes>[A-Z]+[0-9]+(?:\s*,\s*[A-Z]+[0-9]+)*))?",
    re.IGNORECASE,
)

_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
_SET_OPERATORS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


# ---------------------------------------------------------------------------
# Shared AST helpers.
# ---------------------------------------------------------------------------


def dotted_name(node: ast.AST) -> Optional[str]:
    """Render a Name/Attribute chain as ``a.b.c``, or None for anything
    more dynamic (subscripts, calls, literals)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def resolve_name(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Dotted name of ``node`` with its head mapped through the import
    table, e.g. ``np.unique`` -> ``numpy.unique``."""
    dotted = dotted_name(node)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    origin = aliases.get(head, head)
    return f"{origin}.{rest}" if rest else origin


def in_scope(module: str, prefixes: Sequence[str]) -> bool:
    """True when ``module`` falls under any dotted prefix.

    A prefix ending in ``_`` is a *name* prefix (``bench_`` matches
    ``bench_micro``); anything else matches the module itself or any
    submodule.
    """
    for prefix in prefixes:
        if prefix.endswith("_"):
            if module.startswith(prefix) or module.split(".")[-1].startswith(prefix):
                return True
        elif module == prefix or module.startswith(prefix + "."):
            return True
    return False


def call_family(resolved: str) -> Optional[str]:
    """The banned-call family a resolved callable belongs to, if any:
    also the :attr:`Site.kind` the collector records its calls under."""
    if resolved in WALL_CLOCK_CALLS:
        return "wall-clock"
    if resolved in ENTROPY_CALLS or resolved.startswith(ENTROPY_PREFIXES):
        return "entropy"
    if resolved in ENVIRONMENT_CALLS:
        return "environment"
    if resolved in SHARED_MEMORY_CALLS:
        return "shared-memory"
    if resolved == "open":
        return "open"
    if resolved.startswith("random.") and resolved not in RNG_CONSTRUCTORS:
        # Any callable of the random module itself, except constructing
        # an explicitly seeded instance.
        return "global-random"
    return None


def noqa_comments(source: str) -> Tuple[Tuple[int, Tuple[str, ...]], ...]:
    """Every ``# noqa`` comment in ``source`` as ``(line, codes)``; an
    empty ``codes`` is a bare ``# noqa`` silencing every rule."""
    comments: List[Tuple[int, Tuple[str, ...]]] = []
    for number, line in enumerate(source.splitlines(), 1):
        match = _NOQA_RE.search(line)
        if match is None:
            continue
        codes = match.group("codes") or ""
        comments.append(
            (number, tuple(code.strip().upper() for code in codes.split(",") if code))
        )
    return tuple(comments)


# ---------------------------------------------------------------------------
# Fact records.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class Site:
    """One site a per-file rule (DET001..DET006) judges."""

    line: int
    col: int
    #: A banned-call family (see :func:`call_family`): ``"wall-clock"``,
    #: ``"global-random"``, ``"entropy"``, ``"environment"``, ``"open"``,
    #: ``"shared-memory"``; or ``"environ"`` (an ``os.environ`` load),
    #: ``"set-for"``/``"set-comprehension"``/``"set-launder"`` (a set
    #: iterated in arbitrary order), ``"unfrozen-factory"``,
    #: ``"mutable-default"``.
    kind: str
    #: The resolved callable, the laundering builtin, or the class or
    #: function the site belongs to ("" when the kind says it all).
    name: str


@dataclass(frozen=True, order=True)
class StreamSite:
    """One ``.stream(...)`` / ``.derive_seed(...)`` / ``.spawn(...)``
    call site."""

    path: str
    line: int
    col: int
    module: str
    #: Dotted qualname of the enclosing function (``"<module>"`` at top
    #: level, ``"Cluster._build_nodes"`` inside a method).
    function: str
    kind: str  # "stream" | "derive_seed" | "spawn"
    #: Human-readable resolved key, e.g. ``"node.{node}"``.  Empty when
    #: dynamic.
    pattern: str
    #: Collision key: placeholders normalised to ``{}`` so differently
    #: named index variables still collide.  ``spawn`` keys are prefixed
    #: ``spawn:`` (matching RandomStreams.spawn's own derivation), so a
    #: spawned namespace never collides with a plain stream of the same
    #: name.  Empty when dynamic.
    key: str
    #: True when the key embeds at least one ``{...}`` placeholder.
    parameterized: bool
    #: True when the key could not be resolved statically (a variable,
    #: concatenation, call result, ...).  Dynamic sites are recorded for
    #: completeness but exempt from the pattern-level rules.
    dynamic: bool
    #: True when the call sits inside a loop or comprehension body.
    in_loop: bool
    #: Name of the enclosing function's index-like parameter (one of
    #: INDEX_PARAM_NAMES), or "" -- marks a per-index helper.
    index_param: str


@dataclass(frozen=True, order=True)
class RngSite:
    """One RNG-constructor call site with its seed's dataflow lineage."""

    path: str
    line: int
    col: int
    module: str
    function: str
    constructor: str  # resolved callable, e.g. "random.Random"
    #: "derived"  -- seed provably flows from derive_seed/spawn,
    #: "constant" -- a literal constant seed,
    #: "ambient"  -- a wall clock / entropy-pool read,
    #: "missing"  -- no seed argument at all (OS-entropy seeded),
    #: "unknown"  -- a parameter or other untracked expression.
    lineage: str


@dataclass(frozen=True, order=True)
class NumpySite:
    """One determinism-relevant numpy call site."""

    path: str
    line: int
    col: int
    module: str
    #: "sort" | "argsort" | "lexsort" | "unique" | "legacy-random"
    #: | "set-operand"
    op: str
    #: The resolved callable text (``numpy.sort``, ``numpy.random.rand``,
    #: ``.argsort`` for the method form).
    func: str
    #: sort/argsort/lexsort: a stable order is guaranteed
    #: (``kind="stable"`` present, or lexsort which is stable by spec).
    stable: bool = False
    #: unique: ``return_index=True`` was passed.
    return_index: bool = False
    #: unique: a positional companion of the result (second or later
    #: unpack target) is later used as a subscript index.
    positional_use: bool = False


@dataclass(frozen=True, order=True)
class FileFacts:
    """Everything phase 2 needs to know about one file."""

    path: str
    module: str
    streams: Tuple[StreamSite, ...] = field(default_factory=tuple)
    rngs: Tuple[RngSite, ...] = field(default_factory=tuple)
    numpy: Tuple[NumpySite, ...] = field(default_factory=tuple)
    sites: Tuple[Site, ...] = field(default_factory=tuple)
    #: ``# noqa`` comments, see :func:`noqa_comments`.
    noqa: Tuple[Tuple[int, Tuple[str, ...]], ...] = field(default_factory=tuple)


# ---------------------------------------------------------------------------
# The collector: one walk, same-scope dataflow.
# ---------------------------------------------------------------------------


class _Scope:
    """Same-scope dataflow state, copied into nested scopes."""

    def __init__(self, outer: Optional["_Scope"] = None) -> None:
        self.setish: Dict[str, bool] = dict(outer.setish) if outer else {}
        self.derived: Dict[str, bool] = dict(outer.derived) if outer else {}
        #: unique-result companion name -> index of its numpy site.
        self.companions: Dict[str, int] = dict(outer.companions) if outer else {}


class FactCollector:
    """Single-pass fact extraction over one module's AST.

    Every node is visited exactly once: statements by a scope-aware
    recursive walk, each expression tree breadth-first.  The walk builds
    the import table (``aliases``) as it passes each import statement, so
    a name resolves through the imports above its use (ruff's E402 keeps
    module-level imports at the top of every linted file).
    """

    def __init__(self, module: str, path: str) -> None:
        self.module = module
        self.path = path
        self.aliases: Dict[str, str] = {}
        self.streams: List[StreamSite] = []
        self.rngs: List[RngSite] = []
        self.numpy: List[NumpySite] = []
        #: Indices of the unique sites whose companions index a subscript
        #: (discovered after the call itself is recorded).
        self._positional: Set[int] = set()
        self.sites: List[Site] = []
        self._qualname: List[str] = []
        self._index_param: List[str] = [""]
        self._loop_depth = 0
        self._last_unique: Optional[int] = None

    def collect(self, tree: ast.AST, source: str) -> FileFacts:
        """The module's facts; ``source`` supplies its ``# noqa``
        comments."""
        scope = _Scope()
        self._walk_body(getattr(tree, "body", []), scope)
        return FileFacts(
            path=self.path,
            module=self.module,
            streams=tuple(sorted(self.streams)),
            rngs=tuple(sorted(self.rngs)),
            numpy=tuple(
                sorted(
                    replace(site, positional_use=index in self._positional)
                    for index, site in enumerate(self.numpy)
                )
            ),
            sites=tuple(sorted(self.sites)),
            noqa=noqa_comments(source),
        )

    # -- statement walk ----------------------------------------------

    def _walk_body(self, body: Sequence[ast.stmt], scope: _Scope) -> None:
        for stmt in body:
            self._stmt(stmt, scope)

    def _stmt(self, stmt: ast.stmt, scope: _Scope) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Decorators, defaults and annotations run in the enclosing
            # scope; the body gets a scope of its own.
            self._node(stmt, scope, bodies=False)
            args = stmt.args
            for default in [*args.defaults, *args.kw_defaults]:
                if default is not None and _is_mutable(default):
                    self._site(default, "mutable-default", stmt.name)
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            index_param = next(
                (p for p in params if p in INDEX_PARAM_NAMES), ""
            )
            self._qualname.append(stmt.name)
            self._index_param.append(index_param)
            saved_depth, self._loop_depth = self._loop_depth, 0
            self._walk_body(stmt.body, _Scope(scope))
            self._loop_depth = saved_depth
            self._index_param.pop()
            self._qualname.pop()
            return
        if isinstance(stmt, ast.ClassDef):
            self._node(stmt, scope, bodies=False)
            dataclass_decorator = _unfrozen_dataclass_decorator(stmt, self.aliases)
            if dataclass_decorator is not None and _is_factory(stmt):
                self._site(dataclass_decorator, "unfrozen-factory", stmt.name)
            self._qualname.append(stmt.name)
            self._walk_body(stmt.body, _Scope(scope))
            self._qualname.pop()
            return
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self._assign(stmt, scope)
            return
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            self._import(stmt)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            if isinstance(stmt, ast.While):
                self._expr(stmt.test, scope)
            else:
                if _is_setish(stmt.iter, scope):
                    self._site(stmt.iter, "set-for", "")
                self._expr(stmt.iter, scope)
                self._expr(stmt.target, scope)
            self._loop_depth += 1
            self._walk_body(stmt.body, scope)
            self._loop_depth -= 1
            self._walk_body(stmt.orelse, scope)
            return
        # Generic statement (if/with/try/match/return/...).
        self._node(stmt, scope)

    def _node(self, node: ast.AST, scope: _Scope, bodies: bool = True) -> None:
        """Visit every child of ``node``: nested statements (unless
        ``bodies`` is false), expressions, and the expressions and bodies
        inside arguments, with-items, except-handlers and match-cases."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                if bodies:
                    self._stmt(child, scope)
            elif isinstance(child, ast.expr):
                self._expr(child, scope)
            else:
                self._node(child, scope)

    def _import(self, stmt: Union[ast.Import, ast.ImportFrom]) -> None:
        """Extend the import table: ``import time as t`` maps ``t`` to
        ``time``; ``from datetime import datetime as dt`` maps ``dt`` to
        ``datetime.datetime``.  Relative imports are skipped (the banned
        names are all stdlib/numpy)."""
        if isinstance(stmt, ast.Import):
            for name in stmt.names:
                head = name.name.split(".")[0]
                self.aliases[name.asname or head] = name.name if name.asname else head
        elif stmt.module is not None and not stmt.level:
            for name in stmt.names:
                if name.name != "*":
                    local = name.asname or name.name
                    self.aliases[local] = f"{stmt.module}.{name.name}"

    def _assign(
        self, stmt: Union[ast.Assign, ast.AnnAssign, ast.AugAssign], scope: _Scope
    ) -> None:
        targets: List[ast.expr] = (
            list(stmt.targets) if isinstance(stmt, ast.Assign) else [stmt.target]
        )
        for target in targets:
            self._expr(target, scope)
        if isinstance(stmt, ast.AnnAssign):
            self._expr(stmt.annotation, scope)
        value = stmt.value
        if value is None:
            return
        self._last_unique = None
        self._expr(value, scope)
        if isinstance(stmt, ast.AugAssign):
            # ``t op= v`` rebinds ``t`` like ``t = t op v``.
            value = ast.BinOp(left=stmt.target, op=stmt.op, right=value)
        for target in targets:
            self._bind(target, value, scope, self._last_unique)

    def _bind(
        self,
        target: ast.expr,
        value: ast.expr,
        scope: _Scope,
        last_unique: Optional[int],
    ) -> None:
        if isinstance(target, ast.Name):
            scope.setish[target.id] = _is_setish(value, scope)
            scope.derived[target.id] = (
                _lineage_of(value, scope, self.aliases) == "derived"
            )
            scope.companions.pop(target.id, None)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            names = [
                elt.id for elt in target.elts if isinstance(elt, ast.Name)
            ]
            for name in names:
                scope.setish[name] = False
                scope.derived[name] = False
                scope.companions.pop(name, None)
            # ``vals, pos = np.unique(...)``: every non-first target is a
            # positional companion of the unique result.
            if last_unique is not None and len(target.elts) >= 2:
                for elt in target.elts[1:]:
                    if isinstance(elt, ast.Name):
                        scope.companions[elt.id] = last_unique

    # -- expression walk ---------------------------------------------

    def _expr(self, root: ast.AST, scope: _Scope) -> None:
        """Visit one expression tree breadth-first.  A call under a
        comprehension runs once per element, so it counts as in a loop."""
        todo: Deque[Tuple[ast.AST, bool]] = deque([(root, self._loop_depth > 0)])
        while todo:
            node, in_loop = todo.popleft()
            if isinstance(node, ast.Call):
                self._call(node, scope, in_loop)
            elif isinstance(node, ast.Attribute):
                if (
                    node.attr == "environ"
                    and isinstance(node.ctx, ast.Load)
                    and resolve_name(node, self.aliases) == "os.environ"
                ):
                    self._site(node, "environ", "")
            elif isinstance(node, ast.Subscript):
                index = node.slice
                if (
                    isinstance(index, ast.Name)
                    and index.id in scope.companions
                ):
                    self._positional.add(scope.companions[index.id])
            elif isinstance(node, _COMPREHENSIONS):
                for generator in node.generators:
                    if _is_setish(generator.iter, scope):
                        self._site(generator.iter, "set-comprehension", "")
                in_loop = True
            todo.extend((child, in_loop) for child in ast.iter_child_nodes(node))

    def _call(self, call: ast.Call, scope: _Scope, in_loop: bool) -> None:
        func = call.func
        if (
            isinstance(func, ast.Name)
            and func.id in ORDER_LAUNDERING_CALLS
            and call.args
            and _is_setish(call.args[0], scope)
        ):
            self._site(call, "set-launder", func.id)
        resolved = resolve_name(func, self.aliases)
        if isinstance(func, ast.Attribute) and func.attr in STREAM_METHODS:
            self._stream_site(call, func.attr, in_loop)
        if resolved is None:
            if isinstance(func, ast.Attribute) and func.attr == "argsort":
                self._sort_site(call, "argsort", ".argsort")
            return
        family = call_family(resolved)
        if family is not None:
            self._site(call, family, resolved)
        if resolved in RNG_CONSTRUCTORS:
            self._rng_site(call, resolved, scope)
        if resolved in ("numpy.sort", "numpy.argsort", "numpy.lexsort"):
            self._sort_site(call, resolved.rsplit(".", 1)[1], resolved)
        elif isinstance(func, ast.Attribute) and func.attr == "argsort":
            self._sort_site(call, "argsort", ".argsort")
        if resolved == "numpy.unique":
            self._unique_site(call)
        if resolved.startswith("numpy.random."):
            tail = resolved[len("numpy.random."):]
            if tail and "." not in tail and tail not in NUMPY_RANDOM_ALLOWED:
                self._record_numpy(call, "legacy-random", resolved)
        if resolved in NUMPY_OPERAND_CALLS:
            if any(_is_unordered_operand(arg, scope) for arg in call.args):
                self._record_numpy(call, "set-operand", resolved)

    # -- site recorders ----------------------------------------------

    def _stream_site(self, call: ast.Call, kind: str, in_loop: bool) -> None:
        key_expr: Optional[ast.expr] = call.args[0] if call.args else None
        if key_expr is None:
            for keyword in call.keywords:
                if keyword.arg == "name":
                    key_expr = keyword.value
                    break
        if key_expr is None:
            return
        pattern, key, parameterized, dynamic = _key_pattern(key_expr)
        if not dynamic and kind == "spawn":
            key = f"spawn:{key}"
        self.streams.append(
            StreamSite(
                path=self.path,
                line=call.lineno,
                col=call.col_offset,
                module=self.module,
                function=self._function(),
                kind=kind,
                pattern=pattern,
                key=key,
                parameterized=parameterized,
                dynamic=dynamic,
                in_loop=in_loop,
                index_param=self._index_param[-1],
            )
        )

    def _rng_site(self, call: ast.Call, constructor: str, scope: _Scope) -> None:
        self.rngs.append(
            RngSite(
                path=self.path,
                line=call.lineno,
                col=call.col_offset,
                module=self.module,
                function=self._function(),
                constructor=constructor,
                lineage=_seed_lineage(call, scope, self.aliases),
            )
        )

    def _sort_site(self, call: ast.Call, op: str, func: str) -> None:
        if op == "lexsort":
            stable = True  # np.lexsort is stable by specification
        else:
            stable = any(
                keyword.arg == "kind"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value == "stable"
                for keyword in call.keywords
            )
        self._record_numpy(call, op, func, stable=stable)

    def _unique_site(self, call: ast.Call) -> None:
        return_index = any(
            keyword.arg == "return_index"
            and isinstance(keyword.value, ast.Constant)
            and keyword.value.value is True
            for keyword in call.keywords
        )
        self._last_unique = self._record_numpy(
            call, "unique", "numpy.unique", return_index=return_index
        )

    def _record_numpy(
        self,
        call: ast.Call,
        op: str,
        func: str,
        stable: bool = False,
        return_index: bool = False,
    ) -> int:
        """Record a numpy site; returns its index in :attr:`numpy`."""
        self.numpy.append(
            NumpySite(
                path=self.path,
                line=call.lineno,
                col=call.col_offset,
                module=self.module,
                op=op,
                func=func,
                stable=stable,
                return_index=return_index,
            )
        )
        return len(self.numpy) - 1

    def _site(self, node: ast.expr, kind: str, name: str) -> None:
        self.sites.append(Site(node.lineno, node.col_offset, kind, name))

    def _function(self) -> str:
        return ".".join(self._qualname) if self._qualname else "<module>"


def collect_facts_for_module(
    module: str, path: str, tree: ast.AST, source: str
) -> FileFacts:
    """Collect one file's facts (the engine's phase-1 entry point)."""
    return FactCollector(module, path).collect(tree, source)


# ---------------------------------------------------------------------------
# Expression predicates.
# ---------------------------------------------------------------------------


def _key_pattern(node: ast.expr) -> Tuple[str, str, bool, bool]:
    """Resolve a stream-key expression to (pattern, key, parameterized,
    dynamic)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value, node.value, False, False
    if isinstance(node, ast.JoinedStr):
        pattern_parts: List[str] = []
        key_parts: List[str] = []
        parameterized = False
        for part in node.values:
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                pattern_parts.append(part.value)
                key_parts.append(part.value)
            elif isinstance(part, ast.FormattedValue):
                parameterized = True
                name = dotted_name(part.value) or ""
                pattern_parts.append("{" + name + "}")
                key_parts.append("{}")
            else:  # pragma: no cover - f-strings only hold those two
                return "", "", False, True
        return "".join(pattern_parts), "".join(key_parts), parameterized, False
    return "", "", False, True


def _seed_lineage(
    call: ast.Call, scope: _Scope, aliases: Dict[str, str]
) -> str:
    seed: Optional[ast.expr] = call.args[0] if call.args else None
    if seed is None:
        for keyword in call.keywords:
            if keyword.arg in ("seed", "x"):
                seed = keyword.value
                break
    if seed is None:
        return "missing"
    return _lineage_of(seed, scope, aliases)


def _lineage_of(node: ast.expr, scope: _Scope, aliases: Dict[str, str]) -> str:
    if isinstance(node, ast.Call):
        resolved = resolve_name(node.func, aliases)
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in (
            "derive_seed",
            "spawn",
        ):
            return "derived"
        if resolved is not None:
            if (
                call_family(resolved) in ("wall-clock", "entropy")
                or resolved in PROCESS_STATE_CALLS
            ):
                return "ambient"
            if resolved in NUMPY_BIT_GENERATORS:
                # Generator(PCG64(seed)): judge the bit generator's own
                # seed argument.
                return _seed_lineage(node, scope, aliases)
        return "unknown"
    if isinstance(node, ast.Constant):
        return "constant"
    if isinstance(node, ast.Name):
        return "derived" if scope.derived.get(node.id, False) else "unknown"
    if isinstance(node, ast.BinOp):
        left = _lineage_of(node.left, scope, aliases)
        right = _lineage_of(node.right, scope, aliases)
        if "derived" in (left, right):
            return "derived"
        if left == "constant" and right == "constant":
            return "constant"
        return "unknown"
    return "unknown"


def _is_setish(node: ast.expr, scope: _Scope) -> bool:
    """True when the expression is a set: a literal, a ``set()`` or
    ``frozenset()`` call, a set-typed local, a set method's result or a
    set operator over a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return scope.setish.get(node.id, False)
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return func.id in ("set", "frozenset")
        return (
            isinstance(func, ast.Attribute)
            and func.attr in SET_METHODS
            and _is_setish(func.value, scope)
        )
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPERATORS):
        return _is_setish(node.left, scope) or _is_setish(node.right, scope)
    return False


def _is_unordered_operand(node: ast.expr, scope: _Scope) -> bool:
    """A numpy-operand expression whose element order is arbitrary: a
    set (directly or laundered through ``list()``/``tuple()``) or a dict
    view (``.keys()``/``.values()``/``.items()``)."""
    if _is_setish(node, scope):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if (
            isinstance(func, ast.Name)
            and func.id in ORDER_LAUNDERING_CALLS
            and node.args
            and _is_unordered_operand(node.args[0], scope)
        ):
            return True
        if isinstance(func, ast.Attribute) and func.attr in (
            "keys",
            "values",
            "items",
        ):
            return True
    return False


def _is_mutable(node: ast.expr) -> bool:
    """True when a default-argument expression builds a mutable
    container."""
    if isinstance(
        node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.SetComp, ast.DictComp)
    ):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return func.id in MUTABLE_CALLS
        return isinstance(func, ast.Attribute) and func.attr in MUTABLE_CALLS
    return False


def _unfrozen_dataclass_decorator(
    node: ast.ClassDef, aliases: Dict[str, str]
) -> Optional[ast.expr]:
    """The class's ``@dataclass`` decorator unless it passes
    ``frozen=True``; None for frozen dataclasses and other classes."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if resolve_name(target, aliases) not in ("dataclass", "dataclasses.dataclass"):
            continue
        frozen = isinstance(decorator, ast.Call) and any(
            keyword.arg == "frozen"
            and isinstance(keyword.value, ast.Constant)
            and keyword.value.value is True
            for keyword in decorator.keywords
        )
        return None if frozen else decorator
    return None


def _is_factory(node: ast.ClassDef) -> bool:
    """The factory protocol: named ``*Factory`` or defines ``__call__``."""
    return node.name.endswith("Factory") or any(
        isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and item.name == "__call__"
        for item in node.body
    )
