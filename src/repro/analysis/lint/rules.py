"""The project-contract rules behind ``repro lint``.

Each rule pins one convention the test suite can only catch *after* it
breaks:

========================  ==============================================
``determinism``           no unseeded / global-state / time-derived RNG
                          in library code — seeds flow from
                          ``SearchParams`` and build options
``async-blocking``        no blocking calls (``time.sleep``, ``open``,
                          sync sockets, direct ``index.search()``)
                          inside ``async def`` bodies
``async-lock-held``       no sync lock held across an ``await``
``spawn-safety``          only module-level functions and picklable
                          spec payloads go to ``ProcessPoolExecutor``
``arena-hygiene``         every ``SharedArena``/``SharedMemory``
                          creation pairs with close/unlink in a
                          ``finally`` or context manager
``unused-symbol``         no unused imports (``__init__`` re-export
                          surfaces exempt)
``typing-complete``       every def in the strict-mypy packages is
                          fully annotated (the local mirror of the CI
                          mypy gate)
========================  ==============================================

Rules are pure AST checks — no imports of the code under analysis, so a
file that cannot even import (missing optional dep) still lints.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.lint.engine import FileContext, Rule

__all__ = [
    "ALL_RULES",
    "ArenaHygieneRule",
    "AsyncBlockingRule",
    "AsyncLockHeldRule",
    "DeterminismRule",
    "SpawnSafetyRule",
    "TypingCompleteRule",
    "UnusedSymbolRule",
    "default_rules",
    "rule_by_id",
]


# ----------------------------------------------------------------------
# AST helpers
# ----------------------------------------------------------------------


def _dotted(node: ast.AST) -> str | None:
    """Render ``a.b.c`` attribute chains; ``None`` for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _walk_scoped(node: ast.AST) -> Iterator[ast.AST]:
    """Yield descendants of ``node`` without entering nested function
    scopes (``def``/``async def``/``lambda`` bodies run elsewhere —
    e.g. a lambda handed to ``run_in_executor`` is *not* event-loop
    code)."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        cur = stack.pop()
        yield cur
        if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(cur))


def _last_component(name: str | None) -> str:
    return name.rsplit(".", 1)[-1] if name else ""


def _functions(tree: ast.AST) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------

_LEGACY_NP_RANDOM = frozenset(
    {
        "seed",
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "ranf",
        "sample",
        "choice",
        "shuffle",
        "permutation",
        "uniform",
        "normal",
        "standard_normal",
        "bytes",
    }
)

_STDLIB_RANDOM = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "randbytes",
        "getrandbits",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "gauss",
        "normalvariate",
        "seed",
    }
)

_ENTROPY_SOURCES = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "uuid.uuid4",
        "uuid.uuid1",
        "os.urandom",
        "os.getpid",
        "secrets.token_bytes",
        "secrets.token_hex",
    }
)

_RNG_CONSTRUCTORS = frozenset(
    {"np.random.default_rng", "numpy.random.default_rng", "default_rng"}
)


class DeterminismRule(Rule):
    """Library results must be a pure function of data + explicit seeds.

    The bit-identity guarantees (engine lockstep == scalar reference,
    accel backend == numpy engine, coalesced == solo dispatch) all
    assume traversal randomness flows from ``SearchParams.seed`` and
    build options.  One unseeded ``default_rng()`` or ``np.random.*``
    global call silently breaks every one of them.
    """

    id = "determinism"
    rationale = (
        "unseeded or time-derived RNG breaks the seeded bit-identity "
        "contract; route randomness through SearchParams/build seeds"
    )

    def applies(self, ctx: FileContext) -> bool:
        # Benchmarks, tests and examples may use ambient entropy.
        from pathlib import Path

        parts = Path(ctx.path).parts
        return not any(p in ("tests", "benchmarks", "examples") for p in parts)

    def check(self, ctx: FileContext) -> Iterator[tuple[ast.AST | int, str]]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _dotted(node.func)
            if name is None:
                continue
            if name in _RNG_CONSTRUCTORS or name in ("random.Random",):
                if not node.args and not node.keywords:
                    yield (
                        node,
                        f"unseeded {name}() in library code; thread an "
                        "explicit seed from SearchParams/build options",
                    )
                else:
                    src = self._entropy_in(node)
                    if src is not None:
                        yield (
                            node,
                            f"{name}() seeded from {src} — a time/entropy-"
                            "derived seed is as nondeterministic as none",
                        )
            elif name == "random.SystemRandom":
                yield (node, "random.SystemRandom is OS entropy — unseedable")
            elif name.startswith(("np.random.", "numpy.random.")):
                if _last_component(name) in _LEGACY_NP_RANDOM:
                    yield (
                        node,
                        f"{name}() uses numpy's global RNG state; use a "
                        "seeded np.random.default_rng(seed) Generator",
                    )
            elif name.startswith("random.") and name.count(".") == 1:
                if _last_component(name) in _STDLIB_RANDOM:
                    yield (
                        node,
                        f"{name}() uses the process-global stdlib RNG; use "
                        "a seeded random.Random(seed) or numpy Generator",
                    )
            elif name in ("uuid.uuid4", "uuid.uuid1", "os.urandom"):
                yield (
                    node,
                    f"{name}() is nondeterministic in library code; derive "
                    "tokens from explicit seeds or caller-provided state",
                )

    @staticmethod
    def _entropy_in(call: ast.Call) -> str | None:
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            for sub in ast.walk(arg):
                if isinstance(sub, ast.Call):
                    name = _dotted(sub.func)
                    if name in _ENTROPY_SOURCES:
                        return name
        return None


# ----------------------------------------------------------------------
# async-blocking
# ----------------------------------------------------------------------

_BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "socket.socket",
        "socket.create_connection",
        "urllib.request.urlopen",
    }
)

_SOCKET_METHODS = frozenset(
    {"recv", "recvfrom", "send", "sendall", "accept", "connect"}
)


class AsyncBlockingRule(Rule):
    """``async def`` bodies must never block the event loop.

    The serving layer's whole latency story is one thread multiplexing
    every client; a single synchronous ``index.search()`` or
    ``time.sleep`` in a handler stalls all of them.  Blocking work
    belongs in an executor (``loop.run_in_executor``) — whose lambda
    payloads run *off* the loop and are deliberately not flagged.
    """

    id = "async-blocking"
    rationale = (
        "a blocking call in an async handler stalls every in-flight "
        "request; dispatch blocking work via loop.run_in_executor"
    )

    def check(self, ctx: FileContext) -> Iterator[tuple[ast.AST | int, str]]:
        for fn in _functions(ctx.tree):
            if not isinstance(fn, ast.AsyncFunctionDef):
                continue
            for node in _walk_scoped(fn):
                if not isinstance(node, ast.Call):
                    continue
                name = _dotted(node.func)
                if name in _BLOCKING_CALLS:
                    yield (
                        node,
                        f"blocking call {name}() inside async def "
                        f"{fn.name!r}; use asyncio equivalents or "
                        "run_in_executor",
                    )
                elif name == "open":
                    yield (
                        node,
                        f"synchronous file open() inside async def "
                        f"{fn.name!r}; do file I/O in an executor",
                    )
                elif isinstance(node.func, ast.Attribute):
                    recv = _dotted(node.func.value)
                    attr = node.func.attr
                    if attr in _SOCKET_METHODS and "sock" in _last_component(
                        recv
                    ).lower():
                        yield (
                            node,
                            f"synchronous socket op {recv}.{attr}() inside "
                            f"async def {fn.name!r}; use asyncio streams",
                        )
                    elif attr == "search" and (
                        "index" in _last_component(recv).lower()
                        or _last_component(recv).lower() == "idx"
                    ):
                        yield (
                            node,
                            f"direct {recv}.search() inside async def "
                            f"{fn.name!r} runs the CPU-bound traversal on "
                            "the event loop; go through the coalescer or "
                            "an executor",
                        )


# ----------------------------------------------------------------------
# async-lock-held
# ----------------------------------------------------------------------


def _is_lockish(expr: ast.AST) -> bool:
    name = _dotted(expr)
    if name is None and isinstance(expr, ast.Call):
        name = _dotted(expr.func)
    last = _last_component(name).lower()
    return "lock" in last or "mutex" in last


class AsyncLockHeldRule(Rule):
    """No synchronous lock held across an ``await``.

    A ``with self._lock:`` block that awaits inside parks the coroutine
    *while still holding the lock*; any other task (or executor thread)
    that then takes the lock deadlocks the loop.  ``async with`` locks
    are designed for this and pass clean.
    """

    id = "async-lock-held"
    rationale = (
        "awaiting while holding a sync lock parks the coroutine with "
        "the lock taken — release before awaiting, or use asyncio.Lock "
        "with async with"
    )

    def check(self, ctx: FileContext) -> Iterator[tuple[ast.AST | int, str]]:
        for fn in _functions(ctx.tree):
            if not isinstance(fn, ast.AsyncFunctionDef):
                continue
            for node in _walk_scoped(fn):
                if not isinstance(node, ast.With):
                    continue
                if not any(
                    _is_lockish(item.context_expr) for item in node.items
                ):
                    continue
                for sub in _walk_scoped(node):
                    if isinstance(sub, ast.Await):
                        yield (
                            node,
                            f"sync lock held across await in async def "
                            f"{fn.name!r}; release it first or use "
                            "asyncio.Lock via async with",
                        )
                        break


# ----------------------------------------------------------------------
# spawn-safety
# ----------------------------------------------------------------------


def _is_ppe_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and _last_component(_dotted(node.func)) == "ProcessPoolExecutor"
    )


class SpawnSafetyRule(Rule):
    """Only picklable, module-level callables cross the spawn boundary.

    Spawned workers re-import the module and unpickle their payloads:
    lambdas, closures, and function-local ``def``s fail at submit time
    on spawn platforms (and silently "work" under fork until they
    don't).  Payloads travel as spec dicts/dataclasses
    (``metrics/specs.py``), tasks as top-level functions.
    """

    id = "spawn-safety"
    rationale = (
        "lambdas/closures don't pickle across the spawn boundary; "
        "submit module-level functions with spec-typed payloads"
    )

    def check(self, ctx: FileContext) -> Iterator[tuple[ast.AST | int, str]]:
        pool_names: set[str] = set()
        pool_attrs: set[str] = set()
        pool_funcs: set[str] = set()

        # Pass 1: find every binding of a ProcessPoolExecutor — plain
        # names, ``with ... as pool``, ``self.X = ...`` attributes, and
        # methods/functions that return one (directly or via a pool
        # attribute, e.g. the lazy ``_ensure_pool`` pattern).
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign) and _is_ppe_call(node.value):
                for tgt in node.targets:
                    if isinstance(tgt, ast.Name):
                        pool_names.add(tgt.id)
                    elif isinstance(tgt, ast.Attribute):
                        pool_attrs.add(tgt.attr)
            elif isinstance(node, ast.withitem) and _is_ppe_call(
                node.context_expr
            ):
                if isinstance(node.optional_vars, ast.Name):
                    pool_names.add(node.optional_vars.id)
        for fn in _functions(ctx.tree):
            for node in ast.walk(fn):
                if isinstance(node, ast.Return) and node.value is not None:
                    if _is_ppe_call(node.value) or (
                        isinstance(node.value, ast.Attribute)
                        and node.value.attr in pool_attrs
                    ):
                        pool_funcs.add(fn.name)

        def is_pool(expr: ast.AST) -> bool:
            if isinstance(expr, ast.Name):
                return expr.id in pool_names
            if isinstance(expr, ast.Attribute):
                return expr.attr in pool_attrs
            if isinstance(expr, ast.Call):
                callee = _last_component(_dotted(expr.func))
                return callee in pool_funcs or callee == "ProcessPoolExecutor"
            return False

        # Pass 2: inspect what gets handed to a pool.
        for fn in _functions(ctx.tree):
            local_defs = {
                sub.name
                for sub in _walk_scoped(fn)
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                if _is_ppe_call(node):
                    for kw in node.keywords:
                        if kw.arg == "initializer":
                            bad = self._unpicklable(kw.value, local_defs)
                            if bad:
                                yield (
                                    kw.value,
                                    f"ProcessPoolExecutor initializer is "
                                    f"{bad}; spawn workers re-import — pass "
                                    "a module-level function",
                                )
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("submit", "map")
                    and node.args
                    and is_pool(node.func.value)
                ):
                    bad = self._unpicklable(node.args[0], local_defs)
                    if bad:
                        yield (
                            node,
                            f"{node.func.attr}() on a ProcessPoolExecutor "
                            f"with {bad}; it cannot pickle across the "
                            "spawn boundary — use a module-level function "
                            "and a spec payload",
                        )

    @staticmethod
    def _unpicklable(expr: ast.AST, local_defs: set[str]) -> str | None:
        if isinstance(expr, ast.Lambda):
            return "a lambda"
        if isinstance(expr, ast.Name) and expr.id in local_defs:
            return f"the function-local def {expr.id!r}"
        if isinstance(expr, ast.Call):
            callee = _last_component(_dotted(expr.func))
            if callee == "partial" and expr.args:
                return SpawnSafetyRule._unpicklable(expr.args[0], local_defs)
        return None


# ----------------------------------------------------------------------
# arena-hygiene
# ----------------------------------------------------------------------

_ARENA_CREATORS = frozenset(
    {"SharedArena.create", "SharedArena", "SharedMemory", "AttachedArena", "attach"}
)


def _is_arena_creation(node: ast.Call) -> str | None:
    name = _dotted(node.func)
    if name is None:
        return None
    if name in _ARENA_CREATORS:
        return name
    tail2 = ".".join(name.split(".")[-2:])
    if tail2 in ("SharedArena.create", "shared_memory.SharedMemory", "arena.attach"):
        return tail2
    return None


class ArenaHygieneRule(Rule):
    """Every shared-memory block must have a visible release path.

    A ``SharedMemory`` segment outlives the process that leaks it — on
    Linux it sits in ``/dev/shm`` until reboot.  So every creation or
    attachment must be (a) a context manager, (b) immediately returned
    (ownership transferred to the caller), (c) stored on an attribute
    (owned by an object with its own ``close()``), or (d) bound to a
    local released in a ``finally``.  Anything else is a leak on the
    first exception.
    """

    id = "arena-hygiene"
    rationale = (
        "an unreleased SharedMemory segment leaks /dev/shm until "
        "reboot; pair every create/attach with close/unlink in a "
        "finally or with-block"
    )

    def check(self, ctx: FileContext) -> Iterator[tuple[ast.AST | int, str]]:
        parents: dict[ast.AST, ast.AST] = {}
        for node in ast.walk(ctx.tree):
            for child in ast.iter_child_nodes(node):
                parents[child] = node

        def enclosing_function(node: ast.AST) -> ast.AST | None:
            cur = parents.get(node)
            while cur is not None:
                if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    return cur
                cur = parents.get(cur)
            return None

        def under_with(node: ast.AST) -> bool:
            cur, prev = parents.get(node), node
            while cur is not None:
                if isinstance(cur, ast.withitem) and cur.context_expr is prev:
                    return True
                prev, cur = cur, parents.get(cur)
            return False

        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            what = _is_arena_creation(node)
            if what is None:
                continue
            if under_with(node):
                continue
            parent = parents.get(node)
            if isinstance(parent, ast.Return):
                continue  # ownership transferred to the caller
            if isinstance(parent, ast.Assign) and all(
                isinstance(t, ast.Attribute) for t in parent.targets
            ):
                continue  # owned by the object; its close() releases
            if isinstance(parent, ast.Assign) and len(parent.targets) == 1:
                tgt = parent.targets[0]
                if isinstance(tgt, ast.Name):
                    fn = enclosing_function(node)
                    if fn is not None and self._released_in_finally(
                        fn, tgt.id
                    ):
                        continue
            yield (
                node,
                f"{what}(...) has no paired close/unlink in a finally or "
                "context manager — the segment leaks on the first "
                "exception",
            )

    @staticmethod
    def _released_in_finally(fn: ast.AST, name: str) -> bool:
        for node in ast.walk(fn):
            if not isinstance(node, ast.Try) or not node.finalbody:
                continue
            for stmt in node.finalbody:
                for sub in ast.walk(stmt):
                    if isinstance(sub, ast.Call) and _dotted(sub.func) in (
                        f"{name}.close",
                        f"{name}.unlink",
                    ):
                        return True
        return False


# ----------------------------------------------------------------------
# unused-symbol
# ----------------------------------------------------------------------


class UnusedSymbolRule(Rule):
    """No unused imports outside ``__init__`` re-export surfaces."""

    id = "unused-symbol"
    rationale = (
        "unused imports are dead weight and hide real dependencies; "
        "__init__.py re-export surfaces are exempt"
    )

    def applies(self, ctx: FileContext) -> bool:
        return not ctx.is_init

    def check(self, ctx: FileContext) -> Iterator[tuple[ast.AST | int, str]]:
        bindings: list[tuple[str, ast.AST, str]] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    bindings.append((bound, node, alias.name))
            elif isinstance(node, ast.ImportFrom):
                if node.module == "__future__":
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    if alias.asname == alias.name:
                        continue  # ``import x as x``: explicit re-export
                    bound = alias.asname or alias.name
                    bindings.append((bound, node, alias.name))
        if not bindings:
            return

        used: set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
        # ``__all__`` strings and quoted forward references in
        # annotations count as uses.
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign):
                for tgt in node.targets:
                    if isinstance(tgt, ast.Name) and tgt.id == "__all__":
                        for sub in ast.walk(node.value):
                            if isinstance(sub, ast.Constant) and isinstance(
                                sub.value, str
                            ):
                                used.add(sub.value.split(".")[0])
        for ann in self._annotations(ctx.tree):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                try:
                    parsed = ast.parse(ann.value, mode="eval")
                except SyntaxError:
                    continue
                for sub in ast.walk(parsed):
                    if isinstance(sub, ast.Name):
                        used.add(sub.id)

        for bound, node, target in bindings:
            if bound not in used:
                yield (
                    node,
                    f"imported name {bound!r} (from {target!r}) is unused",
                )

    @staticmethod
    def _annotations(tree: ast.AST) -> Iterator[ast.AST]:
        for node in ast.walk(tree):
            if isinstance(node, ast.AnnAssign):
                yield node.annotation
            elif isinstance(node, ast.arg) and node.annotation is not None:
                yield node.annotation
            elif (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.returns is not None
            ):
                yield node.returns
            # Quoted names can nest inside subscripted annotations too.
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                yield node


# ----------------------------------------------------------------------
# typing-complete
# ----------------------------------------------------------------------


class TypingCompleteRule(Rule):
    """Every def in the strict-mypy packages is fully annotated.

    This is the locally runnable mirror of the CI mypy gate
    (``disallow_untyped_defs``/``disallow_incomplete_defs`` on
    ``core/``, ``storage/``, ``serve/``, ``analysis/``): it cannot
    type-check bodies, but it guarantees no unannotated signature lands
    even on machines without mypy installed.
    """

    id = "typing-complete"
    rationale = (
        "core/storage/serve/analysis are under the strict mypy gate; "
        "unannotated defs fail CI — annotate parameters and returns"
    )

    def applies(self, ctx: FileContext) -> bool:
        return ctx.in_typed_packages()

    def check(self, ctx: FileContext) -> Iterator[tuple[ast.AST | int, str]]:
        for fn in _functions(ctx.tree):
            args = fn.args
            missing = [
                a.arg
                for a in args.posonlyargs + args.args + args.kwonlyargs
                if a.annotation is None and a.arg not in ("self", "cls")
            ]
            if args.vararg is not None and args.vararg.annotation is None:
                missing.append("*" + args.vararg.arg)
            if args.kwarg is not None and args.kwarg.annotation is None:
                missing.append("**" + args.kwarg.arg)
            if fn.returns is None:
                missing.append("return")
            if missing:
                yield (
                    fn,
                    f"def {fn.name} is missing annotations for "
                    f"{', '.join(missing)} (strict mypy gate)",
                )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

ALL_RULES: tuple[type[Rule], ...] = (
    DeterminismRule,
    AsyncBlockingRule,
    AsyncLockHeldRule,
    SpawnSafetyRule,
    ArenaHygieneRule,
    UnusedSymbolRule,
    TypingCompleteRule,
)


def default_rules() -> list[Rule]:
    """Fresh instances of every registered rule."""
    return [cls() for cls in ALL_RULES]


def rule_by_id(rule_id: str) -> Rule:
    for cls in ALL_RULES:
        if cls.id == rule_id:
            return cls()
    known = sorted(cls.id for cls in ALL_RULES)
    raise KeyError(f"unknown rule id {rule_id!r}; known rules: {known}")
