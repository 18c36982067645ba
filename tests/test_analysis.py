"""The project-contract linter: every rule gets a true-positive fixture
(the violation it exists to catch) and a false-positive guard (the
idiomatic code it must pass), plus suppression semantics, exit codes,
and the whole-tree gate — ``repro lint src/repro`` must stay clean.

Deleting any single rule's implementation makes its true-positive test
here fail: each one selects exactly that rule and asserts it fires.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.lint import (
    ALL_RULES,
    Finding,
    LintConfig,
    LintError,
    Severity,
    lint_paths,
    lint_source,
)
from repro.cli import main

REPO_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def run_rule(source: str, rule_id: str, path: str = "<fixture>") -> list[Finding]:
    """Lint ``source`` with only ``rule_id`` enabled; unsuppressed hits."""
    findings = lint_source(
        textwrap.dedent(source),
        path=path,
        config=LintConfig(select=frozenset({rule_id})),
    )
    return [f for f in findings if not f.suppressed]


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------


class TestDeterminismRule:
    def test_unseeded_default_rng_fires(self):
        hits = run_rule(
            """
            import numpy as np

            def sample(points):
                rng = np.random.default_rng()
                return rng.choice(points)
            """,
            "determinism",
        )
        assert any("unseeded" in f.message for f in hits)

    def test_global_numpy_rng_fires(self):
        hits = run_rule(
            """
            import numpy as np

            def jitter(x):
                return x + np.random.randn(3)
            """,
            "determinism",
        )
        assert any("global RNG" in f.message for f in hits)

    def test_stdlib_random_fires(self):
        hits = run_rule(
            """
            import random

            def pick(items):
                return random.choice(items)
            """,
            "determinism",
        )
        assert any("process-global" in f.message for f in hits)

    def test_time_derived_seed_fires(self):
        hits = run_rule(
            """
            import time
            import numpy as np

            def sample():
                return np.random.default_rng(time.time_ns())
            """,
            "determinism",
        )
        assert any("time/entropy-derived" in f.message for f in hits)

    def test_uuid4_fires(self):
        hits = run_rule(
            """
            import uuid

            def token():
                return uuid.uuid4().hex
            """,
            "determinism",
        )
        assert any("uuid.uuid4" in f.message for f in hits)

    def test_seeded_rng_passes(self):
        assert not run_rule(
            """
            import numpy as np

            def sample(points, seed):
                rng = np.random.default_rng(seed)
                other = np.random.default_rng(0)
                r = random_state = np.random.Generator(np.random.PCG64(seed))
                return rng.choice(points), other.random(), r.integers(3)
            """,
            "determinism",
        )

    def test_generator_methods_pass(self):
        # ``rng.random()``/``self.rng.shuffle()`` are Generator methods,
        # not the global-state module functions.
        assert not run_rule(
            """
            def walk(self, rng):
                rng.shuffle(self.items)
                return self.rng.random()
            """,
            "determinism",
        )

    def test_benchmarks_and_tests_exempt(self):
        source = """
        import numpy as np

        def load():
            return np.random.default_rng()
        """
        assert not run_rule(source, "determinism", path="benchmarks/bench_x.py")
        assert not run_rule(source, "determinism", path="tests/test_x.py")
        assert run_rule(source, "determinism", path="src/repro/core/x.py")


# ----------------------------------------------------------------------
# async-blocking
# ----------------------------------------------------------------------


class TestAsyncBlockingRule:
    def test_time_sleep_in_async_fires(self):
        hits = run_rule(
            """
            import time

            async def handler(request):
                time.sleep(0.1)
                return request
            """,
            "async-blocking",
        )
        assert any("time.sleep" in f.message for f in hits)

    def test_direct_index_search_in_async_fires(self):
        hits = run_rule(
            """
            async def handler(index, q):
                return index.search(q, k=10)
            """,
            "async-blocking",
        )
        assert any(".search()" in f.message for f in hits)

    def test_open_and_sockets_fire(self):
        hits = run_rule(
            """
            import socket

            async def fetch(path):
                sock = socket.socket()
                sock.connect(("localhost", 80))
                with open(path) as fh:
                    return fh.read()
            """,
            "async-blocking",
        )
        messages = " ".join(f.message for f in hits)
        assert "socket" in messages and "open()" in messages

    def test_executor_lambda_passes(self):
        # The serving layer's idiom: blocking work inside a lambda that
        # run_in_executor ships off the loop.  The lambda body is a
        # different execution context and must not be flagged.
        assert not run_rule(
            """
            import asyncio

            async def handler(loop, pool, index, q):
                await asyncio.sleep(0)
                return await loop.run_in_executor(
                    pool, lambda: index.search(q, k=10)
                )
            """,
            "async-blocking",
        )

    def test_sync_function_not_flagged(self):
        assert not run_rule(
            """
            import time

            def warm_up(index, q):
                time.sleep(0.1)
                return index.search(q)
            """,
            "async-blocking",
        )

    def test_re_search_passes(self):
        assert not run_rule(
            """
            import re

            async def route(path):
                return re.search(r"^/v1/", path)
            """,
            "async-blocking",
        )


# ----------------------------------------------------------------------
# async-lock-held
# ----------------------------------------------------------------------


class TestAsyncLockHeldRule:
    def test_sync_lock_across_await_fires(self):
        hits = run_rule(
            """
            async def mutate(self, fn):
                with self._write_lock:
                    await self.flush()
            """,
            "async-lock-held",
        )
        assert any("held across await" in f.message for f in hits)

    def test_async_lock_passes(self):
        assert not run_rule(
            """
            async def mutate(self, fn):
                async with self._lock:
                    await self.flush()
            """,
            "async-lock-held",
        )

    def test_lock_released_before_await_passes(self):
        assert not run_rule(
            """
            async def mutate(self, fn):
                with self._lock:
                    snapshot = self.state
                await self.flush(snapshot)
            """,
            "async-lock-held",
        )

    def test_non_lock_context_passes(self):
        assert not run_rule(
            """
            async def fetch(self, session):
                with self.timer:
                    await session.get("/")
            """,
            "async-lock-held",
        )


# ----------------------------------------------------------------------
# spawn-safety
# ----------------------------------------------------------------------


class TestSpawnSafetyRule:
    def test_lambda_to_pool_map_fires(self):
        hits = run_rule(
            """
            from concurrent.futures import ProcessPoolExecutor

            def run(tasks):
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(lambda t: t + 1, tasks))
            """,
            "spawn-safety",
        )
        assert any("lambda" in f.message for f in hits)

    def test_local_def_to_pool_submit_fires(self):
        hits = run_rule(
            """
            from concurrent.futures import ProcessPoolExecutor

            def run(tasks):
                def work(t):
                    return t + 1

                pool = ProcessPoolExecutor()
                return [pool.submit(work, t) for t in tasks]
            """,
            "spawn-safety",
        )
        assert any("work" in f.message for f in hits)

    def test_lambda_initializer_fires(self):
        hits = run_rule(
            """
            from concurrent.futures import ProcessPoolExecutor

            def run():
                return ProcessPoolExecutor(initializer=lambda: None)
            """,
            "spawn-safety",
        )
        assert any("initializer" in f.message for f in hits)

    def test_lazy_pool_attribute_fires(self):
        # The ``self._pool`` / ``_ensure_pool()`` pattern sharded.py
        # uses must still be seen through.
        hits = run_rule(
            """
            from concurrent.futures import ProcessPoolExecutor

            class Fanout:
                def _ensure_pool(self):
                    self._pool = ProcessPoolExecutor(4)
                    return self._pool

                def search(self, tasks):
                    return list(
                        self._ensure_pool().map(lambda t: t, tasks)
                    )
            """,
            "spawn-safety",
        )
        assert hits

    def test_module_level_function_passes(self):
        assert not run_rule(
            """
            from concurrent.futures import ProcessPoolExecutor

            def work(task):
                return task + 1

            def run(tasks):
                with ProcessPoolExecutor(
                    initializer=work, initargs=(0,)
                ) as pool:
                    return list(pool.map(work, tasks))
            """,
            "spawn-safety",
        )

    def test_thread_pool_lambda_passes(self):
        # Thread pools share the address space; lambdas are fine there
        # (and are the serving layer's executor idiom).
        assert not run_rule(
            """
            from concurrent.futures import ThreadPoolExecutor

            def run(tasks):
                with ThreadPoolExecutor() as pool:
                    return list(pool.map(lambda t: t + 1, tasks))
            """,
            "spawn-safety",
        )


# ----------------------------------------------------------------------
# arena-hygiene
# ----------------------------------------------------------------------


class TestArenaHygieneRule:
    def test_bare_creation_fires(self):
        hits = run_rule(
            """
            from multiprocessing import shared_memory

            def stage(nbytes):
                shm = shared_memory.SharedMemory(create=True, size=nbytes)
                return shm.name
            """,
            "arena-hygiene",
        )
        assert any("close/unlink" in f.message for f in hits)

    def test_unreleased_arena_create_fires(self):
        hits = run_rule(
            """
            def build(points):
                arena = SharedArena.create(points)
                return arena.spec
            """,
            "arena-hygiene",
        )
        assert hits

    def test_context_manager_passes(self):
        assert not run_rule(
            """
            def stage(points):
                with SharedArena.create(points) as arena:
                    return use(arena)
            """,
            "arena-hygiene",
        )

    def test_finally_close_passes(self):
        assert not run_rule(
            """
            def stage(spec):
                attachment = attach(spec)
                try:
                    return use(attachment)
                finally:
                    attachment.close()
            """,
            "arena-hygiene",
        )

    def test_ownership_transfer_passes(self):
        # Returning the handle directly or storing it on an attribute
        # hands lifecycle ownership to the caller/object.
        assert not run_rule(
            """
            def open_arena(spec):
                return AttachedArena(spec)

            class Holder:
                def bind(self, spec):
                    self._shm = SharedMemory(name=spec.name)
            """,
            "arena-hygiene",
        )


# ----------------------------------------------------------------------
# unused-symbol
# ----------------------------------------------------------------------


class TestUnusedSymbolRule:
    def test_unused_import_fires(self):
        hits = run_rule(
            """
            import os
            import json

            def dump(payload):
                return json.dumps(payload)
            """,
            "unused-symbol",
        )
        assert any("'os'" in f.message for f in hits)
        assert not any("'json'" in f.message for f in hits)

    def test_unused_from_import_fires(self):
        hits = run_rule(
            """
            from pathlib import Path, PurePath

            def norm(p):
                return Path(p)
            """,
            "unused-symbol",
        )
        assert any("'PurePath'" in f.message for f in hits)

    def test_init_reexport_surface_exempt(self):
        source = """
        from repro.core.search import SearchParams
        """
        assert not run_rule(
            source, "unused-symbol", path="src/repro/fake/__init__.py"
        )
        assert run_rule(source, "unused-symbol", path="src/repro/fake/mod.py")

    def test_quoted_annotation_counts_as_use(self):
        assert not run_rule(
            """
            import numpy as np

            def zeros(n) -> "np.ndarray":
                return [0] * n
            """,
            "unused-symbol",
        )

    def test_all_export_counts_as_use(self):
        assert not run_rule(
            """
            from repro.core.search import SearchParams

            __all__ = ["SearchParams"]
            """,
            "unused-symbol",
        )

    def test_import_as_self_exempt(self):
        assert not run_rule(
            """
            from repro.core import search as search
            """,
            "unused-symbol",
        )


# ----------------------------------------------------------------------
# typing-complete
# ----------------------------------------------------------------------


class TestTypingCompleteRule:
    def test_unannotated_def_fires(self):
        hits = run_rule(
            """
            def merge(a, b):
                return a + b
            """,
            "typing-complete",
        )
        assert any("missing annotations" in f.message for f in hits)

    def test_missing_return_fires(self):
        hits = run_rule(
            """
            def scale(x: float, factor: float = 2.0):
                return x * factor
            """,
            "typing-complete",
        )
        assert any("return" in f.message for f in hits)

    def test_annotated_def_passes(self):
        assert not run_rule(
            """
            from typing import Any

            class Store:
                def __init__(self, capacity: int = 8) -> None:
                    self.capacity = capacity

                def put(self, key: str, *rest: Any, **opts: Any) -> bool:
                    return True

                @classmethod
                def empty(cls) -> "Store":
                    return cls(0)
            """,
            "typing-complete",
        )

    def test_out_of_scope_package_exempt(self):
        assert not run_rule(
            "def helper(x):\n    return x\n",
            "typing-complete",
            path="src/repro/graphs/helper.py",
        )
        assert run_rule(
            "def helper(x):\n    return x\n",
            "typing-complete",
            path="src/repro/core/helper.py",
        )


# ----------------------------------------------------------------------
# Suppressions, config, exit codes
# ----------------------------------------------------------------------


class TestSuppressions:
    SOURCE = """
    import numpy as np

    def sample():
        return np.random.default_rng()
    """

    def test_matching_id_suppresses(self):
        src = textwrap.dedent(self.SOURCE).replace(
            "np.random.default_rng()",
            "np.random.default_rng()  # repro: ignore[determinism] fixture",
        )
        findings = lint_source(
            src, config=LintConfig(select=frozenset({"determinism"}))
        )
        assert findings and all(f.suppressed for f in findings)

    def test_bare_ignore_suppresses_everything(self):
        src = textwrap.dedent(self.SOURCE).replace(
            "np.random.default_rng()",
            "np.random.default_rng()  # repro: ignore",
        )
        findings = lint_source(src)
        assert all(f.suppressed for f in findings if f.line == 5)

    def test_unrelated_id_does_not_suppress(self):
        src = textwrap.dedent(self.SOURCE).replace(
            "np.random.default_rng()",
            "np.random.default_rng()  # repro: ignore[arena-hygiene]",
        )
        findings = lint_source(
            src, config=LintConfig(select=frozenset({"determinism"}))
        )
        assert any(not f.suppressed for f in findings)

    def test_suppression_is_line_scoped(self):
        src = (
            "import numpy as np\n"
            "a = np.random.default_rng()  # repro: ignore[determinism]\n"
            "b = np.random.default_rng()\n"
        )
        findings = lint_source(
            src, config=LintConfig(select=frozenset({"determinism"}))
        )
        assert [f.suppressed for f in sorted(findings, key=lambda f: f.line)] == [
            True,
            False,
        ]

    def test_severity_override_drops_exit_code(self):
        from repro.analysis.lint.engine import LintReport

        findings = lint_source(
            "import os\n",
            config=LintConfig(
                select=frozenset({"unused-symbol"}),
                severity_overrides={"unused-symbol": Severity.WARNING},
            ),
        )
        report = LintReport(findings=findings, files_checked=1)
        assert findings and report.exit_code == 0


class TestCliLint:
    def make_tree(self, tmp_path: Path, body: str) -> Path:
        mod = tmp_path / "mod.py"
        mod.write_text(textwrap.dedent(body))
        return mod

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        self.make_tree(
            tmp_path,
            """
            import json

            def dump(payload: object) -> str:
                return json.dumps(payload)
            """,
        )
        assert main(["lint", str(tmp_path)]) == 0

    def test_findings_exit_nonzero(self, tmp_path, capsys):
        self.make_tree(
            tmp_path,
            """
            import numpy as np

            def sample() -> float:
                return np.random.default_rng().random()
            """,
        )
        assert main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "[determinism]" in out

    def test_suppressed_findings_exit_zero(self, tmp_path, capsys):
        self.make_tree(
            tmp_path,
            """
            import numpy as np

            def sample() -> float:
                rng = np.random.default_rng()  # repro: ignore[determinism] fixture
                return rng.random()
            """,
        )
        assert main(["lint", str(tmp_path)]) == 0

    def test_json_format(self, tmp_path, capsys):
        self.make_tree(tmp_path, "import os\n")
        assert main(["lint", str(tmp_path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["exit_code"] == 1
        assert any(f["rule"] == "unused-symbol" for f in payload["findings"])

    def test_select_limits_rules(self, tmp_path, capsys):
        self.make_tree(
            tmp_path,
            """
            import os
            import numpy as np

            def sample():
                return np.random.default_rng()
            """,
        )
        assert main(["lint", str(tmp_path), "--select", "unused-symbol"]) == 1
        out = capsys.readouterr().out
        assert "[unused-symbol]" in out and "[determinism]" not in out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "nope")]) == 2
        assert main(["lint"]) == 2

    def test_syntax_error_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        assert main(["lint", str(bad)]) == 2

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for cls in ALL_RULES:
            assert cls.id in out


# ----------------------------------------------------------------------
# The whole-tree gate (the acceptance criterion itself)
# ----------------------------------------------------------------------


class TestWholeTreeGate:
    def test_src_repro_lints_clean(self):
        """``repro lint src/repro`` exits 0: zero unsuppressed findings
        on the shipped tree.  Any new contract violation fails here
        before it fails in production."""
        report = lint_paths([REPO_SRC])
        assert report.files_checked > 50
        unsuppressed = report.unsuppressed
        assert unsuppressed == [], "\n".join(f.render() for f in unsuppressed)

    def test_every_suppression_in_tree_is_justified(self):
        """Each ``# repro: ignore`` in the tree carries an explanation
        (non-empty trailing text or an adjacent comment) and names an
        explicit rule id — bare blanket suppressions are banned in
        shipped code."""
        import io
        import re
        import tokenize

        pattern = re.compile(r"#\s*repro:\s*ignore(\[[^\]]*\])?(.*)")
        for path in sorted(REPO_SRC.rglob("*.py")):
            source = path.read_text()
            lines = source.splitlines()
            for tok in tokenize.generate_tokens(io.StringIO(source).readline):
                if tok.type != tokenize.COMMENT:
                    continue
                m = pattern.search(tok.string)
                if m is None:
                    continue
                lineno = tok.start[0]
                # Only trailing comments are live suppressions; full-line
                # comments (documentation about the syntax) are inert
                # because no finding can land on a comment-only line.
                if not lines[lineno - 1][: tok.start[1]].strip():
                    continue
                where = f"{path}:{lineno}"
                assert m.group(1), f"{where}: suppression must name a rule id"
                prev = lines[lineno - 2].strip() if lineno >= 2 else ""
                justified = bool(m.group(2).strip()) or prev.startswith("#")
                assert justified, f"{where}: suppression needs a justification"

    def test_every_rule_has_distinct_id(self):
        ids = [cls.id for cls in ALL_RULES]
        assert len(ids) == len(set(ids))
        assert len(ids) >= 6  # the issue's floor; we ship more

    def test_lint_error_is_importable_surface(self):
        assert issubclass(LintError, Exception)
