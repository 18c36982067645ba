"""Every ``repro`` import in the scripts resolves.

The paper-claim benches (``benchmarks/bench_*.py``) and the benchmark
harness (``benchmarks/harness/``) are not collected by the tier-1 suite
and the examples are not run by it, so a name the library drops would
break them silently — the harness only at benchmark time.  This walks
their syntax trees — and the tests' own, where an import inside a test
function is only reached when that test runs — and resolves every
imported name against the live package, at module level and inside
functions alike.  Two forms are read:

* ``from repro... import name`` — ``name`` must exist in the module;
* ``import repro.x as y`` — ``repro.x`` must import, and every ``y.attr``
  the script reads must exist in it.

A name that resolves only to a submodule is an error where the script
calls it: ``from repro.graphs import greedy`` finds the module
``repro.graphs.greedy`` once the function of that name is gone.
"""

from __future__ import annotations

import ast
import importlib
import types
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPT_GLOBS = (
    "benchmarks/*.py",
    "benchmarks/harness/**/*.py",
    "examples/*.py",
    "tests/*.py",
)


def _is_repro(module: str) -> bool:
    return module == "repro" or module.startswith("repro.")


def repro_imports(path: Path) -> list[tuple[int, str, str | None, bool]]:
    """``(line, module, name, called)`` for every ``repro`` import anywhere
    in ``path``: one entry per ``from repro... import name``, one with
    ``name`` ``None`` per ``import repro.x as y`` (the module itself) and
    one per ``y.attr`` read; ``called`` says whether the script calls
    what the entry names."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    called = {
        node.func.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    called_attrs = {
        id(node.func)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    }
    found: list[tuple[int, str, str | None, bool]] = []
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level or node.module is None or not _is_repro(node.module):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name
                found.append((node.lineno, node.module, alias.name, bound in called))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if _is_repro(alias.name):
                    found.append((node.lineno, alias.name, None, False))
                    if alias.asname:
                        aliases[alias.asname] = alias.name
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            module = aliases[node.value.id]
            found.append((node.lineno, module, node.attr, id(node) in called_attrs))
    return sorted(found, key=lambda entry: entry[0])


def resolves(module: str, name: str | None, called: bool) -> bool:
    try:
        mod = importlib.import_module(module)
    except ModuleNotFoundError:
        return False
    if name is None:
        return True
    if not hasattr(mod, name):
        try:
            importlib.import_module(f"{module}.{name}")
        except ModuleNotFoundError:
            return False
    return not (called and isinstance(getattr(mod, name), types.ModuleType))


def _describe(module: str, name: str | None) -> str:
    return f"import {module}" if name is None else f"{module}.{name}"


def test_every_repro_import_in_the_scripts_resolves() -> None:
    checked, harness = 0, 0
    unresolved = []
    for pattern in SCRIPT_GLOBS:
        for path in sorted(REPO_ROOT.glob(pattern)):
            where = path.relative_to(REPO_ROOT)
            for line, module, name, called in repro_imports(path):
                checked += 1
                harness += where.parts[:2] == ("benchmarks", "harness")
                if not resolves(module, name, called):
                    unresolved.append(f"{where}:{line}: {_describe(module, name)}")
    # The walk found the imports it is meant to check, the harness's too.
    assert checked > 500 and harness > 20
    assert unresolved == []


def test_a_dropped_name_is_reported(tmp_path: Path) -> None:
    script = tmp_path / "bench_x.py"
    script.write_text(
        "from repro.graphs import engine, greedy, greedy_batch\n"
        "def run(g, ds, s, q):\n"
        "    from repro.graphs import no_such_routine\n"
        "    return greedy(g, ds, s, q), engine.greedy_batch\n"
    )
    found = repro_imports(script)
    assert [(m, n, c) for _, m, n, c in found] == [
        ("repro.graphs", "engine", False),
        ("repro.graphs", "greedy", True),
        ("repro.graphs", "greedy_batch", False),
        ("repro.graphs", "no_such_routine", False),
    ]
    assert [resolves(m, n, c) for _, m, n, c in found] == [True, False, True, False]


def test_a_dropped_module_or_module_attribute_is_reported(tmp_path: Path) -> None:
    script = tmp_path / "workload_x.py"
    script.write_text(
        "def install(tracer):\n"
        "    import repro.core.index as core_index\n"
        "    import repro.core.no_such_module as gone\n"
        "    tracer.wrap(core_index.ProximityGraphIndex, 'search')\n"
        "    core_index.no_such_name()\n"
        "    core_index.graphs = None\n"
        "    return gone\n"
    )
    found = repro_imports(script)
    assert [(m, n, c) for _, m, n, c in found] == [
        ("repro.core.index", None, False),
        ("repro.core.no_such_module", None, False),
        ("repro.core.index", "ProximityGraphIndex", False),
        ("repro.core.index", "no_such_name", True),
    ]
    assert [resolves(m, n, c) for _, m, n, c in found] == [True, False, True, False]


def test_the_harness_trace_targets_exist() -> None:
    """The traced benchmark run wraps these attributes by name, each where
    it is looked up at call time: ``search`` on the class itself, the beam
    as ``repro.core.index``'s global, ``run_beam`` on the package, and the
    rerank hook on both store classes that define it."""
    import repro.accel
    import repro.core.index as core_index
    from repro.storage.base import VectorStore
    from repro.storage.disk import DiskTierStore

    assert callable(core_index.beam_search_batch)
    assert callable(repro.accel.run_beam)
    assert "search" in vars(core_index.ProximityGraphIndex)
    assert "rerank_distances" in vars(VectorStore)
    assert "rerank_distances" in vars(DiskTierStore)
