"""Every ``from repro... import name`` in the scripts resolves.

The paper-claim benches (``benchmarks/bench_*.py``) are not collected by
the tier-1 suite and the examples are not run by it, so a name the
library drops would break them silently.  This walks their syntax trees
— and the tests' own, where an import inside a test function is only
reached when that test runs — and resolves every imported name against
the live package, at module level and inside functions alike.

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
SCRIPT_DIRS = ("benchmarks", "examples", "tests")


def repro_imports(path: Path) -> list[tuple[int, str, str, bool]]:
    """``(line, module, name, called)`` for every ``from repro... import
    name`` anywhere in ``path``; ``called`` says whether the script calls
    the name it binds."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    called = {
        node.func.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    return [
        (node.lineno, node.module, alias.name, (alias.asname or alias.name) in called)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.level == 0
        and node.module is not None
        and (node.module == "repro" or node.module.startswith("repro."))
        for alias in node.names
    ]


def resolves(module: str, name: str, called: bool) -> bool:
    mod = importlib.import_module(module)
    if not hasattr(mod, name):
        try:
            importlib.import_module(f"{module}.{name}")
        except ModuleNotFoundError:
            return False
    return not (called and isinstance(getattr(mod, name), types.ModuleType))


def test_every_repro_import_in_the_scripts_resolves() -> None:
    checked = 0
    unresolved = []
    for folder in SCRIPT_DIRS:
        for path in sorted((REPO_ROOT / folder).glob("*.py")):
            for line, module, name, called in repro_imports(path):
                checked += 1
                if not resolves(module, name, called):
                    where = path.relative_to(REPO_ROOT)
                    unresolved.append(f"{where}:{line}: from {module} import {name}")
    assert checked > 500  # the walk found the imports it is meant to check
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
