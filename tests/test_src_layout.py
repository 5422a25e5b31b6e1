"""``src/`` holds only what the package itself or the benchmark's tracer
uses; oracles and shorthands that only the tests call live in
``tests/oracles.py``.

Every public module-level function and class of ``src/permdiff`` must be
imported by another module of the package (``from .mod import name``), read
in its own module outside its own definition, or wrapped by
``perfbench/tracer.py``.  The package root re-exports nothing, so names are
imported from the modules that define them."""

import ast
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import permdiff
from test_trace_targets import _targets

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "permdiff"


def _traced_names() -> set[tuple[str, str]]:
    """(module, top-level name) of every function the tracer wraps."""
    return {(mod.rpartition(".")[2], attr.partition(".")[0])
            for _, mod, attr, _, _ in _targets()}


def _read_outside(tree: ast.Module, name: str) -> bool:
    """True when ``name`` is loaded anywhere in ``tree`` except inside its
    own top-level definition."""
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)) \
                and top.name == name:
            continue
        for node in ast.walk(top):
            if (isinstance(node, ast.Name) and node.id == name
                    and isinstance(node.ctx, ast.Load)):
                return True
    return False


def unused_public_names() -> list[str]:
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(PACKAGE.glob("*.py"))
               if path.stem != "__init__"}
    imported = {(node.module, alias.name)
                for tree in modules.values() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    traced = _traced_names()
    unused = []
    for stem, tree in modules.items():
        for top in tree.body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)) \
                    or top.name.startswith("_"):
                continue
            name = top.name
            if not ((stem, name) in imported or (stem, name) in traced
                    or _read_outside(tree, name)):
                unused.append(f"{stem}.{name}")
    return unused


def test_every_public_name_of_src_is_used():
    assert unused_public_names() == []


def test_package_root_binds_only_its_version():
    # a submodule, once imported anywhere, is bound on the package too
    names = {name for name, value in vars(permdiff).items()
             if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert names == set()
    assert isinstance(permdiff.__version__, str)


def test_cli_starts_without_dataclasses_or_inspect():
    # every command imports the CLI first; run with no site-packages, that
    # import loads neither module
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    probe = ("import sys, permdiff.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"
