"""``src/`` holds only what the package itself or the benchmark's tracer
uses; oracles and shorthands that only the tests call live in
``tests/oracles.py``.

Every public module-level function and class of ``src/permdiff`` must be
imported by another module of the package (``from .mod import name``), read
in its own module outside its own definition, or wrapped by
``perfbench/tracer.py``.  Every private module-level function, class and
constant must be read by the package in the same way; ``cli.main`` looks
each ``_cmd_<name>`` up by the name of its subcommand.  The package root
re-exports nothing, so names are imported from the modules that define
them."""

import argparse
import ast
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import permdiff
from permdiff.cli import make_parser
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


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))
            if path.stem != "__init__"}


def unused_names(modules: dict[str, ast.Module]) -> list[str]:
    """Every module-level function and class, and every private constant
    (dunders aside), that the rules in the module docstring leave unused."""
    imported = {(node.module, alias.name)
                for tree in modules.values() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    traced = _traced_names()
    subparsers, = [action for action in make_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    commands = {("cli", f"_cmd_{name}") for name in subparsers.choices}
    unused = []
    for stem, tree in modules.items():
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                names = [top.name]
            elif isinstance(top, (ast.Assign, ast.AnnAssign)):
                targets = top.targets if isinstance(top, ast.Assign) \
                    else [top.target]
                names = [t.id for t in targets
                         if isinstance(t, ast.Name) and t.id[0] == "_"]
            else:
                continue
            for name in names:
                key = (stem, name)
                if not (name.endswith("__") or key in imported
                        or key in (commands if name[0] == "_" else traced)
                        or _read_outside(tree, name)):
                    unused.append(f"{stem}.{name}")
    return unused


def test_every_public_name_of_src_is_used():
    assert [n for n in unused_names(_modules()) if "._" not in n] == []


def test_every_private_name_of_src_is_read():
    assert [n for n in unused_names(_modules()) if "._" in n] == []


def test_an_unread_private_name_is_caught():
    # a constant that nothing reads any more, and a command function that
    # main never looks up
    modules = _modules()
    modules["spans"].body += ast.parse("_STRANDED = 8").body
    modules["cli"].body += ast.parse("def _cmd_gone(args): pass").body
    assert unused_names(modules) == ["cli._cmd_gone", "spans._STRANDED"]


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
