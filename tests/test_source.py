"""Source-level guards over the library modules."""

import ast
from pathlib import Path

import pytest

from drinfeld_towers import cli

SRC = Path(__file__).resolve().parent.parent / "src" / "drinfeld_towers"
BROAD = {"Exception", "BaseException"}


def _caught_names(handler: ast.ExceptHandler) -> list:
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return [t.attr if isinstance(t, ast.Attribute) else getattr(t, "id", None) for t in types]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_broad_except(path):
    # a broad catch turns a resource limit or a bug into whatever its handler
    # reports; catch the errors the handler means instead
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler):
            where = f"{path.name}:{node.lineno}"
            assert node.type is not None, f"bare except at {where}"
            assert not BROAD & set(_caught_names(node)), f"broad except at {where}"


def _module_level(node):
    """The nodes of `node` outside any function body."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _module_level(child)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_level_argparse(path):
    # a well-formed command never needs argparse; only help and usage errors
    # import it, from inside cli.py's functions
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in _module_level(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        assert "argparse" not in names, f"module-level argparse import at {path.name}:{node.lineno}"


def _scoped(node, scope=()):
    """(node, names of the enclosing classes and functions) for every node."""
    for child in ast.iter_child_nodes(node):
        yield child, scope
        inner = scope + (child.name,) if isinstance(child, (ast.ClassDef, ast.FunctionDef)) else scope
        yield from _scoped(child, inner)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_listing_cap_only_where_listed(path):
    # ENUMERATION_CAP bounds listing, so only the one function that lists a
    # field reads it; a count that lists nothing answers to the size cap alone
    tree = ast.parse(path.read_text(), filename=str(path))
    for node, scope in _scoped(tree):
        where = f"{path.name}:{getattr(node, 'lineno', '?')}"
        name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
        assert name != "check_enumerable", f"check_enumerable at {where}"
        if name == "ENUMERATION_CAP" and not isinstance(getattr(node, "ctx", None), ast.Store):
            assert scope == ("FieldCtx", "subfield_elements"), f"ENUMERATION_CAP read at {where}"


def test_every_command_has_one_handler():
    assert cli._HANDLERS.keys() == cli.COMMANDS.keys()


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_config_echoes_only_declared_options(monkeypatch, command):
    # a report echoes the namespace its handler runs on: the command's own
    # options, and no key beyond them but the command, the size cap in force
    # and the format and seed filled in for every report
    options = cli.COMMANDS[command][1]
    argv = [command]
    for name, spec in options.items():
        if spec.get("required"):
            argv += ["--" + name, spec["choices"][0] if "choices" in spec else "2"]
    echoed = []
    monkeypatch.setitem(cli._HANDLERS, command, lambda ns, out: echoed.append(cli._config(ns)) or 0)
    assert cli.main(argv) == 0
    assert set(echoed[0]) - set(options) <= {"command", "format", "seed", "size_cap"}
