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


def test_one_table_rule():
    # listing a field tables it, inside field.py: no other module builds
    # tables, and no module names a size threshold for them
    for path in sorted(SRC.glob("*.py")) + sorted(SRC.parent.parent.joinpath("tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            assert name != "LOG_CAP", f"{name} at {where}"
            if path.parent == SRC and path.name != "field.py" and isinstance(node, ast.Call):
                assert getattr(node.func, "attr", None) != "_build_logs", f"_build_logs called at {where}"


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


@pytest.mark.parametrize("name", ["check_theta_marked_point", "check_roundtrip", "_check_cyclic"])
def test_level_structure_checks_list_nothing(name):
    # the checks are linear algebra over a subspace's basis; listing E_n, G_n
    # or a span costs q^dim where one solve or one echelon form answers
    tree = ast.parse((SRC / "isogeny.py").read_text())
    (func,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name]
    for node in ast.walk(func):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            assert not node.func.attr.endswith("elements"), f"{name} calls .{node.func.attr}() at line {node.lineno}"


def test_verify_walks_the_successor_relation():
    # verify takes its chains from the cached successor relation; the points
    # pipeline would count whole levels against POINTS_CAP that it never takes
    tree = ast.parse((SRC / "verify.py").read_text())
    for node in ast.walk(tree):
        name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
        assert name not in {"iter_rational", "enumerate_rational", "TowerPoint"}, f"{name} at verify.py:{node.lineno}"


def test_no_successor_relation_outside_towers():
    # towers.rational_chains is the one walk of the successor relation; a
    # module that named the relation itself could walk it a second way
    for path in sorted(SRC.glob("*.py")):
        if path.name == "towers.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            assert name != "_level_candidates", f"{name} at {path.name}:{node.lineno}"


def test_one_spelling_per_twisted_operation():
    # ore_add, ore_mul and evaluate are the operations on a TwistedPoly; an
    # operator or call method would be a second spelling of one of them
    from drinfeld_towers.ore import TwistedPoly

    for name in ("__add__", "__sub__", "__neg__", "__mul__", "__call__"):
        assert name not in vars(TwistedPoly), f"TwistedPoly.{name}"


# functions and methods that only tests call, by module and qualified name.
# Give one a caller in src/ or an entry in __all__, or move it to tests/ as
# an oracle, and take it off; add none.
TEST_ONLY = {
    "drinfeld.annihilator_order",
    "drinfeld.find_isomorphism",
    "isogeny.bracket_coeffs",
    "isogeny.check_lemma_2_9",
    "isogeny.verify_lemma_1_6",
    "towers.eval_F",
    "towers.eval_G",
    "towers.eval_H",
    "towers.eval_H_cross",
    "towers.galois_action",
    "towers.ssing_u_set",
}


def test_src_functions_have_callers():
    # a function that only tests call is code the program never runs
    import drinfeld_towers

    defined, referenced = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node, scope in _scoped(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                defined.append((".".join((path.stem, *scope, node.name)), node.name))
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name not in scope:  # a def's reads of its own name are no caller
                referenced.add(name)
    exported = set(drinfeld_towers.__all__)
    test_only = {
        qualname
        for qualname, name in defined
        if name not in referenced and name not in exported and not (name.startswith("__") and name.endswith("__"))
    }
    assert test_only == TEST_ONLY
