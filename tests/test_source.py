"""Source-level guards over the library modules."""

import ast
from pathlib import Path

import pytest

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
