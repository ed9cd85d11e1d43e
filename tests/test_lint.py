"""Source-level rules that the test suite enforces."""

import ast
from pathlib import Path

import splitjac

PACKAGE_DIR = Path(splitjac.__file__).parent


def test_no_assert_statements_in_package():
    # ``python -O`` drops assert statements; certificate checks must use
    # invariants.check, which runs whatever the interpreter flags.
    modules = sorted(PACKAGE_DIR.rglob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"
