"""Source-level rules that the test suite enforces."""

import ast
import importlib
import importlib.util
import sys
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


def test_traced_functions_resolve():
    # The benchmark's tracer (perfbench/tracing.py, loaded by path and left
    # unchanged) wraps the functions named in TRACED; one that no longer
    # exists would silently read 0 calls instead of failing.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    missing = [
        f"{module}.{name}"
        for module, names in tracing.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"splitjac.{module}"), name, None))
    ]
    assert not missing, f"traced functions missing from splitjac: {missing}"


def test_lattice_layers_do_not_import_fractions():
    # intlinalg, cmhom, periodlattice and qforms work on integers over stated
    # denominators; Fraction stays in the field layer and the oracles.
    found = []
    for name in ("intlinalg", "cmhom", "periodlattice", "qforms"):
        path = PACKAGE_DIR / f"{name}.py"
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m == "fractions" or m.startswith("fractions.") for m in modules):
                found.append(f"{name}.py:{node.lineno}")
    assert not found, f"fractions imported by a lattice layer: {found}"


def test_only_the_cleared_caches_outlive_a_run():
    # The benchmark's cold-state gate clears exactly these two caches before
    # each sample.  Any other functools.cache or lru_cache would carry state
    # from one run into the next, so a speed-up it gave would not be one of
    # the program.  Per-object caches (functools.cached_property) are fine.
    allowed = {"cmhom.degree_profile", "bqf.reduced_forms"}
    cache_names = {"cache", "lru_cache"}
    found = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        modules = {"functools"}  # names bound to the functools module
        local = set()  # names bound to functools.cache or functools.lru_cache
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules |= {a.asname or a.name for a in node.names if a.name == "functools"}
            elif isinstance(node, ast.ImportFrom) and node.module == "functools":
                local |= {a.asname or a.name for a in node.names if a.name in cache_names}
        uses = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id in local
            or isinstance(node, ast.Attribute) and node.attr in cache_names
            and isinstance(node.value, ast.Name) and node.value.id in modules
        ]
        blessed = set()
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and f"{path.stem}.{node.name}" in allowed):
                blessed |= {id(n) for dec in node.decorator_list for n in ast.walk(dec)}
        found += [f"{path.name}:{node.lineno}" for node in uses if id(node) not in blessed]
    assert not found, f"process-lifetime caches beyond {sorted(allowed)}: {found}"


def test_enumeration_oracle_is_independent_of_the_fast_paths():
    # The box enumeration cross-checks the constructive path and the
    # short-vector enumerator, so it must reach neither of them.
    oracle = {"represented_by_enumeration", "_oracle_radii", "_oracle_mask"}
    fast = {"solve_ternary", "represent", "evaluate", "short_vectors",
            "short_vector_values", "ldl"}
    path = PACKAGE_DIR / "universal.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    functions = [node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name in oracle]
    assert {f.name for f in functions} == oracle
    found = [
        f"{f.name} -> {name}"
        for f in functions
        for node in ast.walk(f)
        for name in ([node.id] if isinstance(node, ast.Name)
                     else [node.attr] if isinstance(node, ast.Attribute) else [])
        if name in fast
    ]
    assert not found, f"the enumeration oracle reaches a fast path: {found}"


def test_package_imports_only_the_stdlib():
    # The package has no dependencies: every import is the standard library
    # or splitjac itself (numpy is a test-only tool, in tests/oracles.py).
    found = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names | {"splitjac"}]
    assert not found, f"imports outside the standard library: {found}"
