"""Source-level rules that the test suite enforces."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import mutants
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


def test_no_hand_written_immutability_or_equality_in_package():
    # Value types get immutability, equality and hashing from a tuple, a
    # NamedTuple or a frozen dataclass; a hand-written override can drift
    # from the data it guards (an __eq__ and a __hash__ that disagree).
    banned = {"__setattr__", "__delattr__", "__eq__", "__hash__"}
    found = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, ast.FunctionDef):
                        names = {stmt.name}
                    elif isinstance(stmt, ast.Assign):
                        names = {t.id for t in stmt.targets if isinstance(t, ast.Name)}
                    else:
                        continue
                    found += [f"{path.name}:{stmt.lineno} {node.name}.{name}"
                              for name in sorted(names & banned)]
            elif (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                  and isinstance(node.value, ast.Name) and node.value.id == "object"):
                found.append(f"{path.name}:{node.lineno} object.__setattr__")
    assert not found, f"hand-written immutability or equality in the package: {found}"


def load_tracing():
    """The benchmark's tracer module, perfbench/tracing.py, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_functions_resolve():
    # The benchmark's tracer (perfbench/tracing.py, loaded by path and left
    # unchanged) wraps the functions named in TRACED; one that no longer
    # exists would silently read 0 calls instead of failing.
    tracing = load_tracing()
    assert tracing.TRACED
    missing = [
        f"{module}.{name}"
        for module, names in tracing.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"splitjac.{module}"), name, None))
    ]
    assert not missing, f"traced functions missing from splitjac: {missing}"


def test_lattice_layers_do_not_import_fractions():
    # Every module but quadfield, the field layer, works on integers over
    # stated denominators; Fraction stays in the field layer and the oracles.
    found = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        if path.stem == "quadfield":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m == "fractions" or m.startswith("fractions.") for m in modules):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"fractions imported outside the field layer: {found}"


def test_the_degree_bound_is_written_once():
    # The proof's degree bound is cmhom.NMAX = 31.  The screen reads it (its
    # profiles go to 2*NMAX = 62) and so does the sweep (the values 2..NMAX),
    # so no other integer literal in the package is 31, 32 or 62, and one
    # line moves both stages together.
    bound, found = [], []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        nmax = {id(node.value) for node in tree.body if path.stem == "cmhom"
                and isinstance(node, ast.Assign)
                and [ast.unparse(t) for t in node.targets] == ["NMAX"]}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and type(node.value) is int
                    and node.value in (31, 32, 62)):
                (bound if id(node) in nmax else found).append(
                    f"{path.name}:{node.lineno} {node.value}")
    assert len(bound) == 1 and bound[0].endswith(" 31"), bound
    assert not found, f"the degree bound written out beside cmhom.NMAX: {found}"


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
    # or splitjac itself (numpy is a test-only tool).
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


def test_every_top_level_definition_is_used_by_the_package():
    # A module-level function or class that only tests call is test code
    # and belongs in tests/oracles.py.  Importing a name is not a use, so a
    # re-export does not keep it alive.  Being named in the tracer's TRACED
    # counts as a use: the benchmark wraps and times those functions by name.
    traced = set(load_tracing().TRACED_NAMES)
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(PACKAGE_DIR.rglob("*.py"))}
    uses = []  # (name, id of the referring node) over the whole package
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.append((node.id, id(node)))
            elif isinstance(node, ast.Attribute):
                uses.append((node.attr, id(node)))
    unused = []
    for path, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = f"{path.stem}.{node.name}"
            own = {id(n) for n in ast.walk(node)}
            if name not in traced and not any(
                    used == node.name and ref not in own for used, ref in uses):
                unused.append(name)
    assert not unused, f"definitions that nothing in the package uses: {unused}"


def test_importing_the_package_loads_no_submodule():
    # The package's __init__ is its docstring alone: callers import the
    # modules they use, so importing splitjac costs nothing.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(PACKAGE_DIR.parent), env.get("PYTHONPATH"))))
    script = ("import sys, splitjac; "
              "print(sorted(m for m in sys.modules if m.startswith('splitjac.')))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_mutant_snippets_occur_once_in_src():
    # tests/mutants.py replaces each old snippet in a copy of src/; one that
    # is missing or ambiguous would leave its mutant unapplied or misplaced.
    sources = {path: path.read_text(encoding="utf-8") for path in PACKAGE_DIR.rglob("*.py")}
    assert mutants.MUTANTS
    for mutant in mutants.MUTANTS:
        assert mutant.old != mutant.new, mutant.name
        counts = {path.name: text.count(mutant.old) for path, text in sources.items()}
        assert sum(counts.values()) == 1 == counts[Path(mutant.file).name], (mutant.name, counts)
