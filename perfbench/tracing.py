"""Per-layer spans recorded from outside the program.

A :class:`Tracer` replaces each traced function at every module attribute
that refers to it (the defining module, ``from ... import`` bindings in
other modules, the package namespace) with a wrapper that times the call.
Nothing under ``src/`` is edited; :meth:`Tracer.uninstall` puts every
original back.

Spans are aggregated as they close instead of being stored: per function
the benchmark keeps the call count, the self time (the span minus the part
covered by traced child spans) and the number of calls that returned
something other than None.
"""

from __future__ import annotations

import functools
import sys
import time

#: The public functions traced, by defining module.  A ``from ... import``
#: binding elsewhere (for example ``pipeline.gamma2_tiles``) is found by
#: identity and wrapped too.
TRACED = {
    "quadfield": ("is_squarefree",),
    "intlinalg": ("solve", "in_lattice", "lattice_intersect", "det"),
    "bqf": (
        "lattice_scalings",
        "canon_gamma2",
        "gamma2_tiles",
        "cm_points_F1",
        "form_class_points",
    ),
    "cmhom": ("degree_profile", "morphism_degree", "hom_lattice", "screen_pair"),
    "periodlattice": (
        "polarization_gram",
        "degree_gram",
        "maps_module",
        "diag_isomorphic",
        "represented_small_values",
    ),
    "qforms": ("short_vectors", "short_vector_values", "equivalent", "evaluate"),
    "universal": ("represent", "solve_ternary", "represented_by_enumeration"),
    "pipeline": ("generate_candidates", "evaluate_candidate", "check_classification"),
}

TRACED_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


class SpanStats:
    __slots__ = ("calls", "self_s", "non_none")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.non_none = 0


class Tracer:
    """Wraps the traced functions of a package for the life of a ``with`` block."""

    def __init__(self, package: str = "splitjac", traced: dict = TRACED):
        self.package = package
        self.traced = traced
        self.stats = {f"{mod}.{fn}": SpanStats() for mod, fns in traced.items() for fn in fns}
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[float] = []

    def _modules(self):
        prefix = self.package + "."
        return [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == self.package or name.startswith(prefix))
        ]

    def _wrap(self, stats: SpanStats, fn):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dur = clock() - t0
                stats.calls += 1
                stats.self_s += dur - stack.pop()
                if result is not None:
                    stats.non_none += 1
                if stack:
                    stack[-1] += dur

        return span

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        wrappers = {}
        for mod, fns in self.traced.items():
            home = sys.modules[f"{self.package}.{mod}"]
            for fn in fns:
                original = getattr(home, fn, None)
                if original is None:  # removed from the program: reports 0 calls
                    continue
                wrappers[id(original)] = (
                    original, self._wrap(self.stats[f"{mod}.{fn}"], original)
                )
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def bindings(self) -> list[str]:
        """``module.attr`` of every binding currently wrapped."""
        return [f"{m.__name__}.{attr}" for m, attr, _ in self._patched]

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
