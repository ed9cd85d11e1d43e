"""Constructive representation of every integer n > 1 by the four forms.

For each reference form the construction strips factors of 4 (if a form
represents n it represents 4n by doubling the vector; n = 4 is a fixed base
case) and then, for n not divisible by 4, picks a small auxiliary square,
solves a ternary subproblem by brute force, massages the ternary solution
through explicit sign, swap and permutation steps until stated congruence
conditions hold, and assembles the final vector.  Every side condition along
the way is asserted rather than assumed, and the assembled vector is always
re-verified by evaluating the form.

The ternary solvers are exhaustive searches with deterministic tie-breaking
(lexicographically smallest (|a|, |b|, |c|), nonnegative representatives
first), so they double as independent oracles: a None return certifies that
no solution exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import permutations, product
from math import isqrt

from . import intlinalg as la
from .invariants import check
from .qforms import REFERENCE_FORMS, evaluate


class TernaryKind(Enum):
    SUM3SQUARES = "a^2 + b^2 + c^2"
    D122 = "a^2 + 2b^2 + 2c^2"
    D115 = "a^2 + b^2 + 5c^2"
    D1HEX = "a^2 + 2(b^2 + bc + c^2)"


class RepresentationError(RuntimeError):
    """A case step of the construction failed; names the offending step."""


@dataclass(frozen=True)
class Representation:
    form_id: int
    n: int
    vector: tuple[int, int, int, int]
    trace: tuple[str, ...]

    def __post_init__(self):
        value = evaluate(REFERENCE_FORMS[self.form_id].gram, self.vector)
        if value != self.n:
            raise RepresentationError(
                f"q{self.form_id}{self.vector} = {value} != {self.n}"
            )


def ternary_value(kind: TernaryKind, a: int, b: int, c: int) -> int:
    if kind is TernaryKind.SUM3SQUARES:
        return a * a + b * b + c * c
    if kind is TernaryKind.D122:
        return a * a + 2 * b * b + 2 * c * c
    if kind is TernaryKind.D115:
        return a * a + b * b + 5 * c * c
    return a * a + 2 * (b * b + b * c + c * c)


def solve_ternary(kind: TernaryKind, n: int):
    """First solution of the ternary form in deterministic search order.

    Returns a nonnegative triple for the diagonal kinds.  For the hexagonal
    kind b and c may be negative; candidates are ordered by (|a|, |b|, |c|)
    with nonnegative entries preferred.  None certifies no solution exists.
    """
    if n < 0:
        raise ValueError("ternary solver expects n >= 0")
    if kind is TernaryKind.D1HEX:
        return _solve_hex(n)
    wb, wc = {
        TernaryKind.SUM3SQUARES: (1, 1),
        TernaryKind.D122: (2, 2),
        TernaryKind.D115: (1, 5),
    }[kind]
    for a in range(isqrt(n) + 1):
        rem_a = n - a * a
        for b in range(isqrt(rem_a // wb) + 1):
            rem = rem_a - wb * b * b
            if rem % wc:
                continue
            c2, r = divmod(rem, wc)
            assert r == 0
            c = isqrt(c2)
            if c * c == c2:
                return (a, b, c)
    return None


def _solve_hex(n: int):
    for a in range(isqrt(n) + 1):
        rem = n - a * a
        if rem % 2:
            continue
        m = rem // 2  # b^2 + bc + c^2 = m
        for babs in range(isqrt(4 * m // 3) + 1):
            for b in ((0,) if babs == 0 else (babs, -babs)):
                disc = 4 * m - 3 * b * b
                if disc < 0:
                    continue
                s = isqrt(disc)
                if s * s != disc or (s - b) % 2:
                    continue
                roots = sorted({(-b + s) // 2, (-b - s) // 2}, key=lambda c: (abs(c), c < 0))
                for c in roots:
                    assert b * b + b * c + c * c == m
                    return (a, b, c)
    return None


def _require(condition: bool, step: str):
    if not condition:
        raise RepresentationError(step)


SQUARE_ZERO_CASES = {
    1: frozenset({2, 3, 5}),
    3: frozenset({2, 3, 6, 7}),
}

#: Vectors of value 4, one per form; regenerated by a test via brute force.
BASE4_VECTORS = {
    1: (0, 0, 0, 1),
    2: (1, 1, 0, 0),
    3: (0, 0, 0, 1),
    4: (0, 0, 1, 0),
}


def _rep_q1(n: int) -> tuple[tuple[int, int, int, int], list[str]]:
    d = 0 if n % 8 in SQUARE_ZERO_CASES[1] else 1
    m = n - 4 * d * d
    _require(m > 0 and m % 8 in (2, 3, 5), f"q1: residue of {m} mod 8")
    sol = solve_ternary(TernaryKind.D122, m)
    _require(sol is not None, f"q1: no ternary solution for {m}")
    a, b, c = sol
    trace = [f"d={d}", f"ternary {m}=a^2+2b^2+2c^2 -> {sol}"]
    if (a - b) % 2:
        b, c = c, b
        trace.append("swap b,c")
    _require((a - b) % 2 == 0, "q1: parity a = b mod 2 unreachable")
    w, x, y, z = c, (a + b) // 2, (b - a) // 2, d
    return (w, x, y, z), trace


def _rep_q2(n: int) -> tuple[tuple[int, int, int, int], list[str]]:
    d = 1 if (3 * n) % 8 == 3 else 0
    m = 3 * n - 5 * d * d
    _require(m > 0 and m % 8 in (1, 2, 5, 6, 7), f"q2: residue of {m} mod 8")
    sol = solve_ternary(TernaryKind.D115, m)
    _require(sol is not None, f"q2: no ternary solution for {m}")
    a, b, c = sol
    trace = [f"d={d}", f"ternary {m}=a^2+b^2+5c^2 -> {sol}"]
    # Flip signs so that none of a, b, c is 2 mod 3 (d is 0 or 1 already).
    a, b, c = (v if v % 3 != 2 else -v for v in (a, b, c))
    _require((a * a + b * b - c * c - d * d) % 3 == 0, "q2: square congruence mod 3")
    if not (a % 3 == c % 3 and b % 3 == d % 3):
        a, b = b, a
        trace.append("swap a,b")
    _require(a % 3 == c % 3 and b % 3 == d % 3, "q2: alignment mod 3 unreachable")
    w, x = c, d
    y, z = (b - d) // 3, (a - c) // 3
    _require((b - d) % 3 == 0 and (a - c) % 3 == 0, "q2: divisibility by 3")
    return (w, x, y, z), trace


def _rep_q3(n: int) -> tuple[tuple[int, int, int, int], list[str]]:
    d = 0 if n % 8 in SQUARE_ZERO_CASES[3] else 1
    m = n - 3 * d * d
    _require(m > 0 and m % 8 in (2, 3, 6, 7), f"q3: residue of {m} mod 8")
    sol = solve_ternary(TernaryKind.D1HEX, m)
    _require(sol is not None, f"q3: no ternary solution for {m}")
    a, b, c = sol
    trace = [f"d={d}", f"ternary {m}=a^2+2(b^2+bc+c^2) -> {sol}"]
    _require(b % 2 or c % 2, "q3: b, c cannot both be even")
    if b % 2 == c % 2:
        b, c = b + c, -c  # value-preserving; fixes the parities apart
        trace.append("(b,c) -> (b+c,-c)")
    _require((b - c) % 2 == 1, "q3: opposite parities unreachable")
    if (a + c + d) % 2:
        b, c = c, b
        trace.append("swap b,c")
    _require((a + c + d) % 2 == 0, "q3: parity of a+c+d unreachable")
    s = (a + c + d) // 2
    w, x, y, z = b + s, -s, c - s, d
    return (w, x, y, z), trace


def _signed_permutations(triple):
    for perm in permutations(triple):
        for signs in product((1, -1), repeat=3):
            yield tuple(p * s for p, s in zip(perm, signs))


def _rep_q4(n: int) -> tuple[tuple[int, int, int, int], list[str]]:
    if n % 2 == 0:
        sol = solve_ternary(TernaryKind.SUM3SQUARES, n)
        _require(sol is not None, f"q4 even: no three-square solution for {n}")
        trace = [f"three squares {n} -> {sol}"]
        for a, b, c in _signed_permutations(sol):
            if (a - b) % 3 == 0:
                break
        else:
            raise RepresentationError("q4 even: no arrangement with a = b mod 3")
        trace.append(f"arranged (a,b,c)=({a},{b},{c})")
        _require((a - b + 3 * c) % 6 == 0 and (2 * a + b) % 3 == 0,
                 "q4 even: divisibility")
        w, x = (2 * a + b) // 3, 0
        y, z = (a - b + 3 * c) // 6, (b - a) // 3
        return (w, x, y, z), trace
    d = 3
    m = 4 * n - d * d
    sol = solve_ternary(TernaryKind.SUM3SQUARES, m)
    _require(sol is not None, f"q4 odd: no three-square solution for {m}")
    trace = [f"d={d}", f"three squares {m} -> {sol}"]
    _require(all(v % 2 for v in sol), "q4 odd: a, b, c must all be odd")
    for a, b, c in _signed_permutations(sol):
        if (a - b) % 3 == 0 and (a - b - c - d) % 4 == 0:
            break
    else:
        raise RepresentationError("q4 odd: no arrangement mod 3 and mod 4")
    trace.append(f"arranged (a,b,c)=({a},{b},{c})")
    _require((2 * a + b + d) % 6 == 0 and (a - b + 3 * c - d) % 12 == 0
             and (b - a) % 6 == 0, "q4 odd: divisibility")
    w, x = (2 * a + b + d) // 6, d // 3
    y, z = (a - b + 3 * c - d) // 12, (b - a) // 6
    return (w, x, y, z), trace


_CASE_FUNCS = {1: _rep_q1, 2: _rep_q2, 3: _rep_q3, 4: _rep_q4}


def represent(form_id: int, n: int) -> Representation:
    """Explicit vector with q_{form_id}(vector) = n, following the case split."""
    if form_id not in REFERENCE_FORMS:
        raise ValueError(f"unknown form id {form_id}")
    if n <= 1:
        raise ValueError("only integers greater than 1 are represented")
    if n % 4 == 0:
        if n == 4:
            return Representation(form_id, n, BASE4_VECTORS[form_id], ("base n=4",))
        inner = represent(form_id, n // 4)
        vector = tuple(2 * v for v in inner.vector)
        return Representation(form_id, n, vector, inner.trace + ("doubled",))
    vector, trace = _CASE_FUNCS[form_id](n)
    return Representation(form_id, n, vector, tuple(trace))


def case_key(rep: Representation) -> str:
    if rep.trace[-1] == "doubled":
        return "doubled"
    if rep.trace[0] == "base n=4":
        return "base4"
    if rep.form_id == 4:
        return "odd" if rep.n % 2 else "even"
    return rep.trace[0]


def verify_universal(form_id: int, nmax: int) -> dict:
    """Run the construction for every n in [2, nmax], re-verifying each value."""
    if nmax < 2:
        raise ValueError("need nmax >= 2")
    gram = REFERENCE_FORMS[form_id].gram
    cases: dict[str, int] = {}
    for n in range(2, nmax + 1):
        rep = represent(form_id, n)
        check(evaluate(gram, rep.vector) == n, "q%d%s != %d", form_id, rep.vector, n)
        key = case_key(rep)
        cases[key] = cases.get(key, 0) + 1
    return {"form": form_id, "max": nmax, "count": nmax - 1, "cases": cases}


#: Largest box the enumeration oracle builds, in grid points
#: (2*r1 + 1)*(2*r2 + 1)*(2*r3 + 1).  Each of the several int64 arrays over
#: the box takes 32 MB at the cap; a bound of 10^4 fits for every form.
ORACLE_GRID_CAP = 4_000_000


def _oracle_radii(form_id: int, bound: int) -> list[int]:
    """Coordinate bounds |v_i| <= r_i of every vector with q(v) <= bound."""
    gram = REFERENCE_FORMS[form_id].gram
    ginv = [la.solve(gram, tuple(1 if i == j else 0 for j in range(4))) for i in range(4)]
    return [isqrt(int(Fraction(bound) * ginv[i][i])) for i in range(4)]


def oracle_grid_size(form_id: int, bound: int) -> int:
    """Grid points of the box :func:`represented_by_enumeration` builds for bound."""
    _, r1, r2, r3 = _oracle_radii(form_id, bound)
    return (2 * r1 + 1) * (2 * r2 + 1) * (2 * r3 + 1)


def represented_by_enumeration(form_id: int, bound: int) -> frozenset[int]:
    """Brute-force oracle: all values <= bound by direct box enumeration.

    Exact integer arithmetic throughout (numpy int64 with an explicit
    overflow check); independent of both the constructive path and the
    completion-of-squares enumerator.  A bound whose box exceeds
    :data:`ORACLE_GRID_CAP` grid points is rejected before numpy allocates
    anything.
    """
    grid = oracle_grid_size(form_id, bound)
    if grid > ORACLE_GRID_CAP:
        raise ValueError(
            f"enumeration to {bound} needs {grid} grid points for q{form_id}, "
            f"above the cap of {ORACLE_GRID_CAP}"
        )
    import numpy as np

    gram = REFERENCE_FORMS[form_id].gram
    radii = _oracle_radii(form_id, bound)
    check(max(gram[i][i] for i in range(4)) * (4 * (max(radii) + 1)) ** 2 < 2**62,
          "int64 overflow possible in the enumeration to %d", bound)
    axes = [np.arange(-r, r + 1, dtype=np.int64) for r in radii]
    x, y, z = np.meshgrid(axes[1], axes[2], axes[3], indexing="ij")
    x, y, z = x.ravel(), y.ravel(), z.ravel()
    g = gram
    quad = (g[1][1] * x * x + g[2][2] * y * y + g[3][3] * z * z
            + 2 * (g[1][2] * x * y + g[1][3] * x * z + g[2][3] * y * z))
    lin = 2 * (g[0][1] * x + g[0][2] * y + g[0][3] * z)
    values: set[int] = set()
    for w in range(-radii[0], radii[0] + 1):
        vals = g[0][0] * w * w + w * lin + quad
        vals = vals[(vals <= bound) & (vals > 0)]
        values.update(np.unique(vals).tolist())
    return frozenset(values)
