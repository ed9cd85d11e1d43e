"""Constructive representation of every integer n > 1 by the four forms.

For each reference form the construction strips factors of 4 (a vector of
n, doubled, is one of 4n; n = 4 is a fixed base case).  Any other n is built
by the row of :data:`CASES` for its form and n mod 8, one identity
s*q(U*(a, b, c, d)/D) = T(a, b, c) + k*d^2 with U an integer 4 x 4 matrix:

    row       T             s   k   D    d by n mod 8
    q1        D122          1   4   2    0 or 1
    q2        D115          3   5   3    0 or 1
    q3        D1HEX         1   3   2    0 or 1
    q4 even   SUM3SQUARES   1   0   6    0
    q4 odd    SUM3SQUARES   4   1   12   3

The solution (a, b, c) of T = m = s*n - k*d^2 is massaged by the first
automorphism of T in the row's list whose image makes U*(a, b, c, d)
divisible by D and meets the row's normalisation (no entry 2 mod 3 for q2,
b and c of opposite parity for q3).  It depends only on a, b, c mod D and d,
so a table built at import gives it.  Every side condition is checked, and
the vector is re-verified by evaluating the form as its Representation, a
tuple, is built.  A failure raises RepresentationError, an
InvariantViolation, whatever the interpreter flags, so the CLI exits 3 with
one line on stderr.

Each ternary problem has one answer, the first solution in a deterministic
order (lexicographically smallest (|a|, |b|, |c|), nonnegative
representatives first): the least a whose remainder r = m - a^2 the b, c
part reaches, then the least b of that r, which fixes c.  One driver,
:func:`_first_solution`, computes it from a least-b source of the rows r.
``represent`` solves a lone n, so its source scans the row;
``verify_universal`` solves every m of a dense range, so its source is a
table of the least b of every row, built once per call and bound into the
kind's solver.  It runs the row driver of ``represent``,
:func:`_construct`, on each m that is 4 or not divisible by 4, with the
form's rows and their solvers looked up once per call, and doubles the
vector of m for 4m, 16m, ...  Each kind is
a^2 + (wb*b^2 + wc*c^2)/scale by its ``row``, the hexagonal one with
s = 2c + b in the c slot, so one scan and one table serve all four.  The
scan runs c downward; two residue tables modulo 2880 prune it by necessary
local conditions, so a None return still certifies that no solution
exists.  Each :class:`TernaryKind` member carries its own row, tables and
scan.  The plain ascending scans are kept in the tests as an independent
oracle.
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from collections.abc import Callable
from enum import Enum
from functools import partial
from itertools import permutations, product
from math import isqrt
from typing import NamedTuple

from . import intlinalg as la
from .invariants import InvariantViolation, check
from .qforms import REFERENCE_FORMS, evaluate


class RepresentationError(InvariantViolation):
    """A case step or the re-evaluation of the construction failed; names it."""


#: The Gram matrix of each reference form by form id, read once per Representation.
_GRAMS = {form_id: form.gram for form_id, form in REFERENCE_FORMS.items()}


class Representation(namedtuple("Representation", "form_id n vector trace")):
    """q_form_id(vector) = n, with the trace of the construction: an immutable
    tuple that verifies itself, as building one evaluates the form and raises
    RepresentationError on another value (``_replace`` included)."""

    __slots__ = ()

    def __new__(cls, form_id: int, n: int, vector: tuple[int, int, int, int], trace: tuple[str, ...]):
        value = evaluate(_GRAMS[form_id], vector)
        if value != n:
            raise RepresentationError(f"q{form_id}{vector} = {value} != {n}")
        return tuple.__new__(cls, (form_id, n, vector, trace))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


#: Modulus of the residue tables, 64 * 9 * 5; 144 of its residues are squares.
_FILTER_MOD = 2880


def _crt_table(values) -> bytes:
    """t with t[r] = 1 iff r mod q is in values(q) for each q of 64, 9 and 5.

    values(q) gives the residues mod q (unreduced integers are fine) that
    some integer point of a form takes.  By the Chinese remainder theorem the
    form takes r modulo _FILTER_MOD iff it takes r modulo each of 64, 9 and
    5, so the table is the bytewise AND of the three small tables, each
    repeated to full length.
    """
    mask = -1
    for q in (64, 9, 5):
        row = bytearray(q)
        for v in values(q):
            row[v % q] = 1
        mask &= int.from_bytes(bytes(row) * (_FILTER_MOD // q), "big")
    return mask.to_bytes(_FILTER_MOD, "big")


def _weighted_squares(w: int, q: int) -> set[int]:
    return {w * s * s % q for s in range(q)}


def _row_values(wb: int, wc: int, scale: int, q: int) -> set[int]:
    """Residues mod q of the row (wb*b^2 + wc*c^2)/scale: the sums of the two
    square sets mod scale*q that scale divides, divided by scale."""
    cs = _weighted_squares(wc, scale * q)
    return {(x + y) // scale for x in _weighted_squares(wb, scale * q) for y in cs
            if (x + y) % scale == 0}


def _scan(rows: bytes, table: bytes, wb: int, wc: int, scale: int, den: int, rem: int) -> int:
    """The least b of the row rem of the kind whose ``row`` is (wb, wc,
    scale, den), or -1, by a scan pruned by the kind's row and candidate
    tables (see :class:`TernaryKind`).

    A row whose rem is not a value of the b, c part modulo 2880 has no
    solution.  In the others c runs down from sqrt(scale*rem/wc): as c
    grows, b^2 = (scale*rem - wc*c^2)/wb falls strictly, so the least b of
    the row belongs to its greatest c.  The scan stops below wc*c^2 =
    (den - 1)*scale*rem/den, which the least b meets.  A candidate wb*b^2
    that is not wb*s^2 modulo 2880 is passed over before it pays for a
    square root.
    """
    mod = _FILTER_MOD
    if not rows[rem % mod]:
        return -1
    rem *= scale
    top = isqrt(rem // wc)
    c2 = -(-(den - 1) * rem // (den * wc))  # the least c^2 the stop allows
    low = isqrt(c2 - 1) + 1 if c2 else 0
    rem -= wc * top * top  # wb*b^2 for c, kept up to date: c -> c - 1 adds step
    step = wc * (2 * top - 1)
    for c in range(top, low - 1, -1):
        if table[rem % mod]:
            b = isqrt(rem // wb)
            if wb * b * b == rem:
                return b
        rem += step
        step -= 2 * wc
    return -1


class TernaryKind(Enum):
    """A ternary form a^2 + x*b^2 + y*bc + z*c^2 of the construction, with
    its data, set once, at import.

    ``text`` is its trace step, formatted with m, a, b, c, and
    ``coefficients`` is (x, y, z).  ``row`` = (wb, wc, scale, den) gives the
    form as a^2 + (wb*b^2 + wc*c^2)/scale.  The hexagonal kind holds s =
    2c + b in the c slot, as 4(b^2 + bc + c^2) = s^2 + 3b^2; s^2 + 3b^2 = 2r
    is even only if s = b (mod 2), so each s gives an integer c = (s - b)/2.
    den bounds the least b >= 0 of a row r: some solution has wb*b^2 <=
    scale*r/den, that is wc*c^2 >= (den - 1)*scale*r/den.
     - den 2, wb = wc: swapping b and c gives every solution a twin with c >= b.
     - den 4, the hexagonal kind, 6b^2 <= r: with m = r/2, if (b, c) solves
       b^2 + bc + c^2 = m, so do (c, b) and (-(b + c), b), which put |b|, |c|
       and |b + c| in the b slot.  Of these three the largest is the sum of
       the other two, x <= y, and (x, y) solves too, so m = x^2 + xy + y^2 >=
       3x^2.  (The weaker bound sqrt(2m/3) follows from b^2 + c^2 + (b + c)^2
       = 2m alone.)
     - den 1, D115: no bound, c runs down to 0.
    ``row_residues`` and ``residues`` are the tables modulo 2880 of the
    values of the b, c part and of wb*s^2, and ``scan``, the least-b source
    of :func:`solve_ternary`, is :func:`_scan` with both tables and the row
    bound in.
    """

    SUM3SQUARES = "three squares {} -> ({}, {}, {})", (1, 0, 1), (1, 1, 1, 2)
    D122 = "ternary {}=a^2+2b^2+2c^2 -> ({}, {}, {})", (2, 0, 2), (2, 2, 1, 2)
    D115 = "ternary {}=a^2+b^2+5c^2 -> ({}, {}, {})", (1, 0, 5), (1, 5, 1, 1)
    D1HEX = "ternary {}=a^2+2(b^2+bc+c^2) -> ({}, {}, {})", (2, 2, 2), (3, 1, 2, 4)

    def __init__(self, text: str, coefficients: tuple[int, int, int], row: tuple[int, int, int, int]):
        wb, wc, scale, _ = row
        self.text, self.coefficients, self.row = text, coefficients, row
        self.row_residues = _crt_table(partial(_row_values, wb, wc, scale))
        self.residues = _crt_table(partial(_weighted_squares, wb))
        self.scan = partial(_scan, self.row_residues, self.residues, *row)


#: The hexagonal kind, read off the Enum class once, as reading a member off
#: the class costs more than a whole ternary value.
_HEXAGONAL = TernaryKind.D1HEX


def ternary_value(kind: TernaryKind, a: int, b: int, c: int) -> int:
    x, y, z = kind.coefficients
    return a * a + x * b * b + y * b * c + z * c * c


def solve_ternary(kind: TernaryKind, n: int):
    """First solution of the ternary form in deterministic search order.

    Returns a nonnegative triple, the first by (|a|, |b|, |c|) with
    nonnegative entries preferred; for the hexagonal kind other solutions
    may have negative b or c.  None certifies that no solution exists.

    The answer is :func:`_first_solution`'s, with the least b of each row
    from the kind's residue-filtered row scan, its ``scan``.  This is the
    solver of a lone n (``represent``); ``verify_universal`` runs the same
    driver on least-b tables (:func:`_least_b_table`) instead.
    """
    if n < 0:
        raise ValueError("ternary solver expects n >= 0")
    return _first_solution(kind, kind.scan, n)


def _first_solution(kind: TernaryKind, least_b, m: int):
    """The ternary problem's one answer for m, given least_b(r), the least
    b >= 0 with which the b, c part of the form reaches r, or -1 where it
    does not.

    a runs upward to the first row r = m - a^2 that has a least b, and None
    means that no row has one.  That b fixes c >= 0 by the kind's ``row``,
    wc*c^2 = scale*r - wb*b^2.  For the hexagonal kind that c is s, and c =
    (s - b)/2 is the root of b^2 + bc + c^2 = r/2 with the smaller absolute
    value, as s >= 3b >= 0 at the least b (see :class:`TernaryKind`).  The
    triple is checked against the form, so a least_b that is wrong raises
    InvariantViolation.
    """
    wb, wc, scale, _ = kind.row
    for a in range(isqrt(m) + 1):
        r = m - a * a
        b = least_b(r)
        if b >= 0:
            c = isqrt((scale * r - wb * b * b) // wc)
            if kind is _HEXAGONAL:
                c = (c - b) // 2
            if ternary_value(kind, a, b, c) != m:
                raise InvariantViolation("%s(%d): wrong solution %s" % (kind, m, (a, b, c)))
            return a, b, c
    return None


def _least_b_table(kind: TernaryKind, top: int) -> array:
    """t with t[r], for 0 <= r <= top, the least b >= 0 with which the b, c
    part of the form reaches r, or -1 where it does not.

    By the kind's ``row``, r = (wb*b^2 + wc*c^2)/scale.  One pass over the
    (b, c) pairs with b ascending fills it, and the first write to each r
    is kept.  Pairs past the row's stop, wc*c^2 < (den - 1)*wb*b^2, never
    hold the least b of their r and are not visited, so b^2 <=
    scale*top/(den*wb).  An entry takes 2 bytes.
    """
    wb, wc, scale, den = kind.row
    table = array("h", [-1]) * (top + 1)
    top *= scale
    grow = 2 * wc * scale
    for b in range(isqrt(top // (den * wb)) + 1):
        base = wb * b * b
        # c starts on the stop, at b, 3b or 0.  For the hexagonal kind c is
        # s, and 3b = b (mod 2): the step 2 keeps s = b, so each r is whole.
        # r is kept up to date: c -> c + scale adds step = wc*(2c + scale).
        c = isqrt((den - 1) * base // wc)
        r, step = (base + wc * c * c) // scale, wc * (2 * c + scale)
        for _ in range(c, isqrt((top - base) // wc) + 1, scale):
            if table[r] < 0:
                table[r] = b
            r += step
            step += grow
    return table


#: Vectors of value 4, one per form; regenerated by a test via brute force.
BASE4_VECTORS = {
    1: (0, 0, 0, 1),
    2: (1, 1, 0, 0),
    3: (0, 0, 0, 1),
    4: (0, 0, 1, 0),
}


def _signed(perm, signs=(1, 1, 1)):
    """The automorphism (a, b, c) -> (s0*t[p0], s1*t[p1], s2*t[p2]) of t = (a, b, c)."""
    return tuple(tuple(s if j == i else 0 for j in range(3)) for i, s in zip(perm, signs))


def _inverse(m):
    """Inverse of a 3 x 3 integer matrix of determinant +-1: det m times its adjugate."""
    (a, b, c), (d, e, f), (g, h, i) = m
    adj = ((e * i - f * h, c * h - b * i, b * f - c * e), (f * g - d * i, a * i - c * g, c * d - a * f),
           (d * h - e * g, b * g - a * h, a * e - b * d))
    det = a * adj[0][0] + b * adj[1][0] + c * adj[2][0]
    return adj if det == 1 else tuple(tuple(-x for x in row) for row in adj)


#: The sign patterns of a triple in search order: + before -, the last sign fastest.
_SIGNS = tuple(product((1, -1), repeat=3))
#: q4's automorphisms: the 48 signed permutations in the order of a plain search.
_ARRANGED = tuple((_signed(p, s), ("arranged (a,b,c)=({},{},{})",))
                  for p in permutations(range(3)) for s in _SIGNS)


class Case(NamedTuple):
    """A row of the construction (see the module docstring).  ``d`` maps
    each n mod 8 the row serves to d.  ``automorphisms`` lists (A, labels) by
    preference, A acting on (a, b, c); ``normal`` tests the residues of the
    image mod D.  ``table`` maps ((a, b, c) mod D, d) to the first (A,
    labels) accepted.  The trace is "d=..." where d enters (k != 0), the
    kind's ``text`` formatted with m, a, b, c, then the labels formatted with
    the image.
    """

    form_id: int
    name: str
    kind: TernaryKind
    s: int
    k: int
    d: dict[int, int]
    m_mod_8: frozenset[int]
    D: int
    U: tuple[tuple[int, int, int, int], ...]
    automorphisms: tuple
    normal: Callable[[int, int, int], bool] | None = None
    table: dict | None = None


def _with_table(case: Case) -> Case:
    """The row with its table: each A in order claims the keys that no earlier
    A claimed and that it maps to accepted residues r, U*(r, d) = 0 mod D and
    r normal.  These are few; each c completing a, b, d is looked up.
    """
    D, U = case.D, case.U
    cs = {}
    for c in range(D):
        cs.setdefault(tuple(row[2] * c % D for row in U), []).append(c)
    accepted = [(a, b, c, d) for d in set(case.d.values()) for a, b in product(range(D), repeat=2)
                for c in cs.get(tuple(-(p * a + q * b + u * d) % D for p, q, _, u in U), ())
                if case.normal is None or case.normal(a, b, c)]
    table = {}
    for A, labels in case.automorphisms:
        (p0, p1, p2), (q0, q1, q2), (t0, t1, t2) = _inverse(A)
        keys = [key for a, b, c, d in accepted
                if (key := ((p0 * a + p1 * b + p2 * c) % D, (q0 * a + q1 * b + q2 * c) % D,
                            (t0 * a + t1 * b + t2 * c) % D, d)) not in table]
        table.update(dict.fromkeys(keys, (A, labels)))
    return case._replace(table=table)


#: The rows of the construction, by (form, n mod 8).
CASES = {(case.form_id, r): case for case in map(_with_table, (
    Case(1, "q1", TernaryKind.D122, 1, 4, {1: 1, 2: 0, 3: 0, 5: 0, 6: 1, 7: 1},
         frozenset({2, 3, 5}), 2, ((0, 0, 2, 0), (1, 1, 0, 0), (-1, 1, 0, 0), (0, 0, 0, 2)),
         ((_signed((0, 1, 2)), ()), (_signed((0, 2, 1)), ("swap b,c",)))),
    Case(2, "q2", TernaryKind.D115, 3, 5, {1: 1, 2: 0, 3: 0, 5: 0, 6: 0, 7: 0},
         frozenset({1, 2, 5, 6, 7}), 3, ((0, 0, 3, 0), (0, 0, 0, 3), (0, 1, 0, -1), (1, 0, -1, 0)),
         tuple((_signed((0, 1, 2), s), ()) for s in _SIGNS)
         + tuple((_signed((1, 0, 2), s), ("swap a,b",)) for s in _SIGNS),
         lambda a, b, c: 2 not in (a % 3, b % 3, c % 3)),
    Case(3, "q3", TernaryKind.D1HEX, 1, 3, {1: 1, 2: 0, 3: 0, 5: 1, 6: 0, 7: 0},
         frozenset({2, 3, 6, 7}), 2, ((1, 2, 1, 1), (-1, 0, -1, -1), (-1, 0, 1, -1), (0, 0, 0, 2)),
         ((_signed((0, 1, 2)), ()), (_signed((0, 2, 1)), ("swap b,c",)),
          (((1, 0, 0), (0, 1, 1), (0, 0, -1)), ("(b,c) -> (b+c,-c)",)),
          (((1, 0, 0), (0, 0, -1), (0, 1, 1)), ("(b,c) -> (b+c,-c)", "swap b,c"))),
         lambda a, b, c: (b - c) % 2 == 1),
    Case(4, "q4 even", TernaryKind.SUM3SQUARES, 1, 0, {2: 0, 6: 0},
         frozenset({2, 6}), 6, ((4, 2, 0, 0), (0, 0, 0, 0), (1, -1, 3, 0), (-2, 2, 0, 0)), _ARRANGED),
    Case(4, "q4 odd", TernaryKind.SUM3SQUARES, 4, 1, {1: 3, 3: 3, 5: 3, 7: 3},
         frozenset({3}), 12, ((4, 2, 0, 2), (0, 0, 0, 4), (1, -1, 3, -1), (-2, 2, 0, 0)), _ARRANGED),
)) for r in case.d}


def _construct(case: Case, n: int, solve) -> tuple[tuple[int, int, int, int], tuple[str, ...]]:
    """The row's vector and trace for n, each side condition checked; solve
    is the ternary solver of the row's kind, called as solve(m)."""
    name, D = case.name, case.D
    d = case.d[n % 8]
    m = case.s * n - case.k * d * d
    if m <= 0 or m % 8 not in case.m_mod_8:
        raise RepresentationError(f"{name}: residue of {m} mod 8")
    sol = solve(m)
    if sol is None:
        raise RepresentationError(f"{name}: no ternary solution for {m}")
    a, b, c = sol
    found = case.table.get((a % D, b % D, c % D, d))
    if found is None:
        raise RepresentationError(f"{name}: no automorphism meets the congruence mod {D}")
    text = case.kind.text.format(m, a, b, c)
    trace = (f"d={d}", text) if case.k else (text,)
    A, labels = found
    (p0, p1, p2), (q0, q1, q2), (t0, t1, t2) = A
    a, b, c = p0 * a + p1 * b + p2 * c, q0 * a + q1 * b + q2 * c, t0 * a + t1 * b + t2 * c
    u0, u1, u2, u3 = case.U
    w = u0[0] * a + u0[1] * b + u0[2] * c + u0[3] * d
    x = u1[0] * a + u1[1] * b + u1[2] * c + u1[3] * d
    y = u2[0] * a + u2[1] * b + u2[2] * c + u2[3] * d
    z = u3[0] * a + u3[1] * b + u3[2] * c + u3[3] * d
    if not w % D == x % D == y % D == z % D == 0:
        raise RepresentationError(f"{name}: divisibility by {D}")
    for label in labels:
        trace += (label.format(a, b, c),)
    return (w // D, x // D, y // D, z // D), trace


#: Largest n that the CLI's ``represent --n`` accepts, so that no value asks
#: for unbounded time: each ternary scan takes Theta(sqrt(n)) steps, and
#: n = 10^13 + 3 takes at most about 1.3 s of CPU per form, 10^14 + 3 up to
#: 6.6 s (q2).  The CLI rejects a larger n before any work starts;
#: :func:`represent` itself takes any n.
REPRESENT_MAX = 10**13


def represent(form_id: int, n: int) -> Representation:
    """Explicit vector with q_{form_id}(vector) = n: for n = 4^k*m, m = 4 or
    m not divisible by 4, m's base vector or row CASES[form_id, m % 8] doubled k times."""
    if form_id not in REFERENCE_FORMS:
        raise ValueError(f"unknown form id {form_id}")
    if n <= 1:
        raise ValueError("only integers greater than 1 are represented")
    # A loop, since n may have more factors of 4 than the stack has frames.
    m, k = n, 0
    while m % 4 == 0 and m != 4:
        m, k = m // 4, k + 1
    if m == 4:
        vector, trace = BASE4_VECTORS[form_id], ("base n=4",)
    else:
        case = CASES[form_id, m % 8]
        vector, trace = _construct(case, m, partial(solve_ternary, case.kind))
    return Representation(form_id, n, tuple(v << k for v in vector) if k else vector,
                          trace + ("doubled",) * k)


def case_key(rep: Representation) -> str:
    if rep.trace[-1] == "doubled":
        return "doubled"
    if rep.trace[0] == "base n=4":
        return "base4"
    if rep.form_id == 4:
        return "odd" if rep.n % 2 else "even"
    return rep.trace[0]


#: Largest bound :func:`verify_universal` accepts, so that no bound asks for
#: unbounded time or memory: its least-b tables take O(s*nmax) time to fill
#: and 2 bytes per entry, at most 8 MB here (q4, s = 4).  A larger bound is
#: rejected before any work starts.
VERIFY_MAX = 10**6


def _table_solver(form_id: int, nmax: int) -> dict:
    """solve(m), by ternary kind, for every m that a row of form_id builds
    for some n <= nmax: :func:`_first_solution` with the kind's least-b
    table bound in, one table per kind of the form's rows, up to the largest
    s*nmax among them, built now and freed with the solvers."""
    tops = {}
    for case in CASES.values():
        if case.form_id == form_id:
            tops[case.kind] = max(tops.get(case.kind, 0), case.s * nmax)
    return {kind: partial(_first_solution, kind, _least_b_table(kind, top).__getitem__)
            for kind, top in tops.items()}


def verify_universal(form_id: int, nmax: int) -> dict:
    """Run the construction for every n in [2, nmax]; each value is re-verified
    as its :class:`Representation` is built.

    Each m that is 4 or not divisible by 4 is built as :func:`represent`
    builds it: m = 4 from its base vector, any other m by :func:`_construct`
    on its row of CASES, with the row's solver from :func:`_table_solver`
    (least-b tables built for this call in place of the row scans).  4m,
    16m, ... <= nmax double the vector and add "doubled" to the trace, as
    ``represent`` does for them, each as a Representation of its own.  The
    rows and their solvers are looked up once per call, and the doubled
    ones are counted under "doubled" without case_key.
    """
    if form_id not in REFERENCE_FORMS:
        raise ValueError(f"unknown form id {form_id}")
    if nmax < 2:
        raise ValueError("need nmax >= 2")
    if nmax > VERIFY_MAX:
        raise ValueError(f"need nmax <= {VERIFY_MAX}")
    solvers = _table_solver(form_id, nmax)
    rows = {r: (case, solvers[case.kind]) for (f, r), case in CASES.items() if f == form_id}
    cases: dict[str, int] = {}
    quarter = nmax // 4
    for m in range(2, nmax + 1):
        if m % 4:
            case, solve = rows[m % 8]
            vector, trace = _construct(case, m, solve)
        elif m == 4:
            vector, trace = BASE4_VECTORS[form_id], ("base n=4",)
        else:
            continue  # doubled from m/4 below
        key = case_key(Representation(form_id, m, vector, trace))
        cases[key] = cases.get(key, 0) + 1
        n, (w, x, y, z), k = m, vector, 0
        while n <= quarter:
            n, w, x, y, z, k = 4 * n, 2 * w, 2 * x, 2 * y, 2 * z, k + 1
            trace += ("doubled",)
            Representation(form_id, n, (w, x, y, z), trace)
        if k:
            cases["doubled"] = cases.get("doubled", 0) + k
    return {"form": form_id, "max": nmax, "count": nmax - 1, "cases": cases}


def check_enumeration(form_id: int, bound: int) -> None:
    """Check that box enumeration finds every n in [2, bound], and not 1."""
    if bound < 2:
        raise ValueError("need an enumeration bound >= 2")
    enum = represented_by_enumeration(form_id, bound)
    missing = sorted(set(range(2, bound + 1)) - enum)
    check(not missing, "q%d: enumeration to %d misses %s", form_id, bound, missing[:5])
    check(1 not in enum, "q%d: enumeration represents 1", form_id)


#: Largest bound :func:`represented_by_enumeration` accepts: it ORs one
#: bound-bit mask per (y, z) slice, about bound of them, so its work grows
#: like bound^2.  A larger bound is rejected before any work starts.
ORACLE_MAX = 10**5


def _oracle_radii(form_id: int, bound: int) -> list[int]:
    """Coordinate bounds |v_i| <= r_i of every vector with q(v) <= bound."""
    gram = REFERENCE_FORMS[form_id].gram
    columns = (la.solve(gram, e) for e in la.identity(4))  # G^-1 = y/den, column by column
    return [isqrt(bound * y[i] // den) for i, (den, y) in enumerate(columns)]


def _oracle_mask(p: int, r: int, s: int, a: int, b: int, bound: int) -> tuple[int, int]:
    """(lo, mask) of f(w, x) = p*w^2 + 2r*w*x + s*x^2 + 2a*w + 2b*x on Z^2.

    Bit v - lo of mask is set for each value v <= bound.  lo, the ceiling of
    the least real value -(s*a^2 - 2r*a*b + p*b^2)/(p*s - r^2), is <= each v.
    Row x has a real w with f <= bound iff (p*s - r^2)*x^2 + 2k*x <= a^2 +
    p*bound, k = p*b - r*a, and w has |p*w + r*x + a| <= isqrt(...): exact.
    """
    d, k = p * s - r * r, p * b - r * a
    lo = -((s * a * a - 2 * r * a * b + p * b * b) // d)
    hit = bytearray(bound - lo + 1)
    root = isqrt(k * k + d * (a * a + p * bound))
    for x in range(-((root + k) // d), (root - k) // d + 1):
        h, e = r * x + a, s * x * x + 2 * b * x  # f = p*w^2 + 2h*w + e on the row
        sq = isqrt(h * h - p * (e - bound))
        w = -((sq + h) // p)
        v, step = p * w * w + 2 * h * w + e - lo, p * (2 * w + 1) + 2 * h
        for _ in range(w, (sq - h) // p + 1):
            hit[v] = 1
            v, step = v + step, step + 2 * p
    return lo, int(hit[::-1].translate(bytes.maketrans(b"\0\1", b"01")), 2)


def represented_by_enumeration(form_id: int, bound: int) -> frozenset[int]:
    """Brute-force oracle: all values in [1, bound] of q_{form_id}, by theta masks.

    Pure Python on exact integers, independent of the constructive path and
    of ``qforms``' short vectors.  An unknown form id, as in :func:`represent`,
    and a bound below 0 or above :data:`ORACLE_MAX` are rejected with
    ValueError before any work starts.

    Split v = (u, y, z), u = (w, x), as q = Q2(u) + 2m.u + quad(y, z), with G2
    the top-left 2 x 2 block, D = det G2, m = (g02*y + g03*z, g12*y + g13*z).
    A slice's least real value is the Schur complement quad - m^T G2^-1 m >= 0,
    so a box slice with D*(quad - bound) > m^T adj(G2) m is dropped, exactly.
    With t = floor(G2^-1 m), by integer floor division of adj(G2) m by D, and
    m0 = m - G2 t, u -> u - t gives Q2(u) + 2m.u = Q2(u) + 2m0.u + Q2(t) - 2m.t;
    G2^-1 m0 is in [0, 1)^2, so m0 takes D values, each with one mask.  The
    shift lo + quad + Q2(t) - 2m.t is >= 0, as lo plus the Schur complement
    is, and puts each value on its own bit; the OR of all slices is read at
    bits 1..bound.
    """
    if form_id not in REFERENCE_FORMS:
        raise ValueError(f"unknown form id {form_id}")
    if bound < 0:
        raise ValueError(f"need an enumeration bound >= 0, got {bound}")
    if bound > ORACLE_MAX:
        raise ValueError(f"enumeration bound {bound} is above the cap of {ORACLE_MAX}")
    (g00, g01, g02, g03), (_, g11, g12, g13), (*_, g22, g23), (*_, g33) = \
        REFERENCE_FORMS[form_id].gram
    d, masks, found = g00 * g11 - g01 * g01, {}, 0
    _, _, ry, rz = _oracle_radii(form_id, bound)
    for y, z in product(range(-ry, ry + 1), range(-rz, rz + 1)):
        m0, m1 = g02 * y + g03 * z, g12 * y + g13 * z
        quad = g22 * y * y + 2 * g23 * y * z + g33 * z * z
        if d * (quad - bound) > g11 * m0 * m0 - 2 * g01 * m0 * m1 + g00 * m1 * m1:
            continue
        t0, t1 = (g11 * m0 - g01 * m1) // d, (g00 * m1 - g01 * m0) // d
        key = (m0 - g00 * t0 - g01 * t1, m1 - g01 * t0 - g11 * t1)
        if key not in masks:
            masks[key] = _oracle_mask(g00, g01, g11, *key, bound)
        lo, mask = masks[key]
        shift = lo + quad + t0 * (g00 * t0 + 2 * (g01 * t1 - m0)) + t1 * (g11 * t1 - 2 * m1)
        if shift < 0:
            check(False, "q%d: negative mask shift at (y, z) = (%d, %d)", form_id, y, z)
        found |= mask << shift
    bits = bin(found & ((2 << bound) - 1))[:1:-1]  # bits[i] is bit i
    return frozenset(i for i in range(1, len(bits)) if bits[i] == "1")
