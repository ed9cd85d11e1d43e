"""Exact integer linear algebra for small lattices.

A matrix is a tuple of row tuples of Python ints, so no operation ever
rounds.  A rational vector or matrix enters as integer numerators over one
stated positive denominator; no ``Fraction`` is built here.

A full-rank lattice of Q^n is a :class:`Lattice` (den, basis): the columns
of the integer n x n matrix basis, divided by den > 0, generate it (Cohen,
GTM 138, section 2.4.3).  The basis is the column-style Hermite normal form:
lower triangular, with positive pivots on the diagonal and the entries to
the left of each pivot reduced modulo it; den and the entries share no
factor.  Equal lattices are therefore equal tuples.  On this format

* membership is forward substitution, with a divisibility check per step;
* intersection is the integer kernel of [A | -B], put in HNF;
* a Gram matrix is B^T P B on the integer numerators.

No stage puts a lattice in HNF, tests membership or intersects lattices:
the period lattices are kept in their own basis, and the sweep's degree
forms are glued on a congruence kernel.  The HNF layer stays only for the
tests' oracles and because the benchmark traces its users (ROADMAP item 2).

Determinants, square solves and the LDL^T of a positive definite form
(:func:`ldl`, the one positive-definiteness test of the package) use
Bareiss's fraction-free elimination (Bareiss 1968, Math. Comp. 22), whose
divisions are exact and checked.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul
from typing import NamedTuple

from .invariants import check

IntMat = tuple[tuple[int, ...], ...]


def freeze(rows) -> tuple:
    return tuple(tuple(row) for row in rows)


def transpose(m):
    return tuple(zip(*m))


def identity(n: int) -> IntMat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def matmul(a: IntMat, b: IntMat) -> IntMat:
    bt = transpose(b)
    return tuple([tuple([sum(map(mul, row, col)) for col in bt]) for row in a])


def scaled(m: IntMat, k: int) -> IntMat:
    return tuple(tuple(k * x for x in row) for row in m)


def divided(m: IntMat, k: int) -> IntMat | None:
    """m / k if k divides every entry, else None."""
    if any(x % k for row in m for x in row):
        return None
    return tuple(tuple(x // k for x in row) for row in m)


def gram(b: IntMat, p: IntMat) -> IntMat:
    """B^T P B: the matrix of the bilinear form P on the columns of B."""
    return matmul(transpose(b), matmul(p, b))


def congruence_kernel(n: IntMat, den: int) -> IntMat:
    """A basis K, as columns, of {u in Z^k : n*u = 0 mod den}, one row of n at a
    time: Euclid on the residues row*K mod den, by unimodular column steps on
    K, leaves (g, 0, ..., 0), and K's first column is scaled by den/gcd(g, den)."""
    k = [list(col) for col in identity(len(n[0]))]  # the columns of K
    for row in n:
        c = [sum(map(mul, row, col)) % den for col in k]
        for j in range(1, len(k)):
            while c[j]:
                q = c[0] // c[j]
                k[0] = [x - q * y for x, y in zip(k[0], k[j])]
                k[0], k[j], c[0], c[j] = k[j], k[0], c[j], c[0] - q * c[j]
        k[0] = [den // gcd(c[0], den) * x for x in k[0]]
    return transpose(k)


def _row_hnf(rows: list[list[int]]) -> list[list[int]]:
    """Row-style HNF in place: canonical echelon basis of the row span."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, nrows):
            # Euclid on the two leading entries; gcd ends up in row r.
            while rows[i][c]:
                q = rows[r][c] // rows[i][c]
                rows[r] = [x - q * y for x, y in zip(rows[r], rows[i])]
                rows[r], rows[i] = rows[i], rows[r]
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
        for i in range(r):
            q = rows[i][c] // rows[r][c]
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return rows


def hnf(m: IntMat) -> IntMat:
    """Column-style Hermite normal form; column span is preserved.

    The zero matrix maps to itself; rank-deficient input yields an echelon
    basis with the redundant columns zeroed out on the right.
    """
    rows = [list(r) for r in transpose(m)]
    return transpose(freeze(_row_hnf(rows)))


def _bareiss(rows: list[list[int]], n: int, swap: bool = True) -> int:
    """Fraction-free (Bareiss) elimination of the first n columns, in place.

    Every division by the previous pivot is exact, and is checked to be.
    Returns the determinant of the leading n x n block of the input rows,
    0 if it is singular (the rows are then only partly reduced).  On
    success the rows are upper triangular in their first n columns and
    ``rows[n-1][n-1]`` is the determinant of the permuted block.  With
    ``swap`` false no rows are exchanged, so a zero pivot returns 0 and
    ``rows[k][k]`` is the leading principal minor of order k + 1.
    """
    sign = 1
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, len(rows) if swap else k + 1) if rows[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        pivot_row = rows[k]
        akk = pivot_row[k]
        for i in range(k + 1, len(rows)):
            aik = rows[i][k]
            new = [akk * x - aik * y for x, y in zip(rows[i], pivot_row)]
            if prev != 1:
                check(all(x % prev == 0 for x in new), "Bareiss division is not exact")
                new = [x // prev for x in new]
            rows[i] = new
        prev = akk
    return sign * prev


def det(m: IntMat) -> int:
    """Exact determinant by Bareiss elimination."""
    return _bareiss([list(row) for row in m], len(m))


def ldl(g: IntMat) -> IntMat | None:
    """Fraction-free LDL^T of a symmetric integer matrix g, or None unless g
    is positive definite.

    Bareiss elimination without row exchanges gives the upper triangular
    integer rows U, with U[k][k] = D_{k+1} the leading principal minor of
    order k + 1 and, for every v,

        v^T g v = sum_k (U[k] . v)^2 / (D_k * D_{k+1}),  D_0 = 1.

    g is positive definite iff every D_k is positive (Sylvester), so a
    zero or negative pivot gives None.
    """
    n = len(g)
    rows = [list(row) for row in g]
    if not _bareiss(rows, n, swap=False) or any(rows[k][k] <= 0 for k in range(n)):
        return None
    return freeze(rows)


def solve(a: IntMat, v) -> tuple[int, tuple[int, ...]]:
    """(D, y) with D > 0 and a@y = D*v: the solution of a@x = v is y/D.

    Back substitution keeps D times the solution, an integer by Cramer's
    rule, so each division in it is exact and checked.  Raises ValueError
    if the square matrix a is singular.
    """
    n = len(a)
    rows = [list(row) + [v[i]] for i, row in enumerate(a)]
    if not _bareiss(rows, n):
        raise ValueError("singular system")
    d = rows[n - 1][n - 1]
    y = [0] * n
    for i in range(n - 1, -1, -1):
        row = rows[i]
        num = d * row[n] - sum(row[k] * y[k] for k in range(i + 1, n))
        y[i], r = divmod(num, row[i])
        check(r == 0, "Bareiss back substitution is not exact")
    return (d, tuple(y)) if d > 0 else (-d, tuple(-x for x in y))


class Lattice(NamedTuple):
    """The full-rank lattice basis*Z^n / den, in the canonical form above."""

    den: int
    basis: IntMat


def lattice(den: int, gens: IntMat) -> Lattice:
    """The lattice generated by the columns of gens, divided by den > 0;
    ValueError if the columns do not span Q^n."""
    n = len(gens)
    if den <= 0:
        raise ValueError("lattice denominator must be positive")
    h = hnf(gens)
    if len(h[0]) < n or not all(h[i][i] for i in range(n)):
        raise ValueError("rank-deficient lattice basis")
    g = gcd(den, *(x for row in h for x in row[:n]))
    return Lattice(den // g, tuple(tuple(x // g for x in row[:n]) for row in h))


def in_lattice(lat: Lattice, den: int, *vectors) -> bool:
    """Whether every vector, divided by den, lies in lat.

    Forward substitution in the triangular basis: each x_i of w/den = h@x/D
    must come out an integer.  Only :func:`lattice_intersect` and the tests
    call it; it stays in the package because the benchmark traces it
    (ROADMAP items 1 and 2).
    """
    d, h = lat
    n = len(h)
    for w in vectors:
        x = []
        for i in range(n):
            row = h[i]
            num = d * w[i] - den * sum(row[j] * x[j] for j in range(i))
            q, r = divmod(num, den * row[i])
            if r:
                return False
            x.append(q)
    return True


def lattice_intersect(a: Lattice, b: Lattice) -> Lattice:
    """The intersection of two full-rank lattices.

    Over the common denominator D the bases are integer matrices A and B;
    the integer kernel of [A | -B] gives the x with A@x = B@y, and the A@x
    generate D times the intersection.  The result is checked for
    membership in both inputs.  No stage calls it; it stays in the package
    because the benchmark traces it (ROADMAP items 1 and 2).
    """
    n = len(a.basis)
    if len(b.basis) != n:
        raise ValueError("ambient dimensions differ")
    den = lcm(a.den, b.den)
    sa, sb = scaled(a.basis, den // a.den), scaled(b.basis, -(den // b.den))
    # Row-reduce the columns of [A | -B], each with a unit vector appended: the
    # rows whose first n entries vanish go on with the kernel vectors (x, y).
    stacked = [list(col) + [int(i == j) for j in range(2 * n)]
               for i, col in enumerate(transpose(sa) + transpose(sb))]
    kern = [row[n:2 * n] for row in _row_hnf(stacked) if not any(row[:n])]
    check(len(kern) == n, "intersection of full-rank lattices must have full rank")
    inter = lattice(den, matmul(sa, transpose(kern)))
    cols = transpose(inter.basis)
    check(in_lattice(a, inter.den, *cols) and in_lattice(b, inter.den, *cols),
          "intersection basis escapes an input lattice")
    return inter
