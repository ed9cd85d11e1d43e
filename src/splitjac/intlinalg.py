"""Exact integer and rational linear algebra for small lattices.

A matrix is a tuple of row tuples holding Python ints or
``fractions.Fraction`` entries, so no operation ever rounds.  A lattice is
presented by a matrix whose *columns* generate it.

The work runs on plain integers.  Rational input is scaled to integers
first (row by row, or by one common denominator), and ``Fraction`` appears
only at the boundary, in returned values.  Determinants and square solves
use Bareiss's fraction-free elimination (Bareiss 1968, Math. Comp. 22),
whose divisions are exact and checked; a lattice-membership test is an
integer divisibility check on the scaled solution.

``hnf`` is column-style Hermite normal form: the unique canonical basis of
the column span, with positive pivots descending the rows and the entries to
the left of each pivot reduced modulo that pivot.  Rational lattices are
handled by clearing denominators to a common integer scale, reducing
integrally, and rescaling.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .invariants import check

IntMat = tuple[tuple[int, ...], ...]
RatMat = tuple[tuple[Fraction, ...], ...]


def freeze(rows) -> tuple:
    return tuple(tuple(row) for row in rows)


def transpose(m):
    return tuple(zip(*m))


def identity(n: int) -> IntMat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _matmul(a, b):
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def matmul(a, b):
    """a@b exactly; rational factors are multiplied as integers over their
    common denominators."""
    sa, sb = common_denominator(a), common_denominator(b)
    if sa == sb == 1:
        return _matmul(a, b)
    return _unscaled(_matmul(_scaled(a, sa), _scaled(b, sb)), sa * sb)


def matvec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


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
    if not m or not m[0]:
        return freeze(m)
    rows = [list(r) for r in transpose(m)]
    return transpose(freeze(_row_hnf(rows)))


def kernel_basis(m: IntMat) -> tuple[tuple[int, ...], ...]:
    """Basis of the integer kernel {x : m@x = 0}.

    Row-reduces the columns of ``m`` augmented with an identity block; the
    augmented rows whose leading block vanished record kernel vectors.
    """
    nrows = len(m)
    ncols = len(m[0])
    stacked = [list(col) + [1 if i == j else 0 for j in range(ncols)]
               for i, col in enumerate(transpose(m))]
    reduced = _row_hnf(stacked)
    return freeze(row[nrows:] for row in reduced if not any(row[:nrows]))


def _int_rows(m) -> tuple[list[list[int]], int]:
    """Rows of m, each scaled by the lcm of its denominators, as plain ints.

    Returns the integer rows and the product of the row scales.  Scaling a
    row changes neither the row span, the rank nor the solutions of a
    system whose right-hand side is part of the row.
    """
    rows = []
    scale = 1
    for row in m:
        s = lcm(*(x.denominator for x in row))
        scale *= s
        rows.append([x.numerator * (s // x.denominator) for x in row])
    return rows, scale


def _bareiss(rows: list[list[int]], n: int) -> int:
    """Fraction-free (Bareiss) elimination of the first n columns, in place.

    Every division by the previous pivot is exact, and is checked to be.
    Returns the determinant of the leading n x n block of the input rows,
    0 if it is singular (the rows are then only partly reduced).  On
    success the rows are upper triangular in their first n columns and
    ``rows[n-1][n-1]`` is the determinant of the permuted block.
    """
    sign = 1
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, len(rows)) if rows[i][k]), None)
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


def _solve_int(a, rhs) -> tuple[int, list[list[int]]]:
    """(D, Y) with D != 0 and integer Y_j such that a @ (Y_j / D) = rhs_j.

    One elimination serves every right-hand side; back substitution keeps
    D times the solution, an integer by Cramer's rule, so each division in
    it is exact and checked.  Raises ValueError if a is singular.
    """
    n = len(a)
    rows, _ = _int_rows([list(row) + [v[i] for v in rhs] for i, row in enumerate(a)])
    if not _bareiss(rows, n):
        raise ValueError("singular system")
    d = rows[n - 1][n - 1]
    out = []
    for j in range(n, n + len(rhs)):
        y = [0] * n
        for i in range(n - 1, -1, -1):
            row = rows[i]
            num = d * row[j] - sum(row[k] * y[k] for k in range(i + 1, n))
            y[i], r = divmod(num, row[i])
            check(r == 0, "Bareiss back substitution is not exact")
        out.append(y)
    return d, out


def det(m) -> Fraction:
    """Exact determinant: Bareiss elimination on rows scaled to integers."""
    rows, scale = _int_rows(m)
    return Fraction(_bareiss(rows, len(rows)), scale)


def rank(m) -> int:
    rows, _ = _int_rows(m)
    return sum(1 for row in _row_hnf(rows) if any(row))


def solve(a, v) -> tuple[Fraction, ...]:
    """Solve the square nonsingular system a@x = v exactly."""
    d, (y,) = _solve_int(a, (v,))
    return tuple(Fraction(x, d) for x in y)


def common_denominator(m) -> int:
    return lcm(*(x.denominator for row in m for x in row))


def _scaled(m, scale: int) -> IntMat:
    """The integer matrix scale*m, for scale a multiple of every denominator."""
    return freeze(tuple(x.numerator * (scale // x.denominator) for x in row) for row in m)


def _unscaled(m: IntMat, scale: int) -> RatMat:
    return freeze(tuple(Fraction(x, scale) for x in row) for row in m)


def in_lattice(basis, *vectors) -> bool:
    """Whether every vector lies in the lattice generated by the columns of basis.

    One fraction-free solve covers all the vectors; a vector is in the
    lattice iff D divides each entry of its D-scaled coordinates.
    """
    d, ys = _solve_int(basis, vectors)
    return all(x % d == 0 for y in ys for x in y)


def gram(b, p) -> RatMat:
    """B^T P B: the matrix of the bilinear form P on the columns of B."""
    return matmul(transpose(b), matmul(p, b))


def lattice_intersect(b1: RatMat, b2: RatMat) -> RatMat:
    """Basis (columns) of the intersection of two full-rank lattices.

    Solves b1@x = b2@y over the integers; the x-parts of the solution lattice
    give the intersection in b1-coordinates.  Each returned column is checked
    for membership in both inputs.
    """
    n = len(b1)
    if len(b2) != n:
        raise ValueError("ambient dimensions differ")
    if rank(b1) != n or rank(b2) != n:
        raise ValueError("rank-deficient lattice basis")
    scale = lcm(common_denominator(b1), common_denominator(b2))
    a = _scaled(b1, scale)
    b = _scaled(b2, scale)
    stacked = freeze(a[i] + tuple(-x for x in b[i]) for i in range(n))
    kern = kernel_basis(stacked)
    check(len(kern) == n, "intersection of full-rank lattices must have full rank")
    # a@x = scale * (b1@x): the intersection, scaled to integers.
    inter = _unscaled(hnf(transpose(tuple(matvec(a, k[:n]) for k in kern))), scale)
    cols = transpose(inter)
    check(in_lattice(b1, *cols) and in_lattice(b2, *cols),
          "intersection basis escapes an input lattice")
    return inter


def lattice_index(sub: RatMat, sup: RatMat) -> int:
    """Index [sup : sub] of a full-rank sublattice; rejects non-containment."""
    d, ys = _solve_int(sup, transpose(sub))
    if any(x % d for y in ys for x in y):
        raise ValueError("first lattice is not contained in the second")
    coords = [[x // d for x in y] for y in ys]
    index = _bareiss(coords, len(coords))
    if index == 0:
        raise ValueError("sublattice is rank-deficient")
    return abs(index)
