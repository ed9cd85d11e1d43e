"""Positive definite quaternary forms: evaluation, value sets, equivalence.

A form is a symmetric Gram matrix G with q(v) = v^T G v, so the diagonal
entries are the square coefficients and the off-diagonal entries are half
the cross coefficients (integral for all forms handled here).

Short vectors are enumerated by a rank-4 Fincke-Pohst loop: four nested
loops, one per coordinate, on the fraction-free LDL^T of the integer Gram
matrix (``intlinalg.ldl``, which also decides positive definiteness),
scaled by one common multiple of its pivot products, so the loop runs on
integer square roots and integer sums, with no tolerances and no
``Fraction`` anywhere.  Each leaf parent computes v^T G v minus its last
coordinate's terms once, by the upper-triangle formula of :func:`evaluate`,
and every leaf value is checked against the budget the loop spent on it.
Equivalence testing is plain backtracking that maps a Gram basis onto
norm- and inner-product-matched short vectors, after a determinant
prefilter (the determinant is the last LDL^T pivot); an exhausted search is
a proof of inequivalence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt, lcm

from . import intlinalg as la
from .invariants import check

#: The four reference forms, Gram matrices in the (w, x, y, z) basis.
Q1 = (
    (2, 0, 0, 0),
    (0, 3, 1, 0),
    (0, 1, 3, 0),
    (0, 0, 0, 4),
)
Q2 = (
    (2, 0, 0, 1),
    (0, 2, 1, 0),
    (0, 1, 3, 0),
    (1, 0, 0, 3),
)
Q3 = (
    (2, 1, 1, 0),
    (1, 3, 0, 1),
    (1, 0, 3, 1),
    (0, 1, 1, 4),
)
Q4 = (
    (2, -1, 0, 1),
    (-1, 3, 1, 0),
    (0, 1, 4, 2),
    (1, 0, 2, 6),
)

REFERENCE_FORMS: dict[int, "QForm4"] = {}


@dataclass(frozen=True)
class QForm4:
    """Positive definite integral quaternary form given by its Gram matrix."""

    gram: la.IntMat
    _det: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = la.freeze(self.gram)
        object.__setattr__(self, "gram", g)
        check(len(g) == 4 and all(len(row) == 4 for row in g), "form is not 4 x 4")
        check(all(g[i][j] == g[j][i] for i in range(4) for j in range(4)), "form not symmetric")
        u = la.ldl(g)
        check(u is not None, "form not positive definite")
        object.__setattr__(self, "_det", u[3][3])

    def det(self) -> int:
        """The determinant: D_4, the last pivot of the LDL^T that certified the form."""
        return self._det


def evaluate(gram, v):
    """q(v) = v^T G v for a symmetric 4 x 4 Gram matrix G.

    Reads only the upper triangle, ten products: symmetry (which
    :class:`QForm4` checks) makes each off-diagonal pair one doubled term.
    """
    (g00, g01, g02, g03), (_, g11, g12, g13), (_, _, g22, g23), (_, _, _, g33) = gram
    w, x, y, z = v
    return (g00 * w * w + g11 * x * x + g22 * y * y + g33 * z * z
            + 2 * (g01 * w * x + g02 * w * y + g03 * w * z
                   + g12 * x * y + g13 * x * z + g23 * y * z))


def short_vectors(gram, bound):
    """Nonzero vectors v with q(v) <= bound, one per +-v pair, for a 4 x 4 gram.

    The gram and the bound are integers.  The representative has its
    trailing nonzero coordinate positive.  Returns (vector, value) pairs,
    the value an int, in lexicographic order of (z, y, x, t) for
    v = (t, x, y, z).  Raises ValueError if the gram is not 4 x 4 or not
    positive definite; a negative bound gives [].

    This is the Fincke-Pohst enumeration (Fincke-Pohst, Math. Comp. 44,
    1985; Cohen, GTM 138, section 2.7.3) on the fraction-free LDL^T rows U
    of the gram, as four nested loops z, y, x, t.  With D_1..D_4 the
    leading minors on the diagonal of U, K the lcm of the D_i * D_{i+1}
    (D_0 = 1) and w_i = K / (D_i * D_{i+1}),

        K * q(v) = sum_i w_i * s_i^2,  s_i = D_{i+1}*v_i + c_i,
        c_i = sum_{j>i} U[i][j]*v_j,

    so each loop bounds its coordinate by one integer square root of the
    budget the outer loops left, and no tolerance or fraction enters.  Per
    leaf parent (x, y, z) the innermost loop gets the budget spent so far
    and v^T G v = g00*t^2 + lin*t + rest, with lin and rest from the
    upper-triangle formula of :func:`evaluate`; each leaf then checks that
    the spent budget plus w_0*s_0^2 is K times that direct value, so a
    wrong LDL^T row cannot yield a wrong value, also under ``python -O``.
    """
    if len(gram) != 4 or any(len(row) != 4 for row in gram):
        raise ValueError("short_vectors takes a 4 x 4 gram")
    u = la.ldl(gram)
    if u is None:
        raise ValueError("form is not positive definite")
    (d1, u01, u02, u03), (_, d2, u12, u13), (_, _, d3, u23), (_, _, _, d4) = u
    k = lcm(d1, d1 * d2, d2 * d3, d3 * d4)
    w0, w1, w2, w3 = k // d1, k // (d1 * d2), k // (d2 * d3), k // (d3 * d4)
    top = k * bound
    if top < 0:
        return []
    (g00, g01, g02, g03), (_, g11, g12, g13), (_, _, g22, g23), (_, _, _, g33) = gram
    out = []
    append = out.append
    for z in range(isqrt(top // w3) // d4 + 1):
        s3 = d4 * z
        rem3 = top - w3 * s3 * s3
        c2 = u23 * z
        a = isqrt(rem3 // w2)
        for y in range(-((a + c2) // d3) if z else 0, (a - c2) // d3 + 1):
            s2 = d3 * y + c2
            rem2 = rem3 - w2 * s2 * s2
            c1 = u12 * y + u13 * z
            a = isqrt(rem2 // w1)
            for x in range(-((a + c1) // d2) if z or y else 0, (a - c1) // d2 + 1):
                s1 = d2 * x + c1
                rem1 = rem2 - w1 * s1 * s1
                c0 = u01 * x + u02 * y + u03 * z
                a = isqrt(rem1 // w0)
                spent = top - rem1
                rest = (g11 * x * x + g22 * y * y + g33 * z * z
                        + 2 * (g12 * x * y + g13 * x * z + g23 * y * z))
                lin = 2 * (g01 * x + g02 * y + g03 * z)
                # t = 0 is the zero vector when x = y = z = 0.
                for t in range(-((a + c0) // d1) if z or y or x else 1, (a - c0) // d1 + 1):
                    s0 = d1 * t + c0
                    val = (g00 * t + lin) * t + rest
                    if spent + w0 * s0 * s0 != k * val:
                        check(False, "short-vector value differs from v^T G v")
                    append(((t, x, y, z), val))
    return out


def short_vector_values(gram, bound) -> set:
    """Set of nonzero values taken by the form up to bound."""
    return {val for _, val in short_vectors(gram, bound)}


def _dot(u, gram, v) -> int:
    n = len(gram)
    return sum(u[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))


def equivalent(f1: QForm4, f2: QForm4):
    """Unimodular U with U^T G1 U = G2, or None if no isometry exists.

    Backtracking over short vectors of f1 matched against the Gram data of
    f2; the determinant prefilter only short-circuits, the exhausted search
    itself is the proof of inequivalence.
    """
    g1, g2 = f1.gram, f2.gram
    if f1.det() != f2.det():
        return None
    maxdiag = max(g2[i][i] for i in range(4))
    by_value: dict[int, list] = {}
    for v, val in short_vectors(g1, maxdiag):
        by_value.setdefault(val, []).append(v)
        by_value[val].append(tuple(-x for x in v))
    chosen: list = []

    def extend(j: int):
        for v in by_value.get(g2[j][j], ()):
            if any(_dot(v, g1, chosen[k]) != g2[j][k] for k in range(j)):
                continue
            chosen.append(v)
            if j == 3:
                u = la.transpose(tuple(chosen))
                if abs(la.det(u)) == 1:
                    return u
            else:
                found = extend(j + 1)
                if found is not None:
                    return found
            chosen.pop()
        return None

    u = extend(0)
    if u is None:
        return None
    u = la.freeze(u)
    check(la.matmul(la.transpose(u), la.matmul(g1, u)) == la.freeze(g2),
          "witness does not transform the first form into the second")
    check(abs(la.det(u)) == 1, "witness is not unimodular")
    return u


for _i, _g in enumerate((Q1, Q2, Q3, Q4), start=1):
    REFERENCE_FORMS[_i] = QForm4(_g)
