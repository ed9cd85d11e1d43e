"""Positive definite quaternary forms: evaluation, value sets, equivalence.

A form is a symmetric Gram matrix G with q(v) = v^T G v, so the diagonal
entries are the square coefficients and the off-diagonal entries are half
the cross coefficients (integral for all forms handled here).

Short vectors are enumerated by exact completion of squares on the
fraction-free LDL^T of the integer Gram matrix (``intlinalg.ldl``, which
also decides positive definiteness), scaled by one common multiple of its
pivot products, so the descent runs on integer square roots and integer
sums, with no tolerances and no ``Fraction`` anywhere; each leaf value is
checked against v^T G v.
Equivalence testing is plain backtracking that maps a Gram basis onto
norm- and inner-product-matched short vectors, after cheap determinant and
value-count prefilters; an exhausted search is a proof of inequivalence.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    def __post_init__(self):
        g = la.freeze(self.gram)
        object.__setattr__(self, "gram", g)
        check(len(g) == 4 and all(len(row) == 4 for row in g), "form is not 4 x 4")
        check(all(g[i][j] == g[j][i] for i in range(4) for j in range(4)), "form not symmetric")
        check(la.ldl(g) is not None, "form not positive definite")

    def det(self) -> int:
        return la.det(self.gram)


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
    """Nonzero vectors v with q(v) <= bound, one per +-v pair.

    The gram and the bound are integers.  The representative has its
    trailing nonzero coordinate positive.  Yields (vector, value) with the
    value an int.  The descent runs on the fraction-free LDL^T rows U of the
    gram: with K the lcm of the D_i * D_{i+1} and w_i = K / (D_i * D_{i+1}),

        K * q(v) = sum_i w_i * x_i^2,  x_i = D_{i+1}*v_i + sum_{j>i} U[i][j]*v_j,

    so it needs only integer square roots and integer sums; each leaf value
    is checked against a direct evaluation of v^T G v.  Raises ValueError
    if the gram is not positive definite.
    """
    n = len(gram)
    u = la.ldl(gram)
    if u is None:
        raise ValueError("form is not positive definite")
    minors = [1] + [u[i][i] for i in range(n)]
    k = lcm(*(minors[i] * minors[i + 1] for i in range(n)))
    w = [k // (minors[i] * minors[i + 1]) for i in range(n)]
    top = k * bound
    if top < 0:
        return []
    vec = [0] * n
    out = []

    def descend(i: int, rem: int, leading_zero: bool):
        row, piv = u[i], u[i][i]
        c = sum(row[j] * vec[j] for j in range(i + 1, n))
        a = isqrt(rem // w[i])
        lo = 0 if leading_zero else -((a + c) // piv)
        ts = range(lo, (a - c) // piv + 1)
        if i > 0:
            for t in ts:
                vec[i] = t
                x = t * piv + c
                descend(i - 1, rem - w[i] * x * x, leading_zero and t == 0)
            vec[i] = 0
            return
        # Leaves.  v^T G v, evaluated directly as g00*t^2 + lin*t + rest, checks
        # each value the descent accumulated.
        rest = _dot(vec, gram, vec)
        lin = sum((gram[0][j] + gram[j][0]) * vec[j] for j in range(1, n))
        for t in ts:
            if leading_zero and t == 0:
                continue
            x = t * piv + c
            val = (gram[0][0] * t + lin) * t + rest
            check(top - rem + w[0] * x * x == k * val,
                  "short-vector value differs from v^T G v")
            vec[0] = t
            out.append((tuple(vec), val))
        vec[0] = 0

    descend(n - 1, top, True)
    return out


def short_vector_values(gram, bound) -> set:
    """Set of nonzero values taken by the form up to bound."""
    return {val for _, val in short_vectors(gram, bound)}


def value_counts(gram, bound) -> dict:
    """Number of vectors (counting +-v separately) per value <= bound."""
    counts: dict = {}
    for _, val in short_vectors(gram, bound):
        counts[val] = counts.get(val, 0) + 2
    return counts


def _dot(u, gram, v) -> int:
    n = len(gram)
    return sum(u[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))


_PREFILTER_BOUND = 12  # twice the largest square coefficient in play


def equivalent(f1: QForm4, f2: QForm4):
    """Unimodular U with U^T G1 U = G2, or None if no isometry exists.

    Backtracking over short vectors of f1 matched against the Gram data of
    f2; determinant and value-count prefilters only short-circuit, the
    exhausted search itself is the proof of inequivalence.
    """
    g1, g2 = f1.gram, f2.gram
    if f1.det() != f2.det():
        return None
    if value_counts(g1, _PREFILTER_BOUND) != value_counts(g2, _PREFILTER_BOUND):
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
