"""Plain ``Fraction`` reference implementations, kept as test oracles.

These are the straightforward rational-arithmetic versions of routines the
package runs on integers (Bareiss elimination in ``intlinalg``, the integer
short-vector descent in ``qforms``).  They share no code with the package.
"""

from fractions import Fraction
from math import isqrt


def solve(a, v):
    """Gauss-Jordan solution of the square system a@x = v over Fraction."""
    n = len(a)
    aug = [[Fraction(x) for x in row] + [Fraction(v[i])] for i, row in enumerate(a)]
    for c in range(n):
        piv = next((i for i in range(c, n) if aug[i][c]), None)
        if piv is None:
            raise ValueError("singular system")
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return tuple(aug[i][n] for i in range(n))


def _cholesky(gram):
    """q(v) = sum_i D[i] * (v_i + sum_{j>i} R[i][j] v_j)^2, over Fraction."""
    n = len(gram)
    a = [[Fraction(gram[i][j]) for j in range(n)] for i in range(n)]
    d = [Fraction(0)] * n
    r = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d[i] = a[i][i]
        if d[i] <= 0:
            raise ValueError("form is not positive definite")
        for j in range(i + 1, n):
            r[i][j] = a[i][j] / d[i]
        for j in range(i + 1, n):
            for k in range(j, n):
                a[j][k] -= a[i][j] * a[i][k] / d[i]
                a[k][j] = a[j][k]
    return d, r


def _int_range(center, cap):
    """All integers t with (t + center)^2 <= cap, exactly."""
    if cap < 0:
        return range(0)
    p, q = center.numerator, center.denominator
    s, u = cap.numerator, cap.denominator
    amax = isqrt(s * q * q // u)
    lo = -((amax + p) // q)
    hi = (amax - p) // q
    return range(lo, hi + 1)


def short_vectors(gram, bound):
    """Nonzero v with q(v) <= bound, one per +-v pair (trailing nonzero
    coordinate positive), with their exact values, by a Fraction descent."""
    n = len(gram)
    d, r = _cholesky(gram)
    vec = [0] * n
    out = []

    def descend(i, rem, leading_zero):
        center = sum(r[i][j] * vec[j] for j in range(i + 1, n))
        for t in _int_range(center, rem / d[i]):
            if leading_zero and t < 0:
                continue
            vec[i] = t
            used = d[i] * (t + center) ** 2
            still_zero = leading_zero and t == 0
            if i == 0:
                if not still_zero:
                    out.append((tuple(vec), bound - (rem - used)))
            else:
                descend(i - 1, rem - used, still_zero)
        vec[i] = 0

    descend(n - 1, Fraction(bound), True)
    return out
