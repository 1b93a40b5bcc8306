"""Small exact linear algebra helpers (integer and rational, no floats)."""
from __future__ import annotations

from fractions import Fraction
from math import gcd

Vec = tuple
Mat = tuple


def mat_mul(a: Mat, b: Mat) -> Mat:
    cols = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def mat_vec(a: Mat, v: Vec) -> Vec:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def identity_mat(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def bareiss_det(a: Mat) -> int:
    """Fraction-free determinant of an integer matrix."""
    m = [list(row) for row in a]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[-1][-1]


def solve_fraction_free(a: Mat, rhs: Vec) -> Vec:
    """Solve an integer-matrix system by Cramer over Bareiss determinants.

    Rational right-hand sides are cleared to a common denominator first, so
    every elimination step stays in the integers.
    """
    n = len(a)
    denom = 1
    for v in rhs:
        d = getattr(v, "denominator", 1)
        denom = denom * d // gcd(denom, d)
    rhs_int = tuple(int(v * denom) for v in rhs)
    det = bareiss_det(a)
    if det == 0:
        raise ValueError("singular system")
    out = []
    for k in range(n):
        col = tuple(
            tuple(rhs_int[i] if j == k else a[i][j] for j in range(n)) for i in range(n)
        )
        out.append(Fraction(bareiss_det(col), det * denom))
    return tuple(out)


def solve_exact(a: Mat, rhs: Vec) -> Vec:
    """Solve a*x = rhs exactly; entries may be ints or Fractions."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(v)] for row, v in zip(a, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular system")
        m[col], m[piv] = m[piv], m[col]
        pv = m[col][col]
        m[col] = [x / pv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return tuple(m[r][n] for r in range(n))


def int_mat_inv(a: Mat) -> Mat:
    """Inverse of a unimodular integer matrix, asserted to be integral."""
    n = len(a)
    cols = []
    for j in range(n):
        col = solve_exact(a, tuple(1 if i == j else 0 for i in range(n)))
        if any(x.denominator != 1 for x in col):
            raise ValueError("matrix is not unimodular over the integers")
        cols.append(col)
    return tuple(tuple(int(cols[j][i]) for j in range(n)) for i in range(n))


def vec_add(u: Vec, v: Vec) -> Vec:
    return tuple(x + y for x, y in zip(u, v))


def vec_dot(u: Vec, v: Vec):
    return sum(x * y for x, y in zip(u, v))
