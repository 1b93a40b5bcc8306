"""Small exact linear algebra helpers (integer and rational, no floats)."""
from __future__ import annotations

from fractions import Fraction
from math import lcm

Vec = tuple
Mat = tuple


def mat_mul(a: Mat, b: Mat) -> Mat:
    cols = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def mat_vec(a: Mat, v: Vec) -> Vec:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def identity_mat(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def bareiss(a: Mat, cols: tuple = ()) -> tuple:
    """(det a, adj(a)·b for each b in cols) by one fraction-free Gauss–Jordan pass.

    Bareiss (1968): each step clears the pivot column from the other rows of
    ``[a | cols]`` and divides exactly by the previous pivot, so every entry
    stays an integer, the last pivot is det a up to the sign of the row swaps,
    and the augmented columns end as det(a)·a⁻¹·b.  Without columns the rows
    above the pivot, which only the columns need, are left alone.  A singular
    ``a`` gives ``(0, ())``.
    """
    n = len(a)
    m = [list(row) + [b[i] for b in cols] for i, row in enumerate(a)]
    width = n + len(cols)
    sign = prev = 1
    for k in range(n):
        if m[k][k] == 0:
            r = next((r for r in range(k + 1, n) if m[r][k]), None)
            if r is None:
                return 0, ()
            m[k], m[r] = m[r], m[k]
            sign = -sign
        pivot_row, pivot = m[k], m[k][k]
        for i in range(n) if cols else range(k + 1, n):
            if i != k:
                row, f = m[i], m[i][k]
                for j in range(k + 1, width):
                    row[j] = (pivot * row[j] - f * pivot_row[j]) // prev
        prev = pivot
    return sign * prev, tuple(tuple(sign * row[j] for row in m) for j in range(n, width))


def bareiss_det(a: Mat) -> int:
    """Fraction-free determinant of an integer matrix."""
    return bareiss(a)[0]


def solve_fraction_free(a: Mat, rhs: Vec) -> Vec:
    """Solve an integer-matrix system by one fraction-free elimination.

    Rational right-hand sides are cleared to a common denominator first, so
    every elimination step stays in the integers.
    """
    denom = lcm(1, *(getattr(v, "denominator", 1) for v in rhs))
    det, cols = bareiss(a, (tuple(int(v * denom) for v in rhs),))
    if det == 0:
        raise ValueError("singular system")
    return tuple(Fraction(x, det * denom) for x in cols[0])


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
