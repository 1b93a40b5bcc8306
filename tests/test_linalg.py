"""Exact linear algebra helpers."""
from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import prod

import pytest

from coxfan.cartan import _cartan_inverse, make_datum
from coxfan.linalg import (
    bareiss,
    bareiss_det,
    identity_mat,
    int_mat_inv,
    mat_mul,
    mat_vec,
    solve_exact,
    solve_fraction_free,
)

from paper_constructions import primitive


def random_int_matrix(rng, n, lo=-6, hi=6):
    while True:
        m = tuple(tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(n))
        if bareiss_det(m) != 0:
            return m


def zero_leading_matrix(rng, n):
    """A nonsingular matrix with zeros above the anti-diagonal: every leading
    minor below order n vanishes, so the elimination swaps rows at each step."""
    def entry(i, j):
        if i + j < n - 1:
            return 0
        if i + j == n - 1:
            return rng.choice((-3, -2, -1, 1, 2, 3))
        return rng.randint(-6, 6)
    return tuple(tuple(entry(i, j) for j in range(n)) for i in range(n))


def leibniz_det(m) -> int:
    n = len(m)
    return sum((-1) ** sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
               * prod(m[i][p[i]] for i in range(n)) for p in itertools.permutations(range(n)))


def test_bareiss_known_values():
    assert bareiss_det(((2, -1), (-1, 2))) == 3
    assert bareiss_det(((2, -1, 0), (-1, 2, -2), (0, -1, 2))) == 2   # C3
    assert bareiss_det(((1, 2), (2, 4))) == 0
    assert bareiss_det(()) == 1


def test_bareiss_matches_pivot_swaps():
    assert bareiss_det(((0, 1), (1, 0))) == -1
    assert bareiss_det(((0, 0, 1), (0, 1, 0), (1, 0, 0))) == -1


def test_solvers_agree():
    rng = random.Random(13)
    for n in range(1, 9):
        for k in range(20):
            m = random_int_matrix(rng, n) if k % 2 else zero_leading_matrix(rng, n)
            # ints and Fractions of different denominators in one right-hand side
            rhs = tuple(rng.randint(-9, 9) if i % 3 == 0 else Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                        for i in range(n))
            a = solve_exact(m, rhs)
            b = solve_fraction_free(m, rhs)
            assert tuple(Fraction(x) for x in a) == b
            assert mat_vec(m, b) == rhs


def test_bareiss_det_matches_leibniz():
    rng = random.Random(5)
    for n in range(1, 6):
        for _ in range(30):
            m = tuple(tuple(rng.randint(-4, 4) if rng.random() < 0.7 else 0 for _ in range(n))
                      for _ in range(n))
            det, cols = bareiss(m, identity_mat(n))
            assert bareiss_det(m) == leibniz_det(m) == det
            if det:   # the columns are adj(m): m adj(m) = det I
                assert mat_mul(m, tuple(zip(*cols))) == tuple(tuple(det * x for x in row)
                                                              for row in identity_mat(n))
            # singular: one row a combination of the others, at a random place
            coeffs = [rng.randint(-2, 2) for _ in range(n - 1)]
            s = list(m[:-1]) + [tuple(sum(c * row[j] for c, row in zip(coeffs, m)) for j in range(n))]
            rng.shuffle(s)
            s = tuple(s)
            assert leibniz_det(s) == 0 == bareiss_det(s)
            assert bareiss(s, identity_mat(n)) == (0, ())


def test_singular_raises():
    with pytest.raises(ValueError):
        solve_fraction_free(((1, 2), (2, 4)), (1, 1))
    with pytest.raises(ValueError):
        solve_exact(((1, 2), (2, 4)), (1, 1))


def test_inverse_round_trip():
    # the Cartan inverse is kept as (det A, adj A): A adj A = det A I in integers
    for label in ("A1", "A2", "A3", "A4", "A8", "B2", "B3", "B7", "C3", "C5", "D4", "D5", "D7",
                  "E6", "E7", "E8", "F4", "G2"):
        d = make_datum(label)
        det, adj = _cartan_inverse(d)
        assert det == bareiss_det(d.cartan)
        assert mat_mul(d.cartan, adj) == tuple(tuple(det if i == j else 0 for j in range(d.n))
                                               for i in range(d.n))


def test_int_mat_inv_requires_unimodular():
    assert int_mat_inv(((1, 1), (0, 1))) == ((1, -1), (0, 1))
    with pytest.raises(ValueError):
        int_mat_inv(((2, 0), (0, 1)))


def test_primitive():
    assert primitive((4, -6, 2)) == (2, -3, 1)
    assert primitive((0, 0)) == (0, 0)
    assert primitive((3,)) == (1,)
