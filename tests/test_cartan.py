"""Cartan data, basis changes, reflections, root generation."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from coxfan.cartan import (
    CartanError,
    datum_from_matrix,
    generate_roots,
    make_datum,
    reflect_along,
    reflect_root,
    reflect_weight,
    root_to_weight,
    unit_node,
    weight_to_root,
    weight_to_root_int,
)

from paper_constructions import spaced, support_of_root


def test_a2_matrix():
    d = make_datum("A2")
    assert d.cartan == ((2, -1), (-1, 2))


def test_c3_matrix_bourbaki():
    # Cross-check: the column conditions sum_i a_ij f(i) > 0 must reproduce the
    # printed C3 constraints f(2)<2f(1), f(1)+f(3)<2f(2), f(2)<f(3).
    d = make_datum("C3")
    assert d.cartan[1][2] == -2 and d.cartan[2][1] == -1
    assert d.cartan[0][1] == -1 and d.cartan[1][0] == -1
    cols = [tuple(d.cartan[i][j] for i in range(3)) for j in range(3)]
    assert cols[0] == (2, -1, 0)        # 2f1 - f2 > 0
    assert cols[1] == (-1, 2, -1)       # -f1 + 2f2 - f3 > 0
    assert cols[2] == (0, -2, 2)        # -2f2 + 2f3 > 0


def test_a1xa1_block_diagonal():
    d = make_datum("A1xA1")
    assert d.cartan == ((2, 0), (0, 2))
    assert d.components == ((0,), (1,))


def test_label_parsing_rejects_garbage():
    for bad in ("H3", "A0", "E9", "Q5", "", "A", "3A", "A3x", "D3"):
        with pytest.raises(CartanError):
            make_datum(bad)


def test_matrix_gate_rejects_non_finite_type():
    # Affine A1~: symmetrizable but only positive semidefinite.
    with pytest.raises(CartanError):
        datum_from_matrix(((2, -2), (-2, 2)))
    with pytest.raises(CartanError):
        datum_from_matrix(((2, -1), (-5, 2)))
    with pytest.raises(CartanError):
        datum_from_matrix(((2, -1), (0, 2)))      # broken zero pattern
    with pytest.raises(CartanError):
        datum_from_matrix(((1, 0), (0, 2)))       # bad diagonal


def test_symmetrizer_makes_cartan_symmetric():
    for label in ("A3", "B3", "C3", "G2", "F4", "B2xG2"):
        d = make_datum(label)
        n = d.n
        for i in range(n):
            for j in range(n):
                assert d.symmetrizer[i] * d.cartan[i][j] == d.symmetrizer[j] * d.cartan[j][i]


def test_convert_a2_alpha1_to_weight():
    d = make_datum("A2")
    assert root_to_weight(d, (1, 0)) == (2, -1)


def test_convert_a2_omega1_to_root():
    # Oracle: solve A x = e1 by the explicit 2x2 inverse, det(A) = 3.
    d = make_datum("A2")
    expected = (Fraction(2, 3), Fraction(1, 3))
    got = weight_to_root(d, (1, 0))
    assert tuple(Fraction(x) for x in got) == expected


def test_weight_to_root_int_refuses_points_off_the_root_lattice():
    d = make_datum("C3")   # det A = 2
    assert weight_to_root_int(d, root_to_weight(d, (1, -2, 3))) == (1, -2, 3)
    with pytest.raises(CartanError, match="root lattice"):
        weight_to_root_int(d, (0, 0, 1))


def test_convert_round_trip_random():
    rng = random.Random(11)
    for label in ("A3", "C3", "G2", "A1xA2"):
        d = make_datum(label)
        for _ in range(25):
            coords = tuple(rng.randint(-9, 9) for _ in range(d.n))
            assert root_to_weight(d, weight_to_root(d, coords)) == coords
            assert weight_to_root(d, root_to_weight(d, coords)) == coords


def test_reflect_omega1_in_weight_basis():
    d = make_datum("A2")
    assert reflect_weight(d, 0, (1, 0)) == (-1, 1)


def test_reflect_fixes_other_fundamental_weights():
    d = make_datum("C3")
    for i in range(3):
        for j in range(3):
            v = tuple(1 if k == j else 0 for k in range(3))
            img = reflect_weight(d, i, v)
            if i != j:
                assert img == v


def test_reflect_along_applies_the_first_letter_first():
    d = make_datum("A2")
    v = (1, 0)
    for reflect in (reflect_root, reflect_weight):
        assert reflect_along(d, (), v, reflect) == v
        assert reflect_along(d, (0, 1), v, reflect) == reflect(d, 1, reflect(d, 0, v))
    assert reflect_along(d, (0, 1), v, reflect_weight) == (0, -1)   # s2 s1 omega_1 = -omega_2
    assert reflect_along(d, (1, 0), v, reflect_weight) == (-1, 1)   # s1 s2 omega_1 = s1 omega_1


def test_unit_node_reads_plus_or_minus_e_i():
    assert unit_node((0, 1, 0)) == 1 and unit_node((0, -1, 0), -1) == 1
    assert unit_node((1,)) == 0 and unit_node((-1,), -1) == 0
    for coords in ((0, -1, 0), (0, 0, 0), (1, 1, -1), (0, 2, -1), (1, 0, 1)):
        assert unit_node(coords) is None, coords
    for coords in ((0, 1, 0), (0, 0, 0), (-1, -1, 1), (0, -2, 1)):
        assert unit_node(coords, -1) is None, coords


def test_reflect_is_involutive():
    rng = random.Random(5)
    d = make_datum("B3")
    for _ in range(30):
        coords = tuple(rng.randint(-6, 6) for _ in range(3))
        i = rng.randrange(3)
        for reflect in (reflect_root, reflect_weight):
            assert reflect(d, i, reflect(d, i, coords)) == coords


def test_root_counts():
    # Closure oracle vs the classical counts n(n+1)/2 and n^2.
    assert generate_roots(make_datum("A2")).size == 3
    assert generate_roots(make_datum("A3")).size == 6
    assert generate_roots(make_datum("C3")).size == 9
    assert generate_roots(make_datum("B4")).size == 16
    assert generate_roots(make_datum("D4")).size == 12
    assert generate_roots(make_datum("G2")).size == 6
    assert generate_roots(make_datum("F4")).size == 24
    assert generate_roots(make_datum("E6")).size == 36


def test_a2_positive_roots_explicit():
    rs = generate_roots(make_datum("A2"))
    assert set(rs.positive_roots) == {(1, 0), (0, 1), (1, 1)}


def test_root_set_stable_under_reflections():
    for label in ("A3", "B3", "G2"):
        d = make_datum(label)
        rs = generate_roots(d)
        all_roots = set(rs.positive_roots) | {tuple(-x for x in r) for r in rs.positive_roots}
        for r in rs.positive_roots:
            for i in range(d.n):
                assert reflect_root(d, i, r) in all_roots


def test_simple_reflection_permutes_other_positives():
    d = make_datum("C3")
    rs = generate_roots(d)
    for i in range(3):
        alpha_i = tuple(1 if k == i else 0 for k in range(3))
        images = {reflect_root(d, i, r) for r in rs.positive_roots if r != alpha_i}
        assert images == set(rs.positive_roots) - {alpha_i}
        assert reflect_root(d, i, alpha_i) == tuple(-x for x in alpha_i)


def test_count_equals_rank_times_coxeter_number_over_two():
    for label in ("A4", "B3", "C4", "D4", "F4", "A1xG2"):
        d = make_datum(label)
        rs = generate_roots(d)
        total = sum(len(comp) * h for comp, h in zip(d.components, rs.coxeter_numbers)) // 2
        assert rs.size == total


def test_support_and_spaced():
    d = make_datum("A3")
    assert support_of_root((1, 1, 0)) == {0, 1}
    assert spaced(d, {0}, {2})          # a_13 = 0
    assert not spaced(d, {0}, {1})
    assert not spaced(d, {0, 1}, {2})


def test_restrict_subdiagram():
    d = make_datum("C3")
    sub = d.restrict((0, 1))
    assert sub.cartan == ((2, -1), (-1, 2))
    sub2 = d.restrict((1, 2))
    assert sub2.cartan == ((2, -2), (-1, 2))


def test_symmetrized_matrix_positive_definite():
    # Leading principal minors of D*A are positive for every accepted datum.
    from coxfan.linalg import bareiss_det

    for label in ("A4", "B4", "C4", "D4", "F4", "G2", "A1xG2"):
        d = make_datum(label)
        sym = tuple(tuple(d.symmetrizer[i] * d.cartan[i][j] for j in range(d.n))
                    for i in range(d.n))
        assert sym == tuple(zip(*sym))
        for k in range(1, d.n + 1):
            assert bareiss_det(tuple(row[:k] for row in sym[:k])) > 0


def _subsets(items):
    return [tuple(x for b, x in enumerate(items) if mask >> b & 1)
            for mask in range(1, 1 << len(items))]


def test_restrict_composes_with_canonical_label():
    # A sub-diagram reached by two restriction paths is one datum with one label.
    for label in ("A4", "B4", "D5", "F4", "E6"):
        d = make_datum(label)
        for J in _subsets(tuple(range(d.n))):
            dj = d.restrict(J)
            assert dj.label == f"{label}[{','.join(str(i + 1) for i in J)}]"
            for K in _subsets(tuple(range(len(J)))):
                direct = d.restrict(tuple(J[k] for k in K))
                twice = dj.restrict(K)
                assert twice == direct and hash(twice) == hash(direct)
                assert twice.label == direct.label
                assert twice.cartan == direct.cartan


def test_restrict_label_example():
    d = make_datum("E8")
    assert d.restrict((0, 1, 3, 4)).restrict((0, 2)).label == "E8[1,4]"
