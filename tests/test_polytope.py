"""Associahedra: support data, H/V representations, Cambrian equality, export."""
from __future__ import annotations

import dataclasses
import json
import random
import re
from fractions import Fraction
from math import lcm

import pytest

from coxfan.cartan import make_datum
from coxfan.model import ClusterModel, build_model
from coxfan.polytope import (
    EXTRA_FACET,
    MISSED_FACET,
    Facet,
    PolytopeError,
    SupportData,
    build_hrep,
    cambrian_hrep,
    cambrian_rays,
    check_polytopality,
    chamber_point,
    check_simple,
    cluster_vertices,
    default_f,
    export_json,
    export_off,
    f_conditions,
    facet_vertex_cycle,
    polytopes_equal,
    random_valid_f,
    render_condition,
    vertices,
    verify_support_function,
    violated_condition,
)
from coxfan.linalg import vec_dot
from coxfan.verify import _broken_f
from coxfan.weyl import all_coxeter_elements, coxeter_from_order

from paper_constructions import (
    folded_inequalities,
    fraction_vertices,
    hrep_orbit_groups,
    polytopality_by_expansion,
    simplicity_in_fractions,
    solve_vertices,
    support_function_in_fractions,
)

A3 = make_datum("A3")
C3 = make_datum("C3")
MA3 = build_model(A3, coxeter_from_order(A3, (0, 1, 2)))
MC3 = build_model(C3, coxeter_from_order(C3, (0, 1, 2)))


def test_f_conditions_a3():
    equalities, folded = folded_inequalities(A3)
    assert equalities == ((0, 2),)
    # After folding f3 = f1: exactly f2 < 2 f1 and f1 < f2, i.e. 0 < f1 < f2 < 2 f1.
    assert set(folded) == {(2, -1, 0), (-1, 1, 0)}


def test_f_conditions_c3():
    equalities, folded = folded_inequalities(C3)
    assert equalities == ()
    assert set(folded) == {(2, -1, 0), (-1, 2, -1), (0, -1, 1)}


def test_f_conditions_a1():
    _, rows = f_conditions(make_datum("A1"))
    assert rows == ((2,),)
    assert render_condition((2,)) == "2f(1) > 0"


def test_default_f_values():
    assert default_f(make_datum("A1")).values == (Fraction(1, 2),)
    assert default_f(make_datum("A2")).values == (1, 1)
    f = default_f(A3)
    assert f.values[0] == f.values[2]
    assert not violated_condition(A3, f.values)


def test_default_f_satisfies_conditions_everywhere():
    for label in ("A4", "B3", "C4", "D4", "G2", "F4", "A1xG2"):
        d = make_datum(label)
        assert not violated_condition(d, default_f(d).values)


def test_random_valid_f_is_valid():
    rng = random.Random(0)
    for label in ("A3", "C3", "D4"):
        d = make_datum(label)
        for _ in range(10):
            f = random_valid_f(d, rng)
            assert not violated_condition(d, f.values)


def test_support_data_rejects_bad_f():
    with pytest.raises(PolytopeError):
        SupportData.make(A3, (1, 3, 1))
    with pytest.raises(PolytopeError):
        SupportData.make(A3, (1, Fraction(3, 2), 2))   # breaks f(1)=f(3)


def test_violated_condition_names_the_failure():
    assert violated_condition(A3, (1, 3, 1)) == "2f(1)-f(2) > 0"
    assert violated_condition(A3, (1, Fraction(3, 2), 2)) == "f(1) = f(3)"
    assert violated_condition(A3, default_f(A3).values) == ""


def test_hrep_groups_match_printed_a3():
    groups = hrep_orbit_groups(MA3, build_hrep(MA3, default_f(A3)))
    assert groups[0][0] == ((1, 0, 0), (-1, 1, 0), (0, -1, 1), (0, 0, -1), (0, 0, 1), (-1, 0, 0))
    assert groups[1][0] == ((0, 1, 0), (-1, 0, 1), (0, -1, 0))
    f = default_f(A3)
    assert groups[0][1] == f[0] and groups[1][1] == f[1]


def test_hrep_groups_match_printed_c3():
    groups = hrep_orbit_groups(MC3, build_hrep(MC3, default_f(C3)))
    assert groups[2][0] == ((0, 0, 1), (-2, 0, 1), (0, -2, 1), (0, 0, -1))
    assert groups[0][0] == ((1, 0, 0), (-1, 1, 0), (0, -1, 1), (-1, 0, 0))
    assert groups[1][0] == ((0, 1, 0), (-1, 0, 1), (-1, -1, 1), (0, -1, 0))


def test_a1_segment():
    d = make_datum("A1")
    m = build_model(d, coxeter_from_order(d, (0,)))
    f = default_f(d)
    hrep = build_hrep(m, f)
    assert [(fa.normal, fa.rhs) for fa in hrep.facets] == [((1,), Fraction(1, 2)), ((-1,), Fraction(1, 2))]
    v = vertices(m, hrep)
    assert sorted(fraction_vertices(v)) == [(Fraction(-1, 2),), (Fraction(1, 2),)]


def test_counts_and_euler():
    for model, expected in ((build_model(make_datum("A2"), coxeter_from_order(make_datum("A2"), (0, 1))), (5, 5, 5)),
                            (MA3, (14, 9, 21)), (MC3, (20, 12, 30))):
        f = default_f(model.datum)
        hrep = build_hrep(model, f)
        vrep = vertices(model, hrep)
        V, F, E = len(vrep.vertices), len(hrep.facets), len(model.adjacent_cluster_pairs())
        assert (V, F, E) == expected
        if model.n == 3:
            assert V - E + F == 2


def test_vertices_simple_and_support_function():
    rng = random.Random(1)
    for model in (MA3, MC3):
        for f in [default_f(model.datum)] + [random_valid_f(model.datum, rng) for _ in range(5)]:
            vrep = vertices(model, build_hrep(model, f))
            assert verify_support_function(model, f, vrep) == (None, [])


SUPPORT_CASES = [(label, c) for label in ("A3", "B3", "C3", "G2", "A1xB2")
                 for c in all_coxeter_elements(make_datum(label))]


@pytest.mark.parametrize("label,c", SUPPORT_CASES,
                         ids=[f"{lab}-{c.render()}" for lab, c in SUPPORT_CASES])
def test_support_function_agrees_with_the_fraction_reference(label, c):
    d = make_datum(label)
    m = build_model(d, c)
    rng = random.Random(5)
    for f in [default_f(d)] + [random_valid_f(d, rng) for _ in range(5)]:
        hrep = build_hrep(m, f)
        vrep = cluster_vertices(m, hrep)
        assert vertices(m, hrep) == vrep     # the Fraction check passes: the vertices are simple
        assert verify_support_function(m, f, vrep) == (None, support_function_in_fractions(m, f, vrep)) \
            == (simplicity_in_fractions(hrep, vrep), [])
    # An f outside the admissible cone: both checks reject, at the same vertex and label.
    f = SupportData(tuple(Fraction(x) for x in _broken_f(d)))
    hrep = build_hrep(m, f)
    vrep = cluster_vertices(m, hrep)
    witness = verify_support_function(m, f, vrep)[0]
    with pytest.raises(PolytopeError) as exc:
        vertices(m, hrep)
    assert witness and witness == simplicity_in_fractions(hrep, vrep)
    assert witness.endswith(f": {exc.value}")


VERTEX_CASES = SUPPORT_CASES + [(label, coxeter_from_order(make_datum(label), tuple(range(int(label[1:])))))
                                for label in ("D5", "E6")]


@pytest.mark.parametrize("label,c", VERTEX_CASES,
                         ids=[f"{lab}-{c.render()}" for lab, c in VERTEX_CASES])
def test_cluster_vertices_equal_the_solved_vertices(label, c):
    d = make_datum(label)
    m = build_model(d, c)
    rng = random.Random(6)
    for f in [default_f(d)] + [random_valid_f(d, rng) for _ in range(5)]:
        hrep = build_hrep(m, f)
        vrep = cluster_vertices(m, hrep)
        assert vrep.den == lcm(*(x.denominator for x in f.values))
        assert all(isinstance(x, int) for v in vrep.vertices for x in v)
        assert fraction_vertices(vrep) == solve_vertices(m, hrep)
        assert vrep.clusters == m.clusters()
        assert verify_support_function(m, f, vrep) == (None, [])


@pytest.mark.parametrize("label", ["A3", "B3", "G2", "A1xB2"])
def test_cluster_vertices_follow_a_lowered_right_hand_side(label):
    """One facet moved inwards by 1/7: the vertices still equal the solved ones,
    over the new common denominator."""
    d = make_datum(label)
    m = build_model(d, coxeter_from_order(d, tuple(range(d.n))))
    facets = list(build_hrep(m, default_f(d)).facets)
    facets[1] = dataclasses.replace(facets[1], rhs=facets[1].rhs - Fraction(1, 7))
    hrep = dataclasses.replace(build_hrep(m, default_f(d)), facets=tuple(facets))
    vrep = cluster_vertices(m, hrep)
    assert vrep.den == lcm(*(fa.rhs.denominator for fa in facets)) and vrep.den % 7 == 0
    assert fraction_vertices(vrep) == solve_vertices(m, hrep)
    assert vrep != cluster_vertices(m, build_hrep(m, default_f(d)))


def test_cluster_vertices_refuse_a_cluster_that_is_not_a_z_basis(monkeypatch):
    m = ClusterModel(A3, coxeter_from_order(A3, (0, 1, 2)))
    hrep = build_hrep(m, default_f(A3))
    first = next(cl for cl in m.clusters() if 0 in cl)
    doubled = dataclasses.replace(m.labels[0], weight=tuple(2 * x for x in m.labels[0].weight))
    monkeypatch.setattr(m, "labels", (doubled,) + m.labels[1:])
    message = re.escape(f"cluster {list(first)} has determinant ") + "-?2, not a Z-basis$"
    with pytest.raises(PolytopeError, match=message):
        vertices(m, hrep)


def test_cluster_vertices_refuse_facets_that_are_not_the_labels():
    hrep = build_hrep(MA3, default_f(A3))
    for facets in (hrep.facets[1:] + hrep.facets[:1], hrep.facets[:-1]):
        with pytest.raises(PolytopeError, match="the facets are not the model's labels"):
            cluster_vertices(MA3, dataclasses.replace(hrep, facets=facets))


@pytest.mark.parametrize("label", ["A3", "B3", "F4"])
def test_exchange_rows_give_the_reference_violations(label):
    d = make_datum(label)
    m = build_model(d, coxeter_from_order(d, tuple(range(d.n))))
    rng = random.Random(4)
    broken = [_broken_f(d), tuple(-x for x in default_f(d).values), (0,) * d.n]
    for _ in range(5):   # one random node blown up or shrunk
        f = list(random_valid_f(d, rng).values)
        f[rng.randrange(d.n)] *= Fraction(rng.choice((1, 10, 100)), rng.choice((1, 10, 100)))
        broken.append(tuple(f))
    for f in broken:
        got = check_polytopality(m, f)
        assert got == polytopality_by_expansion(m, f)
        assert [tuple(map(str, v[2:])) for v in got] == [tuple(map(str, v[2:]))
                                                          for v in polytopality_by_expansion(m, f)]
    assert check_polytopality(m, _broken_f(d))
    assert check_polytopality(m, default_f(d).values) == []


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "G2", "A1xB2"])
def test_tampered_support_data_gives_the_reference_problems(label):
    d = make_datum(label)
    m = build_model(d, coxeter_from_order(d, tuple(range(d.n))))
    f = random_valid_f(d, random.Random(2))
    vrep = vertices(m, build_hrep(m, f))
    # One coordinate of one vertex moves by half a unit of the common denominator,
    # outwards for a label through it: that label's support value leaves the grid.
    verts = [tuple(2 * x for x in v) for v in vrep.vertices]
    w = m.labels[vrep.clusters[3][0]].weight
    j = next(j for j, x in enumerate(w) if x)
    verts[3] = tuple(x + (k == j) * (1 if w[j] > 0 else -1) for k, x in enumerate(verts[3]))
    moved = dataclasses.replace(vrep, vertices=tuple(verts), den=2 * vrep.den)
    # One label's f value changes while the vertices stay put.
    node = m.labels[-1].node
    raised = SupportData(tuple(x + (k == node) for k, x in enumerate(f.values)))
    # Two vertices trade clusters: every value stays, the maximizers move.
    clusters = list(vrep.clusters)
    clusters[0], clusters[1] = clusters[1], clusters[0]
    swapped = dataclasses.replace(vrep, clusters=tuple(clusters))
    for f_used, v_used in ((f, moved), (raised, vrep), (f, swapped)):
        witness, problems = verify_support_function(m, f_used, v_used)
        assert problems and problems == support_function_in_fractions(m, f_used, v_used)
        assert witness and witness == simplicity_in_fractions(build_hrep(m, f_used), v_used)
    assert any(p.startswith(f"support value of label {vrep.clusters[3][0]} is ")
               for p in verify_support_function(m, f, moved)[1])


def edge_toward_lower_label(m):
    """(k, k2, a, b) for an edge from cluster k to cluster k2 whose exchange
    drops label a of k for label b < a of k2."""
    for c1, c2, a, b in m.adjacent_cluster_pairs():
        if b < a:
            return c1, c2, a, b
        if a < b:
            return c2, c1, b, a
    raise AssertionError("no edge")


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "G2", "A1xB2"])
def test_tampered_vertices_fail_simplicity_like_the_fraction_check(label):
    d = make_datum(label)
    m = build_model(d, coxeter_from_order(d, tuple(range(d.n))))
    f = random_valid_f(d, random.Random(3))
    hrep = build_hrep(m, f)
    vrep = cluster_vertices(m, hrep)
    k, k2, a, b = edge_toward_lower_label(m)
    v, w = vrep.vertices[k], vrep.vertices[k2]

    def moved_to(t):
        """Vertex k moved along its edge to v + t (w - v): the other labels of
        cluster k stay tight, a goes slack, and b is tight at t = 1.  Every t
        here is a multiple of 1/100, so the vertices stay integers over 100 den."""
        verts = [tuple(100 * x for x in u) for u in vrep.vertices]
        verts[k] = tuple(100 * x + int(100 * t) * (y - x) for x, y in zip(v, w))
        return dataclasses.replace(vrep, vertices=tuple(verts), den=100 * vrep.den)

    # onto label b (not one of cluster k's), across it, and off label a (one of cluster k's)
    for t, kind, j in ((Fraction(1), EXTRA_FACET, b), (Fraction(101, 100), EXTRA_FACET, b),
                       (Fraction(1, 2), MISSED_FACET, a)):
        tampered = moved_to(t)
        with pytest.raises(PolytopeError, match=f"^{kind}$"):
            check_simple(hrep, tampered)     # what vertices() raises on these vertices
        witness, _ = verify_support_function(m, f, tampered)
        assert witness == f"cluster {list(vrep.clusters[k])}, label {j}: {kind}"
        assert witness == simplicity_in_fractions(hrep, tampered)


def test_check_polytopality_strict_everywhere():
    for model in (MA3, MC3):
        assert check_polytopality(model, default_f(model.datum).values) == []


def test_check_polytopality_flags_broken_f():
    violations = check_polytopality(MA3, (1, 3, 1))
    assert violations, "f = (1,3,1) violates f(2) < 2 f(1) and must fail"


def test_a1_exchange_inequality_degenerate():
    d = make_datum("A1")
    m = build_model(d, coxeter_from_order(d, (0,)))
    assert check_polytopality(m, (Fraction(1, 2),)) == []
    assert check_polytopality(m, (0,)) != []


def test_chamber_point_gate():
    assert chamber_point(A3, default_f(A3).values) == default_f(A3).values
    # strictly dominant but not i*-symmetric: a chamber point, not support data
    a = (1, Fraction(3, 2), Fraction(7, 4))
    assert chamber_point(A3, a) == a
    assert violated_condition(A3, a) == "f(1) = f(3)"
    assert cambrian_hrep(MA3, a).facets[0].rhs in a
    with pytest.raises(PolytopeError):
        chamber_point(A3, (1, 2, 1))     # on the wall 2f(1) - f(2) = 0
    with pytest.raises(PolytopeError):
        cambrian_hrep(MA3, (1, 3, 1))


def test_cambrian_rays_equal_labels():
    rays = cambrian_rays(MA3)
    assert set(rays) == {lab.weight for lab in MA3.labels}
    # identity contributes omega_i, w0 contributes -omega_{i*}
    for i in range(3):
        ei = tuple(1 if k == i else 0 for k in range(3))
        assert rays[ei] == i
        assert rays[tuple(-x for x in ei)] == 2 - i


def test_polytopes_equal_on_defaults_and_random_f():
    rng = random.Random(7)
    for model in (MA3, MC3):
        for f in [default_f(model.datum)] + [random_valid_f(model.datum, rng) for _ in range(5)]:
            ok, witness = polytopes_equal(model, f)
            assert ok, witness


def test_off_export_structure():
    f = default_f(A3)
    hrep = build_hrep(MA3, f)
    vrep = vertices(MA3, hrep)
    off = export_off(MA3, hrep, vrep)
    lines = off.strip().splitlines()
    assert lines[0] == "OFF"
    assert lines[1] == "14 9 21"
    assert len(lines) == 2 + 14 + 9
    for face_line in lines[16:]:
        parts = [int(x) for x in face_line.split()]
        assert parts[0] == len(parts) - 1
        assert all(0 <= v < 14 for v in parts[1:])


def test_off_requires_rank_three():
    d = make_datum("A2")
    m = build_model(d, coxeter_from_order(d, (0, 1)))
    f = default_f(d)
    hrep = build_hrep(m, f)
    with pytest.raises(PolytopeError):
        export_off(m, hrep, vertices(m, hrep))


def test_facet_cycles_closed_and_planar():
    f = default_f(C3)
    hrep = build_hrep(MC3, f)
    vrep = vertices(MC3, hrep)
    for lab in MC3.labels:
        cycle = facet_vertex_cycle(MC3, lab.index)
        assert len(cycle) == len(set(cycle)) >= 3
        for k in cycle:
            assert Fraction(vec_dot(vrep.vertices[k], lab.weight), vrep.den) == f[lab.node]
        edge_set = {(c1, c2) for c1, c2, _, _ in MC3.adjacent_cluster_pairs()}
        for u, v in zip(cycle, cycle[1:] + cycle[:1]):
            assert tuple(sorted((u, v))) in edge_set


def test_json_round_trip():
    f = default_f(A3)
    hrep = build_hrep(MA3, f)
    vrep = vertices(MA3, hrep)
    parts = []
    export_json(MA3, f, hrep, vrep, parts.append)
    data = json.loads("".join(parts))
    assert [Facet(tuple(fa["normal"]), Fraction(fa["rhs"]), (fa["label"]["i"], fa["label"]["m"]))
            for fa in data["facets"]] == list(hrep.facets)
    assert tuple(tuple(Fraction(x) for x in v["coords"]) for v in data["vertices"]) == fraction_vertices(vrep)
    assert tuple(tuple(v["cluster"]) for v in data["vertices"]) == vrep.clusters
    assert tuple(tuple(e) for e in data["edges"]) == tuple(p[:2] for p in MA3.adjacent_cluster_pairs())


def test_orbit_shares_rhs():
    f = default_f(C3)
    for normals, rhs in hrep_orbit_groups(MC3, build_hrep(MC3, f)):
        assert isinstance(rhs, Fraction)


def test_all_coxeter_elements_rank3_polytopes():
    for d in (A3, C3, make_datum("B3")):
        f = default_f(d)
        for c in all_coxeter_elements(d):
            m = build_model(d, c)
            vrep = vertices(m, build_hrep(m, f))
            assert len(vrep.vertices) == len(m.clusters())
            ok, witness = polytopes_equal(m, f)
            assert ok, (d.label, c.order, witness)


def test_reducible_polytope_prism():
    d = make_datum("A1xA2")
    m = build_model(d, coxeter_from_order(d, (0, 1, 2)))
    f = default_f(d)
    hrep = build_hrep(m, f)
    vrep = vertices(m, hrep)
    # segment x pentagon: 2*5 vertices, 2+5 facets, 5 + 2*5 edges
    edges = len(m.adjacent_cluster_pairs())
    assert (len(vrep.vertices), len(hrep.facets), edges) == (10, 7, 15)
    assert len(vrep.vertices) - edges + len(hrep.facets) == 2
    assert verify_support_function(m, f, vrep) == (None, [])
    assert check_polytopality(m, f.values) == []
    ok, witness = polytopes_equal(m, f)
    assert ok, witness


def test_off_decimal_rounds_exactly():
    from coxfan.polytope import _decimal

    cases = [((2, 3), 3, "0.667"), ((-2, 3), 3, "-0.667"), ((7, 4), 0, "2"), ((7, 4), 1, "1.8"),
             ((-7, 4), 1, "-1.8"), ((1, 2), 0, "1"), ((-1, 2), 0, "-1"), ((1, 8), 2, "0.13"),
             ((5, 1), 2, "5.00"), ((-1, 1000), 2, "0.00"), ((1, 3), 0, "0")]
    for (p, q), precision, text in cases:
        assert _decimal(Fraction(p, q), precision) == text
