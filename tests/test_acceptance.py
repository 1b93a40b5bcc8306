"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check here is exact (integer or rational equality, zero tolerance).
Randomized checks are seeded and deterministic.
"""
from __future__ import annotations

import random
import zlib

from coxfan.cartan import make_datum
from coxfan.linalg import bareiss_det
from coxfan.model import BipartiteOracle, bar_map, build_model, cone_membership, iota_map, sigma_map
from coxfan.mutation import LaurentPoly, exchange_graph, verify_exchange_relations
from coxfan.polytope import (
    build_hrep,
    cambrian_rays,
    check_polytopality,
    default_f,
    polytopes_equal,
    random_valid_f,
    vertices,
    verify_support_function,
    violated_condition,
)
from coxfan.verify import compat_pi_independent
from coxfan.weyl import (
    all_coxeter_elements,
    c_sorting_word,
    coxeter_from_order,
    enumerate_group,
    is_antisortable,
    is_sortable,
    longest_element,
    singletons,
    w_m_word,
    word_to_element,
)

from paper_constructions import folded_inequalities, hrep_orbit_groups

RANK4_TYPES = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "G2", "F4")
RANK3_TYPES = ("A1", "A2", "A3", "B2", "B3", "C3", "G2")


def _report(num: int, text: str):
    print(f"[PASS] criterion {num}: {text}")


def _fail(num: int, text: str):
    print(f"[FAIL] criterion {num}: {text}")


def _model(label: str, order=None):
    d = make_datum(label)
    c = coxeter_from_order(d, order if order is not None else tuple(range(d.n)))
    return d, build_model(d, c)


# --- 1. A3 golden data --------------------------------------------------------------------

def test_criterion_01_a3_golden_data():
    num = 1
    try:
        d, m = _model("A3")
        orbit_weights = [[m.labels[k].weight for k in orb] for orb in m.orbits]
        assert orbit_weights == [
            [(1, 0, 0), (-1, 1, 0), (0, -1, 1), (0, 0, -1), (0, 0, 1), (-1, 0, 0)],
            [(0, 1, 0), (-1, 0, 1), (0, -1, 0)],
        ]
        groups = hrep_orbit_groups(m, build_hrep(m, default_f(d)))
        assert groups[0][0] == ((1, 0, 0), (-1, 1, 0), (0, -1, 1), (0, 0, -1), (0, 0, 1), (-1, 0, 0))
        assert groups[1][0] == ((0, 1, 0), (-1, 0, 1), (0, -1, 0))
        f = default_f(d)
        assert groups[0][1] == f[0] and groups[1][1] == f[1]
        equalities, folded = folded_inequalities(d)
        assert equalities == ((0, 2),)
        assert set(folded) == {(2, -1, 0), (-1, 1, 0)}   # f2 < 2 f1 and f1 < f2
    except AssertionError:
        _fail(num, "A3 golden data mismatch")
        raise
    _report(num, "A3 orbits, H-rep groups, and f-conditions match the printed data exactly")


# --- 2. C3 golden data --------------------------------------------------------------------

def test_criterion_02_c3_golden_data():
    num = 2
    try:
        d, m = _model("C3")
        orbit_weights = [[m.labels[k].weight for k in orb] for orb in m.orbits]
        assert orbit_weights == [
            [(1, 0, 0), (-1, 1, 0), (0, -1, 1), (-1, 0, 0)],
            [(0, 1, 0), (-1, 0, 1), (-1, -1, 1), (0, -1, 0)],
            [(0, 0, 1), (-2, 0, 1), (0, -2, 1), (0, 0, -1)],
        ]
        groups = hrep_orbit_groups(m, build_hrep(m, default_f(d)))
        assert groups[0][0] == ((1, 0, 0), (-1, 1, 0), (0, -1, 1), (-1, 0, 0))
        assert groups[1][0] == ((0, 1, 0), (-1, 0, 1), (-1, -1, 1), (0, -1, 0))
        assert groups[2][0] == ((0, 0, 1), (-2, 0, 1), (0, -2, 1), (0, 0, -1))
        equalities, folded = folded_inequalities(d)
        assert equalities == ()
        assert set(folded) == {(2, -1, 0), (-1, 2, -1), (0, -1, 1)}
    except AssertionError:
        _fail(num, "C3 golden data mismatch")
        raise
    _report(num, "C3 orbits, H-rep groups, and f-conditions match the printed data exactly")


# --- 3. Z-basis property ------------------------------------------------------------------

def test_criterion_03_z_basis_every_coxeter_element():
    num = 3
    checked = 0
    try:
        for label in RANK4_TYPES:
            d = make_datum(label)
            for c in all_coxeter_elements(d):
                m = build_model(d, c)
                for cl in m.clusters():
                    det = bareiss_det(tuple(m.labels[k].weight for k in cl))
                    assert det in (1, -1), (label, c.order, cl, det)
                    checked += 1
    except AssertionError:
        _fail(num, "a cluster failed unimodularity")
        raise
    _report(num, f"{checked} clusters across rank<=4, all determinant +-1")


# --- 4. unique expansion and complete fan --------------------------------------------------

def test_criterion_04_expansion_and_fan():
    num = 4
    total = 0
    try:
        for label in RANK4_TYPES:
            d = make_datum(label)
            n = d.n
            for ci, c in enumerate(all_coxeter_elements(d)):
                m = build_model(d, c)
                rng = random.Random(10_000 + 97 * ci + zlib.crc32(label.encode()) % 1000)
                pts = [tuple(rng.randint(-20, 20) for _ in range(n)) for _ in range(1000)]
                cones = cone_membership(m, pts)
                assert all(len(in_cones) >= 1 for in_cones in cones), (label, c.order)
                assert all(sum(min(x) > 0 for _, x in in_cones) <= 1 for in_cones in cones), \
                    (label, c.order)
                clusters = m.clusters()
                for p, in_cones in zip(pts, cones):
                    exp = m.expand_root(p)
                    ks = sorted(exp)
                    for i in range(len(ks)):
                        for j in range(i + 1, len(ks)):
                            assert m.compat(ks[i], ks[j]) == 0
                            assert m.compat(ks[j], ks[i]) == 0
                    want = set(exp.items())
                    for cidx, x in in_cones:
                        got = {(clusters[cidx][t], x[t]) for t in range(n) if x[t] > 0}
                        assert got == want, (label, c.order, p)
                total += len(pts)
    except AssertionError:
        _fail(num, "expansion or fan property failed")
        raise
    _report(num, f"{total} random points: unique compatible expansion, covering and disjoint cones")


# --- 5. polytopality ------------------------------------------------------------------------

def _broken_f_for(d):
    base = list(default_f(d).values)
    if d.n == 1:
        return (0,)
    from coxfan.weyl import node_involution

    istar = node_involution(d)
    for j in range(d.n):
        cand = list(base)
        cand[j] = base[j] * 100
        cand[istar[j]] = base[istar[j]] * 100
        if violated_condition(d, tuple(cand)):
            return tuple(cand)
    # all-orbit scalings stayed valid (e.g. A2): break the i*-equality instead
    cand = list(base)
    cand[0] = base[0] * 2
    return tuple(cand)


def test_criterion_05_polytopality():
    num = 5
    tried = 0
    try:
        for label in RANK3_TYPES:
            d = make_datum(label)
            for ci, c in enumerate(all_coxeter_elements(d)):
                m = build_model(d, c)
                rng = random.Random(5_000 + 31 * ci + d.n)
                fs = [default_f(d)] + [random_valid_f(d, rng) for _ in range(20)]
                for f in fs:
                    vrep = vertices(m, build_hrep(m, f))     # raises unless simple
                    assert verify_support_function(m, f, vrep) == (None, [])
                    assert check_polytopality(m, f.values) == []
                    tried += 1
            bad = _broken_f_for(d)
            rejected = bool(violated_condition(d, bad))
            assert rejected or check_polytopality(build_model(d, all_coxeter_elements(d)[0]), bad)
        # the printed negative example: A3 with f = (1,3,1)
        d, m = _model("A3")
        assert violated_condition(d, (1, 3, 1)) == "2f(1)-f(2) > 0"
        assert check_polytopality(m, (1, 3, 1))
    except AssertionError:
        _fail(num, "polytopality failed")
        raise
    _report(num, f"{tried} (c, f) pairs: simple vertices, exact support function, strict inequalities; negative controls trip")


# --- 6. counts -------------------------------------------------------------------------------

def test_criterion_06_counts():
    num = 6
    try:
        expected = {"A2": (5, 5, 5), "A3": (14, 9, 21), "C3": (20, 12, 30)}
        for label, (V, F, E) in expected.items():
            d, m = _model(label)
            f = default_f(d)
            hrep = build_hrep(m, f)
            vrep = vertices(m, hrep)
            edges = len(m.adjacent_cluster_pairs())
            assert (len(vrep.vertices), len(hrep.facets), edges) == (V, F, E)
            if d.n == 3:
                assert len(vrep.vertices) - edges + len(hrep.facets) == 2
    except AssertionError:
        _fail(num, "count mismatch")
        raise
    _report(num, "A2 5/5/5, A3 14/9/21, C3 20/12/30 from the clique oracle, Euler holds")


# --- 7. exchange relations ---------------------------------------------------------------------

def test_criterion_07_exchange_relations():
    num = 7
    edges = 0
    try:
        for label in ("A2", "A3", "B2", "C2", "G2", "C3", "A1xA1"):
            d = make_datum(label)
            c = coxeter_from_order(d, tuple(range(d.n)))
            m = build_model(d, c)
            graph = exchange_graph(d, c)
            assert set(graph.variables) == {lab.weight for lab in m.labels}, label
            assert len(graph.seeds) == len(m.clusters()), label
            assert verify_exchange_relations(graph, m) == [], label
            edges += len(graph.edges)
        # pentagon instance
        a2 = make_datum("A2")
        g = exchange_graph(a2, coxeter_from_order(a2, (0, 1)))
        assert g.variables[(1, 0)] * g.variables[(-1, 1)] == g.variables[(0, 1)] + LaurentPoly.one(2)
        # degenerate uplus = 0 instance
        d = make_datum("A1xA1")
        g = exchange_graph(d, coxeter_from_order(d, (0, 1)))
        assert g.variables[(1, 0)] * g.variables[(-1, 0)] == LaurentPoly.monomial((0, 0), 2)
    except AssertionError:
        _fail(num, "exchange-relation identity failed")
        raise
    _report(num, f"{edges} exchange edges verified as exact Laurent identities; g-vectors = weight labels")


# --- 8. sorting machinery -----------------------------------------------------------------------

def test_criterion_08_sorting_machinery():
    num = 8
    models = 0
    try:
        for label in RANK4_TYPES:
            d = make_datum(label)
            w0 = longest_element(d)
            for c in all_coxeter_elements(d):
                word, blocks = w_m_word(c, c.max_h())
                assert word_to_element(d, word) == w0
                _, extracted = c_sorting_word(c, w0)
                assert blocks == extracted, (label, c.order)
                models += 1
        a3 = make_datum("A3")
        c = coxeter_from_order(a3, (0, 1, 2))
        w = word_to_element(a3, (1, 2, 1))
        assert is_sortable(c, w) and not is_antisortable(c, w)
        w = word_to_element(a3, (1, 2, 0, 1, 0))
        assert is_antisortable(c, w) and not is_sortable(c, w)
        w = word_to_element(a3, (1, 2, 1, 0))
        assert not is_sortable(c, w) and not is_antisortable(c, w)
        for label in RANK3_TYPES:
            d = make_datum(label)
            group = enumerate_group(d)
            for c in all_coxeter_elements(d):
                brute = {x.mw for x in group if is_sortable(c, x) and is_antisortable(c, x)}
                assert {x.mw for x in singletons(c)} == brute, (label, c.order)
    except AssertionError:
        _fail(num, "sorting-word machinery failed")
        raise
    _report(num, f"{models} sorting words of w0 match extraction; A3 examples classify; singletons = brute force")


# --- 9. Cambrian rays and polytope equality ------------------------------------------------------

def test_criterion_09_cambrian_rays_and_equality():
    num = 9
    models = 0
    try:
        for label in RANK4_TYPES:
            d = make_datum(label)
            f = default_f(d)
            for c in all_coxeter_elements(d):
                m = build_model(d, c)
                assert set(cambrian_rays(m)) == {lab.weight for lab in m.labels}, (label, c.order)
                ok, witness = polytopes_equal(m, f)
                assert ok, (label, c.order, witness)
                models += 1
    except AssertionError:
        _fail(num, "ray or polytope equality failed")
        raise
    _report(num, f"{models} (type, c) pairs: singleton rays = weight labels, H-reps identical")


# --- 10. map coherence -----------------------------------------------------------------------------

def _pairs(L, rng, exhaustive):
    if exhaustive:
        return [(a, b) for a in range(L) for b in range(L)]
    return [(rng.randrange(L), rng.randrange(L)) for _ in range(300)]


def test_criterion_10_map_coherence():
    num = 10
    maps_checked = 0
    try:
        rank4 = ("A4", "B4", "C4", "D4", "F4")
        cases = [(lab, True) for lab in RANK3_TYPES] + [(lab, False) for lab in rank4]
        for label, exhaustive in cases:
            d = make_datum(label)
            cs = all_coxeter_elements(d)
            picked = cs if exhaustive else [cs[0], cs[-1]]
            for c in picked:
                m = build_model(d, c)
                L = len(m.labels)
                rng = random.Random(99 + L)
                pairs = _pairs(L, rng, exhaustive)
                # phi_c: weight-side degree equals root-side degree
                assert all(m.compat(a, b) == compat_pi_independent(m, a, b) for a, b in pairs)
                maps_checked += 1
                for i in m.c.initial_nodes():
                    tgt, mp = sigma_map(m, i)
                    assert all(m.compat(a, b) == tgt.compat(mp[a], mp[b]) for a, b in pairs)
                    assert all(tgt.tau(mp[a]) == mp[m.tau(a)] for a in range(L))
                    maps_checked += 1
                tgt, mp = bar_map(m)
                assert all(m.compat(a, b) == tgt.compat(mp[a], mp[b]) for a, b in pairs)
                assert all(mp[m.tau(a)] == tgt.tau(mp[a], -1) for a in range(L))
                maps_checked += 1
                for drop in range(d.n):
                    nodes = tuple(k for k in range(d.n) if k != drop)
                    if not nodes:
                        continue
                    sub, emb, _ = iota_map(m, nodes)
                    ls = len(sub.labels)
                    sub_pairs = [(a, b) for a in range(ls) for b in range(ls)] if exhaustive \
                        else [(rng.randrange(ls), rng.randrange(ls)) for _ in range(200)]
                    assert all(sub.compat(a, b) == m.compat(emb[a], emb[b]) for a, b in sub_pairs)
                    maps_checked += 1
            if len(d.components) == 1:
                oracle = BipartiteOracle(d)
                mt = build_model(d, oracle.t)
                tm = oracle.t_minus_map(mt)
                Lo = len(oracle.roots)
                rng = random.Random(7)
                opairs = [(a, b) for a in range(Lo) for b in range(Lo)] if exhaustive \
                    else [(rng.randrange(Lo), rng.randrange(Lo)) for _ in range(300)]
                assert all(oracle.compat(a, b) == mt.compat(tm[a], tm[b]) for a, b in opairs)
                assert all(mt.tau(tm[a]) == tm[oracle.tau(-1, oracle.tau(1, a))] for a in range(Lo))
                maps_checked += 1
    except AssertionError:
        _fail(num, "a structural map broke compatibility or tau")
        raise
    _report(num, f"{maps_checked} map instances preserve the degree and intertwine tau")
