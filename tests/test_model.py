"""Label model: orbits, compatibility, clusters, expansions, structural maps."""
from __future__ import annotations

import dataclasses
import gc
import random
import re
import tracemalloc
from array import array
from fractions import Fraction

import pytest

from coxfan import linalg, weyl
from coxfan import model as model_module
from coxfan.cartan import generate_roots, make_datum, root_to_weight
from coxfan.linalg import bareiss_det, identity_mat, mat_mul
from coxfan.model import (
    BipartiteOracle,
    ClusterList,
    ClusterModel,
    ModelError,
    bar_map,
    build_model,
    cone_membership,
    iota_map,
    sigma_map,
)
from coxfan.weyl import all_coxeter_elements, coxeter_from_order

from paper_constructions import spaced, support_of_label

A3 = make_datum("A3")
MA3 = build_model(A3, coxeter_from_order(A3, (0, 1, 2)))
A2 = make_datum("A2")
MA2 = build_model(A2, coxeter_from_order(A2, (0, 1)))


def weights_of(model, orb):
    return [model.labels[k].weight for k in orb]


def by_origin(model):
    return {(lab.node, lab.power): lab.index for lab in model.labels}


def test_a3_orbits_match_printed_diagrams():
    assert weights_of(MA3, MA3.orbits[0]) == [
        (1, 0, 0), (-1, 1, 0), (0, -1, 1), (0, 0, -1), (0, 0, 1), (-1, 0, 0)]
    assert weights_of(MA3, MA3.orbits[1]) == [(0, 1, 0), (-1, 0, 1), (0, -1, 0)]


def test_c3_orbits_match_printed_diagrams():
    c3 = make_datum("C3")
    m = build_model(c3, coxeter_from_order(c3, (0, 1, 2)))
    assert weights_of(m, m.orbits[0]) == [(1, 0, 0), (-1, 1, 0), (0, -1, 1), (-1, 0, 0)]
    assert weights_of(m, m.orbits[1]) == [(0, 1, 0), (-1, 0, 1), (-1, -1, 1), (0, -1, 0)]
    assert weights_of(m, m.orbits[2]) == [(0, 0, 1), (-2, 0, 1), (0, -2, 1), (0, 0, -1)]


def test_a2_single_orbit():
    assert [weights_of(MA2, o) for o in MA2.orbits] == [
        [(1, 0), (-1, 1), (0, -1), (0, 1), (-1, 0)]]


def test_label_count_is_phi_plus_n():
    for label in ("A3", "B3", "C3", "G2", "A1xA2"):
        d = make_datum(label)
        for c in all_coxeter_elements(d):
            m = build_model(d, c)
            assert len(m.labels) == generate_roots(d).size + d.n
            assert len({lab.weight for lab in m.labels}) == len(m.labels)


def test_orbit_contains_unique_istar_pair():
    from coxfan.weyl import node_involution

    for label in ("A3", "C3", "A4", "D4"):
        d = make_datum(label)
        istar = node_involution(d)
        for c in all_coxeter_elements(d):
            m = build_model(d, c)
            for orb in m.orbits:
                negs = [m.labels[k].node for k in orb if m.labels[k].is_negative]
                assert sorted(set(negs)) == sorted({negs[0], istar[negs[0]]})


def test_tau_order_divides_h_plus_2():
    for label in ("A3", "C3", "G2"):
        d = make_datum(label)
        h = generate_roots(d).coxeter_numbers[0]
        for c in all_coxeter_elements(d):
            m = build_model(d, c)
            for orb in m.orbits:
                assert (h + 2) % len(orb) == 0


def _tau_from_roots(model):
    """tau on label ids from its root-side definition alone: -r on the roots c
    sends negative (the beta_i^c), c r on every other root label."""
    c = model.c
    betas = {lab.root for lab in model.labels
             if all(x >= 0 for x in lab.root) and all(x <= 0 for x in c.wel.apply_root(lab.root))}
    return [model.id_by_root[tuple(-x for x in lab.root) if lab.root in betas
                             else c.wel.apply_root(lab.root)]
            for lab in model.labels]


def _walk_orbits(model, perm):
    """Orbits of perm, each entered at its first negative label in node order."""
    seen, orbits = set(), []
    for i in range(model.n):
        k = model.neg_id[i]
        if k in seen:
            continue
        orb = []
        while k not in seen:
            seen.add(k)
            orb.append(k)
            k = perm[k]
        orbits.append(tuple(orb))
    assert len(seen) == len(perm)
    return tuple(orbits)


TAU_CASES = [(label, c) for label in ("A3", "B3", "C3", "G2", "A1xA2", "B4", "D4", "F4")
             for c in all_coxeter_elements(make_datum(label))]
TAU_CASES += [("E6", c) for c in all_coxeter_elements(make_datum("E6"))[:8]]


@pytest.mark.parametrize("label,c", TAU_CASES, ids=[f"{lab}-{c.render()}" for lab, c in TAU_CASES])
def test_closed_form_tau_matches_a_walk_of_its_root_side_definition(label, c):
    m = ClusterModel(make_datum(label), c)
    perm = _tau_from_roots(m)
    orbits = _walk_orbits(m, perm)
    assert m.orbits == orbits
    assert [m.tau(k) for k in range(len(perm))] == perm
    for t, orb in enumerate(orbits):
        negs = [p for p, k in enumerate(orb) if all(x <= 0 for x in m.labels[k].root)]
        for p, k in enumerate(orb):
            assert m.labels[k].orbit == t
            dist = min((q - p) % len(orb) for q in negs)
            assert m.steps_to_neg[k] == (dist, m.labels[orb[(p + dist) % len(orb)]].node)
    order, power = 1, perm
    while power != list(range(len(perm))):
        order, power = order + 1, [perm[k] for k in power]
    assert m.tau_order == order


def test_tau_exponent_walks():
    m = MA3
    ids = by_origin(m)
    neg_w3 = ids[(0, 3)]        # weight -w3 in the first orbit
    assert m.labels[m.tau(neg_w3)].weight == (0, 0, 1)
    for k in range(len(m.labels)):
        assert m.tau(k, 0) == k
        assert m.tau(m.tau(k, 5), -5) == k


def test_compat_initial_cluster_and_selfcompat():
    for m in (MA2, MA3):
        ids = by_origin(m)
        n = m.n
        for i in range(n):
            for j in range(n):
                assert m.compat(ids[(i, 0)], ids[(j, 0)]) == 0
        for k in range(len(m.labels)):
            assert m.compat(k, k) == 0


def test_compat_a2_value():
    ids = by_origin(MA2)
    assert MA2.compat(ids[(0, 0)], ids[(0, 1)]) == 1
    assert MA2.labels[ids[(0, 1)]].root == (1, 0)   # phi_c(-w1+w2) = alpha1


def test_zero_symmetry_and_tau_invariance():
    for label in ("A3", "C3", "B2", "G2"):
        d = make_datum(label)
        for c in all_coxeter_elements(d):
            m = build_model(d, c)
            L = len(m.labels)
            for a in range(L):
                for b in range(L):
                    assert (m.compat(a, b) == 0) == (m.compat(b, a) == 0)
                    assert m.compat(m.tau(a), m.tau(b)) == m.compat(a, b)


def test_cluster_counts():
    counts = {"A1": 2, "A2": 5, "A3": 14, "B2": 6, "C3": 20, "G2": 8, "A4": 42,
              "D4": 50, "F4": 105, "B4": 70}
    for label, expected in counts.items():
        d = make_datum(label)
        c = all_coxeter_elements(d)[0]
        assert len(build_model(d, c).clusters()) == expected
    # Fomin-Zelevinsky: 182, 833, 4160 and 25080 clusters, for c = s1...sn and its inverse.
    for label, expected in {"D5": 182, "E6": 833, "E7": 4160, "E8": 25080}.items():
        d = make_datum(label)
        c = coxeter_from_order(d, tuple(range(d.n)))
        for e in (c, c.inverse()):
            clusters = build_model(d, e).clusters()
            assert len(clusters) == expected
            assert all(len(cl) == d.n and list(cl) == sorted(cl) for cl in clusters)
            assert list(clusters) == sorted(clusters)


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "C3", "G2", "A4", "D4", "F4", "B4",
                                   "D5", "E6", "E7", "E8"])
def test_cluster_list_reads_like_a_tuple_of_sorted_tuples(label):
    d = make_datum(label)
    clusters = build_model(d, coxeter_from_order(d, tuple(range(d.n)))).clusters()
    items = tuple(clusters)
    count = len(clusters)
    assert count == len(items) and list(iter(clusters)) == list(items)
    assert [clusters[k] for k in range(count)] == list(items)
    assert [clusters[k - count] for k in range(count)] == list(items)
    for bad in (count, -count - 1):
        with pytest.raises(IndexError):
            clusters[bad]
    for cl in items:
        assert type(cl) is tuple and len(cl) == d.n and list(cl) == sorted(set(cl))
        assert all(type(k) is int for k in cl)
    assert all(a < b for a, b in zip(items, items[1:]))


def _fresh_e7_model():
    d = make_datum("E7")
    m = ClusterModel(d, coxeter_from_order(d, tuple(range(7))))
    m.compat_table()
    return m


def test_clusters_leave_no_cyclic_garbage():
    m = _fresh_e7_model()
    gc.collect()
    gc.disable()
    try:
        m.clusters()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_clusters_are_stored_flat():
    # 4,160 clusters of 7 labels: 29 KB as one byte array, about 0.5 MB as tuples.
    m = _fresh_e7_model()
    gc.collect()
    tracemalloc.start()
    try:
        m.clusters()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(m.clusters()) == 4160
    assert held < 150_000


def test_adjacent_cluster_pairs_are_stored_flat():
    # 14,560 pairs of E7 (c = s1...s7): 116 KB as one two-byte array, 1.27 MB as tuples.
    m = _fresh_e7_model()
    m.clusters()
    gc.collect()
    tracemalloc.start()
    try:
        m.adjacent_cluster_pairs()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(m.adjacent_cluster_pairs()) == 14560
    assert held < 250_000


def _pairs_by_ridge(clusters) -> tuple:
    """The sorted tuple of (c1, c2, a, b), from ridges as frozensets of labels."""
    on = {}
    for ci, cl in enumerate(clusters):
        for b in cl:
            on.setdefault(frozenset(cl) - {b}, []).append((ci, b))
    return tuple(sorted((c1, c2, a, b) for (c1, a), (c2, b) in on.values()))


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "C3", "G2", "A4", "D4", "F4", "B4",
                                   "D5", "E6", "E7", "E8"])
def test_adjacent_cluster_pairs_read_like_a_sorted_tuple(label):
    d = make_datum(label)
    m = build_model(d, coxeter_from_order(d, tuple(range(d.n))))
    pairs = m.adjacent_cluster_pairs()
    want = _pairs_by_ridge(m.clusters())
    count = len(pairs)
    assert count == len(want) == len(m.clusters()) * d.n // 2
    assert pairs == want and tuple(pairs) == want and list(iter(pairs)) == list(want)
    assert [pairs[k] for k in range(count)] == list(want)
    assert [pairs[k - count] for k in range(count)] == list(want)
    for bad in (count, -count - 1):
        with pytest.raises(IndexError):
            pairs[bad]


def test_labels_have_no_instance_dict():
    lab = MA3.labels[0]
    assert not hasattr(lab, "__dict__")
    with pytest.raises(AttributeError):
        lab.power = 1


@pytest.mark.parametrize("tamper", ["compatible-with-nothing", "three-pairwise-compatible"])
def test_maximal_compatible_set_of_wrong_size_is_refused(tamper):
    m = ClusterModel(A2, coxeter_from_order(A2, (0, 1)))
    table = [list(row) for row in m.compat_table()]
    if tamper == "compatible-with-nothing":
        for b in range(1, len(table)):
            table[0][b] = table[b][0] = 1
    else:
        a, b = m.clusters()[0]
        c = next(k for k in range(len(table)) if k not in (a, b) and table[b][k] == 0)
        table[a][c] = table[c][a] = 0
    m._compat, m._clusters = tuple(map(tuple, table)), None
    with pytest.raises(ModelError, match="maximal compatible set of wrong size"):
        m.clusters()


ROOT_CASES = [(label, c) for label in ("A3", "B3", "C3", "G2", "F4", "A1xB2")
              for c in all_coxeter_elements(make_datum(label))]
ROOT_CASES += [(label, coxeter_from_order(make_datum(label), tuple(range(make_datum(label).n))))
               for label in ("D5", "E6", "E7", "E8")]


@pytest.mark.parametrize("label,c", ROOT_CASES, ids=[f"{lab}-{c.render()}" for lab, c in ROOT_CASES])
def test_label_roots_match_the_certified_inverse(label, c, monkeypatch):
    d = make_datum(label)
    cinv = c.wel.inverse()

    def refuse(*args):
        raise AssertionError("int_mat_inv called while building a model")

    for module in (linalg, model_module, weyl):
        monkeypatch.setattr(module, "int_mat_inv", refuse, raising=False)
    m = ClusterModel(d, c)
    m.clusters()
    monkeypatch.undo()
    for lab in m.labels:
        want = tuple(a - b for a, b in zip(cinv.apply_weight(lab.weight), lab.weight))
        assert root_to_weight(d, lab.root) == want, (lab.node, lab.power)


def test_reducible_clusters_are_products():
    d = make_datum("A1xA2")
    m = build_model(d, all_coxeter_elements(d)[0])
    a1 = build_model(make_datum("A1"), all_coxeter_elements(make_datum("A1"))[0])
    a2 = build_model(make_datum("A2"), all_coxeter_elements(make_datum("A2"))[0])
    assert len(m.clusters()) == len(a1.clusters()) * len(a2.clusters())


def test_every_cluster_is_a_z_basis():
    for label in ("A3", "C3", "G2", "A1xA2"):
        d = make_datum(label)
        for c in all_coxeter_elements(d):
            m = build_model(d, c)
            for cl in m.clusters():
                assert bareiss_det(tuple(m.labels[k].weight for k in cl)) in (1, -1)


def test_restriction_bijection_on_clusters():
    # Clusters containing all -beta_i for i outside J correspond to c_J-clusters.
    for drop in range(3):
        nodes = tuple(k for k in range(3) if k != drop)
        sub, emb, _ = MA3.restriction(nodes)
        forced = {MA3.neg_id[drop]}
        big = [set(cl) - forced for cl in MA3.clusters() if forced <= set(cl)]
        small = [set(emb[k] for k in cl) for cl in sub.clusters()]
        assert sorted(map(sorted, big)) == sorted(map(sorted, small))


def test_expansion_of_labels_and_zero():
    for m in (MA2, MA3):
        assert m.expand_root((0,) * m.n) == {}
        for lab in m.labels:
            assert m.expand_root(lab.root) == {lab.index: 1}


def test_expansion_a2_negative_alpha2():
    ids = by_origin(MA2)
    assert MA2.expand_root((0, -1)) == {ids[(1, 0)]: 1}


def test_expansion_reconstructs_and_is_compatible():
    rng = random.Random(17)
    for label in ("A3", "C3", "G2", "A1xA2"):
        d = make_datum(label)
        m = build_model(d, all_coxeter_elements(d)[1 % len(all_coxeter_elements(d))])
        for _ in range(150):
            gamma = tuple(rng.randint(-20, 20) for _ in range(d.n))
            exp = m.expand_root(gamma)
            total = [0] * d.n
            for k, coeff in exp.items():
                assert coeff > 0
                for t in range(d.n):
                    total[t] += coeff * m.labels[k].root[t]
            assert tuple(total) == gamma
            ks = sorted(exp)
            for i in range(len(ks)):
                for j in range(i + 1, len(ks)):
                    assert m.compat(ks[i], ks[j]) == 0


def test_expansion_agrees_with_cone_solution():
    rng = random.Random(23)
    d = make_datum("C3")
    m = build_model(d, coxeter_from_order(d, (0, 1, 2)))
    pts = [tuple(rng.randint(-15, 15) for _ in range(3)) for _ in range(200)]
    cones = cone_membership(m, pts)
    assert all(len(in_cones) >= 1 for in_cones in cones)
    assert all(sum(min(x) > 0 for _, x in in_cones) <= 1 for in_cones in cones)
    for p, in_cones in zip(pts, cones):
        want = set(m.expand_root(p).items())
        for ci, x in in_cones:
            got = {(m.clusters()[ci][t], x[t]) for t in range(3) if x[t] > 0}
            assert got == want


def inverse_matrices(model, side):
    """model.cluster_inverses(side) with each flat row-major inverse as a tuple of rows."""
    inverses, bad = model.cluster_inverses(side)
    assert bad == ()
    return [tuple(zip(*[iter(inv)] * model.n)) for inv in inverses]


CONE_TYPES = ("A1", "A2", "A3", "B2", "C3", "G2", "A4", "D4", "F4", "B4", "D5", "E6", "E7", "E8")


@pytest.mark.parametrize("label", CONE_TYPES)
def test_cone_inverses_match_the_gauss_jordan_inverse(label, monkeypatch):
    d = make_datum(label)
    m = build_model(d, coxeter_from_order(d, tuple(range(d.n))))
    clusters = m.clusters()

    def refuse(*args):
        raise AssertionError("int_mat_inv called for the cone inverses")

    for module in (linalg, model_module):
        monkeypatch.setattr(module, "int_mat_inv", refuse, raising=False)
    inverses = inverse_matrices(m, "root")
    monkeypatch.undo()
    assert len(inverses) == len(clusters)
    eye = identity_mat(d.n)
    bases = [tuple(zip(*(m.labels[k].root for k in cl))) for cl in clusters]
    # M * M^-1 = I on every cluster pins the one inverse; the Fraction Gauss-Jordan
    # reference is compared on every cluster through D5 and on a stride of at most
    # 250 clusters on E6-E8, where it would take minutes.
    assert all(mat_mul(basis, inv) == eye for basis, inv in zip(bases, inverses))
    stride = -(-len(clusters) // 250)
    for k in range(0, len(clusters), stride):
        assert inverses[k] == linalg.int_mat_inv(bases[k]), clusters[k]


def test_cone_inverses_refuse_a_basis_that_is_not_unimodular(monkeypatch):
    """Every cluster holding a doubled root label is reported with its determinant,
    and its item is det**2 times its inverse: the signs still decide membership."""
    m = ClusterModel(A3, coxeter_from_order(A3, (0, 1, 2)))
    holding = [k for k, cl in enumerate(m.clusters()) if 0 in cl]
    doubled = dataclasses.replace(m.labels[0], root=tuple(2 * x for x in m.labels[0].root))
    monkeypatch.setattr(m, "labels", (doubled,) + m.labels[1:])
    inverses, bad = m.cluster_inverses("root")
    dets = [bareiss_det(tuple(m.labels[i].root for i in m.clusters()[k])) for k in holding]
    assert [abs(d) for d in dets] == [2] * len(holding)
    assert bad == tuple(f"cluster {list(m.clusters()[k])} has determinant {d}" for k, d in zip(holding, dets))
    for k in holding:
        basis = tuple(zip(*(m.labels[i].root for i in m.clusters()[k])))
        assert mat_mul(basis, tuple(zip(*[iter(inverses[k])] * 3))) == tuple(
            tuple(4 * x for x in row) for row in identity_mat(3))


def test_weight_inverses_refuse_a_doubled_weight_label(monkeypatch):
    m = ClusterModel(A3, coxeter_from_order(A3, (0, 1, 2)))
    first = next(cl for cl in m.clusters() if 0 in cl)
    doubled = dataclasses.replace(m.labels[0], weight=tuple(2 * x for x in m.labels[0].weight))
    monkeypatch.setattr(m, "labels", (doubled,) + m.labels[1:])
    bad = m.cluster_inverses("weight")[1]
    assert re.fullmatch(re.escape(f"cluster {list(first)} has determinant ") + "-?2", bad[0])
    assert m.cluster_inverses("root")[1] == ()     # the root side is untouched


def test_a_singular_cluster_gets_a_zero_item(monkeypatch):
    m = ClusterModel(A3, coxeter_from_order(A3, (0, 1, 2)))
    holding = [k for k, cl in enumerate(m.clusters()) if 0 in cl]
    zero = dataclasses.replace(m.labels[0], root=(0, 0, 0))
    monkeypatch.setattr(m, "labels", (zero,) + m.labels[1:])
    inverses, bad = m.cluster_inverses("root")
    assert len(inverses) == len(m.clusters())
    assert bad == tuple(f"cluster {list(m.clusters()[k])} has determinant 0" for k in holding)
    assert all(set(inverses[k]) == {0} for k in holding)


def test_cone_membership_is_exact_past_int64():
    from coxfan.linalg import solve_exact

    d = make_datum("C3")
    m = build_model(d, coxeter_from_order(d, (0, 1, 2)))
    big = 2**70
    pts = [(big, -big + 1, 3), (big + 1, big, big - 1), (-big, 5, big), (0, 0, 0)]
    for p, in_cones in zip(pts, cone_membership(m, pts)):
        want = []
        for ci, cl in enumerate(m.clusters()):
            x = solve_exact(tuple(zip(*(m.labels[k].root for k in cl))), p)
            if min(x) >= 0:
                want.append((ci, x))
        assert want and in_cones == want
        exp = set(m.expand_root(p).items())
        for ci, x in in_cones:
            assert {(m.clusters()[ci][t], v) for t, v in enumerate(x) if v > 0} == exp
    with pytest.raises(ModelError):
        cone_membership(m, [(1, 2)])


@pytest.mark.parametrize("side", ["expand_root", "expand_weight", "cone_membership"])
@pytest.mark.parametrize("point", [(), (1,), (1, 2), (1, 2, 3, 4), (0, 0, 0, 0, 0), 5, None])
def test_expansion_refuses_a_point_of_the_wrong_length(side, point):
    # 5 and None are whole points, not coordinates: tuple() cannot read them at all.
    m = ClusterModel(A3, coxeter_from_order(A3, (0, 1, 2)))
    query = (lambda p: cone_membership(m, [(1, 0, 0), p])) if side == "cone_membership" else getattr(m, side)
    with pytest.raises(ModelError, match="does not have 3 coordinates"):
        query(point)
    assert m._expand_cache == {}


@pytest.mark.parametrize("point", [(Fraction(1, 2), 0, 0), (1.7, 0, 0), ("a", 0, 0),
                                   (float("nan"), 0, 0), (None, 0, 0), (float("inf"), 0, 0)])
def test_expansion_refuses_a_non_integral_point(point):
    # Truncating a coordinate would expand (1/2, 0, 0) as 0 and (1.7, 0, 0) as (1, 0, 0).
    m = ClusterModel(A3, coxeter_from_order(A3, (0, 1, 2)))
    for query in (m.expand_root, m.expand_weight, lambda p: cone_membership(m, [(1, 0, 0), p])):
        with pytest.raises(ModelError, match="non-integral coordinate"):
            query(point)
    assert m._expand_cache == {}


def test_integral_points_expand_as_before():
    m = ClusterModel(A3, coxeter_from_order(A3, (0, 1, 2)))
    assert m.expand_root((1, 0, 0)) == {m.id_by_root[(1, 0, 0)]: 1}
    assert m.expand_root((0, 0, 0)) == {} == m.expand_weight((0, 0, 0))
    rng = random.Random(8)
    for _ in range(50):
        p = tuple(rng.randint(-10, 10) for _ in range(3))
        for side in ("expand_root", "expand_weight"):
            exp = getattr(MA3, side)(p)
            # an integral value of another numeric type is the same point
            for q in (tuple(Fraction(x) for x in p), tuple(float(x) for x in p)):
                got = getattr(m, side)(q)
                assert got == exp
                assert all(type(k) is int and type(v) is int for k, v in got.items())
        assert cone_membership(m, [tuple(Fraction(x) for x in p)]) == cone_membership(MA3, [p])


def test_expansion_weight_side_matches_phi():
    rng = random.Random(4)
    m = MA3
    cinv = m.c.wel.inverse()
    from coxfan.cartan import weight_to_root_int

    for _ in range(100):
        mu = tuple(rng.randint(-10, 10) for _ in range(3))
        img = tuple(a - b for a, b in zip(cinv.apply_weight(mu), mu))
        assert m.expand_weight(mu) == m.expand_root(weight_to_root_int(A3, img))


def test_tau_extend_on_labels_and_bijectivity():
    rng = random.Random(31)
    m = MA3
    for lab in m.labels:
        for e in (-2, -1, 1, 3):
            assert m.tau_extend_root(e, lab.root) == m.labels[m.tau(lab.index, e)].root
    assert m.tau_extend_root(4, (0, 0, 0)) == (0, 0, 0)
    for _ in range(60):
        gamma = tuple(rng.randint(-12, 12) for _ in range(3))
        for e in (1, 2, 5):
            assert m.tau_extend_root(-e, m.tau_extend_root(e, gamma)) == gamma


def test_uplus_a2_sum_is_the_label_of_the_weight_sum():
    # omega_1 + (-omega_1 + omega_2) = omega_2: phi_c is linear, so the root-side
    # sum of the pair is the root label of omega_2, and the companion is 0.
    ids = by_origin(MA2)
    s, u = MA2.uplus(ids[(0, 0)], ids[(0, 1)])
    assert s == MA2.labels[MA2.id_by_weight[(0, 1)]].root and u == (0, 0)


def test_uplus_rank_one_pair_is_zero():
    d = make_datum("A1xA1")
    m = build_model(d, all_coxeter_elements(d)[0])
    ids = by_origin(m)
    s, u = m.uplus(ids[(0, 0)], ids[(0, 1)])
    assert s == (0, 0) and u == (0, 0)


def test_uplus_requires_exchangeable_pair():
    ids = by_origin(MA2)
    with pytest.raises(ModelError):
        MA2.uplus(ids[(0, 0)], ids[(1, 0)])    # compatible pair


def test_uplus_expansion_support_properties():
    # Supports of a+g and a(+)g consist of labels compatible with a, g, and
    # with everything compatible with both.
    for label in ("A3", "C3"):
        d = make_datum(label)
        m = build_model(d, coxeter_from_order(d, tuple(range(3))))
        for (c1, c2, a, b) in m.adjacent_cluster_pairs():
            s, u = m.uplus(a, b)
            common = [k for k in range(len(m.labels))
                      if m.compat(k, a) == 0 == m.compat(a, k)
                      and m.compat(k, b) == 0 == m.compat(b, k) and k not in (a, b)]
            for point in (s, u):
                for k in m.expand_root(point):
                    assert m.compat(a, k) == 0 and m.compat(k, a) == 0
                    assert m.compat(b, k) == 0 and m.compat(k, b) == 0
                    for other in common:
                        assert m.compat(other, k) == 0


def test_exchangeable_iff_adjacent():
    # Adjacent clusters exchange labels with mutual degree one, and the
    # normalized dependence is the expansion of the sum over the shared face.
    for label in ("A3", "B2"):
        d = make_datum(label)
        m = build_model(d, all_coxeter_elements(d)[0])
        for (c1, c2, a, b) in m.adjacent_cluster_pairs():
            assert m.compat(a, b) == 1 and m.compat(b, a) == 1
            shared = set(m.clusters()[c1]) & set(m.clusters()[c2])
            s, _ = m.uplus(a, b)
            assert set(m.expand_root(s)) <= shared


def test_sigma_rules_and_preservation():
    m = MA3
    for i in m.c.initial_nodes():
        tgt, mp = sigma_map(m, i)
        for j in range(3):
            if j == i:
                alpha_i = tuple(1 if k == i else 0 for k in range(3))
                assert tgt.labels[mp[m.neg_id[i]]].root == alpha_i
            else:
                assert mp[m.neg_id[j]] == tgt.neg_id[j]
        L = len(m.labels)
        for a in range(L):
            assert tgt.tau(mp[a]) == mp[m.tau(a)]
            for b in range(L):
                assert m.compat(a, b) == tgt.compat(mp[a], mp[b])


def test_sigma_requires_initial():
    with pytest.raises(ModelError):
        sigma_map(MA3, 1)


def test_bar_map_properties():
    for label in ("A3", "C3", "G2"):
        d = make_datum(label)
        m = build_model(d, coxeter_from_order(d, tuple(range(d.n))))
        tgt, mp = bar_map(m)
        L = len(m.labels)
        for a in range(L):
            if not m.labels[a].is_negative:
                assert tgt.labels[mp[a]].root == m.labels[a].root
            for b in range(L):
                assert m.compat(a, b) == tgt.compat(mp[a], mp[b])
        back, mp2 = bar_map(tgt)
        assert all(mp2[mp[a]] == a for a in range(L))


def test_iota_preserves_compat_and_identity_on_positives():
    for nodes in ((0, 1), (1, 2), (0, 2), (0,)):
        sub, emb, node_list = iota_map(MA3, nodes)
        for lab in sub.labels:
            if not lab.is_negative:
                parent = MA3.labels[emb[lab.index]]
                full = [0] * 3
                for pos, i in enumerate(node_list):
                    full[i] = lab.root[pos]
                assert parent.root == tuple(full)
        ls = len(sub.labels)
        for a in range(ls):
            for b in range(ls):
                assert sub.compat(a, b) == MA3.compat(emb[a], emb[b])


def test_spaced_labels_are_compatible():
    # Supports pairwise non-adjacent => degree zero, in both orders.
    for label in ("A3", "A4", "D4"):
        d = make_datum(label)
        m = build_model(d, all_coxeter_elements(d)[0])
        L = len(m.labels)
        for a in range(L):
            for b in range(L):
                if a != b and spaced(d, support_of_label(m, a), support_of_label(m, b)):
                    assert m.compat(a, b) == 0


def test_bipartite_oracle_requires_connected():
    with pytest.raises(ModelError):
        BipartiteOracle(make_datum("A1xA1"))


def test_bipartite_oracle_tminus_images():
    oracle = BipartiteOracle(A3)
    m = build_model(A3, oracle.t)
    tm = oracle.t_minus_map(m)
    # t_-(-alpha_i) = -beta_i^t for i in I_+, t_-(alpha_i) = -alpha_i for i in I_-.
    for i in oracle.plus:
        neg = oracle.id_by_root[tuple(-1 if k == i else 0 for k in range(3))]
        assert m.labels[tm[neg]].is_negative and m.labels[tm[neg]].node == i
    for i in oracle.minus:
        pos = oracle.id_by_root[tuple(1 if k == i else 0 for k in range(3))]
        assert m.labels[tm[pos]].root == tuple(-1 if k == i else 0 for k in range(3))


def test_bipartite_oracle_taueps_fixes_opposite_negatives():
    oracle = BipartiteOracle(A3)
    for i in oracle.minus:
        neg = oracle.id_by_root[tuple(-1 if k == i else 0 for k in range(3))]
        assert oracle.tau(1, neg) == neg
    for i in oracle.plus:
        neg = oracle.id_by_root[tuple(-1 if k == i else 0 for k in range(3))]
        assert oracle.tau(-1, neg) == neg


def test_bipartite_oracle_degree_matches_model():
    for label in ("A3", "C3"):
        d = make_datum(label)
        oracle = BipartiteOracle(d)
        m = build_model(d, oracle.t)
        tm = oracle.t_minus_map(m)
        L = len(oracle.roots)
        for a in range(L):
            assert m.tau(tm[a]) == tm[oracle.tau(-1, oracle.tau(1, a))]
            for b in range(L):
                assert oracle.compat(a, b) == m.compat(tm[a], tm[b])


def test_model_json_dump_shape():
    data = MA2.to_json_dict()
    assert data["datum"] == "A2" and data["coxeter"] == [1, 2]
    assert len(data["labels"]) == 5 and len(data["clusters"]) == 5
    assert len(data["compatibility"]) == 5


def test_exchangeable_pairs_are_exactly_exchanged_pairs():
    # Mutual degree one <=> the pair is exchanged across some adjacent cluster pair.
    for label in ("A3", "B2", "C3"):
        d = make_datum(label)
        m = build_model(d, all_coxeter_elements(d)[0])
        L = len(m.labels)
        exchanged = {tuple(sorted((a, b))) for (_, _, a, b) in m.adjacent_cluster_pairs()}
        degree_one = {tuple(sorted((a, b))) for a in range(L) for b in range(a + 1, L)
                      if m.compat(a, b) == 1 and m.compat(b, a) == 1}
        assert exchanged == degree_one


def test_support_of_negative_labels_is_singleton():
    # supp(-beta_i^c) = {i}, independent of the actual root coordinates.
    for k in range(3):
        assert support_of_label(MA3, MA3.neg_id[k]) == {k}
    assert support_of_label(MA3, MA3.id_by_root[(1, 1, 0)]) == {0, 1}


def test_b2_hand_computed_golden():
    # Fully hand-derived data for B2 (a_12 = -1, a_21 = -2), c = s1s2:
    # beta_1 = alpha1 + 2 alpha2, beta_2 = alpha2; two 3-orbits
    #   -b1 -> a1 -> b1  and  -b2 -> a1+a2 -> b2,
    # and the degree table below follows from the tau walk by hand.
    d = make_datum("B2")
    m = build_model(d, coxeter_from_order(d, (0, 1)))
    assert m.beta == {0: (1, 2), 1: (0, 1)}
    roots = [m.labels[k].root for k in range(6)]
    assert roots == [(-1, -2), (1, 0), (1, 2), (0, -1), (1, 1), (0, 1)]
    expected = (
        (0, 1, 1, 0, 1, 0),
        (1, 0, 1, 0, 0, 1),
        (1, 1, 0, 1, 0, 0),
        (0, 0, 2, 0, 1, 1),
        (2, 0, 0, 1, 0, 1),
        (0, 2, 0, 1, 1, 0),
    )
    assert m.compat_table() == expected
    # the hexagon: six two-element clusters in a cycle
    assert tuple(m.clusters()) == ((0, 3), (0, 5), (1, 3), (1, 4), (2, 4), (2, 5))
    # mixed degrees (1 one way, 2 the other) are not exchangeable
    assert m.compat(0, 4) == 1 and m.compat(4, 0) == 2
    exchanged = {tuple(sorted((a, b))) for (_, _, a, b) in m.adjacent_cluster_pairs()}
    assert (0, 4) not in exchanged and (1, 5) not in exchanged and (2, 3) not in exchanged


def _subsets(n):
    return [tuple(i for i in range(n) if mask >> i & 1) for mask in range(1, 1 << n)]


def _reachable_submodels(model):
    seen, stack = {}, [model]
    while stack:
        for sub, _, _ in stack.pop()._restrictions.values():
            if id(sub) not in seen:
                seen[id(sub)] = sub
                stack.append(sub)
    return list(seen.values())


def test_restriction_of_restriction_is_shared():
    # One sub-model per node subset, whichever recursion path reaches it, and
    # the twisted inclusions compose.
    for label, order in (("B4", (2, 0, 3, 1)), ("E6", tuple(range(6)))):
        d = make_datum(label)
        m = build_model(d, coxeter_from_order(d, order))
        for J in _subsets(d.n):
            sub_j, emb_j, _ = m.restriction(J)
            for K in _subsets(len(J)):
                sub_k, emb_k, _ = sub_j.restriction(K)
                direct, emb_direct, _ = m.restriction(tuple(J[k] for k in K))
                assert sub_k is direct
                assert tuple(emb_j[x] for x in emb_k) == emb_direct


def test_expansion_stream_builds_one_model_per_subdiagram():
    d = make_datum("E6")
    m = ClusterModel(d, coxeter_from_order(d, tuple(range(6))))
    rng = random.Random(6)
    for _ in range(500):
        m.expand_root(tuple(rng.randint(-20, 20) for _ in range(6)))
    subs = _reachable_submodels(m)
    assert subs
    assert len({s.datum for s in subs}) == len(subs) <= 2 ** 6


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "D4", "F4", "G2", "A1xA2"])
def test_adjacent_cluster_pairs_match_brute_force(label):
    d = make_datum(label)
    m = build_model(d, coxeter_from_order(d, tuple(range(d.n))))
    clusters = [set(cl) for cl in m.clusters()]
    brute = []
    for c1, first in enumerate(clusters):
        for c2 in range(c1 + 1, len(clusters)):
            if len(first & clusters[c2]) == d.n - 1:
                (a,), (b,) = first - clusters[c2], clusters[c2] - first
                brute.append((c1, c2, a, b))
    assert m.adjacent_cluster_pairs() == tuple(brute)


def test_models_keep_the_reduced_expression_they_were_built_for():
    # 1,3,2 and 3,1,2 are two reduced expressions of one Coxeter element of A1xA2
    d = make_datum("A1xA2")
    c1, c2 = coxeter_from_order(d, (0, 2, 1)), coxeter_from_order(d, (2, 0, 1))
    assert c1 == c2
    assert build_model(d, c1).c.order == (0, 2, 1)
    assert build_model(d, c2).c.order == (2, 0, 1)
    assert build_model(d, c1) is build_model(d, coxeter_from_order(d, (0, 2, 1)))


def test_ridge_in_three_clusters_is_an_error():
    import copy

    m = copy.copy(MA3)
    m._clusters = ClusterList(array("B", (0, 1, 2, 0, 1, 3, 0, 1, 4)), 3)
    m._adjacent = None
    with pytest.raises(ModelError, match="more than two clusters"):
        m.adjacent_cluster_pairs()
