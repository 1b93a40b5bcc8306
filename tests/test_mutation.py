"""Mutation oracle: Laurent arithmetic, seeds, exchange graphs, g-vectors."""
from __future__ import annotations

import json
import random
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coxfan import mutation
from coxfan.cartan import make_datum
from coxfan.cli import main
from coxfan.model import ClusterModel, build_model
from coxfan.mutation import (
    LaurentPoly,
    MutationError,
    b_of_coxeter,
    cluster_monomial,
    exact_div,
    exchange_graph,
    initial_seed,
    mutate,
    verify_exchange_relations,
    verify_g_vectors_principal,
)
from coxfan.weyl import all_coxeter_elements, coxeter_from_order

from paper_constructions import TupleLaurent, tuple_exact_div

A2 = make_datum("A2")
CA2 = coxeter_from_order(A2, (0, 1))


def test_laurent_basics():
    x = LaurentPoly.monomial((1, 0))
    y = LaurentPoly.monomial((0, 1))
    one = LaurentPoly.one(2)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (x + one) * (x + one) == x * x + LaurentPoly.monomial((0, 0), 2) * x + one
    assert not (x - x)
    assert LaurentPoly.monomial((-1, 2), 3).render() == "3*x1^-1*x2^2"


def test_exact_div():
    x = LaurentPoly.monomial((1,))
    one = LaurentPoly.one(1)
    p = (x + one) * (x * x + one)
    assert exact_div(p, x + one) == x * x + one
    assert exact_div(p, x * x + one) == x + one
    inv = LaurentPoly.monomial((-1,))
    assert exact_div(one + x, x) == inv + one
    with pytest.raises(MutationError):
        exact_div(x + one, LaurentPoly.monomial((0,), 2))
    with pytest.raises(MutationError):
        exact_div(x * x + one, x + one)


@st.composite
def laurent_terms(draw, n, size=5):
    """Up to ``size`` terms in n variables, exponents in [-6, 6], nonzero coefficients."""
    exps = st.tuples(*[st.integers(-6, 6)] * n)
    coeffs = st.integers(-4, 4).filter(bool)
    return draw(st.dictionaries(exps, coeffs, min_size=1, max_size=size))


def agrees(packed, ref) -> bool:
    return packed.exponent_terms() == sorted(ref.terms.items())


def raises_mutation_error(call) -> bool:
    try:
        call()
    except MutationError:
        return True
    return False


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(1, 8))
def test_packed_laurent_agrees_with_the_tuple_reference(data, n):
    terms = [data.draw(laurent_terms(n)) for _ in range(3)]
    (p, q, r), (rp, rq, rr) = [LaurentPoly(t) for t in terms], [TupleLaurent(t) for t in terms]
    for packed, ref in ((p, rp), (p + q, rp + rq), (p - q, rp - rq), (p - p, rp - rp),
                        (p * q, rp * rq), (p * q * r, rp * rq * rr), ((p + q) * r, (rp + rq) * rr)):
        assert agrees(packed, ref)
        assert packed.render() == ref.render()
        if ref:
            e, c = packed.leading()
            assert (mutation._exponents([e], n)[0], c) == ref.leading()
    # the seed key orders polynomials as the reference key does
    polys, refs = (p, q, r, p * q, q - r), (rp, rq, rr, rp * rq, rq - rr)
    assert (sorted(range(5), key=lambda k: polys[k].key())
            == sorted(range(5), key=lambda k: refs[k].key()))
    # exact quotients come back; refused ones raise on both sides
    assert agrees(exact_div(p * q, q), tuple_exact_div(rp * rq, rq)) and exact_div(p * q, q) == p
    assert agrees(exact_div(p * q * r, p * r), rq)
    two = LaurentPoly.monomial((0,) * n, 2)
    if p.leading()[1] % 2:   # a leading coefficient that 2 * q cannot divide
        assert raises_mutation_error(lambda: exact_div(p, q * two))
        with pytest.raises(ValueError):
            tuple_exact_div(rp, rq * TupleLaurent({(0,) * n: 2}))
    pq = rp * rq
    assume(len(rq.terms) > 1 and pq)
    below = min(pq.terms)[:-1] + (min(pq.terms)[-1] - 1,)   # lex below every term of p * q
    assert raises_mutation_error(lambda: exact_div(p * q + LaurentPoly.monomial(below), q))
    with pytest.raises(ValueError):
        tuple_exact_div(pq + TupleLaurent({below: 1}), rq)


def test_exponents_outside_the_packed_fields_raise():
    top = mutation._LIMIT
    x = LaurentPoly.monomial((top, 0))
    assert x.exponent_terms() == [((top, 0), 1)] and x.bound == top
    assert LaurentPoly.monomial((0, -top)).exponent_terms() == [((0, -top), 1)]
    with pytest.raises(MutationError):
        LaurentPoly.monomial((top + 1, 0))
    with pytest.raises(MutationError):
        LaurentPoly({(0, 1): 1, (-top - 1, 0): 3})
    half = LaurentPoly.monomial((top // 2 + 1, 0))
    with pytest.raises(MutationError):      # (top + 1, 0) would carry into its neighbour
        half * half
    low, high = LaurentPoly.monomial((0, -top // 2 - 1)), LaurentPoly.monomial((0, top // 2 + 1))
    with pytest.raises(MutationError):      # the quotient (0, -top - 1) leaves its field
        exact_div(low, high)
    with pytest.raises(MutationError):
        exact_div(LaurentPoly.monomial((0, -top)) + LaurentPoly.one(2), LaurentPoly.monomial((0, top)))


def test_b_of_coxeter_examples():
    assert b_of_coxeter(A2, CA2) == ((0, 1), (-1, 0))
    assert b_of_coxeter(A2, CA2.inverse()) == ((0, -1), (1, 0))
    b2 = make_datum("B2")
    c = coxeter_from_order(b2, (0, 1))
    assert b_of_coxeter(b2, c) == ((0, 1), (-2, 0))
    a1a1 = make_datum("A1xA1")
    assert b_of_coxeter(a1a1, coxeter_from_order(a1a1, (0, 1))) == ((0, 0), (0, 0))


def test_b_negates_under_inverse():
    for label in ("A3", "C3", "G2"):
        d = make_datum(label)
        for c in all_coxeter_elements(d):
            b = b_of_coxeter(d, c)
            binv = b_of_coxeter(d, c.inverse())
            assert all(b[i][j] == -binv[i][j] for i in range(d.n) for j in range(d.n))


def test_mutation_involutive():
    rng = random.Random(3)
    for label in ("A2", "B2", "A3"):
        d = make_datum(label)
        c = all_coxeter_elements(d)[0]
        b0 = b_of_coxeter(d, c)
        seed = initial_seed(d, c)
        for _ in range(12):
            k = rng.randrange(d.n)
            seed = mutate(seed, k, b0)
            assert mutate(mutate(seed, k, b0), k, b0) == seed


def test_a1_exchange_rule():
    d = make_datum("A1")
    c = coxeter_from_order(d, (0,))
    seed = initial_seed(d, c)
    new = mutate(seed, 0, b_of_coxeter(d, c))
    # empty products: x * x' = 1 + 1
    assert new.cluster[0] == LaurentPoly({(-1,): 2})
    assert new.gcols[0] == (-1,)


def test_a2_pentagon_period_five():
    b0 = b_of_coxeter(A2, CA2)
    seed = initial_seed(A2, CA2)
    s = seed
    ks = [0, 1, 0, 1, 0]
    for k in ks:
        s = mutate(s, k, b0)
    # after five alternating mutations the cluster comes back as a set
    assert sorted(p.key() for p in s.cluster) == sorted(p.key() for p in seed.cluster)


def test_laurent_phenomenon_along_random_walks():
    rng = random.Random(11)
    for label in ("B2", "G2", "A3"):
        d = make_datum(label)
        c = all_coxeter_elements(d)[0]
        b0 = b_of_coxeter(d, c)
        seed = initial_seed(d, c)
        for _ in range(25):
            seed = mutate(seed, rng.randrange(d.n), b0)
            for p in seed.cluster:
                assert all(isinstance(coeff, int) for coeff in p.terms.values())


def test_exchange_graph_counts():
    expected = {"A2": (5, 5), "A3": (14, 9), "B2": (6, 6), "G2": (8, 8), "C3": (20, 12),
                "A1xA1": (4, 4)}
    for label, (n_seeds, n_vars) in expected.items():
        d = make_datum(label)
        c = coxeter_from_order(d, tuple(range(d.n)))
        g = exchange_graph(d, c)
        assert len(g.seeds) == n_seeds
        assert len(g.variables) == n_vars
        assert len(g.edges) == n_seeds * d.n // 2


def test_g_vectors_match_labels():
    for label in ("A2", "A3", "B2", "C2", "G2", "C3"):
        d = make_datum(label)
        for c in all_coxeter_elements(d):
            g = exchange_graph(d, c)
            m = build_model(d, c)
            assert set(g.variables) == {lab.weight for lab in m.labels}
            assert len(g.seeds) == len(m.clusters())


def test_exchange_relations_hold():
    for label in ("A2", "A3", "B2", "G2", "C3", "A1xA1", "A1xA2"):
        d = make_datum(label)
        c = coxeter_from_order(d, tuple(range(d.n)))
        g = exchange_graph(d, c)
        m = build_model(d, c)
        assert verify_exchange_relations(g, m) == []


def _same_companion(monkeypatch):
    """Make uplus return (a + b, a + b): a wrong companion on every edge off rank one."""
    true_uplus = ClusterModel.uplus

    def wrong(self, a, b):
        s, _ = true_uplus(self, a, b)
        return s, s

    monkeypatch.setattr(ClusterModel, "uplus", wrong)


@pytest.mark.parametrize("label", ["A2", "B3"])
def test_wrong_companion_fails_every_edge(monkeypatch, label):
    d = make_datum(label)
    c = coxeter_from_order(d, tuple(range(d.n)))
    g, m = exchange_graph(d, c), build_model(d, c)
    _same_companion(monkeypatch)
    problems = verify_exchange_relations(g, m)
    assert [p[0] for p in problems] == ["identity-failed"] * len(g.edges)
    assert [p[1:] for p in problems] == [e[2:] for e in g.edges]


@pytest.mark.parametrize("label", ["A2", "B3"])
def test_wrong_companion_fails_the_exchange_suite(monkeypatch, capsys, label):
    d = make_datum(label)
    g1, g2 = exchange_graph(d, coxeter_from_order(d, tuple(range(d.n)))).edges[0][2:]
    witness = f"; first: identity-failed on g-vectors {list(g1)}, {list(g2)}"
    _same_companion(monkeypatch)
    assert main(["verify", label, "--suite", "exchange"]) == 1
    lines = capsys.readouterr().out.splitlines()
    rows = [line for line in lines if "exchange/exchange-relations" in line]
    assert len(rows) == 1 and rows[0].startswith("[FAIL]") and rows[0].endswith(witness)
    assert lines[-1] == "FAILED"
    assert main(["verify", label, "--suite", "exchange", "--format", "json"]) == 1
    checks = {ch["name"]: ch for ch in json.loads(capsys.readouterr().out)["checks"]}
    assert not checks["exchange-relations"]["ok"]
    assert checks["exchange-relations"]["detail"].endswith(witness)


def test_g_vector_mismatch_names_its_first_witness(monkeypatch):
    import coxfan.verify as V

    graph = exchange_graph(A2, CA2)
    one = LaurentPoly.one(2)

    def rows():
        return {r.name: (r.ok, r.detail) for r in V.suite_exchange(A2, CA2)}

    assert rows()["g-vectors-are-labels"] == (True, "5 variables vs 5 labels")
    monkeypatch.setattr(V, "exchange_graph", lambda d, c: replace(
        graph, variables={**graph.variables, (7, 7): one}))
    assert rows()["g-vectors-are-labels"] == (
        False, "6 variables vs 5 labels; first: g-vector [7, 7] is not a label weight")
    # a label weight the walk never reached; the exchange check would look it up, so skip it
    monkeypatch.setattr(V, "verify_exchange_relations", lambda g, m: [])
    monkeypatch.setattr(V, "exchange_graph", lambda d, c: replace(
        graph, variables={g: p for g, p in graph.variables.items() if g != (0, 1)}))
    assert rows()["g-vectors-are-labels"] == (
        False, "4 variables vs 5 labels; first: label weight [0, 1] is not a g-vector")


def test_exchange_check_stays_on_the_root_side(monkeypatch):
    import coxfan.linalg

    def forbidden(*args):
        raise AssertionError("the exchange check left the root side")

    d = make_datum("B3")
    c = coxeter_from_order(d, (2, 0, 1))
    g, m = exchange_graph(d, c), build_model(d, c)
    monkeypatch.setattr(ClusterModel, "expand_weight", forbidden)
    monkeypatch.setattr(coxfan.linalg, "solve_fraction_free", forbidden)
    assert verify_exchange_relations(g, m) == []


def test_edge_off_the_labels_is_missing_label():
    g, m = exchange_graph(A2, CA2), build_model(A2, CA2)
    (a, b, g1, g2), rest = g.edges[0], g.edges[1:]
    bad = replace(g, edges=((a, b, (7, 7), g2),) + rest)
    assert verify_exchange_relations(bad, m) == [("missing-label", (7, 7), g2)]


def test_pentagon_relation_explicit():
    g = exchange_graph(A2, CA2)
    m = build_model(A2, CA2)
    lhs = g.variables[(1, 0)] * g.variables[(-1, 1)]
    rhs = g.variables[(0, 1)] + LaurentPoly.one(2)
    assert lhs == rhs
    assert cluster_monomial(g, m, (0, 0)) == LaurentPoly.one(2)
    omega2 = m.labels[m.id_by_weight[(0, 1)]].root
    assert cluster_monomial(g, m, omega2) == g.variables[(0, 1)]


def test_a1xa1_degenerate_identity():
    d = make_datum("A1xA1")
    c = coxeter_from_order(d, (0, 1))
    g = exchange_graph(d, c)
    m = build_model(d, c)
    two = LaurentPoly.monomial((0, 0), 2)
    assert g.variables[(1, 0)] * g.variables[(-1, 0)] == two
    assert g.variables[(0, 1)] * g.variables[(0, -1)] == two


def test_principal_grading_matches_matrix_recurrence():
    for label in ("A2", "A3", "B2"):
        d = make_datum(label)
        for c in all_coxeter_elements(d):
            m = build_model(d, c)
            assert verify_g_vectors_principal(d, c) == len(m.labels)


def test_graph_connected():
    g = exchange_graph(A2, CA2)
    adj = {i: set() for i in range(len(g.seeds))}
    for (a, b, _, _) in g.edges:
        adj[a].add(b)
        adj[b].add(a)
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    assert len(seen) == len(g.seeds)


def test_oracle_edges_match_model_exchangeable_pairs():
    # The exchanged g-vector pairs across seeds are exactly the weight pairs
    # of mutual compatibility degree one.
    for label in ("A2", "A3", "B2", "C3"):
        d = make_datum(label)
        c = coxeter_from_order(d, tuple(range(d.n)))
        g = exchange_graph(d, c)
        m = build_model(d, c)
        oracle_pairs = {frozenset((g1, g2)) for (_, _, g1, g2) in g.edges}
        model_pairs = set()
        for a in range(len(m.labels)):
            for b in range(a + 1, len(m.labels)):
                if m.compat(a, b) == 1 and m.compat(b, a) == 1:
                    model_pairs.add(frozenset((m.labels[a].weight, m.labels[b].weight)))
        assert oracle_pairs == model_pairs


def test_principal_grading_more_types():
    # A1xA2: a product with a rank-2 component; B3: non-simply-laced rank 3
    for label in ("G2", "C3", "A1xA1", "A1xA2", "B3"):
        d = make_datum(label)
        c = coxeter_from_order(d, tuple(range(d.n)))
        m = build_model(d, c)
        assert verify_g_vectors_principal(d, c) == len(m.labels)
