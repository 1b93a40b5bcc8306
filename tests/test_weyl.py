"""Weyl elements, Coxeter elements, sorting words, singletons."""
from __future__ import annotations

import itertools
import random

import pytest

from coxfan.cartan import (
    generate_roots,
    make_datum,
    reflect_along,
    reflect_root,
    reflect_weight,
    weight_to_root_int,
)
from coxfan.linalg import identity_mat
from coxfan.model import build_model
from coxfan.weyl import (
    WeylElement,
    WeylError,
    all_coxeter_elements,
    bipartite_coxeter,
    bipartition,
    c_sorting_word,
    coxeter_from_order,
    elementary_move,
    enumerate_group,
    greedy_expression,
    identity_element,
    is_antisortable,
    is_sortable,
    longest_element,
    longest_word,
    node_involution,
    simple_reflection,
    render_word,
    singletons,
    w_m_word,
    word_to_element,
)

from paper_constructions import bipartite_via_leaf, connect_coxeter, textbook_reflection, textbook_word

A3 = make_datum("A3")
C = coxeter_from_order(A3, (0, 1, 2))


def is_negative(coords: tuple) -> bool:
    return all(x <= 0 for x in coords) and any(x < 0 for x in coords)


def length(w) -> int:
    """Number of positive roots that w sends to negative roots."""
    return sum(1 for r in generate_roots(w.datum).positive_roots if is_negative(w.apply_root(r)))


def test_length_changes_by_one():
    rng = random.Random(3)
    d = make_datum("B3")
    elems = enumerate_group(d)
    for _ in range(60):
        w = rng.choice(elems)
        i = rng.randrange(d.n)
        assert abs(length(w * simple_reflection(d, i)) - length(w)) == 1


def test_longest_element_properties():
    for label in ("A3", "C3", "B2", "G2", "D4"):
        d = make_datum(label)
        w0 = longest_element(d)
        assert w0 * w0 == identity_element(d)
        istar = node_involution(d)
        for i in range(d.n):
            e_i = tuple(1 if k == i else 0 for k in range(d.n))
            assert w0.apply_weight(e_i) == tuple(-1 if k == istar[i] else 0 for k in range(d.n))


@pytest.mark.parametrize("label", ["A3", "B3", "G2", "A1xA2", "D4"])
def test_group_and_singletons_are_ordered_by_length(label):
    d = make_datum(label)
    group = enumerate_group(d)
    assert group == sorted(group, key=lambda w: (length(w), w.mw))
    for c in all_coxeter_elements(d)[:4]:
        sing = singletons(c)
        assert sing == sorted(sing, key=lambda w: (length(w), w.mw))


def test_node_involution_values():
    assert node_involution(make_datum("A3")) == (2, 1, 0)
    assert node_involution(make_datum("C3")) == (0, 1, 2)
    assert node_involution(make_datum("A4")) == (3, 2, 1, 0)
    assert node_involution(make_datum("D4")) in ((0, 1, 2, 3), (0, 1, 3, 2))
    assert node_involution(make_datum("D4")) == (0, 1, 2, 3)  # even rank: -w0 = 1


NODE_INVOLUTION_TYPES = ([f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
                         + [f"C{n}" for n in range(3, 7)] + [f"D{n}" for n in range(4, 9)]
                         + ["E6", "E7", "E8", "F4", "G2", "A1xB2", "A2xG2"])


@pytest.mark.parametrize("label", NODE_INVOLUTION_TYPES)
def test_node_involution_reads_the_longest_element(label):
    d = make_datum(label)
    w0 = longest_element(d)
    want = []
    for i in range(d.n):
        col = [-w0.mw[k][i] for k in range(d.n)]
        assert sorted(col) == [0] * (d.n - 1) + [1]
        want.append(col.index(1))
    assert node_involution(d) == tuple(want)


def test_h_values_examples():
    assert C.h_values == (3, 2, 1)
    c3 = make_datum("C3")
    assert coxeter_from_order(c3, (0, 1, 2)).h_values == (3, 3, 3)
    a2 = make_datum("A2")
    assert coxeter_from_order(a2, (0, 1)).h_values == (2, 1)


def test_h_sums_to_coxeter_number():
    from coxfan.cartan import generate_roots

    for label in ("A4", "B3", "C4", "D4", "G2", "F4"):
        d = make_datum(label)
        istar = node_involution(d)
        h = generate_roots(d).coxeter_numbers
        for c in all_coxeter_elements(d):
            assert sum(c.h_values) == generate_roots(d).size
            for comp, hk in zip(d.components, h):
                for i in comp:
                    assert c.h_values[i] + c.h_values[istar[i]] == hk


def test_h_difference_bounded_by_distance():
    # Adjacent nodes differ by at most one; diagram distance d bounds the gap by d.
    d = make_datum("A4")
    for c in all_coxeter_elements(d):
        for (i, j) in d.edges:
            assert abs(c.h_values[i] - c.h_values[j]) <= 1


def test_coxeter_identity_is_orientation():
    c1 = coxeter_from_order(A3, (0, 2, 1))
    c2 = coxeter_from_order(A3, (2, 0, 1))   # differs by swapping non-adjacent 1,3
    assert c1 == c2
    assert c1.wel == c2.wel
    c3 = coxeter_from_order(A3, (1, 0, 2))
    assert c1 != c3


def test_all_coxeter_elements_count():
    # One per orientation of the (forest) diagram: 2^edges.
    assert len(all_coxeter_elements(A3)) == 4
    assert len(all_coxeter_elements(make_datum("D4"))) == 8
    assert len(all_coxeter_elements(make_datum("A1xA1"))) == 1
    assert len({c.wel.mw for c in all_coxeter_elements(make_datum("F4"))}) == 8
    assert len(all_coxeter_elements(make_datum("E6"))) == 32
    assert len(all_coxeter_elements(make_datum("E7"))) == 64


def _lex_least_topological_order(n: int, orientation) -> tuple:
    """The smallest permutation of the nodes, read as a word, with s_i before s_j for (i, j) in orientation."""
    return min(p for p in itertools.permutations(range(n))
               if all(p.index(i) < p.index(j) for i, j in orientation))


def test_all_coxeter_elements_are_written_in_lex_least_order():
    # --all-coxeter prints these orders, so each is pinned to its orientation.
    for label in ("A3", "D4", "A1xA1", "F4", "E6", "E7"):
        d = make_datum(label)
        cs = all_coxeter_elements(d)
        assert len({c.orientation for c in cs}) == 2 ** len(d.edges)
        assert [c.order for c in cs] == sorted(c.order for c in cs)
        for c in cs:
            if d.n <= 6:
                assert c.order == _lex_least_topological_order(d.n, c.orientation)
            # lex-least, letter by letter: each letter is the least node whose
            # predecessors in the orientation have all been written
            for k, i in enumerate(c.order):
                ready = [j for j in c.order[k:]
                         if not any((p, j) in c.orientation for p in c.order[k:])]
                assert i == min(ready)


def test_bipartite_elements():
    plus, minus = bipartition(A3)
    assert plus == (0, 2) and minus == (1,)
    t = bipartite_coxeter(A3, 1)
    assert t.order == (0, 2, 1)
    tinv = bipartite_coxeter(A3, -1)
    assert tinv == t.inverse()
    a2 = make_datum("A2")
    assert bipartite_coxeter(a2, 1).order == (0, 1)
    # exactly two orientations make every node a source or a sink
    bip = [c for c in all_coxeter_elements(A3)
           if set(c.initial_nodes()) | set(c.final_nodes()) == {0, 1, 2}]
    assert len(bip) == 2 and t in bip and tinv in bip


def test_elementary_move_examples():
    assert elementary_move(C, 0) == coxeter_from_order(A3, (1, 2, 0))
    a4 = make_datum("A4")
    c4 = coxeter_from_order(a4, (0, 1, 2, 3))
    # move by s1 then s2 lands on s1s3s4s2
    assert elementary_move(elementary_move(c4, 0), 1) == coxeter_from_order(a4, (0, 2, 3, 1))
    with pytest.raises(WeylError):
        elementary_move(C, 1)   # s2 is neither initial nor final in s1s2s3


def test_elementary_move_involutive():
    for c in all_coxeter_elements(A3):
        for i in c.initial_nodes():
            moved = elementary_move(c, i)
            assert elementary_move(moved, i) == c


def test_connect_coxeter_conjugation():
    for d in (A3, make_datum("B3")):
        cs = all_coxeter_elements(d)
        for c1 in cs[:2]:
            for c2 in cs:
                w = connect_coxeter(c1, c2)
                wel = word_to_element(d, w)
                assert wel * c1.wel * wel.inverse() == c2.wel


def test_connect_trivial_and_single_move():
    assert connect_coxeter(C, C) == ()
    target = coxeter_from_order(A3, (1, 2, 0))
    w = connect_coxeter(C, target)
    wel = word_to_element(A3, w)
    assert wel * C.wel * wel.inverse() == target.wel


def test_connect_avoiding_any_single_node():
    d = make_datum("A4")
    cs = all_coxeter_elements(d)
    rng = random.Random(2)
    for _ in range(10):
        c1, c2 = rng.choice(cs), rng.choice(cs)
        i = rng.randrange(4)
        w = connect_coxeter(c1, c2, avoid=i)
        assert i not in w
        wel = word_to_element(d, w)
        assert wel * c1.wel * wel.inverse() == c2.wel


def test_bipartite_via_leaf_avoids_leaf_and_mate():
    for d in (A3, make_datum("B3"), make_datum("A4")):
        leaves = [i for i in range(d.n) if len(d.neighbors(i)) == 1]
        for c in all_coxeter_elements(d):
            for leaf in leaves:
                t, w = bipartite_via_leaf(c, leaf)
                mate = d.neighbors(leaf)[0]
                assert leaf not in w and mate not in w
                wel = word_to_element(d, w)
                assert wel * t.wel * wel.inverse() == c.wel


def test_greedy_expression():
    assert greedy_expression(C) == (0, 1, 2)
    a4 = make_datum("A4")
    c = coxeter_from_order(a4, (1, 3, 0, 2))    # s2s4s1s3
    g = greedy_expression(c)
    h = c.h_values
    assert all(h[g[k]] >= h[g[k + 1]] for k in range(3))
    # both s2s4s1s3 and s4s2s1s3 are greedy words for this element
    for word in ((1, 3, 0, 2), (3, 1, 0, 2)):
        assert coxeter_from_order(a4, word) == c
        assert all(h[word[k]] >= h[word[k + 1]] for k in range(3))


def test_greedy_expression_is_an_expression_of_c():
    for label in ("A4", "B4", "D4", "F4"):
        d = make_datum(label)
        for c in all_coxeter_elements(d):
            g = greedy_expression(c)
            assert coxeter_from_order(d, g) == c


def test_w_m_word_a3():
    word, blocks = w_m_word(C, 3)
    assert word == (0, 1, 2, 0, 1, 0)
    assert word_to_element(A3, word) == longest_element(A3)
    assert [sorted(b) for b in blocks] == [[0, 1, 2], [0, 1], [0]]
    with pytest.raises(WeylError):
        w_m_word(C, 4)


def test_w_m_fixes_small_powers():
    # c^m omega_i = w_m omega_i for m <= h(i;c)
    for c in all_coxeter_elements(A3):
        for m in range(0, c.max_h() + 1):
            word, _ = w_m_word(c, m)
            wel = word_to_element(A3, word)
            lam = {i: tuple(1 if k == i else 0 for k in range(3)) for i in range(3)}
            for i in range(3):
                if m <= c.h_values[i]:
                    power = lam[i]
                    for _ in range(m):
                        power = c.wel.apply_weight(power)
                    assert wel.apply_weight(lam[i]) == power


def test_c_sorting_word_examples():
    w = word_to_element(A3, (1, 2, 1))
    word, blocks = c_sorting_word(C, w)
    assert [sorted(b) for b in blocks] == [[1, 2], [1]]
    assert is_sortable(C, w)
    assert not is_antisortable(C, w)

    w = word_to_element(A3, (1, 2, 0, 1, 0))
    assert not is_sortable(C, w) and is_antisortable(C, w)

    w = word_to_element(A3, (1, 2, 1, 0))
    assert not is_sortable(C, w) and not is_antisortable(C, w)

    assert c_sorting_word(C, identity_element(A3))[0] == ()


def test_sorting_word_independent_of_expression():
    d = make_datum("A4")
    rng = random.Random(9)
    elems = enumerate_group(d)
    c = coxeter_from_order(d, (1, 3, 0, 2))
    alt_orders = [o for o in itertools.permutations(range(d.n)) if coxeter_from_order(d, o) == c]
    assert len(alt_orders) > 1
    for _ in range(20):
        w = rng.choice(elems)
        blocks = {c_sorting_word(coxeter_from_order(d, o), w)[1] for o in alt_orders}
        assert len(blocks) == 1


def test_sorting_word_of_w0_is_w_mc():
    for label in ("A3", "B3", "C3", "G2", "A4", "D4"):
        d = make_datum(label)
        w0 = longest_element(d)
        for c in all_coxeter_elements(d):
            _, blocks = w_m_word(c, c.max_h())
            _, extracted = c_sorting_word(c, w0)
            assert blocks == extracted


def test_w0_and_identity_are_singletons():
    for c in all_coxeter_elements(A3):
        s = singletons(c)
        mats = {w.mw for w in s}
        assert identity_element(A3).mw in mats
        assert longest_element(A3).mw in mats


def test_a2_singletons_are_the_four_prefixes():
    a2 = make_datum("A2")
    c = coxeter_from_order(a2, (0, 1))
    s = singletons(c)
    expected = [(), (0,), (0, 1), (0, 1, 0)]
    assert {w.mw for w in s} == {word_to_element(a2, e).mw for e in expected}


def test_singletons_match_brute_force():
    for label in ("A2", "B2", "A3", "B3", "C3", "G2"):
        d = make_datum(label)
        group = enumerate_group(d)
        for c in all_coxeter_elements(d):
            brute = {w.mw for w in group if is_sortable(c, w) and is_antisortable(c, w)}
            assert {w.mw for w in singletons(c)} == brute


def test_enumerate_group_orders():
    assert len(enumerate_group(make_datum("A3"))) == 24
    assert len(enumerate_group(make_datum("B3"))) == 48
    assert len(enumerate_group(make_datum("G2"))) == 12
    with pytest.raises(WeylError):
        enumerate_group(make_datum("B4"), cap=100)


def test_word_helpers():
    assert render_word((0, 1, 0)) == "s1s2s1"
    assert render_word(()) == "e"
    assert length(word_to_element(make_datum("A2"), (0, 1, 0))) == 3
    assert length(word_to_element(make_datum("A2"), (0, 0))) == 0


def _brute_lex_first_blocks(datum, c, w):
    """Oracle: enumerate subwords of c^N in lexicographic position order.

    Returns the factorization blocks of the first subword realizing w, found
    by depth-first search over position indices (no descent-set shortcuts).
    """
    from coxfan.weyl import identity_element

    L = length(w)
    n = datum.n
    copies = L  # always enough: at least one letter per pass
    letters = list(c.order) * copies
    target = w.mw
    best = None

    def dfs(pos, prefix, taken):
        nonlocal best
        if best is not None:
            return
        if len(taken) == L:
            if prefix.mw == target:
                best = tuple(taken)
            return
        if len(letters) - pos < L - len(taken):
            return
        for p in range(pos, len(letters)):
            nxt = prefix * simple_reflection(datum, letters[p])
            if length(nxt) == len(taken) + 1:
                dfs(p + 1, nxt, taken + [p])
                if best is not None:
                    return

    dfs(0, identity_element(datum), [])
    assert best is not None
    blocks = []
    per_copy = len(c.order)
    for copy in range(copies):
        block = frozenset(letters[p] for p in best if copy * per_copy <= p < (copy + 1) * per_copy)
        if block:
            blocks.append(block)
    return tuple(blocks)


def test_sorting_word_matches_subword_enumeration():
    for label in ("A2", "B2", "G2", "A3"):
        d = make_datum(label)
        elems = enumerate_group(d)
        for c in all_coxeter_elements(d):
            for w in elems:
                letters, blocks = c_sorting_word(c, w)
                assert blocks == _brute_lex_first_blocks(d, c, w), (label, c.order, w.mw)
                assert word_to_element(d, letters) == w and len(letters) == length(w)


def test_antisortable_is_sortable_for_the_inverse_after_w0():
    for label in ("A3", "B3", "A1xB2"):
        d = make_datum(label)
        w0 = longest_element(d)
        for c in all_coxeter_elements(d):
            cinv = c.inverse()
            for w in enumerate_group(d):
                blocks = c_sorting_word(cinv, w * w0)[1]
                nested = all(blocks[k + 1] <= blocks[k] for k in range(len(blocks) - 1))
                assert is_antisortable(c, w) == nested, (label, c.order, w.mw)


def test_sorting_never_inverts_a_matrix(monkeypatch):
    d = make_datum("B3")
    elems = enumerate_group(d)

    def forbidden(self):
        raise AssertionError("WeylElement.inverse called")

    monkeypatch.setattr(WeylElement, "inverse", forbidden)
    for c in all_coxeter_elements(d):
        for w in elems:
            c_sorting_word(c, w)
            is_sortable(c, w)
            is_antisortable(c, w)


def test_h_gap_bounded_by_diagram_distance():
    for label in ("A4", "D4", "F4"):
        d = make_datum(label)
        # BFS distances in the diagram
        import collections

        dist = {}
        for s in range(d.n):
            dd = {s: 0}
            q = collections.deque([s])
            while q:
                x = q.popleft()
                for y in d.neighbors(x):
                    if y not in dd:
                        dd[y] = dd[x] + 1
                        q.append(y)
            dist[s] = dd
        for c in all_coxeter_elements(d):
            for i in range(d.n):
                for j in range(d.n):
                    assert abs(c.h_values[i] - c.h_values[j]) <= dist[i][j]


def test_singletons_match_brute_force_rank4():
    cases = [("A4", None), ("D4", None), ("B4", 0), ("C4", 0), ("F4", 0)]
    for label, only in cases:
        d = make_datum(label)
        group = enumerate_group(d)
        cs = all_coxeter_elements(d)
        picked = cs if only is None else [cs[only]]
        for c in picked:
            brute = {w.mw for w in group if is_sortable(c, w) and is_antisortable(c, w)}
            assert {w.mw for w in singletons(c)} == brute, (label, c.order)


def test_simple_reflection_rejects_out_of_range_nodes():
    d = make_datum("A3")
    for i in (-1, 3):
        with pytest.raises(WeylError):
            simple_reflection(d, i)
    for word, first in (((0, 3, 1), "s4"), ((-1,), "s0"), ((1, 4, 7), "s5")):
        with pytest.raises(WeylError, match=f"^{first} is not a simple reflection of A3$"):
            word_to_element(d, word)


WORD_TYPES = ("A1", "A2", "A3", "A4", "B3", "C3", "D4", "D5", "E6", "E7", "E8", "F4", "G2", "A1xB2")

# i* with w0 * omega_i = -omega_{i*} (Bourbaki numbering, 0-based): the diagram
# automorphism on A_n, D_5 and E_6, the identity on every other type here.
NODE_INVOLUTION = {
    "A1": (0,), "A2": (1, 0), "A3": (2, 1, 0), "A4": (3, 2, 1, 0),
    "D5": (0, 1, 2, 4, 3), "E6": (5, 1, 4, 3, 2, 0),
}


def same_element(w, v) -> bool:
    """Equal in weight and in root coordinates (the root matrix takes no part in ==)."""
    return w.mw == v.mw and w.mr == v.mr


@pytest.mark.parametrize("label", WORD_TYPES)
def test_word_to_element_is_the_product_of_textbook_reflections(label):
    d = make_datum(label)
    rng = random.Random(label)
    for i in range(d.n):
        assert same_element(simple_reflection(d, i), textbook_reflection(d, i))
    assert same_element(identity_element(d), textbook_word(d, ()))
    for _ in range(25):
        word = tuple(rng.randrange(d.n) for _ in range(rng.randint(0, 3 * d.n)))
        assert same_element(word_to_element(d, word), textbook_word(d, word)), word


@pytest.mark.parametrize("label", WORD_TYPES)
def test_longest_word_is_a_reduced_word_for_w0(label):
    d = make_datum(label)
    word = longest_word(d)
    w0 = textbook_word(d, word)
    assert len(word) == generate_roots(d).size == length(w0)          # reduced
    assert all(sum(row) == -1 for row in w0.mw)                        # w0 * rho = -rho
    assert same_element(longest_element(d), w0)
    istar = NODE_INVOLUTION.get(label, tuple(range(d.n)))
    assert node_involution(d) == istar
    for i, j in enumerate(istar):                                      # w0 omega_i = -omega_{i*}
        assert tuple(row[i] for row in w0.mw) == tuple(-(k == j) for k in range(d.n))


@pytest.mark.parametrize("label", ("A3", "B3", "G2"))
def test_reflection_words_act_as_c_inverse(label):
    """c's order, applied first to last, is c^{-1}: c^{-1} omega_i and beta_i^c
    against the inverse of c's textbook matrices, on every c."""
    d = make_datum(label)
    for c in all_coxeter_elements(d):
        assert same_element(c.wel, textbook_word(d, c.order))
        cinv = c.wel.inverse()
        model = build_model(d, c)
        for i, e in enumerate(identity_mat(d.n)):
            lowered = cinv.apply_weight(e)
            assert reflect_along(d, c.order, e, reflect_weight) == lowered, (c.order, i)
            phi = weight_to_root_int(d, tuple(a - b for a, b in zip(lowered, e)))
            assert model.labels[model.neg_id[i]].root == phi
            assert model.beta[i] == tuple(-x for x in phi), (c.order, i)
            assert reflect_along(d, c.order, e, reflect_root) == cinv.apply_root(e)
