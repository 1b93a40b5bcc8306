"""Weyl group elements, Coxeter elements, and sorting-word combinatorics.

Elements act on weight coordinates (the stored matrix) and, in parallel, on
root coordinates; matrix equality is the canonical notion of element identity.
Coxeter elements are identified by their acyclic orientation of the diagram.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .cartan import CartanDatum, generate_roots, reflect_along, reflect_root, reflect_weight, unit_node
from .linalg import identity_mat, int_mat_inv, mat_mul, mat_vec


class WeylError(ValueError):
    pass


@dataclass(frozen=True)
class WeylElement:
    datum: CartanDatum
    mw: tuple                                   # action on weight coordinates
    mr: tuple = field(compare=False, repr=False)  # same action on root coordinates

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        return WeylElement(self.datum, mat_mul(self.mw, other.mw), mat_mul(self.mr, other.mr))

    def inverse(self) -> "WeylElement":
        return WeylElement(self.datum, int_mat_inv(self.mw), int_mat_inv(self.mr))

    def apply_weight(self, coords: tuple) -> tuple:
        return mat_vec(self.mw, coords)

    def apply_root(self, coords: tuple) -> tuple:
        return mat_vec(self.mr, coords)


@lru_cache(maxsize=None)
def identity_element(datum: CartanDatum) -> WeylElement:
    return word_to_element(datum, ())


@lru_cache(maxsize=None)
def simple_reflection(datum: CartanDatum, i: int) -> WeylElement:
    return word_to_element(datum, (i,))


def word_to_element(datum: CartanDatum, letters) -> WeylElement:
    """The product of the word's simple reflections: column j of each matrix is
    e_j reflected along the reversed word, in weight and in root coordinates."""
    letters = tuple(letters)
    bad = next((i for i in letters if not 0 <= i < datum.n), None)
    if bad is not None:
        raise WeylError(f"s{bad + 1} is not a simple reflection of {datum.label}")
    rev, basis = letters[::-1], identity_mat(datum.n)
    mw = tuple(zip(*(reflect_along(datum, rev, e, reflect_weight) for e in basis)))
    mr = tuple(zip(*(reflect_along(datum, rev, e, reflect_root) for e in basis)))
    return WeylElement(datum, mw, mr)


def render_word(letters) -> str:
    """A word in the simple reflections as text: s1s2s1, or e for the empty word."""
    return "".join(f"s{i + 1}" for i in letters) if letters else "e"


@lru_cache(maxsize=None)
def longest_element(datum: CartanDatum) -> WeylElement:
    return word_to_element(datum, longest_word(datum))


@lru_cache(maxsize=None)
def longest_word(datum: CartanDatum) -> tuple:
    """A reduced word for w0: the rho-sorting walk of w0 * rho = -rho."""
    word = _sort_by_rho(datum, tuple(range(datum.n)), (-1,) * datum.n)[0]
    if len(word) != generate_roots(datum).size:
        raise WeylError("longest-element walk produced a non-reduced word")
    return word


@lru_cache(maxsize=None)
def node_involution(datum: CartanDatum) -> tuple:
    """i* with w0 * omega_i = -omega_{i*}, each omega_i reflected along a reduced word of w0."""
    word = longest_word(datum)[::-1]
    out = []
    for e in identity_mat(datum.n):
        istar = unit_node(reflect_along(datum, word, e, reflect_weight), -1)
        if istar is None:
            raise WeylError("w0 column is not minus a fundamental weight")
        out.append(istar)
    return tuple(out)


# --- Coxeter elements ----------------------------------------------------------------

@dataclass(frozen=True)
class CoxeterElement:
    datum: CartanDatum
    orientation: frozenset                       # (i, j) meaning s_i precedes s_j, per edge
    order: tuple = field(compare=False)          # one reduced expression
    h_values: tuple = field(compare=False, repr=False)
    wel: WeylElement = field(compare=False, repr=False)

    def precedes(self, i: int, j: int) -> bool:
        """i << j: defined for nodes joined by an edge."""
        return (i, j) in self.orientation

    def initial_nodes(self) -> tuple:
        return tuple(
            i for i in range(self.datum.n)
            if all((i, j) in self.orientation for j in self.datum.neighbors(i))
        )

    def final_nodes(self) -> tuple:
        return tuple(
            i for i in range(self.datum.n)
            if all((j, i) in self.orientation for j in self.datum.neighbors(i))
        )

    def inverse(self) -> "CoxeterElement":
        return coxeter_from_order(self.datum, tuple(reversed(self.order)))

    def max_h(self) -> int:
        return max(self.h_values)

    def render(self) -> str:
        return render_word(self.order)


def coxeter_from_order(datum: CartanDatum, order) -> CoxeterElement:
    order = tuple(order)
    if sorted(order) != list(range(datum.n)):
        raise WeylError(f"{tuple(i + 1 for i in order)} is not a permutation of the nodes")
    pos = {i: k for k, i in enumerate(order)}
    orientation = frozenset(
        (i, j) if pos[i] < pos[j] else (j, i) for (i, j) in datum.edges
    )
    wel = word_to_element(datum, order)
    h_values = _h_values(datum, wel)
    c = CoxeterElement(datum, orientation, order, h_values, wel)
    if sum(h_values) != generate_roots(datum).size:
        raise WeylError("h-values do not sum to the number of positive roots")
    return c


def _h_values(datum: CartanDatum, c: WeylElement) -> tuple:
    istar = node_involution(datum)
    roots = generate_roots(datum)
    bound = max(roots.coxeter_numbers) + 2
    n = datum.n
    out = []
    for i in range(n):
        target = tuple(-1 if k == istar[i] else 0 for k in range(n))
        lam = tuple(1 if k == i else 0 for k in range(n))
        for m in range(1, bound + 1):
            lam = c.apply_weight(lam)
            if lam == target:
                out.append(m)
                break
        else:
            raise WeylError("c^m * omega_i never reached -omega_{i*}")
    return tuple(out)


def all_coxeter_elements(datum: CartanDatum) -> list:
    """Every Coxeter element, i.e. every orientation of the (forest) diagram.

    Each is written in the lex-least topological order of its orientation.
    """
    n, edges = datum.n, datum.edges
    out = []
    for mask in range(1 << len(edges)):
        preds = [set() for _ in range(n)]
        for k, (i, j) in enumerate(edges):
            if (mask >> k) & 1:
                i, j = j, i
            preds[j].add(i)                      # s_i precedes s_j
        order = []
        remaining = set(range(n))
        while remaining:
            i = min(k for k in remaining if not (preds[k] & remaining))
            order.append(i)
            remaining.discard(i)
        out.append(coxeter_from_order(datum, order))
    out.sort(key=lambda c: c.order)
    return out


@lru_cache(maxsize=None)
def bipartition(datum: CartanDatum) -> tuple:
    """Two-coloring (I_plus, I_minus); the smallest node of each component sits in I_plus."""
    n = datum.n
    color = [None] * n
    for comp in datum.components:
        color[comp[0]] = 1
        stack = [comp[0]]
        while stack:
            i = stack.pop()
            for j in datum.neighbors(i):
                if color[j] is None:
                    color[j] = -color[i]
                    stack.append(j)
                elif color[j] == color[i]:
                    raise WeylError("diagram is not bipartite")
    plus = tuple(i for i in range(n) if color[i] == 1)
    minus = tuple(i for i in range(n) if color[i] == -1)
    return plus, minus


def bipartite_coxeter(datum: CartanDatum, sign: int = 1) -> CoxeterElement:
    """t_plus * t_minus for sign=+1, t_minus * t_plus for sign=-1."""
    plus, minus = bipartition(datum)
    order = plus + minus if sign >= 0 else minus + plus
    return coxeter_from_order(datum, order)


def elementary_move(c: CoxeterElement, i: int) -> CoxeterElement:
    """Conjugate by s_i, allowed only when s_i is initial or final in c."""
    if i in c.initial_nodes():
        order = tuple(k for k in c.order if k != i) + (i,)
    elif i in c.final_nodes():
        order = (i,) + tuple(k for k in c.order if k != i)
    else:
        raise WeylError(f"s{i + 1} is neither initial nor final")
    return coxeter_from_order(c.datum, order)


# --- sorting words -------------------------------------------------------------------

def _sort_by_rho(datum: CartanDatum, order, v: tuple):
    """(letters, blocks) of the sorting word, along copies of ``order``, of the
    element u with u*rho = v in weight coordinates.

    s_i is a left descent of u exactly when coordinate i of u*rho is negative, and
    peeling it off is one reflection of u*rho; the walk ends when u*rho = rho.
    """
    rho = (1,) * datum.n
    letters, blocks = [], []
    guard = generate_roots(datum).size + 1   # every block takes a letter; l(u) <= |Phi+|
    while v != rho:
        start = len(letters)
        for i in order:
            if v[i] < 0:
                v = reflect_weight(datum, i, v)
                letters.append(i)
        if len(letters) == start:
            raise WeylError("sorting extraction stalled")
        blocks.append(frozenset(letters[start:]))
        guard -= 1
        if guard < 0:
            raise WeylError("sorting extraction exceeded the length bound")
    return tuple(letters), tuple(blocks)


def _nested(blocks) -> bool:
    return all(b <= a for a, b in zip(blocks, blocks[1:]))


def c_sorting_word(c: CoxeterElement, w: WeylElement):
    """Lexicographically first subword of c^infinity realizing w.

    Returns (letters, factorization) where the factorization is the tuple of
    letter sets taken from the successive copies of c.
    """
    return _sort_by_rho(c.datum, c.order, tuple(map(sum, w.mw)))   # w*rho: rho = (1, ..., 1)


def is_sortable(c: CoxeterElement, w: WeylElement) -> bool:
    return _nested(c_sorting_word(c, w)[1])


def is_antisortable(c: CoxeterElement, w: WeylElement) -> bool:
    """w*w0 is c^{-1}-sortable; its walk starts from (w*w0)*rho = -(w*rho)."""
    return _nested(_sort_by_rho(c.datum, c.order[::-1], tuple(-sum(row) for row in w.mw))[1])


def greedy_expression(c: CoxeterElement) -> tuple:
    """Reorder c's expression by weakly decreasing h(i;c); ties keep input order."""
    letters = tuple(sorted(c.order, key=lambda i: -c.h_values[i]))
    # Sorting only ever swaps letters with distinct h, and adjacent diagram
    # nodes i << j force h(i) >= h(j), so every swap is between commuting letters.
    if coxeter_from_order(c.datum, letters) != c:
        raise WeylError("greedy reordering left the commutation class")
    return letters


def w_m_word(c: CoxeterElement, m: int):
    """Subword of c^m keeping, in the l-th copy, the letters with h(i;c) >= l."""
    if not 0 <= m <= c.max_h():
        raise WeylError(f"m={m} out of range 0..{c.max_h()}")
    greedy = greedy_expression(c)
    letters = []
    blocks = []
    for level in range(1, m + 1):
        block = tuple(i for i in greedy if c.h_values[i] >= level)
        letters.extend(block)
        blocks.append(frozenset(block))
    return tuple(letters), tuple(blocks)


def singletons(c: CoxeterElement) -> list:
    """Elements arising as prefixes, up to commutations, of the c-sorting word of w0.

    Prefixes up to commutations are exactly the downsets of the dependence
    order on letter positions (p before q and the letters equal or adjacent).
    """
    datum = c.datum
    word = w_m_word(c, c.max_h())[0]   # the c-sorting word of w0
    L = len(word)
    preds = [tuple(
        p for p in range(q)
        if word[p] == word[q] or datum.cartan[word[p]][word[q]] != 0
    ) for q in range(L)]
    ident = identity_element(datum)
    start = frozenset()
    elems = {start: ident}
    frontier = [start]
    found = {ident.mw: (0, ident)}
    while frontier:
        nxt = []
        for s in frontier:
            base = elems[s]
            for q in range(L):
                if q in s or any(p not in s for p in preds[q]):
                    continue
                s2 = s | {q}
                if s2 in elems:
                    continue
                el = base * simple_reflection(datum, word[q])
                elems[s2] = el
                found.setdefault(el.mw, (len(s2), el))
                nxt.append(s2)
        frontier = nxt
    # A word for w0 of length |Phi+| is reduced, so an element's length is its downset's size.
    if L != generate_roots(datum).size or elems[frozenset(range(L))] != longest_element(datum):
        raise WeylError("the c-sorting word of w0 is not a reduced word for w0")
    return [el for _, el in sorted(found.values(), key=lambda p: (p[0], p[1].mw))]


def enumerate_group(datum: CartanDatum, cap: int = 1152) -> list:
    """Breadth-first closure of the Weyl group; refuses to exceed the cap."""
    ident = identity_element(datum)
    seen = {ident.mw}
    gens = [simple_reflection(datum, i) for i in range(datum.n)]
    out, frontier = [], [ident]
    while frontier:
        out += sorted(frontier, key=lambda w: w.mw)   # a breadth-first level is one length
        nxt = []
        for w in frontier:
            for s in gens:
                ws = w * s
                if ws.mw not in seen:
                    if len(seen) >= cap:
                        raise WeylError(f"group larger than cap {cap}")
                    seen.add(ws.mw)
                    nxt.append(ws)
        frontier = nxt
    return out
