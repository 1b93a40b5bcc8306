"""Constructions from Stella's proofs that the tests check against the library.

The spacing criterion of the compatibility degree (section 3), the
conjugation of c to a bipartite element that fixes a leaf (section 4), the
admissibility cone of f with f(i*) = f(i) folded in, the facets grouped
by tau-orbit, each vertex solved from its own facets and the
support-function and simplicity checks done directly in Fractions, the
exchange inequalities evaluated F by expansion, the
textbook matrices of the simple reflections, and the tuple-keyed Laurent
arithmetic that the packed ``mutation.LaurentPoly`` must agree with.
The library itself needs none of them, so they live here, next to the
tests that assert them.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd

from coxfan.cartan import CartanDatum
from coxfan.linalg import solve_fraction_free, vec_dot
from coxfan.model import ClusterModel
from coxfan.polytope import HRep, PolytopeError, SupportData, VRep, check_simple, f_conditions
from coxfan.weyl import CoxeterElement, WeylElement, WeylError, bipartite_coxeter, elementary_move


def primitive(v: tuple) -> tuple:
    """Divide an integer vector by the gcd of its entries (zero vector unchanged)."""
    g = gcd(*v)
    if g <= 1:
        return tuple(v)
    return tuple(x // g for x in v)


def support_of_root(coords: tuple) -> frozenset:
    """Nodes carrying a nonzero simple-root coordinate."""
    return frozenset(i for i, x in enumerate(coords) if x != 0)


def spaced(datum: CartanDatum, s1, s2) -> bool:
    """True when no node of s1 is equal or adjacent to a node of s2."""
    return all(datum.cartan[i][j] == 0 for i in s1 for j in s2 if i != j) and not (set(s1) & set(s2))


def support_of_label(model: ClusterModel, label_id: int) -> frozenset:
    lab = model.labels[label_id]
    if lab.is_negative:
        return frozenset([lab.node])
    return support_of_root(lab.root)


def folded_inequalities(datum: CartanDatum):
    """Inequality rows with f(i*) identified with f(i), deduplicated and primitive."""
    equalities, rows = f_conditions(datum)
    rep = list(range(datum.n))
    for i, j in equalities:
        rep[j] = i
    folded = set()
    for row in rows:
        acc = [0] * datum.n
        for i, x in enumerate(row):
            acc[rep[i]] += x
        folded.add(primitive(acc))
    return equalities, tuple(sorted(folded))


def hrep_orbit_groups(model: ClusterModel, hrep: HRep):
    """Facets grouped by tau-orbit, in orbit order; all share one right-hand side."""
    groups = []
    for orb in model.orbits:
        normals = tuple(model.labels[k].weight for k in orb)
        rhs = {hrep.facets[k].rhs for k in orb}
        if len(rhs) != 1:
            raise PolytopeError("facets of one orbit carry different right-hand sides")
        groups.append((normals, rhs.pop()))
    return tuple(groups)


def solve_vertices(model: ClusterModel, hrep: HRep) -> tuple:
    """One Fraction vertex per cluster, solved from that cluster's facets by
    ``linalg.solve_fraction_free``: the reference that ``polytope.cluster_vertices``
    must equal over its ``den``."""
    facets = hrep.facets
    return tuple(solve_fraction_free(tuple(facets[k].normal for k in cl), tuple(facets[k].rhs for k in cl))
                 for cl in model.clusters())


def fraction_vertices(vrep: VRep) -> tuple:
    """The vertices of a VRep as Fraction tuples."""
    return tuple(tuple(Fraction(x, vrep.den) for x in v) for v in vrep.vertices)


def support_function_in_fractions(model: ClusterModel, f: SupportData, vrep: VRep) -> list:
    """The support-function check in Fractions, one label at a time: the reference
    that ``polytope.verify_support_function`` must agree with, problem for problem."""
    problems = []
    verts = fraction_vertices(vrep)
    for lab in model.labels:
        best = max(vec_dot(v, lab.weight) for v in verts)
        if best != f[lab.node]:
            problems.append(f"support value of label {lab.index} is {best}, expected f({lab.node + 1})")
            continue
        argmax = {k for k, v in enumerate(verts) if vec_dot(v, lab.weight) == best}
        containing = {k for k, cl in enumerate(vrep.clusters) if lab.index in cl}
        if argmax != containing:
            problems.append(f"maximizers of label {lab.index} are not its clusters")
    return problems


def simplicity_in_fractions(hrep: HRep, vrep: VRep):
    """``polytope.check_simple``, located: None when it passes, else the witness
    that ``polytope.verify_support_function`` must give.

    The first vertex it rejects is found by checking one vertex at a time, and
    the first facet by checking that vertex against ever longer prefixes of the
    facets.  Facet k is label k, as ``build_hrep`` lays them out.
    """
    for v, cl in zip(vrep.vertices, vrep.clusters):
        one = VRep((v,), (cl,), vrep.den)
        try:
            check_simple(hrep, one)
        except PolytopeError:
            for k in range(len(hrep.facets)):
                try:
                    check_simple(HRep(hrep.facets[:k + 1]), one)
                except PolytopeError as exc:
                    return f"cluster {list(cl)}, label {k}: {exc}"
    return None


def textbook_reflection(datum: CartanDatum, i: int) -> WeylElement:
    """s_i as its two matrices written out: on weights it subtracts coordinate i
    times column i of A, on roots it changes coordinate i by minus row i of A."""
    n = datum.n
    mw = tuple(
        tuple((1 if k == j else 0) - (datum.cartan[k][i] if j == i else 0) for j in range(n))
        for k in range(n)
    )
    mr = tuple(
        tuple((1 if k == j else 0) - (datum.cartan[i][j] if k == i else 0) for j in range(n))
        for k in range(n)
    )
    return WeylElement(datum, mw, mr)


def textbook_word(datum: CartanDatum, letters) -> WeylElement:
    """The product of the textbook reflection matrices along the word, left to right."""
    n = datum.n
    out = tuple(tuple(1 if k == j else 0 for j in range(n)) for k in range(n))
    out = WeylElement(datum, out, out)
    for i in letters:
        out = out * textbook_reflection(datum, i)
    return out


def connect_coxeter(c: CoxeterElement, target: CoxeterElement, avoid=()) -> tuple:
    """Elementary-move word w with w*c*w^{-1} = target, avoiding the given nodes.

    A breadth-first walk over Coxeter elements, one elementary move per step.
    The word records moves right-to-left: the first move applied is the last
    letter.  Raises when the target is unreachable under the avoid set.
    """
    if c.datum != target.datum:
        raise WeylError("Coxeter elements live on different data")
    avoid = frozenset([avoid]) if isinstance(avoid, int) else frozenset(avoid)
    prev = {c: None}
    frontier = [c]
    while frontier and target not in prev:
        nxt = []
        for cur in frontier:
            for i in set(cur.initial_nodes()) | set(cur.final_nodes()):
                if i in avoid:
                    continue
                moved = elementary_move(cur, i)
                if moved not in prev:
                    prev[moved] = (cur, i)
                    nxt.append(moved)
        frontier = nxt
    if target not in prev:
        raise WeylError("target not reachable under the avoid constraint")
    moves = []
    node = target
    while prev[node] is not None:
        node, i = prev[node]
        moves.append(i)
    return tuple(moves)                  # conjugation word: last move leftmost


def bipartite_via_leaf(c: CoxeterElement, leaf: int) -> tuple:
    """(t, word) with t bipartite, w*t*w^{-1} = c, and w avoiding leaf and its neighbor.

    The bipartite element is the one in which the leaf and its unique neighbor
    appear in the same order as they do in c.
    """
    nbrs = c.datum.neighbors(leaf)
    if len(nbrs) != 1:
        raise WeylError(f"node {leaf} is not a leaf")
    mate = nbrs[0]
    for sign in (1, -1):
        t = bipartite_coxeter(c.datum, sign)
        if ((leaf, mate) in t.orientation) == ((leaf, mate) in c.orientation):
            word = connect_coxeter(t, c, avoid=(leaf, mate))
            return t, word
    raise WeylError("no bipartite element matches the leaf order")


def polytopality_by_expansion(model: ClusterModel, f_values) -> list:
    """``polytope.check_polytopality`` with each F summed in Fractions over the expansion
    of its point, per f: the reference for the cached integer exchange rows."""
    vals = tuple(Fraction(v) for v in f_values)

    def F(point):
        return sum(coeff * vals[model.labels[idx].node]
                   for idx, coeff in model.expand_root(point).items())

    violations = []
    for (c1, c2, a, b) in model.adjacent_cluster_pairs():
        s, u = model.uplus(a, b)
        lhs = vals[model.labels[a].node] + vals[model.labels[b].node]
        rhs = max(F(s), F(u))
        if lhs <= rhs:
            violations.append((a, b, lhs, rhs))
    return violations


class TupleLaurent:
    """Sparse Laurent polynomial keyed by exponent tuples: the reference for the packed
    ``mutation.LaurentPoly``, with the same methods on unpacked monomials."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {e: c for e, c in (terms or {}).items() if c}

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, TupleLaurent) and self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return TupleLaurent(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) - c
        return TupleLaurent(out)

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return TupleLaurent(out)

    def key(self):
        return tuple(sorted(self.terms.items()))

    def leading(self):
        e = max(self.terms)
        return e, self.terms[e]

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in sorted(self.terms.items(), reverse=True):
            mono = "*".join(
                f"x{i + 1}" + (f"^{p}" if p != 1 else "")
                for i, p in enumerate(e) if p
            )
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")


def tuple_exact_div(p: TupleLaurent, q: TupleLaurent, max_steps: int = 100000) -> TupleLaurent:
    """p / q by leading-term elimination in the lex order, rebuilding the remainder
    at every step; raises ValueError when the quotient is not Laurent over Z.

    The lex order is a group order on exponents, so an exact quotient's lowest
    term is min p - min q; a quotient term below it ends the division early.
    """
    if not q:
        raise ValueError("division by zero polynomial")
    qe, qc = q.leading()
    rem = TupleLaurent(dict(p.terms))
    floor = tuple(a - b for a, b in zip(min(p.terms), min(q.terms))) if p else None
    quot = {}
    steps = 0
    while rem:
        re, rc = rem.leading()
        if rc % qc:
            raise ValueError("division is not exact over the integers")
        e = tuple(a - b for a, b in zip(re, qe))
        if e < floor or steps >= max_steps:
            raise ValueError("division does not terminate; quotient is not Laurent")
        c = rc // qc
        quot[e] = quot.get(e, 0) + c
        rem = rem - TupleLaurent({e: c}) * q
        steps += 1
    return TupleLaurent(quot)
