"""Seed mutation oracle: clusters, g-vectors, exchange graph, principal coefficients.

This side of the build never looks at the label combinatorics; it only mutates
matrices and Laurent polynomials, so it can serve as an independent witness
for the g-vector parametrization and the exchange-relation formula.
"""
from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .cartan import CartanDatum
from .linalg import identity_mat
from .model import ClusterModel
from .weyl import CoxeterElement


class MutationError(ValueError):
    pass


_DIV_STEPS = 100000   # exact_div gives up after this many elimination steps
_SEED_CAP = 5000      # a seed walk gives up after finding this many seeds (E7 has 4,160)


# --- exact Laurent polynomials over Z ---------------------------------------------------

# A monomial x^e is stored as the one integer sum_i e_i * 2^(_WIDTH * (n - 1 - i)): the
# Kronecker substitution x_i -> t^(2^(_WIDTH * (n - 1 - i))).  The map is linear, so a
# product of monomials is one integer addition, and on exponents with |e_i| <= _LIMIT
# it is injective and keeps the lex order (the first variable is the most significant
# field), so a polynomial's lex-leading monomial is the largest key.  Every polynomial
# carries an upper bound on |e_i| over its terms; a product or a quotient whose bound
# could pass _LIMIT raises, so a field never wraps into its neighbour.
_WIDTH = 16                 # bits per exponent field: one array("H") item
_RADIX = 1 << _WIDTH
_HALF = _RADIX >> 1
_LIMIT = _HALF - 1


def _pack(exps) -> int:
    key = 0
    for x in exps:
        key = key * _RADIX + x
    return key


def _fields(keys, n: int) -> array:
    """The exponents of packed monomials in n fields, each offset by 2^(_WIDTH - 1)
    into [0, 2^_WIDTH): n items per key, its last variable first.

    A key whose exponents do not fit n fields of [-2^(_WIDTH - 1), 2^(_WIDTH - 1))
    raises.  Each key is read through its bytes, one array("H") item per field.
    """
    offset = _HALF * ((_RADIX ** n - 1) // (_RADIX - 1))
    try:
        out = array("H", b"".join((k + offset).to_bytes(2 * n, "little") for k in keys))
    except OverflowError:   # a negative or too large offset key
        raise MutationError(f"a packed monomial does not fit {n} exponent fields") from None
    if sys.byteorder == "big":
        out.byteswap()
    return out


def _exponents(keys, n: int) -> list:
    """The exponent tuple of each packed monomial in n fields."""
    fields = _fields(keys, n)
    return [tuple(x - _HALF for x in reversed(fields[k:k + n])) for k in range(0, len(fields), n)]


def _checked_bound(bound: int) -> int:
    if bound > _LIMIT:
        raise MutationError(f"a Laurent exponent may exceed {_LIMIT} in absolute value")
    return bound


class LaurentPoly:
    """Sparse Laurent polynomial over Z in n variables: packed monomial -> integer coefficient.

    The constructor, ``monomial`` and ``one`` take exponent tuples; ``terms`` is
    keyed by packed monomials, and ``exponent_terms`` reads the tuples back.
    """

    __slots__ = ("terms", "n", "bound")

    def __init__(self, terms=None):
        terms = terms or {}
        self.n = len(next(iter(terms), ()))
        self.bound = _checked_bound(max((abs(x) for e in terms for x in e), default=0))
        self.terms = {_pack(e): c for e, c in terms.items() if c}

    @staticmethod
    def _packed(terms: dict, n: int, bound: int) -> "LaurentPoly":
        """A polynomial from packed terms with nonzero coefficients, |exponent| <= bound."""
        p = object.__new__(LaurentPoly)
        p.terms, p.n, p.bound = terms, n, bound
        return p

    @staticmethod
    def monomial(exps, coeff=1) -> "LaurentPoly":
        return LaurentPoly({tuple(exps): coeff})

    @staticmethod
    def one(n: int) -> "LaurentPoly":
        return LaurentPoly._packed({0: 1}, n, 0)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def _combine(self, other, sign):
        out = dict(self.terms)
        for e, c in other.terms.items():
            c = out.get(e, 0) + sign * c
            if c:
                out[e] = c
            else:
                del out[e]
        return LaurentPoly._packed(out, max(self.n, other.n), max(self.bound, other.bound))

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __mul__(self, other):
        bound = _checked_bound(self.bound + other.bound)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:   # a monomial times a polynomial: shift every key
            (e1, c1), = a.items()
            out = {e1 + e2: c1 * c2 for e2, c2 in b.items()}
        else:
            out = {}
            get = out.get
            for e1, c1 in a.items():
                for e2, c2 in b.items():
                    e = e1 + e2
                    out[e] = get(e, 0) + c1 * c2
            if 0 in out.values():
                out = {e: c for e, c in out.items() if c}
        return LaurentPoly._packed(out, max(self.n, other.n), bound)

    def key(self):
        return tuple(sorted(self.terms.items()))

    def exponent_terms(self) -> list:
        """(exponent tuple, coefficient) for every term, in increasing lex order."""
        keys = sorted(self.terms)
        return list(zip(_exponents(keys, self.n), map(self.terms.__getitem__, keys)))

    def leading(self):
        """The lex-leading term as (packed monomial, coefficient): the largest key."""
        e = max(self.terms)
        return e, self.terms[e]

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in reversed(self.exponent_terms()):
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


def exact_div(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """p / q when the quotient is again Laurent with integer coefficients.

    Leading-term elimination on the packed monomials, which is division of the
    Kronecker images in Z[t, 1/t].  One remainder dict is updated in place,
    with a heap of its keys: every key a step adds lies below the term it
    cancels, so the largest live key is always the next leading term.  An
    exact quotient never reaches below t^(min p - min q).  The image quotient
    is certified by its own exponents: when its bound plus q's is within
    _LIMIT, every exponent of quotient * q, like every exponent of p, lies
    where the substitution is injective, so quotient * q = p holds for the
    Laurent polynomials themselves.  Any failure is a Laurent-phenomenon
    violation, which the callers treat as fatal.
    """
    if not q:
        raise MutationError("division by zero polynomial")
    qe, qc = q.leading()
    rest = tuple((f, d) for f, d in q.terms.items() if f != qe)
    rem = dict(p.terms)
    floor = min(rem) - min(q.terms) if rem else 0
    heap = [-k for k in rem]    # heapq is a min-heap: keys negated
    heapify(heap)
    quot = {}
    get = rem.get
    while heap:
        re = -heappop(heap)
        rc = rem.pop(re)
        if not rc:
            continue
        c, r = divmod(rc, qc)
        if r:
            raise MutationError("division is not exact over the integers")
        e = re - qe
        if e < floor or len(quot) >= _DIV_STEPS:
            raise MutationError("division does not terminate; quotient is not Laurent")
        quot[e] = c
        for f, d in rest:
            k = e + f
            x = get(k)
            if x is None:
                rem[k] = -c * d
                heappush(heap, -k)
            else:
                rem[k] = x - c * d
    n = max(p.n, q.n)
    fields = _fields(quot, n)
    bound = max(max(fields) - _HALF, _HALF - min(fields)) if fields else 0
    _checked_bound(bound + q.bound)   # p's own bound was checked when p was made
    return LaurentPoly._packed(quot, n, bound)


# --- exchange matrices and seeds ---------------------------------------------------------

def b_of_coxeter(datum: CartanDatum, c: CoxeterElement) -> tuple:
    """B(c): -a_ij when i precedes j, +a_ij when j precedes i, 0 off the diagram."""
    n = datum.n
    b = [[0] * n for _ in range(n)]
    for (i, j) in datum.edges:
        if c.precedes(i, j):
            b[i][j] = -datum.cartan[i][j]
            b[j][i] = datum.cartan[j][i]
        else:
            b[i][j] = datum.cartan[i][j]
            b[j][i] = -datum.cartan[j][i]
    d = datum.symmetrizer
    for i in range(n):
        for j in range(n):
            if d[i] * b[i][j] != -d[j] * b[j][i]:
                raise MutationError("B(c) is not skew-symmetrizable")
    return tuple(tuple(row) for row in b)


def _mutate_rect(mat, k, top):
    """Matrix mutation in direction k; rows beyond the square block are coefficient rows.

    Row and column k change sign; b_ij (i, j != k) gains |b_ik| b_kj when b_ik
    and b_kj have the same sign, and is kept otherwise.
    """
    rowk = top[k]
    out = []
    for i, row in enumerate(mat):
        if i == k:
            out.append(tuple(-x for x in row))
            continue
        bik = row[k]
        new = list(row)
        new[k] = -bik
        if bik:
            for j, bkj in enumerate(rowk):
                if j != k and (bik > 0 < bkj or bik < 0 > bkj):
                    new[j] += abs(bik) * bkj
        out.append(tuple(new))
    return tuple(out)


@dataclass(frozen=True)
class Seed:
    bmat: tuple      # current exchange matrix (square)
    cmat: tuple      # principal-coefficient rows (c-vectors as columns)
    gcols: tuple     # g-vector of each cluster variable
    cluster: tuple   # LaurentPoly in the initial cluster and frozen variables
    frozen: tuple = ()   # frozen variables, one per row of cmat; empty when coefficient-free

    def key(self):
        return tuple(sorted(p.key() for p in self.cluster))


def initial_seed(datum: CartanDatum, c: CoxeterElement, principal: bool = False) -> Seed:
    """The seed (B(c), x_1..x_n); with principal coefficients y_1..y_n are frozen variables."""
    n = datum.n
    ident = identity_mat(n)
    count = 2 * n if principal else n
    variables = tuple(LaurentPoly.monomial(tuple(1 if t == i else 0 for t in range(count)))
                      for i in range(count))
    return Seed(bmat=b_of_coxeter(datum, c), cmat=ident, gcols=ident,
                cluster=variables[:n], frozen=variables[n:])


def mutate(seed: Seed, k: int, b0: tuple) -> Seed:
    """Seed mutation at k over the extended exchange matrix [B; C].

    The exchange relation runs over cluster + frozen against the rows of
    bmat + cmat, so a seed without frozen variables is coefficient-free and
    one with y_1..y_n frozen carries principal coefficients.  Homogeneity
    under the principal grading gives the g-vector recurrence
      g'_k = sum_i [b_ik]+ g_i - sum_j [c_jk]+ b0_j - g_k
    with b0_j the j-th column of the initial exchange matrix.
    """
    n = len(seed.bmat)
    b, cm, g = seed.bmat, seed.cmat, seed.gcols
    nvars = n + len(seed.frozen)
    plus, minus = [], []
    for var, row in zip(seed.cluster + seed.frozen, b + cm):
        bik = row[k]
        (plus if bik > 0 else minus).extend([var] * abs(bik))
    new_var = exact_div(_product(plus, nvars) + _product(minus, nvars), seed.cluster[k])

    gk = [0] * n
    for i in range(n):
        if b[i][k] > 0:
            for t in range(n):
                gk[t] += b[i][k] * g[i][t]
    for j in range(n):
        if cm[j][k] > 0:
            for t in range(n):
                gk[t] -= cm[j][k] * b0[t][j]
    for t in range(n):
        gk[t] -= g[k][t]

    mutated = _mutate_rect(b + cm, k, b)
    cluster = list(seed.cluster)
    cluster[k] = new_var
    gcols = list(g)
    gcols[k] = tuple(gk)
    return Seed(bmat=mutated[:n], cmat=mutated[n:], gcols=tuple(gcols), cluster=tuple(cluster),
                frozen=seed.frozen)


def _seed_walk(seeds: list, b0: tuple):
    """Breadth-first closure of the seed graph from seeds[0]; finite in finite type.

    Each newly found seed is appended to ``seeds``.  Yields (sid, k, tid, new)
    for every mutation: seed sid mutated at k is ``new``, equal up to the order
    of its cluster to seed tid.
    """
    ids = {seeds[0].key(): 0}
    frontier = [0]
    while frontier:
        nxt = []
        for sid in frontier:
            seed = seeds[sid]
            for k in range(len(seed.cluster)):
                new = mutate(seed, k, b0)
                key = new.key()
                if key not in ids:
                    if len(seeds) >= _SEED_CAP:
                        raise MutationError(f"seed graph exceeded the cap of {_SEED_CAP} seeds")
                    ids[key] = len(seeds)
                    seeds.append(new)
                    nxt.append(ids[key])
                yield sid, k, ids[key], new
        frontier = nxt


def _product(factors: list, n: int) -> LaurentPoly:
    """The product of the factors, 1 in n variables when there are none."""
    if not factors:
        return LaurentPoly.one(n)
    out = factors[0]
    for p in factors[1:]:
        out = out * p
    return out


@dataclass(frozen=True)
class ExchangeGraph:
    datum: CartanDatum
    c: CoxeterElement
    seeds: tuple                 # Seed per id, in BFS discovery order
    edges: tuple                 # (sid_a, sid_b, g_out, g_in) with sid_a < sid_b
    variables: dict              # g-vector -> LaurentPoly


def exchange_graph(datum: CartanDatum, c: CoxeterElement) -> ExchangeGraph:
    """Breadth-first closure of the seed graph from B(c); finite in finite type."""
    start = initial_seed(datum, c)
    seeds = [start]
    variables = dict(zip(start.gcols, start.cluster))
    edges = set()
    for sid, k, tid, new in _seed_walk(seeds, start.bmat):
        seed = seeds[sid]
        gv_out, gv_in = seed.gcols[k], new.gcols[k]
        for gv, poly in ((gv_out, seed.cluster[k]), (gv_in, new.cluster[k])):
            if variables.setdefault(gv, poly) != poly:
                raise MutationError("one g-vector carries two distinct variables")
        a, b = sorted((sid, tid))
        edges.add((a, b, *(sorted((gv_out, gv_in)))))
    deg = [0] * len(seeds)
    for (a, b, _, _) in edges:
        deg[a] += 1
        deg[b] += 1
    if any(d != datum.n for d in deg):
        raise MutationError("exchange graph is not n-regular")
    return ExchangeGraph(datum=datum, c=c, seeds=tuple(seeds), edges=tuple(sorted(edges)),
                         variables=variables)


def cluster_monomial(graph: ExchangeGraph, model: ClusterModel, root_point: tuple) -> LaurentPoly:
    """x_gamma: product of variables over the c-cluster expansion of a root point."""
    factors = []
    for idx, coeff in model.expand_root(root_point).items():
        factors.extend([graph.variables[model.labels[idx].weight]] * coeff)
    return _product(factors, graph.datum.n)


def verify_exchange_relations(graph: ExchangeGraph, model: ClusterModel) -> list:
    """Check x_l * x_m = x_{l+m} + x_{l (+) m} on every exchange edge; list failures.

    The relation is linear in the labels and phi_c = c^{-1} - 1 carries each
    weight label to its root label, so both monomials come from root-side
    expansions of the pair's sum and of its companion under uplus.
    """
    problems = []
    for (_, _, g1, g2) in graph.edges:
        a = model.id_by_weight.get(g1)
        b = model.id_by_weight.get(g2)
        if a is None or b is None:
            problems.append(("missing-label", g1, g2))
            continue
        if not (model.compat(a, b) == 1 and model.compat(b, a) == 1):
            problems.append(("not-exchangeable", g1, g2))
            continue
        s, u = model.uplus(a, b)
        lhs = graph.variables[g1] * graph.variables[g2]
        rhs = cluster_monomial(graph, model, s) + cluster_monomial(graph, model, u)
        if lhs != rhs:
            problems.append(("identity-failed", g1, g2))
    return problems


def exchange_graph_json(graph: ExchangeGraph) -> dict:
    return {
        "datum": graph.datum.label,
        "coxeter": [i + 1 for i in graph.c.order],
        "seeds": [
            {"b": [list(r) for r in s.bmat], "g": [list(g) for g in s.gcols]}
            for s in graph.seeds
        ],
        "edges": [
            {"seeds": [a, b], "exchanged": [list(g1), list(g2)]}
            for (a, b, g1, g2) in graph.edges
        ],
        "variables": [
            {"g": list(g), "terms": [{"exponents": list(e), "coeff": c}
                                      for e, c in p.exponent_terms()]}
            for g, p in sorted(graph.variables.items())
        ],
    }


# --- principal-coefficient cross-check ---------------------------------------------------

def verify_g_vectors_principal(datum: CartanDatum, c: CoxeterElement) -> int:
    """Recompute g-vectors by reading principal-coefficient degrees; count variables.

    Each cluster variable with principal coefficients is homogeneous under
    deg(x_i) = e_i, deg(y_j) = -(column j of B(c)); its degree must equal the
    g-vector produced by the matrix recurrence.  Raises on any mismatch.
    """
    n = datum.n
    start = initial_seed(datum, c, principal=True)
    b0 = start.bmat

    def grade(poly: LaurentPoly):
        degs = {tuple(e[t] - sum(e[n + j] * b0[t][j] for j in range(n)) for t in range(n))
                for e, _ in poly.exponent_terms()}
        if len(degs) != 1:
            raise MutationError("principal-coefficient variable is not homogeneous")
        return degs.pop()

    seeds = [start]
    for _, k, _, new in _seed_walk(seeds, b0):
        if grade(new.cluster[k]) != new.gcols[k]:
            raise MutationError("matrix g-vector differs from the principal grading")
    return len({g for seed in seeds for g in seed.gcols})
