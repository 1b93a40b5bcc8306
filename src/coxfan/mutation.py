"""Seed mutation oracle: clusters, g-vectors, exchange graph, principal coefficients.

This side of the build never looks at the label combinatorics; it only mutates
matrices and Laurent polynomials, so it can serve as an independent witness
for the g-vector parametrization and the exchange-relation formula.
"""
from __future__ import annotations

from dataclasses import dataclass

from .cartan import CartanDatum
from .linalg import identity_mat
from .model import ClusterModel
from .weyl import CoxeterElement


class MutationError(ValueError):
    pass


_DIV_STEPS = 100000   # exact_div gives up after this many elimination steps
_SEED_CAP = 5000      # a seed walk gives up after finding this many seeds (E7 has 4,160)


# --- exact Laurent polynomials over Z ---------------------------------------------------

class LaurentPoly:
    """Sparse Laurent polynomial: exponent tuple -> integer coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {e: c for e, c in (terms or {}).items() if c}

    @staticmethod
    def monomial(exps, coeff=1) -> "LaurentPoly":
        return LaurentPoly({tuple(exps): coeff})

    @staticmethod
    def one(n: int) -> "LaurentPoly":
        return LaurentPoly({(0,) * n: 1})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) - c
        return LaurentPoly(out)

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(out)

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


def exact_div(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """p / q when the quotient is again Laurent with integer coefficients.

    Classic leading-term elimination in the lex order; any failure here is a
    Laurent-phenomenon violation, which the callers treat as fatal.
    """
    if not q:
        raise MutationError("division by zero polynomial")
    qe, qc = q.leading()
    rem = LaurentPoly(dict(p.terms))
    quot = {}
    steps = 0
    while rem:
        re, rc = rem.leading()
        if rc % qc:
            raise MutationError("division is not exact over the integers")
        e = tuple(a - b for a, b in zip(re, qe))
        c = rc // qc
        quot[e] = quot.get(e, 0) + c
        rem = rem - LaurentPoly({e: c}) * q
        steps += 1
        if steps > _DIV_STEPS:
            raise MutationError("division does not terminate; quotient is not Laurent")
    return LaurentPoly(quot)


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
    """Matrix mutation in direction k; rows beyond the square block are coefficient rows."""
    rows = len(mat)
    n = len(mat[0])
    out = [[0] * n for _ in range(rows)]
    for i in range(rows):
        for j in range(n):
            if i == k or j == k:
                out[i][j] = -mat[i][j]
            else:
                bik = mat[i][k]
                bkj = top[k][j]
                pos = (bik if bik > 0 else 0) * (bkj if bkj > 0 else 0)
                neg = (-bik if bik < 0 else 0) * (-bkj if bkj < 0 else 0)
                out[i][j] = mat[i][j] + pos - neg
    return tuple(tuple(r) for r in out)


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
    num_plus = LaurentPoly.one(nvars)
    num_minus = LaurentPoly.one(nvars)
    for var, row in zip(seed.cluster + seed.frozen, b + cm):
        bik = row[k]
        if bik > 0:
            num_plus = num_plus * _power(var, bik, nvars)
        elif bik < 0:
            num_minus = num_minus * _power(var, -bik, nvars)
    new_var = exact_div(num_plus + num_minus, seed.cluster[k])

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


def _power(p: LaurentPoly, e: int, n: int) -> LaurentPoly:
    out = LaurentPoly.one(n)
    for _ in range(e):
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
    out = LaurentPoly.one(graph.datum.n)
    for idx, coeff in model.expand_root(root_point).items():
        out = out * _power(graph.variables[model.labels[idx].weight], coeff, graph.datum.n)
    return out


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
                                      for e, c in sorted(p.terms.items())]}
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
                for e in poly.terms}
        if len(degs) != 1:
            raise MutationError("principal-coefficient variable is not homogeneous")
        return degs.pop()

    seeds = [start]
    for _, k, _, new in _seed_walk(seeds, b0):
        if grade(new.cluster[k]) != new.gcols[k]:
            raise MutationError("matrix g-vector differs from the principal grading")
    return len({g for seed in seeds for g in seed.gcols})
