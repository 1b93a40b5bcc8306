"""Generalized associahedra: H-representations, exact vertices, and the Cambrian build.

Points of the dual space are tuples z with z_i the value on omega_i, so a
facet normal is just the weight-coordinate vector of its label.  All vertex
and incidence decisions are exact (integer/Fraction arithmetic only).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .cartan import CartanDatum, fmt_combo
from .jsonout import write_json
from .linalg import solve_fraction_free, vec_dot
from .model import ClusterList, ClusterModel
from .weyl import node_involution, singletons


class PolytopeError(ValueError):
    pass


# --- admissible support data -----------------------------------------------------------

def f_conditions(datum: CartanDatum):
    """Constraints on f: equalities f(i)=f(i*) and one strict inequality per column.

    Returns (equalities, rows) where each row r encodes sum_i r[i] f(i) > 0;
    the rows are those of A^T.
    """
    istar = node_involution(datum)
    equalities = tuple(sorted((i, istar[i]) for i in range(datum.n) if i < istar[i]))
    rows = tuple(tuple(datum.cartan[i][j] for i in range(datum.n)) for j in range(datum.n))
    return equalities, rows


def render_condition(row) -> str:
    """Human-readable form of sum_i row[i] f(i) > 0."""
    return fmt_combo(row, "f({})") + " > 0"


@dataclass(frozen=True)
class SupportData:
    """Values f(i) defining the support function F_c; validated against the datum."""

    values: tuple

    @staticmethod
    def make(datum: CartanDatum, values) -> "SupportData":
        vals = tuple(Fraction(v) for v in values)
        if len(vals) != datum.n:
            raise PolytopeError("f has the wrong arity")
        problem = violated_condition(datum, vals)
        if problem:
            raise PolytopeError(f"invalid f: violated condition {problem}")
        return SupportData(vals)

    def __getitem__(self, i: int) -> Fraction:
        return self.values[i]


def violated_condition(datum: CartanDatum, values) -> str:
    """Empty string when f is admissible, else a printable violated condition."""
    vals = tuple(Fraction(v) for v in values)
    equalities, rows = f_conditions(datum)
    for i, j in equalities:
        if vals[i] != vals[j]:
            return f"f({i + 1}) = f({j + 1})"
    row = _chamber_wall(rows, vals)
    return render_condition(row) if row else ""


def _chamber_wall(rows, a):
    """The first row r of A^T with <r, a> <= 0, or None when A^T a > 0."""
    return next((row for row in rows if sum(map(mul, row, a)) <= 0), None)


def default_f(datum: CartanDatum) -> SupportData:
    """The exact solution of A^T f = (1,...,1); admissible for every finite type."""
    return SupportData.make(datum, solve_fraction_free(f_conditions(datum)[1], (1,) * datum.n))


def random_valid_f(datum: CartanDatum, rng) -> SupportData:
    """Random admissible rational f, sampled exactly.

    Condition (2) says A^T f is componentwise positive, and a right-hand side
    invariant under i -> i* forces f(i) = f(i*) by uniqueness of the solve, so
    sampling a positive i*-symmetric vector r and solving A^T f = r covers the
    whole admissible cone.
    """
    istar = node_involution(datum)
    n = datum.n
    r = [None] * n
    for j in range(n):
        if r[j] is None:
            val = Fraction(rng.randint(1, 60), rng.randint(1, 12))
            r[j] = val
            r[istar[j]] = val
    return SupportData.make(datum, solve_fraction_free(f_conditions(datum)[1], tuple(r)))


# --- H- and V-representations ------------------------------------------------------------

@dataclass(frozen=True)
class Facet:
    normal: tuple        # integer weight coordinates of the label
    rhs: Fraction
    tag: tuple           # (i, m) of the defining label, 1-based node


@dataclass(frozen=True)
class HRep:
    facets: tuple

    def canonical(self) -> tuple:
        out = []
        for fa in self.facets:
            g = gcd(*fa.normal) or 1
            out.append((tuple(x // g for x in fa.normal), Fraction(fa.rhs) / g))
        return tuple(sorted(out))


@dataclass(frozen=True)
class VRep:
    vertices: tuple        # integer tuples: den times each vertex
    clusters: ClusterList  # defining cluster (label ids) per vertex
    den: int               # > 0; from cluster_vertices, the lcm of the rhs denominators


def build_hrep(model: ClusterModel, f: SupportData) -> HRep:
    facets = []
    for lab in model.labels:
        facets.append(Facet(normal=lab.weight, rhs=f[lab.node], tag=(lab.node + 1, lab.power)))
    return HRep(tuple(facets))


MISSED_FACET = "vertex misses a defining facet"
EXTRA_FACET = "vertex is not simple: an extra facet is tight or violated"


def _scaled(values, den: int = 1) -> tuple:
    """``(d, [d * x for x in values])`` in integers, d the lcm of den and the values' denominators."""
    vals = [Fraction(x) for x in values]
    d = lcm(den, *(x.denominator for x in vals))
    return d, [x.numerator * (d // x.denominator) for x in vals]


def vertices(model: ClusterModel, hrep: HRep) -> VRep:
    """One exact vertex per cluster; simplicity is asserted, not assumed."""
    vrep = cluster_vertices(model, hrep)
    check_simple(hrep, vrep)
    return vrep


def cluster_vertices(model: ClusterModel, hrep: HRep) -> VRep:
    """One vertex per cluster, as integers over den, the lcm of the right-hand sides' denominators.

    Facet k must be label k, as ``build_hrep`` lays them out.  The vertex z of
    a cluster solves <lambda_k, z> = rhs_k on its labels lambda_k, so
    den * z = sum_k den * rhs_k * (row k of the inverse of the cluster's weight
    basis): one integer matrix-vector product per cluster against the model's
    certified inverses.  Whether z lies strictly inside every other facet is
    left to ``check_simple`` or to ``verify_support_function``.
    """
    inverses, bad = model.cluster_inverses("weight")
    if bad:
        raise PolytopeError(f"{bad[0]}, not a Z-basis")
    if [fa.normal for fa in hrep.facets] != [lab.weight for lab in model.labels]:
        raise PolytopeError("the facets are not the model's labels in label order")
    den, rhs_of = _scaled(fa.rhs for fa in hrep.facets)
    n = model.n
    verts = []
    for cl, inv in zip(model.clusters(), inverses):
        rhs = [rhs_of[k] for k in cl]
        verts.append(tuple(sum(map(mul, inv[i::n], rhs)) for i in range(n)))
    return VRep(tuple(verts), model.clusters(), den)


def check_simple(hrep: HRep, vrep: VRep) -> None:
    """Raise unless each vertex is tight on its cluster's facets and strictly inside the rest.

    Every (vertex, facet) pair is evaluated in Fractions, in cluster order and
    then facet order; the first pair that fails raises.
    """
    facets = hrep.facets
    for v, cl in zip(vrep.vertices, vrep.clusters):
        z = tuple(Fraction(x, vrep.den) for x in v)
        for k, fa in enumerate(facets):
            val = vec_dot(fa.normal, z)
            if k in cl:
                if val != fa.rhs:
                    raise PolytopeError(MISSED_FACET)
            elif val >= fa.rhs:
                raise PolytopeError(EXTRA_FACET)


def verify_support_function(model: ClusterModel, f: SupportData, vrep: VRep) -> tuple:
    """Simplicity and the support function, decided from one set of (label, vertex) values.

    The vertices and f are scaled to one denominator, the lcm of ``vrep.den``
    and f's denominators, so each pairing is one integer dot product.
    Returns ``(witness, problems)``:
    ``witness`` is None when every vertex is tight on its cluster's labels and
    strictly below f on the rest, else it names the first vertex (by its
    cluster) and label that break this, in ``check_simple``'s order;
    ``problems`` names each label whose max_v <v, lambda> is not f(i) or whose
    maximizers are not exactly the clusters containing it.
    """
    den, targets = _scaled(f.values, vrep.den)
    scale = den // vrep.den
    verts = vrep.vertices if scale == 1 else [tuple(scale * x for x in v) for v in vrep.vertices]
    containing = [set() for _ in model.labels]
    for k, cl in enumerate(vrep.clusters):
        for idx in cl:
            containing[idx].add(k)
    problems = []
    first = None   # (vertex index, label index, failure) of the first non-simple pair
    for lab in model.labels:
        vals = [sum(map(mul, lab.weight, v)) for v in verts]
        target, own = targets[lab.node], containing[lab.index]
        best = max(vals)
        argmax = {k for k, x in enumerate(vals) if x == best} if best == target else None
        if argmax == own:
            continue   # tight exactly on its own vertices, strictly below elsewhere
        if best != target:
            problems.append(f"support value of label {lab.index} is {Fraction(best, den)}, "
                            f"expected f({lab.node + 1})")
        else:
            problems.append(f"maximizers of label {lab.index} are not its clusters")
        k = next((k for k, x in enumerate(vals) if (x != target if k in own else x >= target)), None)
        if k is not None and (first is None or k < first[0]):
            first = (k, lab.index, MISSED_FACET if k in own else EXTRA_FACET)
    witness = None
    if first is not None:
        k, idx, failure = first
        witness = f"cluster {list(vrep.clusters[k])}, label {idx}: {failure}"
    return witness, problems


def check_polytopality(model: ClusterModel, f_values) -> list:
    """Strictness report for the exchange inequalities; runs on raw f on purpose.

    For every adjacent cluster pair with exchanged labels a, g the inequality
    F(a) + F(g) > max(F(a+g), F(a uplus g)) is evaluated, each F as one
    integer dot product of f, scaled by its common denominator, with the
    pair's node counts from ``model.exchange_rows``; the returned list of
    violations (a, g, lhs, rhs), with lhs and rhs as Fractions, is empty
    exactly when f supports a polytope.
    """
    den, scaled = _scaled(f_values)
    nodes = [lab.node for lab in model.labels]
    rows = iter(model.exchange_rows())
    violations = []
    for (_, _, a, b), s_row, u_row in zip(model.adjacent_cluster_pairs(), rows, rows):
        lhs = scaled[nodes[a]] + scaled[nodes[b]]
        rhs = max(sum(map(mul, s_row, scaled)), sum(map(mul, u_row, scaled)))
        if lhs <= rhs:
            violations.append((a, b, Fraction(lhs, den), Fraction(rhs, den)))
    return violations


# --- the Cambrian construction ------------------------------------------------------------

def chamber_point(datum: CartanDatum, pairings) -> tuple:
    """The point a with (a, omega_i) = pairings[i]; raises unless a is strictly dominant.

    Only A^T a > 0 is asked: unlike support data, a need not be i*-symmetric.
    """
    a = tuple(Fraction(x) for x in pairings)
    if _chamber_wall(f_conditions(datum)[1], a):
        raise PolytopeError("point is not interior to the fundamental chamber")
    return a


def cambrian_rays(model: ClusterModel):
    """{w omega_i : w a c-singleton} with the weight index attached to each ray."""
    rays = {}
    for w in singletons(model.c):
        for i in range(model.n):
            point = tuple(w.mw[k][i] for k in range(model.n))
            if point in rays and rays[point] != i:
                raise PolytopeError("one ray received two distinct weight indices")
            rays[point] = i
    return rays


def cambrian_hrep(model: ClusterModel, a_pairings) -> HRep:
    """Half-space phi(w omega_j) <= (a, omega_j) for every Cambrian ray."""
    a = chamber_point(model.datum, a_pairings)
    facets = []
    for point, j in sorted(cambrian_rays(model).items()):
        facets.append(Facet(normal=point, rhs=a[j], tag=(j + 1, -1)))
    return HRep(tuple(facets))


def polytopes_equal(model: ClusterModel, f: SupportData):
    """Compare the cluster-side and Cambrian-side H-representations exactly.

    Returns (equal, witness); the witness names the first differing facet.
    """
    ours = build_hrep(model, f).canonical()
    cam = cambrian_hrep(model, f.values).canonical()
    if ours == cam:
        return True, None
    diff = set(ours).symmetric_difference(cam)
    return False, sorted(diff)[0]


# --- export ---------------------------------------------------------------------------------

def facet_vertex_cycle(model: ClusterModel, facet_label: int) -> list:
    """Vertex indices around a rank-3 facet, walked along polytope edges (adjacent clusters)."""
    on_facet = [k for k, cl in enumerate(model.clusters()) if facet_label in cl]
    adj = {k: [] for k in on_facet}
    on = set(on_facet)
    for (u, v, _, _) in model.adjacent_cluster_pairs():
        if u in on and v in on:
            adj[u].append(v)
            adj[v].append(u)
    for k, nb in adj.items():
        if len(nb) != 2:
            raise PolytopeError("facet walk found a non-cycle incidence")
    start = min(on_facet)
    cycle = [start, min(adj[start])]
    while True:
        prev, cur = cycle[-2], cycle[-1]
        nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
        if nxt == start:
            break
        cycle.append(nxt)
    if len(cycle) != len(on_facet):
        raise PolytopeError("facet cycle does not cover its vertices")
    return cycle


def export_off(model: ClusterModel, hrep: HRep, vrep: VRep, precision: int = 12) -> str:
    """ASCII OFF body (rank 3 only); exact values live in the JSON sidecar."""
    if model.n != 3:
        raise PolytopeError("OFF export is defined for rank-3 data only")
    lines = ["OFF"]
    faces = [facet_vertex_cycle(model, lab.index) for lab in model.labels]
    lines.append(f"{len(vrep.vertices)} {len(faces)} {len(model.adjacent_cluster_pairs())}")
    for v in vrep.vertices:
        lines.append(" ".join(_decimal(Fraction(x, vrep.den), precision) for x in v))
    for cyc in faces:
        lines.append(str(len(cyc)) + " " + " ".join(str(k) for k in cyc))
    return "\n".join(lines) + "\n"


def _decimal(x: Fraction, precision: int) -> str:
    """x to ``precision`` decimals, halves rounded away from zero; an integer at precision 0."""
    scaled = abs(x) * 10**precision
    digits = (2 * scaled.numerator + scaled.denominator) // (2 * scaled.denominator)
    sign = "-" if x < 0 and digits else ""
    if precision == 0:
        return f"{sign}{digits}"
    whole, frac = divmod(digits, 10**precision)
    return f"{sign}{whole}.{str(frac).rjust(precision, '0')}"


def export_json(model: ClusterModel, f: SupportData, hrep: HRep, vrep: VRep, write) -> None:
    """Write the exact polytope document: f, the facets, one vertex per cluster and the edges.

    The document goes through ``write`` in bounded batches; vertex records are
    made one at a time as they are written.
    """
    data = {
        "datum": model.datum.label,
        "coxeter": [i + 1 for i in model.c.order],
        "f": [str(x) for x in f.values],
        "facets": [
            {"normal": fa.normal, "rhs": str(fa.rhs), "label": {"i": fa.tag[0], "m": fa.tag[1]}}
            for fa in hrep.facets
        ],
        "vertices": (
            {"coords": [str(Fraction(x, vrep.den)) for x in v], "cluster": cl}
            for v, cl in zip(vrep.vertices, vrep.clusters)
        ),
        "edges": (pair[:2] for pair in model.adjacent_cluster_pairs()),
    }
    write_json(data, write)
