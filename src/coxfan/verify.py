"""Named verification suites over a (datum, Coxeter element) pair.

Each suite returns a list of CheckResult rows; the CLI prints them and the
test suite asserts on them.  Every check is exact: integer or rational
arithmetic end to end, with randomness only in seeded point/f sampling.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .cartan import CartanDatum, reflect_along, reflect_weight, unit_node, weight_to_root
from .model import BipartiteOracle, ClusterModel, bar_map, build_model, cone_membership, iota_map, sigma_map
from .mutation import exchange_graph, verify_exchange_relations
from .polytope import (
    build_hrep,
    cambrian_rays,
    check_polytopality,
    cluster_vertices,
    default_f,
    polytopes_equal,
    random_valid_f,
    verify_support_function,
    violated_condition,
)
from .weyl import (
    CoxeterElement,
    WeylError,
    c_sorting_word,
    enumerate_group,
    is_antisortable,
    is_sortable,
    longest_element,
    render_word,
    singletons,
    w_m_word,
    word_to_element,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _check(name, ok, detail=""):
    return CheckResult(name, bool(ok), str(detail))


# Suite name -> a call of its function with run_suite's options.  The calls look
# the suite_* names up when they run, so a function rebound on the module (say,
# wrapped in a timer) is the one that runs.
SUITE_CALLS = {
    "fan": lambda d, c, seed, points, **_: suite_fan(d, c, points=points, seed=seed),
    "polytope": lambda d, c, seed, random_fs, **_: suite_polytope(d, c, random_fs=random_fs, seed=seed),
    "cambrian": lambda d, c, **_: suite_cambrian(d, c),
    "exchange": lambda d, c, **_: suite_exchange(d, c),
    "sorting": lambda d, c, **_: suite_sorting(d, c),
    "maps": lambda d, c, seed, **_: suite_maps(d, c, seed=seed),
}
SUITES = tuple(SUITE_CALLS)

MAPS_EXHAUSTIVE_RANK = 3   # the maps suite checks every label pair up to this rank
MAPS_SAMPLES = 400         # and this many random pairs above it
SORTING_GROUP_CAP = 200    # the sorting suite enumerates W by brute force up to this order


def run_suite(name: str, datum: CartanDatum, c: CoxeterElement, seed: int,
              points: int, random_fs: int) -> list:
    if name not in SUITE_CALLS:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    return SUITE_CALLS[name](datum, c, seed=seed, points=points, random_fs=random_fs)


# --- fan: Z-bases, unique expansions, completeness -------------------------------------

def suite_fan(datum: CartanDatum, c: CoxeterElement, points: int = 1000, seed: int = 0) -> list:
    """Z-bases, covering and disjoint cones, and expansions that match the cone solution.

    A failed check's detail ends with its first witness: a cluster, or a
    sample point with its clusters or its expansion.  A cluster that is not a
    Z-basis ends the suite after its row.
    """
    model = build_model(datum, c)
    clusters = model.clusters()
    bad_det = model.cluster_inverses("root")[1]   # the pass cone_membership reads
    results = [_tally("cluster-z-basis", f"{len(clusters)} clusters, {len(bad_det)} non-unimodular",
                      bad_det)]
    if bad_det:   # the rows below sample cones and expansions that assume Z-bases
        return results

    rng = random.Random(seed)
    pts = [tuple(rng.randint(-20, 20) for _ in range(datum.n)) for _ in range(points)]
    cones = cone_membership(model, pts)
    uncovered = [p for p, in_cones in zip(pts, cones) if not in_cones]
    detail = f"{points} points in >=1 closed cone"
    if uncovered:
        detail = f"{len(uncovered)} of {points} points in no closed cone; first: {list(uncovered[0])}"
    results.append(_check("cone-cover", not uncovered, detail))
    overlaps = [(p, opened) for p, in_cones in zip(pts, cones)
                if len(opened := [list(clusters[ci]) for ci, x in in_cones if min(x) > 0]) > 1]
    detail = "open cones pairwise disjoint on sample"
    if overlaps:
        p, opened = overlaps[0]
        detail = (f"{len(overlaps)} of {points} points in more than one open cone; "
                  f"first: {list(p)} in clusters {opened}")
    results.append(_check("cone-disjoint", not overlaps, detail))

    bad = []
    for p, in_cones in zip(pts, cones):
        exp = model.expand_root(p)
        support = list(exp)
        pairwise = all(
            model.compat(a, b) == 0 and model.compat(b, a) == 0
            for i, a in enumerate(support) for b in support[i + 1:]
        )
        want = set(exp.items())
        disagree = [list(clusters[ci]) for ci, x in in_cones
                    if {(clusters[ci][t], v) for t, v in enumerate(x) if v > 0} != want]
        if not pairwise:
            bad.append(f"{list(p)} expands to {dict(sorted(exp.items()))}, "
                       "whose labels are not pairwise compatible")
        elif disagree:
            bad.append(f"{list(p)} expands to {dict(sorted(exp.items()))}, "
                       f"not its coefficients in the closed cones of clusters {disagree}")
    results.append(_tally("expansion-unique",
                          f"{points} points, {len(bad)} with ambiguous or incompatible expansion", bad))
    return results


# --- polytope: simplicity, support function, and the negative control --------------------

def suite_polytope(datum: CartanDatum, c: CoxeterElement, random_fs: int = 20, seed: int = 0) -> list:
    """Simple vertices, support function and strict exchange inequalities for each f.

    Each f's vertices are integer products with the clusters' weight-side
    inverses, made once per model, and one scaled-integer pass over the
    (label, vertex) values decides both simplicity and the support function;
    an f whose vertices are not simple is not checked further.  A failed
    check names its first f, with the cluster and label, the label or the
    exchanged label pair that breaks it.  A cluster that is not a Z-basis
    fails ``vertices-simple`` naming it and its determinant, and ends the suite.
    """
    model = build_model(datum, c)
    bad_det = model.cluster_inverses("weight")[1]
    if bad_det:   # the integer vertices below exist only over Z-bases
        return [_row("vertices-simple", f"{bad_det[0]}, not a Z-basis", None)]
    rng = random.Random(seed)
    fs = [default_f(datum)] + [random_valid_f(datum, rng) for _ in range(random_fs)]
    first = {}   # check name -> its first witness
    for f in fs:
        f_text = "f=" + ",".join(str(x) for x in f.values)
        vrep = cluster_vertices(model, build_hrep(model, f))
        not_simple, problems = verify_support_function(model, f, vrep)
        if not_simple:
            first.setdefault("vertices-simple", f"{f_text}: {not_simple}")
            continue
        for problem in problems[:1]:
            first.setdefault("support-function", f"{f_text}: {problem}")
        for a, b, lhs, rhs in check_polytopality(model, f.values)[:1]:
            first.setdefault("exchange-inequalities", f"{f_text}: labels {a}, {b}: "
                             f"F(a) + F(b) = {lhs} <= {rhs} = max(F(a + b), F(a uplus b))")
    results = [_row(name, first.get(name), passing) for name, passing in (
        ("vertices-simple", f"{len(fs)} support choices"),
        ("support-function", "max over vertices matches F_c with maximizers = clusters"),
        ("exchange-inequalities", "strict on every adjacent pair"))]

    bad_f = _broken_f(datum)
    rejected = bool(violated_condition(datum, bad_f))
    fails = bool(check_polytopality(model, bad_f)) if not rejected else True
    results.append(_check("negative-control", rejected or fails,
                          f"f={bad_f} must be rejected or violate an inequality"))
    return results


def _row(name, witness, passing):
    """A check that passes with detail ``passing``, or fails naming its first witness."""
    return _check(name, witness is None, passing if witness is None else f"first: {witness}")


def _tally(name, tally, witnesses):
    """A check that passes when ``witnesses`` is empty; its detail is ``tally``,
    followed on failure by the first witness."""
    return _check(name, not witnesses, f"{tally}; first: {witnesses[0]}" if witnesses else tally)


def _broken_f(datum: CartanDatum):
    """The default f with one column condition broken.

    f(i) is blown up at a node with a neighbour (node 2 if it has one); with
    no edge at all, where every condition only asks f(i) > 0, f(1) = 0.
    """
    base = list(default_f(datum).values)
    linked = [i for i in range(datum.n) if datum.neighbors(i)]
    if not linked:
        return (0, *base[1:])
    i = 1 if 1 in linked else linked[0]
    base[i] = base[i] * 100
    return tuple(base)


# --- cambrian: ray equality and polytope equality ---------------------------------------

def suite_cambrian(datum: CartanDatum, c: CoxeterElement) -> list:
    model = build_model(datum, c)
    rays = set(cambrian_rays(model))
    want = {lab.weight for lab in model.labels}
    bad = _non_singleton(c, singletons(c))
    results = [_check("ray-equality", rays == want and not bad,
                      f"{len(rays)} singleton rays vs {len(want)} labels{bad}")]
    ok, witness = polytopes_equal(model, default_f(datum))
    results.append(_check("polytope-equality", ok, witness or "canonical H-reps identical"))
    return results


def _non_singleton(c: CoxeterElement, elems) -> str:
    """A clause naming the first element that is not both c-sortable and
    c-antisortable, or "" when there is none."""
    w = next((w for w in elems if not (is_sortable(c, w) and is_antisortable(c, w))), None)
    if w is None:
        return ""
    return f"; first: {render_word(c_sorting_word(c, w)[0])} is not both c-sortable and c-antisortable"


# --- exchange: the mutation oracle ------------------------------------------------------

def suite_exchange(datum: CartanDatum, c: CoxeterElement) -> list:
    """The mutation oracle against the model; a failed check names its first witness."""
    model = build_model(datum, c)
    graph = exchange_graph(datum, c)
    results = []
    results.append(_check("seeds-are-clusters", len(graph.seeds) == len(model.clusters()),
                          f"{len(graph.seeds)} seeds vs {len(model.clusters())} clusters"))
    unmatched = ([f"g-vector {list(g)} is not a label weight"
                  for g in graph.variables if g not in model.id_by_weight]
                 + [f"label weight {list(lab.weight)} is not a g-vector"
                    for lab in model.labels if lab.weight not in graph.variables])
    results.append(_tally("g-vectors-are-labels",
                          f"{len(graph.variables)} variables vs {len(model.labels)} labels", unmatched))
    problems = verify_exchange_relations(graph, model)
    results.append(_tally("exchange-relations", f"{len(graph.edges)} edges, {len(problems)} failures",
                          [f"{kind} on g-vectors {list(g1)}, {list(g2)}" for kind, g1, g2 in problems]))
    return results


# --- sorting: section-6 machinery --------------------------------------------------------

def suite_sorting(datum: CartanDatum, c: CoxeterElement) -> list:
    results = []
    w0 = longest_element(datum)
    word, blocks = w_m_word(c, c.max_h())
    results.append(_check("w_m-evaluates-to-w0", word_to_element(datum, word) == w0,
                          f"length {len(word)}"))
    _, extracted = c_sorting_word(c, w0)
    results.append(_check("w_m-is-sorting-word", blocks == extracted,
                          "greedy construction matches lex-first extraction"))
    sing = singletons(c)
    bad = _non_singleton(c, sing)
    results.append(_check("singletons-prefixes", not bad, f"{len(sing)} c-singletons{bad}"))
    try:
        group = enumerate_group(datum, cap=SORTING_GROUP_CAP)
    except WeylError:   # a group over the cap skips the brute force
        return results
    brute = {w.mw for w in group if is_sortable(c, w) and is_antisortable(c, w)}
    results.append(_check("singletons-brute-force", brute == {w.mw for w in sing},
                          f"group order {len(group)}"))
    return results


# --- maps: compatibility-preserving bijections --------------------------------------------

def compat_pi_independent(model: ClusterModel, a: int, b: int) -> int:
    """Weight-side compatibility degree computed without the root-side tables.

    Walks tau on raw weight coordinates (omega_i if the weight is -omega_i,
    c times it otherwise) until the first argument is a fundamental weight,
    then reads the positive part of the alpha_i-coordinate of phi_c of the other.
    c^{-1} is applied as its reflection word, s_{o_1} first, so no matrix is inverted.
    """
    datum, c = model.datum, model.c
    x = model.labels[a].weight
    y = model.labels[b].weight

    def tau_w(v):
        if unit_node(v, -1) is not None:
            return tuple(-t for t in v)
        return c.wel.apply_weight(v)

    for _ in range(model.tau_order + 1):
        node = unit_node(x)
        if node is not None:
            cinv_y = reflect_along(datum, c.order, y, reflect_weight)
            img = tuple(p - q for p, q in zip(cinv_y, y))
            val = weight_to_root(datum, img)[node]
            return int(val) if val > 0 else 0
        x, y = tau_w(x), tau_w(y)
    raise RuntimeError("weight-side walk never reached a fundamental weight")


def _map_break(src, dst, mapping, pairs, taus=None, where=""):
    """Text naming the first pair whose degree ``mapping`` changes, else (given
    ``taus = (src_tau, dst_tau)``) the first label x with dst_tau(mapping x) !=
    mapping(src_tau x); None when the map keeps both."""
    for a, b in pairs:
        x, y = src.compat(a, b), dst.compat(mapping[a], mapping[b])
        if x != y:
            return f"{where}labels {a}, {b}: degree {x}, of their images {y}"
    if taus:
        src_tau, dst_tau = taus
        a = next((a for a in range(len(mapping)) if dst_tau(mapping[a]) != mapping[src_tau(a)]), None)
        if a is not None:
            return f"{where}label {a}: the map does not intertwine tau"
    return None


def suite_maps(datum: CartanDatum, c: CoxeterElement, seed: int = 0) -> list:
    """Compatibility-preserving maps; a failed check names its first pair or label."""
    model = build_model(datum, c)
    rng = random.Random(seed)

    def id_pairs(size, exhaustive):
        """Every pair of ids below size, or MAPS_SAMPLES random pairs."""
        if exhaustive:
            return [(a, b) for a in range(size) for b in range(size)]
        return [(rng.randrange(size), rng.randrange(size)) for _ in range(MAPS_SAMPLES)]

    exhaustive = datum.n <= MAPS_EXHAUSTIVE_RANK
    pairs = id_pairs(len(model.labels), exhaustive)
    results = []

    bad = next(((a, b) for a, b in pairs if model.compat(a, b) != compat_pi_independent(model, a, b)), None)
    results.append(_row("phi-compat", bad and f"labels {bad[0]}, {bad[1]}: root-side degree "
                        f"{model.compat(*bad)}, weight-side degree {compat_pi_independent(model, *bad)}",
                        "weight-side degree equals root-side degree"))

    witness = None
    for i in model.c.initial_nodes():
        tgt, mp = sigma_map(model, i)
        witness = witness or _map_break(model, tgt, mp, pairs, (model.tau, tgt.tau), f"s{i + 1}: ")
    results.append(_row("sigma", witness, "per initial node: compat preserved, tau intertwined"))

    tgt, mp = bar_map(model)
    witness = _map_break(model, tgt, mp, pairs, (model.tau, lambda x: tgt.tau(x, -1)))
    results.append(_row("bar", witness, "compat preserved, bar(tau x) = tau^{-1}(bar x)"))

    witness = None
    for drop in range(datum.n):
        nodes = tuple(k for k in range(datum.n) if k != drop)
        if not nodes:
            continue
        sub, emb, _ = iota_map(model, nodes)
        ls = len(sub.labels)
        sub_pairs = id_pairs(ls, ls * ls <= 4 * MAPS_SAMPLES)   # drawn even after a failure
        witness = witness or _map_break(sub, model, emb, sub_pairs, where=f"without node {drop + 1}: ")
    results.append(_row("iota", witness, "restriction preserves the degree"))

    if len(datum.components) == 1:
        oracle = BipartiteOracle(datum)
        mt = build_model(datum, oracle.t)
        tm = oracle.t_minus_map(mt)
        witness = _map_break(oracle, mt, tm, id_pairs(len(oracle.roots), exhaustive),
                             (lambda a: oracle.tau(-1, oracle.tau(1, a)), mt.tau))
        results.append(_row("t-minus", witness, "bipartite oracle degree transported by t_-"))
    return results
