"""Weight labels, almost-positive-root labels, compatibility, and cluster fans.

A model couples the two labelings of cluster variables: weights c^m * omega_i
(the g-vector side, living in P) and their images under the lattice
isomorphism phi_c = c^{-1} - 1 (the root side, living in Q).  Both views share
one label index space, one tau permutation, and one compatibility table.
"""
from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from math import lcm
from operator import mul

from .cartan import (
    CartanDatum,
    generate_roots,
    reflect_along,
    reflect_root,
    reflect_weight,
    unit_node,
    weight_to_root_int,
)
from .linalg import bareiss, identity_mat, vec_add
from .weyl import (
    CoxeterElement,
    bipartite_coxeter,
    bipartition,
    coxeter_from_order,
    elementary_move,
    node_involution,
    word_to_element,
)


class ModelError(ValueError):
    pass


_PAIRED = -1    # ridge value in adjacent_cluster_pairs once two clusters share it


@dataclass(frozen=True, slots=True)
class Label:
    """One cluster-variable label: weight view c^m omega_i, root view phi_c of it."""

    index: int
    node: int        # i
    power: int       # m with 0 <= m <= h(i;c)
    weight: tuple    # weight-basis coordinates of c^m omega_i
    root: tuple      # root-basis coordinates of the almost-positive root
    orbit: int

    @property
    def is_negative(self) -> bool:
        """True for the labels -beta_i^c (exactly the power-0 labels)."""
        return self.power == 0


class ClusterList(Sequence):
    """Read-only tuples of n small integers in one flat array: a model's clusters
    (n sorted label ids each), its adjacent cluster pairs (n = 4) and the
    inverses of its cluster bases (n * n entries each).

    Indexing and iteration build each tuple on demand, so the model keeps one
    array of small integers rather than a tuple per item.  It compares equal to
    the tuple of its items.
    """

    __slots__ = ("flat", "n")

    def __init__(self, flat: array, n: int):
        self.flat, self.n = flat, n

    def __len__(self) -> int:
        return len(self.flat) // self.n

    def __getitem__(self, i) -> tuple:
        k = range(len(self))[i]
        return tuple(self.flat[k * self.n:(k + 1) * self.n])

    def __iter__(self):
        return zip(*[iter(self.flat)] * self.n)

    def __eq__(self, other) -> bool:
        if isinstance(other, (tuple, ClusterList)):
            return tuple(self) == tuple(other)
        return NotImplemented


class ClusterModel:
    """All label data for one (datum, Coxeter element) pair.

    Labels and the tau-orbits (each label with its position) are built eagerly;
    the compatibility table and the cluster list are computed on first use.
    Label (i, m) has id first[i] + m, first[i] = sum_{j<i} (h(j;c) + 1); tau sends
    (i, m) to (i, m+1) and (i, h(i;c)) to (i*, 0), so every orbit is the labels
    of some i followed by those of i* (the labels of i alone when i = i*).
    """

    def __init__(self, datum: CartanDatum, c: CoxeterElement):
        if c.datum != datum:
            raise ModelError("Coxeter element belongs to a different datum")
        self.datum = datum
        self.c = c
        self.n = datum.n
        self._build_labels()
        self._compat = None
        self._clusters = None
        self._adjacent = None
        self._restrictions = {}
        self._expand_cache = {}
        self._uplus_cache = {}
        self._exchange_rows = None
        self._inverses = {}

    # --- construction ---------------------------------------------------------------

    def _build_labels(self):
        datum, c = self.datum, self.c
        n, h = self.n, c.h_values
        istar = node_involution(datum)
        first = [sum(h[j] + 1 for j in range(i)) for i in range(n)]
        self.neg_id = {i: first[i] for i in range(n)}
        orbits, orbit_of, orbit_pos = [], [0] * (sum(h) + n), [0] * (sum(h) + n)
        for i in range(n):
            if i <= istar[i]:
                nodes = (i,) if istar[i] == i else (i, istar[i])
                orb = tuple(first[j] + m for j in nodes for m in range(h[j] + 1))
                for t, k in enumerate(orb):
                    orbit_of[k], orbit_pos[k] = len(orbits), t
                orbits.append(orb)
        self.orbits = tuple(orbits)
        self._orbit_pos = tuple(orbit_pos)
        self.tau_order = lcm(*(len(o) for o in orbits))
        # Distance (along tau) from each label to the next -beta label, and its node.
        self.steps_to_neg = tuple((0, i) if m == 0 else (h[i] - m + 1, istar[i])
                                  for i in range(n) for m in range(h[i] + 1))

        # phi_c(c^m omega_i) = c^(m-1) omega_i - c^m omega_i: the previous weight of the
        # orbit walk, and for m = 0 the weight c^-1 omega_i = s_on ... s_o1 omega_i.
        basis = identity_mat(n)
        labels = []
        for i, w in enumerate(basis):
            prev = reflect_along(datum, c.order, w, reflect_weight)
            for m in range(h[i] + 1):
                img = tuple(a - b for a, b in zip(prev, w))
                k = first[i] + m
                labels.append(Label(k, i, m, w, weight_to_root_int(datum, img), orbit_of[k]))
                prev, w = w, c.wel.apply_weight(w)
        self.labels = tuple(labels)
        self.id_by_weight = {lab.weight: lab.index for lab in labels}
        self.id_by_root = {lab.root: lab.index for lab in labels}
        if len(self.id_by_weight) != len(labels):
            raise ModelError("labels c^m omega_i are not pairwise distinct")
        roots = generate_roots(datum)
        if len(labels) != roots.size + n:
            raise ModelError("label count differs from |Phi+| + n")

        # Independent construction of the negative labels: beta_i^c = s_on ... s_o(k+1) alpha_ok.
        betas = {i: reflect_along(datum, c.order[k + 1:], basis[i], reflect_root)
                 for k, i in enumerate(c.order)}
        beta_roots = set(betas.values())
        sent_negative = {r for r in roots.positive_roots if all(x <= 0 for x in c.wel.apply_root(r))}
        if beta_roots != sent_negative:
            raise ModelError("beta_i^c do not match the roots c sends negative")
        for i in range(n):
            if tuple(-x for x in labels[first[i]].root) != betas[i]:
                raise ModelError("phi_c(omega_i) differs from -beta_i^c")
        expected = set(roots.positive_roots) | {tuple(-x for x in b) for b in betas.values()}
        if set(self.id_by_root) != expected:
            raise ModelError("root labels differ from Phi+ union {-beta_i^c}")
        self.beta = betas

        # Cross-check the root-side description of tau.
        for lab in labels:
            r = lab.root
            want = tuple(-x for x in r) if r in beta_roots else c.wel.apply_root(r)
            if labels[self.tau(lab.index)].root != want:
                raise ModelError("tau disagrees with its root-side description")

    # --- tau and compatibility --------------------------------------------------------

    def tau(self, label_id: int, exponent: int = 1) -> int:
        orb = self.orbits[self.labels[label_id].orbit]
        return orb[(self._orbit_pos[label_id] + exponent) % len(orb)]

    def compat_table(self):
        if self._compat is None:
            L = len(self.labels)
            table = [[0] * L for _ in range(L)]
            for a in range(L):
                dist, node = self.steps_to_neg[a]
                for b in range(L):
                    r = self.labels[self.tau(b, dist)].root
                    table[a][b] = r[node] if r[node] > 0 else 0
            for a in range(L):
                for b in range(L):
                    if (table[a][b] == 0) != (table[b][a] == 0):
                        raise ModelError("compatibility degree is not zero-symmetric")
            self._compat = tuple(tuple(row) for row in table)
        return self._compat

    def compat(self, a: int, b: int) -> int:
        return self.compat_table()[a][b]

    # --- clusters ---------------------------------------------------------------------

    def clusters(self) -> ClusterList:
        """All maximal sets of pairwise compatible labels, each of size n, in sorted order."""
        if self._clusters is None:
            table = self.compat_table()
            L = len(self.labels)
            adj = [sum(1 << b for b in range(L) if b != a and table[a][b] == 0 and table[b][a] == 0)
                   for a in range(L)]
            cliques = _maximal_cliques(adj)
            for cl in cliques:
                if len(cl) != self.n:
                    raise ModelError("maximal compatible set of wrong size")
                cl.sort()
            cliques.sort()
            flat = array(_typecode(L))
            for cl in cliques:
                flat.fromlist(cl)
            self._clusters = ClusterList(flat, self.n)
        return self._clusters

    def adjacent_cluster_pairs(self) -> ClusterList:
        """Pairs (c1, c2, a, b) of clusters c1 < c2 sharing n-1 labels, with the
        exchanged labels a in c1 and b in c2, in sorted order.

        A ridge (a cluster minus one label) is keyed by the bitmask of its
        labels, and a pair is found when the second cluster on it arrives.  Only
        the key c1 * count + c2 is kept until the sort; a and b are read off the
        two clusters' bitmasks, so no tuple per pair is ever built.
        """
        if self._adjacent is None:
            clusters = self.clusters()
            count = len(clusters)
            masks = []
            first = {}              # ridge -> id of the first cluster on it, or _PAIRED
            keys = []               # c1 * count + c2 per pair
            for ci, cl in enumerate(clusters):
                mask = sum(1 << k for k in cl)
                masks.append(mask)
                for b in cl:
                    ridge = mask ^ (1 << b)
                    c1 = first.get(ridge)
                    if c1 is None:
                        first[ridge] = ci
                    elif c1 == _PAIRED:
                        raise ModelError("a ridge lies in more than two clusters")
                    else:
                        keys.append(c1 * count + ci)
                        first[ridge] = _PAIRED
            del first               # the largest scratch, freed before the array grows
            keys.sort()
            flat = array(_typecode(max(count, len(self.labels))))
            for key in keys:
                c1, c2 = divmod(key, count)
                m1, m2 = masks[c1], masks[c2]
                flat.extend((c1, c2, (m1 & ~m2).bit_length() - 1, (m2 & ~m1).bit_length() - 1))
            self._adjacent = ClusterList(flat, 4)
        return self._adjacent

    def cluster_inverses(self, side: str) -> tuple:
        """Each cluster's basis on one side, "root" or "weight", inverted once: ``(inverses, bad)``.

        This is the one place a cluster basis is inverted or its determinant
        taken.  Item k of ``inverses`` is det times the adjugate of the matrix
        whose columns are cluster k's labels, row-major (n * n entries), from
        one Bareiss pass over the labels as rows against the identity columns.
        Clusters are Z-bases, so det = +-1 and that is the exact inverse.
        ``bad`` names each cluster where it is not ("cluster [..] has
        determinant d"); its item is then det**2 times the inverse, whose
        signs still decide cone membership (zeros when det = 0).
        """
        if side not in self._inverses:
            flat, bad = [], []
            eye = identity_mat(self.n)
            for cl in self.clusters():
                det, rows = bareiss(tuple(getattr(self.labels[k], side) for k in cl), eye)
                if det not in (1, -1):
                    bad.append(f"cluster {list(cl)} has determinant {det}")
                flat.extend(det * x for row in rows or eye for x in row)
            size = max(map(abs, flat), default=0) + 1
            inverses = ClusterList(array(_typecode(size, signed=True), flat), self.n * self.n)
            self._inverses[side] = inverses, tuple(bad)
        return self._inverses[side]

    def exchange_rows(self) -> ClusterList:
        """Node counts of the expansions of a + b and of a uplus b, for each adjacent pair.

        Items 2k and 2k + 1 belong to the k-th pair (c1, c2, a, b) of
        ``adjacent_cluster_pairs``; count i sums the coefficients of the labels
        at node i.  A support function F(x) = sum over the expansion of x of
        coefficient * f(node) is then one integer dot product with f, so each
        pair's expansions are read once however many f are checked.
        """
        if self._exchange_rows is None:
            nodes = [lab.node for lab in self.labels]
            flat = []
            for _, _, a, b in self.adjacent_cluster_pairs():
                for point in self.uplus(a, b):
                    counts = [0] * self.n
                    for idx, coeff in self.expand_root(point).items():
                        counts[nodes[idx]] += coeff
                    flat.extend(counts)
            self._exchange_rows = ClusterList(array(_typecode(max(flat, default=0) + 1), flat), self.n)
        return self._exchange_rows

    # --- restriction to sub-diagrams ----------------------------------------------------

    def restriction(self, nodes: tuple):
        """(sub-model, embedding) for the sub-diagram on the given parent nodes.

        The embedding maps sub-label ids to parent-label ids (the twisted
        inclusion: positive roots go to themselves, -beta_i^{c_J} to -beta_i^c).
        """
        nodes = tuple(sorted(nodes))
        if nodes in self._restrictions:
            return self._restrictions[nodes]
        sub_datum = self.datum.restrict(nodes)
        sub_order = tuple(nodes.index(i) for i in self.c.order if i in nodes)
        sub_model = build_model(sub_datum, coxeter_from_order(sub_datum, sub_order))
        emb = []
        for lab in sub_model.labels:
            if lab.is_negative:
                emb.append(self.neg_id[nodes[lab.node]])
            else:
                full = [0] * self.n
                for pos, i in enumerate(nodes):
                    full[i] = lab.root[pos]
                emb.append(self.id_by_root[tuple(full)])
        result = (sub_model, tuple(emb), nodes)
        self._restrictions[nodes] = result
        return result

    # --- cluster expansions --------------------------------------------------------------

    def peel_negatives(self, gamma: tuple):
        """Coefficients of the -beta_i^c part of gamma, in the order of c's word.

        Returns (m, gamma_plus) with gamma = -sum m_i beta_i^c + gamma_plus,
        gamma_plus in the positive cone and supported where m vanishes.
        """
        acc = [-x for x in gamma]
        m = [0] * self.n
        for i in self.c.order:
            mi = acc[i] if acc[i] > 0 else 0
            m[i] = mi
            if mi:
                beta = self.beta[i]
                for t in range(self.n):
                    acc[t] -= mi * beta[t]
        gamma_plus = tuple(-x for x in acc)
        if any(x < 0 for x in gamma_plus) or any(m[i] and gamma_plus[i] for i in range(self.n)):
            raise ModelError("negative peel produced an invalid positive part")
        return tuple(m), gamma_plus

    def expand_root(self, gamma: tuple) -> dict:
        """The c-cluster expansion of a root-lattice point: label id -> coefficient."""
        gamma = _checked_point(self.n, gamma)
        cached = self._expand_cache.get(gamma)
        if cached is None:
            cached = self._expand(gamma)
            if _recombine(self, cached) != gamma:
                raise ModelError("expansion does not reconstruct the input point")
            self._expand_cache[gamma] = cached
        return dict(cached)

    def _expand(self, gamma: tuple) -> dict:
        if all(x == 0 for x in gamma):
            return {}
        m, gamma_plus = self.peel_negatives(gamma)
        if any(m):
            res = {self.neg_id[i]: m[i] for i in range(self.n) if m[i]}
            if any(gamma_plus):
                nodes = tuple(i for i in range(self.n) if m[i] == 0)
                sub_model, emb, node_list = self.restriction(nodes)
                sub_gamma = tuple(gamma_plus[i] for i in node_list)
                for sid, coeff in sub_model._expand(sub_gamma).items():
                    if sub_model.labels[sid].is_negative:
                        raise ModelError("positive-cone point expanded over a negative label")
                    res[emb[sid]] = coeff
            return res
        # gamma sits in the positive cone: slide backwards along tau until it leaves.
        # Exit happens within max_i h(i;c) steps (each positive label (i, m)
        # reaches the negative label (i, 0) after m <= h(i;c) backward steps),
        # and every orbit length exceeds max h, so tau_order is a safe guard.
        cinv = self.c.wel.inverse()
        g = gamma
        k = 0
        while all(x >= 0 for x in g):
            g = cinv.apply_root(g)
            k += 1
            if k > self.tau_order:
                raise ModelError("positive-cone walk failed to terminate")
        inner = self._expand(g)
        return {self.tau(idx, k): coeff for idx, coeff in inner.items()}

    def expand_weight(self, mu: tuple) -> dict:
        """Expansion of a weight-lattice point; phi_c carries it to the root side."""
        mu = _checked_point(self.n, mu)
        cinv = self.c.wel.inverse()
        img = tuple(a - b for a, b in zip(cinv.apply_weight(mu), mu))
        return self.expand_root(weight_to_root_int(self.datum, img))

    def tau_extend_root(self, exponent: int, gamma: tuple) -> tuple:
        """Piecewise-linear extension of tau^exponent applied to a root point."""
        out = (0,) * self.n
        for idx, coeff in self.expand_root(gamma).items():
            out = vec_add(out, tuple(coeff * x for x in self.labels[self.tau(idx, exponent)].root))
        return out

    def uplus(self, a: int, b: int):
        """The companion of a+b in the tau-orbit of pairwise sums of an exchangeable pair.

        Returns (sum, uplus) as root-coordinate tuples; both are 0 on a rank-one
        component, where the exchangeable pair is {alpha, -alpha}.
        """
        key = (a, b) if a <= b else (b, a)
        if key in self._uplus_cache:
            return self._uplus_cache[key]
        if not (self.compat(a, b) == 1 and self.compat(b, a) == 1):
            raise ModelError("uplus requires compatibility degree 1 both ways")
        s = vec_add(self.labels[a].root, self.labels[b].root)
        values = set()
        for m in range(self.tau_order):
            p = vec_add(self.labels[self.tau(a, -m)].root, self.labels[self.tau(b, -m)].root)
            values.add(self.tau_extend_root(m, p))
        zero = (0,) * self.n
        if values == {zero}:
            # Rank-one component: the pair is {alpha, -alpha} and every sum vanishes.
            result = (s, s)
        elif len(values) != 2 or s not in values:
            raise ModelError(f"orbit of sums has {len(values)} values, expected 2")
        else:
            result = (s, next(v for v in values if v != s))
        self._uplus_cache[key] = result
        return result

    # --- serialization -----------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "datum": self.datum.label,
            "coxeter": [i + 1 for i in self.c.order],
            "labels": [
                {
                    "id": lab.index,
                    "i": lab.node + 1,
                    "m": lab.power,
                    "weight": list(lab.weight),
                    "root": list(lab.root),
                    "negative": lab.is_negative,
                }
                for lab in self.labels
            ],
            "orbits": [list(o) for o in self.orbits],
            "compatibility": [list(row) for row in self.compat_table()],
            "clusters": [list(cl) for cl in self.clusters()],
        }


def _typecode(size: int, signed: bool = False) -> str:
    """The narrowest array typecode that holds 0, ..., size - 1, and with ``signed``
    also -(size - 1), ..., -1."""
    return next(t for t in ("bhiq" if signed else "BHIQ") if size <= 1 << 8 * array(t).itemsize - signed)


def _checked_point(n: int, p) -> tuple:
    """The lattice point p as a tuple of n ints; a wrong length or a non-integral coordinate raises."""
    try:
        p = tuple(p)
    except TypeError:   # 5, None: not a sequence at all
        raise ModelError(f"point {p} does not have {n} coordinates") from None
    if len(p) != n:
        raise ModelError(f"point {_point_text(p)} does not have {n} coordinates")
    try:
        q = tuple(map(int, p))
    except (TypeError, ValueError, OverflowError):   # 'a', nan, None, inf
        q = None
    if q != p:
        raise ModelError(f"point {_point_text(p)} has a non-integral coordinate")
    return q


def _point_text(p: tuple) -> str:
    """A point as it is written: (1, 3/2, -2)."""
    return "(" + ", ".join(map(str, p)) + ")"


def _recombine(model: ClusterModel, expansion: dict) -> tuple:
    out = (0,) * model.n
    for idx, coeff in expansion.items():
        if coeff <= 0:
            raise ModelError("expansion carries a non-positive coefficient")
        out = vec_add(out, tuple(coeff * x for x in model.labels[idx].root))
    return out


def _maximal_cliques(adj: list) -> list:
    """Every maximal clique of the graph with neighbourhood bitmasks adj, as label lists.

    Bron-Kerbosch with the Tomita pivot (the vertex of P | X with the most
    neighbours in P) over integer bitmasks; a set bit b stands for label b.
    """
    out = []

    def expand(r, p, x):
        if not p:
            if not x:
                out.append(r)
            return
        best, pivot, rest = -1, 0, p | x
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            k = (adj[u] & p).bit_count()
            if k > best:
                best, pivot = k, u
            rest ^= low
        todo = p & ~adj[pivot]
        while todo:
            low = todo & -todo
            v = low.bit_length() - 1
            expand(r + [v], p & adj[v], x & adj[v])
            p ^= low
            x |= low
            todo ^= low

    expand([], (1 << len(adj)) - 1, 0)
    del expand      # it refers to itself: without this, out lives until a cyclic collection
    return out


def build_model(datum: CartanDatum, c: CoxeterElement) -> ClusterModel:
    """The model of (datum, c), shared per reduced expression so model.c.order is c.order."""
    return _model(datum, c, c.order)


@lru_cache(maxsize=None)
def _model(datum: CartanDatum, c: CoxeterElement, order: tuple) -> ClusterModel:
    return ClusterModel(datum, c)


# --- structural maps ------------------------------------------------------------------

def sigma_map(model: ClusterModel, i: int):
    """Label bijection to the model of s_i c s_i, for s_i initial in c.

    Sends -beta_i^c to alpha_i and acts by s_i elsewhere.  Returns
    (target_model, mapping) with mapping[src_id] = dst_id.
    """
    if i not in model.c.initial_nodes():
        raise ModelError(f"s{i + 1} is not initial in c")
    target = build_model(model.datum, elementary_move(model.c, i))
    mapping = []
    for lab in model.labels:
        if lab.is_negative and lab.node == i:
            img = tuple(1 if k == i else 0 for k in range(model.n))
        else:
            img = reflect_root(model.datum, i, lab.root)
        mapping.append(target.id_by_root[img])
    return target, tuple(mapping)


def bar_map(model: ClusterModel):
    """Label bijection to the model of c^{-1}: identity on positive roots."""
    target = build_model(model.datum, model.c.inverse())
    mapping = []
    for lab in model.labels:
        if lab.is_negative:
            mapping.append(target.neg_id[lab.node])
        else:
            mapping.append(target.id_by_root[lab.root])
    return target, tuple(mapping)


def iota_map(model: ClusterModel, nodes: tuple):
    """(sub_model, embedding, nodes): the twisted inclusion of the sub-diagram labels."""
    return model.restriction(tuple(nodes))


# --- the bipartite almost-positive-root oracle ----------------------------------------

class BipartiteOracle:
    """Classic almost-positive-root model Phi_{>=-1} for a connected datum.

    Serves as an independent reference for every bipartite-element statement:
    it never touches the label machinery above except through the linear map
    t_minus, which carries it onto the model of t = t_plus * t_minus.
    """

    def __init__(self, datum: CartanDatum):
        if len(datum.components) != 1:
            raise ModelError("the bipartite oracle requires a connected datum")
        self.datum = datum
        self.n = datum.n
        self.plus, self.minus = bipartition(datum)
        roots = generate_roots(datum)
        self.h = roots.coxeter_numbers[0]
        neg = [tuple(-1 if k == i else 0 for k in range(datum.n)) for i in range(datum.n)]
        self.roots = tuple(list(roots.positive_roots) + neg)
        self.id_by_root = {r: k for k, r in enumerate(self.roots)}
        self.t_plus = word_to_element(datum, self.plus)
        self.t_minus = word_to_element(datum, self.minus)
        self.t = bipartite_coxeter(datum, 1)
        self._tau = {1: self._tau_perm(1), -1: self._tau_perm(-1)}

    def _tau_perm(self, eps: int):
        fixed = set(self.minus if eps > 0 else self.plus)
        mat = self.t_plus if eps > 0 else self.t_minus
        perm = []
        for r in self.roots:
            i = unit_node(r, -1)
            if i is not None and i in fixed:
                perm.append(self.id_by_root[r])
            else:
                perm.append(self.id_by_root[mat.apply_root(r)])
        return tuple(perm)

    def tau(self, eps: int, label_id: int) -> int:
        return self._tau[eps][label_id]

    def compat(self, a: int, b: int) -> int:
        """Compatibility degree on Phi_{>=-1} via the invariance walk."""
        for start in (1, -1):
            x, y = a, b
            eps = start
            for _ in range(2 * (self.h + 2) + 2):
                i = unit_node(self.roots[x], -1)
                if i is not None:
                    v = self.roots[y][i]
                    return v if v > 0 else 0
                x = self.tau(eps, x)
                y = self.tau(eps, y)
                eps = -eps
        raise ModelError("invariance walk never reached a negative simple root")

    def t_minus_map(self, model: ClusterModel):
        """Label bijection t_minus : Phi_{>=-1} -> Phi_ap(t) into the given model of t."""
        if model.c != self.t:
            raise ModelError("target model is not built on the bipartite element t")
        mapping = []
        for r in self.roots:
            mapping.append(model.id_by_root[self.t_minus.apply_root(r)])
        return tuple(mapping)


# --- exact cone membership (for fan verification) ---------------------------------------

def cone_membership(model: ClusterModel, points):
    """For each point, the closed cluster cones that contain it.

    Returns one list per point of ``(cluster index, coefficients)`` pairs, in
    cluster order, where ``coefficients`` are the point's integer coordinates
    in that cluster's basis (all >= 0).  The arithmetic is Python integers, so
    the answer is exact for points of any size; a cluster is dropped at its
    first negative coefficient.
    """
    n = model.n
    inverses = [tuple(zip(*[iter(inv)] * n)) for inv in model.cluster_inverses("root")[0]]
    out = []
    for p in points:
        p = _checked_point(model.n, p)
        cones = []
        for ci, inv in enumerate(inverses):
            coeffs = []
            for row in inv:
                x = sum(map(mul, row, p))
                if x < 0:
                    break
                coeffs.append(x)
            else:
                cones.append((ci, tuple(coeffs)))
        out.append(cones)
    return out
