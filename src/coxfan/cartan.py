"""Finite-type Cartan data, root and weight lattices, and exact basis plumbing.

Nodes are indexed 0..n-1 internally; rendering and CLI input use the 1-based
Bourbaki numbering.  All arithmetic is exact: integer where the lattice
guarantees it, Fraction otherwise.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .linalg import bareiss, bareiss_det, identity_mat, mat_vec

_LABEL_RE = re.compile(r"^([A-G])\s*(\d+)$")

# Valid rank ranges per irreducible family.
_RANK_RANGE = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


class CartanError(ValueError):
    """Raised for malformed labels or matrices that are not of finite type."""


@dataclass(frozen=True)
class CartanDatum:
    """Validated finite-type Cartan matrix with symmetrizer and component data."""

    label: str
    cartan: tuple
    symmetrizer: tuple
    components: tuple
    # For a restriction: the unrestricted datum's label and this datum's nodes in it.
    base_label: str = field(default=None, compare=False, repr=False)
    base_nodes: tuple = field(default=None, compare=False, repr=False)

    @property
    def n(self) -> int:
        return len(self.cartan)

    @property
    def edges(self) -> tuple:
        n = self.n
        return tuple((i, j) for i in range(n) for j in range(i + 1, n) if self.cartan[i][j] != 0)

    def neighbors(self, i: int) -> tuple:
        return tuple(j for j in range(self.n) if j != i and self.cartan[i][j] != 0)

    def restrict(self, nodes: tuple) -> "CartanDatum":
        """Sub-datum on the given nodes (kept in ascending order, re-indexed from 0).

        Restrictions compose: the label names the nodes of the unrestricted
        datum, so d.restrict(J).restrict(K) == d.restrict(J[k] for k in K).
        """
        nodes = tuple(sorted(nodes))
        sub = tuple(tuple(self.cartan[i][j] for j in nodes) for i in nodes)
        if self.base_nodes is None:
            base_label, base_nodes = self.label, nodes
        else:
            base_label, base_nodes = self.base_label, tuple(self.base_nodes[i] for i in nodes)
        label = f"{base_label}[{','.join(str(i + 1) for i in base_nodes)}]"
        return replace(datum_from_matrix(sub, label=label),
                       base_label=base_label, base_nodes=base_nodes)

    def __repr__(self):
        return f"CartanDatum({self.label!r})"


def _family_matrix(family: str, n: int) -> list:
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = 2

    def edge(i, j, aij=-1, aji=-1):
        a[i][j] = aij
        a[j][i] = aji

    if family in ("A", "B", "C"):
        for k in range(n - 1):
            edge(k, k + 1)
        if family == "B" and n >= 2:
            edge(n - 2, n - 1, -1, -2)
        if family == "C" and n >= 2:
            edge(n - 2, n - 1, -2, -1)
    elif family == "D":
        for k in range(n - 3):
            edge(k, k + 1)
        edge(n - 3, n - 2)
        edge(n - 3, n - 1)
    elif family == "E":
        # Bourbaki: chain 1-3-4-5-(6-7-8), node 2 hangs off node 4.
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        for u, v in zip(chain, chain[1:]):
            edge(u, v)
        edge(1, 3)
    elif family == "F":
        edge(0, 1)
        edge(1, 2, -1, -2)
        edge(2, 3)
    elif family == "G":
        edge(0, 1, -3, -1)
    else:
        raise CartanError(f"unknown family {family!r}")
    return a


def _components_and_symmetrizer(cartan: tuple) -> tuple:
    """(components, d): the connected components of the diagram, each a sorted
    node tuple, and positive integers d with d_i*a_ij = d_j*a_ji, minimal per
    component, both from one walk of each component."""
    n = len(cartan)
    d = [None] * n
    comps = []
    for s in range(n):
        if d[s] is not None:
            continue
        d[s] = Fraction(1)
        comp = [s]
        for i in comp:   # comp grows while it is walked
            for j in range(n):
                if j == i or cartan[i][j] == 0:
                    continue
                val = d[i] * Fraction(cartan[i][j], cartan[j][i])
                if d[j] is None:
                    d[j] = val
                    comp.append(j)
                elif d[j] != val:
                    raise CartanError("matrix is not symmetrizable")
        denom = lcm(*(d[i].denominator for i in comp))
        g = gcd(*(int(d[i] * denom) for i in comp))
        for i in comp:
            d[i] = int(d[i] * denom) // g
        comps.append(tuple(sorted(comp)))
    return tuple(comps), tuple(d)


def datum_from_matrix(matrix, label: str = "custom") -> CartanDatum:
    """Validation gate for raw integer Cartan matrices."""
    cartan = tuple(tuple(int(x) for x in row) for row in matrix)
    n = len(cartan)
    if any(len(row) != n for row in cartan):
        raise CartanError("matrix is not square")
    for i in range(n):
        if cartan[i][i] != 2:
            raise CartanError("diagonal entries must equal 2")
        for j in range(n):
            if i != j:
                if cartan[i][j] > 0:
                    raise CartanError("off-diagonal entries must be <= 0")
                if (cartan[i][j] == 0) != (cartan[j][i] == 0):
                    raise CartanError("zero pattern must be symmetric")
    components, symmetrizer = _components_and_symmetrizer(cartan)
    sym = tuple(tuple(symmetrizer[i] * cartan[i][j] for j in range(n)) for i in range(n))
    # Finite type <=> the symmetrized matrix is positive definite.
    for k in range(1, n + 1):
        minor = tuple(row[:k] for row in sym[:k])
        if bareiss_det(minor) <= 0:
            raise CartanError("matrix is not of finite type")
    return CartanDatum(label=label, cartan=cartan, symmetrizer=symmetrizer, components=components)


@lru_cache(maxsize=None)
def make_datum(label: str) -> CartanDatum:
    """Parse a product label like "A3", "B2xG2", or "A1xA1" into a validated datum."""
    pieces = [p.strip() for p in label.strip().split("x")]
    if not pieces or any(not p for p in pieces):
        raise CartanError(f"cannot parse type label {label!r}")
    blocks = []
    for piece in pieces:
        m = _LABEL_RE.match(piece)
        if not m:
            raise CartanError(f"cannot parse type label {piece!r}")
        family, rank = m.group(1), int(m.group(2))
        lo, hi = _RANK_RANGE[family]
        if rank < lo or (hi is not None and rank > hi):
            raise CartanError(f"rank {rank} invalid for family {family}")
        blocks.append(_family_matrix(family, rank))
    n = sum(len(b) for b in blocks)
    cartan = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                cartan[off + i][off + j] = x
        off += len(b)
    canonical = "x".join(p.upper().replace(" ", "") for p in pieces)
    return datum_from_matrix(cartan, label=canonical)


# --- basis changes and reflections -------------------------------------------------

@lru_cache(maxsize=None)
def _cartan_inverse(datum: CartanDatum) -> tuple:
    """(det A, adj A), so that A^{-1} = adj A / det A with integer entries throughout."""
    det, cols = bareiss(datum.cartan, identity_mat(datum.n))
    return det, tuple(zip(*cols))


def root_to_weight(datum: CartanDatum, coords: tuple) -> tuple:
    """alpha_j = sum_i a_ij omega_i, so weight coords are A @ root coords."""
    return mat_vec(datum.cartan, coords)


def weight_to_root(datum: CartanDatum, coords: tuple) -> tuple:
    """Root coordinates of any weight, as Fractions."""
    det, adj = _cartan_inverse(datum)
    return tuple(Fraction(x, det) for x in mat_vec(adj, coords))


def weight_to_root_int(datum: CartanDatum, coords: tuple) -> tuple:
    """weight_to_root for points known to lie in the root lattice."""
    det, adj = _cartan_inverse(datum)
    out = []
    for x in mat_vec(adj, coords):
        q, r = divmod(x, det)
        if r:
            raise CartanError("point does not lie in the root lattice")
        out.append(q)
    return tuple(out)


def reflect_root(datum: CartanDatum, i: int, coords: tuple) -> tuple:
    """Simple reflection s_i on root coordinates: only the i-th coordinate moves."""
    pairing = sum(datum.cartan[i][j] * coords[j] for j in range(datum.n))
    out = list(coords)
    out[i] = coords[i] - pairing
    return tuple(out)


def reflect_weight(datum: CartanDatum, i: int, coords: tuple) -> tuple:
    """s_i on weight coordinates: subtract coords_i times alpha_i (column i of A)."""
    ci = coords[i]
    if ci == 0:
        return tuple(coords)
    return tuple(coords[k] - ci * datum.cartan[k][i] for k in range(datum.n))


def reflect_along(datum: CartanDatum, letters, coords: tuple, reflect) -> tuple:
    """s_{l_k} ... s_{l_1} applied to coords: the letters act first to last, each
    through ``reflect`` (reflect_weight or reflect_root).  Along reversed(word)
    this is the element of the word; along c's order it is c^{-1}."""
    for i in letters:
        coords = reflect(datum, i, coords)
    return coords


def unit_node(coords: tuple, sign: int = 1):
    """k when coords = sign * e_k (a simple root or a fundamental weight, times sign), else None."""
    if sum(coords) != sign or any(x not in (0, sign) for x in coords):
        return None
    return coords.index(sign)


# --- root systems -------------------------------------------------------------------

@dataclass(frozen=True)
class RootSystem:
    datum: CartanDatum
    positive_roots: tuple          # root-basis coordinate tuples, sorted by (height, coords)
    coxeter_numbers: tuple         # one entry per component of the datum

    @property
    def size(self) -> int:
        return len(self.positive_roots)


@lru_cache(maxsize=None)
def generate_roots(datum: CartanDatum) -> RootSystem:
    """All positive roots as the closure of the simples under simple reflections."""
    n = datum.n
    simples = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    seen = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for r in frontier:
            for i in range(n):
                img = reflect_root(datum, i, r)
                if img not in seen and all(x >= 0 for x in img):
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    positives = tuple(sorted(seen, key=lambda r: (sum(r), r)))
    cox = []
    for comp in datum.components:
        count = sum(1 for r in positives if any(r[i] for i in comp))
        h, rem = divmod(2 * count, len(comp))
        if rem:
            raise CartanError("component root count is inconsistent")
        cox.append(h)
    return RootSystem(datum=datum, positive_roots=positives, coxeter_numbers=tuple(cox))


def fmt_combo(coords: tuple, template: str) -> str:
    """Render e.g. (-1, 0, 2) with template "w{}" as "-w1+2w3" for human-readable output."""
    parts = []
    for i, x in enumerate(coords):
        if x == 0:
            continue
        term = template.format(i + 1)
        if x == 1:
            parts.append(("+" if parts else "") + term)
        elif x == -1:
            parts.append("-" + term)
        else:
            parts.append(("+" if parts and x > 0 else "") + f"{x}{term}")
    return "".join(parts) if parts else "0"
