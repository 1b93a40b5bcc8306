"""Exact cluster fans, Cambrian rays, and generalized associahedra."""

from .cartan import (
    CartanDatum,
    CartanError,
    RootSystem,
    datum_from_matrix,
    generate_roots,
    make_datum,
)
from .model import BipartiteOracle, ClusterModel, Label, ModelError, bar_map, build_model, iota_map, sigma_map
from .mutation import ExchangeGraph, LaurentPoly, Seed, b_of_coxeter, exchange_graph, mutate, verify_exchange_relations
from .polytope import HRep, SupportData, VRep, build_hrep, cambrian_hrep, check_polytopality, default_f, polytopes_equal, vertices
from .weyl import (
    CoxeterElement,
    WeylElement,
    WeylError,
    all_coxeter_elements,
    bipartite_coxeter,
    c_sorting_word,
    coxeter_from_order,
    elementary_move,
    is_antisortable,
    is_sortable,
    singletons,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
