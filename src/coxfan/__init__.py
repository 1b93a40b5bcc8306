"""Exact cluster fans, Cambrian rays, and generalized associahedra."""

from .cartan import make_datum
from .model import build_model
from .polytope import default_f
from .weyl import coxeter_from_order

__all__ = ["build_model", "coxeter_from_order", "default_f", "make_datum"]
__version__ = "0.1.0"
