"""Every public name in coxfan has a caller in the library, or a stated reason to exist.

A public top-level function, class or method passes when its name occurs in
``src/coxfan`` outside its own definition (a method's name as an attribute),
when the traced benchmark wraps it (``SPANNED``/``COUNTED`` in
``perfbench/tracing.py``), or when ``KEEP`` below gives the reason it stays.
A function that only tests call fails here: move it into the tests, give it
a library caller, or delete it.
"""
from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = ROOT / "src" / "coxfan"
TRACING = ROOT / "perfbench" / "tracing.py"

# Paper constructions and oracles that the tests exercise directly.
KEEP = {
    "cartan.spaced": "the spacing relation of the compatibility degree (Stella, section 3)",
    "model.support_of_label": "support of a label, the other half of the spacing criterion",
    "polytope.folded_inequalities": "the admissibility cone of f with f(i*) = f(i) folded in",
    "polytope.hrep_orbit_groups": "the facets grouped by tau-orbit, one right-hand side each",
    "weyl.bipartite_via_leaf": "conjugation to a bipartite element that fixes a leaf (section 4)",
    "mutation.verify_g_vectors_principal": "g-vectors read off principal coefficients "
                                           "(Yang-Zelevinsky), an oracle awaiting a suite",
}


def _traced() -> set:
    spec = importlib.util.spec_from_file_location("coxfan_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {f"{mod}.{attr}" for mod, attr in module.SPANNED + module.COUNTED}


def _trees() -> dict:
    return {p.stem: ast.parse(p.read_text()) for p in sorted(SOURCES.glob("*.py"))}


def _public_definitions(trees: dict):
    """(qualified name, short name, def node) of every public function, class and method."""
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield f"{module}.{node.name}", node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{module}.{node.name}.{item.name}", item.name, item


def _names_outside(tree: ast.AST, skip: ast.AST, attributes_only: bool = False) -> set:
    """Identifiers, attributes and imported names in ``tree``, not looking inside ``skip``.

    With ``attributes_only``, only attribute names (``x.name``): a method is
    reached through an object, so a local variable of the same name is no use.
    """
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and not attributes_only:
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias) and not attributes_only:
            out.add(node.asname or node.name)
        stack.extend(ast.iter_child_nodes(node))
    return out


def unused_public_names() -> list:
    trees = _trees()
    allowed = _traced() | set(KEEP)
    return [qual for qual, short, node in _public_definitions(trees)
            if qual not in allowed
            and not any(short in _names_outside(tree, node, qual.count(".") == 2)
                        for tree in trees.values())]


def test_every_public_name_has_a_library_caller_or_a_reason():
    assert unused_public_names() == []


def test_keep_entries_name_real_definitions_with_reasons():
    defined = {qual for qual, _, _ in _public_definitions(_trees())}
    assert set(KEEP) <= defined
    assert all(reason.strip() for reason in KEEP.values())
