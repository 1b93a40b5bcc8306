"""Every public name in coxfan has a caller in the library, or a stated reason to exist.

A public top-level function, class or method passes when its name occurs in
``src/coxfan`` outside its own definition (a top-level name as a bare name or
an import, not as an attribute ``x.name``, which reads some object's field
or method; a method's name as an attribute; a method whose name is also
stored as an attribute, ``x.name = ...``, only as a call ``x.name(...)``,
unless it is a property), when the traced benchmark wraps it
(``SPANNED``/``COUNTED`` in ``perfbench/tracing.py``), or when ``KEEP``
below gives the reason it stays.
A function that only tests call fails here: move it into the tests (as the
constructions in ``tests/paper_constructions.py`` were), give it a library
caller, or delete it.  A ``KEEP`` entry whose name has since gained a library
caller, or that the tracer wraps, fails too: the exemption has outlived its
reason.
"""
from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = ROOT / "src" / "coxfan"
TRACING = ROOT / "perfbench" / "tracing.py"

# Oracles that the tests exercise directly and no suite runs yet.
KEEP = {
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


def _names_outside(tree: ast.AST, skip: ast.AST, use: str = "name") -> set:
    """Names used in ``tree``, not looking inside ``skip``.

    ``use`` is "name" for identifiers and imported names, as a top-level
    function or class is reached by its bare name; "attribute" for attribute
    names only (``x.name``), as a method is reached through an object, so a
    local variable of the same name is no use; "call" for called attributes
    only (``x.name(...)``), as reading a stored field of the same name is no
    use either.
    """
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if use == "call":
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                out.add(node.func.attr)
        elif isinstance(node, ast.Name) and use == "name":
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and use == "attribute":
            out.add(node.attr)
        elif isinstance(node, ast.alias) and use == "name":
            out.add(node.asname or node.name)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _stored_attributes(trees: dict) -> set:
    """Attribute names assigned anywhere (``x.name = ...``)."""
    return {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)}


def _is_property(node: ast.AST) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "property" for d in node.decorator_list)


def unused_public_names(trees: dict = None, allowed: set = None) -> list:
    """Public names with no library caller, leaving out those in ``allowed``
    (by default, what the tracer wraps and what ``KEEP`` exempts)."""
    trees = _trees() if trees is None else trees
    allowed = _traced() | set(KEEP) if allowed is None else allowed
    stored = _stored_attributes(trees)

    def use(qual, short, node):
        if qual.count(".") < 2:
            return "name"
        return "call" if short in stored and not _is_property(node) else "attribute"

    return [qual for qual, short, node in _public_definitions(trees)
            if qual not in allowed
            and not any(short in _names_outside(tree, node, use(qual, short, node))
                        for tree in trees.values())]


def stale_exemptions(trees: dict = None, keep: dict = None, traced: set = None) -> list:
    """``KEEP`` names that need no exemption: the tracer wraps them, or they have a library caller."""
    trees = _trees() if trees is None else trees
    keep = KEEP if keep is None else keep
    traced = _traced() if traced is None else traced
    uncalled = set(unused_public_names(trees, allowed=set()))
    return [qual for qual in keep if qual in traced or qual not in uncalled]


def test_every_public_name_has_a_library_caller_or_a_reason():
    assert unused_public_names() == []


def test_no_exemption_outlives_its_reason():
    assert stale_exemptions() == []


# A method shadowed by a field of the same name: CoxeterElement.h(i) once had
# no caller while BipartiteOracle's ``self.h = ...`` read as a use of it.  And
# a function shadowed by a property: cartan.is_negative(coords) once had no
# library caller while ``lab.is_negative``, the Label property, read as one.
SHADOWED = """
class CoxeterElement:
    def h(self, i):
        return i

    def render(self):
        return ""

    @property
    def size(self):
        return 0


class BipartiteOracle:
    def __init__(self, c):
        self.h = c.size
        self.render = None
        self.size = 1

    def show(self, c):
        return c.render(), self.h, [lab for lab in c.labels if lab.is_negative]


class Label:
    @property
    def is_negative(self):
        return False


def is_negative(coords):
    return all(x <= 0 for x in coords) and any(x < 0 for x in coords)
"""


def test_a_method_shadowed_by_a_field_needs_a_call():
    trees = {"x": ast.parse(SHADOWED)}
    h = next(node for qual, _, node in _public_definitions(trees) if qual == "x.CoxeterElement.h")
    assert "h" in _names_outside(trees["x"], h, "attribute")   # the field alone would keep it
    assert unused_public_names(trees, allowed={"x.CoxeterElement", "x.BipartiteOracle",
                                               "x.BipartiteOracle.show", "x.Label",
                                               "x.is_negative"}) == ["x.CoxeterElement.h"]


def test_a_function_shadowed_by_an_attribute_needs_a_bare_name():
    trees = {"x": ast.parse(SHADOWED)}
    unused = unused_public_names(trees, allowed=set())
    assert "x.is_negative" in unused            # ``lab.is_negative`` reads the property
    assert "x.Label.is_negative" not in unused


def test_an_exemption_with_a_caller_or_a_span_is_stale():
    trees = {"x": ast.parse(SHADOWED)}
    keep = {"x.CoxeterElement.h": "no caller", "x.CoxeterElement.render": "called by show"}
    assert stale_exemptions(trees, keep, traced=set()) == ["x.CoxeterElement.render"]
    assert stale_exemptions(trees, keep, traced={"x.CoxeterElement.h"}) == [
        "x.CoxeterElement.h", "x.CoxeterElement.render"]


def test_keep_entries_name_real_definitions_with_reasons():
    defined = {qual for qual, _, _ in _public_definitions(_trees())}
    assert set(KEEP) <= defined
    assert all(reason.strip() for reason in KEEP.values())
