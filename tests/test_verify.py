"""Verification suites: failure details and the package's import footprint."""
from __future__ import annotations

import dataclasses
import random
import subprocess
import sys
from pathlib import Path

from fractions import Fraction

import pytest

import coxfan
import coxfan.polytope as P
import coxfan.verify as V
from coxfan.cartan import make_datum
from coxfan.cli import main
from coxfan.model import BipartiteOracle, ClusterModel, build_model
from coxfan.polytope import default_f, random_valid_f
from coxfan.weyl import WeylElement, all_coxeter_elements, coxeter_from_order

from paper_constructions import simplicity_in_fractions

A3 = make_datum("A3")
C_A3 = coxeter_from_order(A3, (0, 1, 2))
POINTS = 50


def fan_details():
    return {r.name: (r.ok, r.detail) for r in V.suite_fan(A3, C_A3, points=POINTS)}


def sample_points(k):
    """The first k points suite_fan draws with seed 0."""
    rng = random.Random(0)
    return [[rng.randint(-20, 20) for _ in range(A3.n)] for _ in range(k)]


def test_passing_fan_details_are_unchanged():
    assert fan_details() == {
        "cluster-z-basis": (True, "14 clusters, 0 non-unimodular"),
        "cone-cover": (True, f"{POINTS} points in >=1 closed cone"),
        "cone-disjoint": (True, "open cones pairwise disjoint on sample"),
        "expansion-unique": (True, f"{POINTS} points, 0 with ambiguous or incompatible expansion"),
    }


def test_wrong_expansion_names_first_point(monkeypatch):
    model = build_model(A3, C_A3)
    true_expand = model.expand_root
    p = sample_points(1)[0]
    wrong = {k: v + 1 for k, v in sorted(true_expand(tuple(p)).items())}
    # the closed cones containing p are the clusters containing its support
    holding = [list(cl) for cl in model.clusters() if set(wrong) <= set(cl)]

    monkeypatch.setattr(model, "expand_root",
                        lambda q: {k: v + 1 for k, v in true_expand(q).items()})
    ok, detail = fan_details()["expansion-unique"]
    assert not ok
    assert detail.startswith(f"{POINTS} points, ")
    assert detail.endswith(f"; first: {p} expands to {wrong}, "
                           f"not its coefficients in the closed cones of clusters {holding}")

    a, b = next((a, b) for a in range(len(model.labels)) for b in range(len(model.labels))
                if model.compat(a, b))
    monkeypatch.setattr(model, "expand_root", lambda q: {a: 1, b: 1})
    ok, detail = fan_details()["expansion-unique"]
    assert not ok
    assert detail == (f"{POINTS} points, {POINTS} with ambiguous or incompatible expansion; "
                      f"first: {p} expands to {dict(sorted({a: 1, b: 1}.items()))}, "
                      "whose labels are not pairwise compatible")


def doubled_label_model(k):
    """A fresh A3 model of s1s2s3 whose label k has twice its weight and twice its root."""
    model = ClusterModel(A3, C_A3)
    model.clusters()
    lab = model.labels[k]
    doubled = dataclasses.replace(lab, weight=tuple(2 * x for x in lab.weight),
                                  root=tuple(2 * x for x in lab.root))
    model.labels = model.labels[:k] + (doubled,) + model.labels[k + 1:]
    return model


@pytest.mark.parametrize("suite,row,detail", [
    ("fan", "cluster-z-basis", "14 clusters, 4 non-unimodular; first: cluster [1, 5, 7] has determinant -2"),
    ("polytope", "vertices-simple", "first: cluster [1, 5, 7] has determinant 2, not a Z-basis"),
])
def test_a_cluster_that_is_not_a_z_basis_fails_its_row(suite, row, detail, monkeypatch, capsys):
    monkeypatch.setattr(V, "build_model", lambda datum, c: doubled_label_model(5))
    code = main(["verify", "A3", "--suite", suite])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")
    assert out == f"[FAIL] A3 c=s1s2s3 {suite}/{row}: {detail}\nFAILED\n"


def test_cone_failures_name_first_witness(monkeypatch):
    model = build_model(A3, C_A3)
    true_membership = V.cone_membership

    def tampered(model, points):
        cones = true_membership(model, points)
        cones[0] = []
        cones[1] = [(0, (1, 1, 1)), (3, (2, 1, 1))]
        return cones

    monkeypatch.setattr(V, "cone_membership", tampered)
    details = fan_details()
    p0, p1 = sample_points(2)
    assert details["cone-cover"] == (
        False, f"1 of {POINTS} points in no closed cone; first: {p0}")
    assert details["cone-disjoint"] == (
        False, f"1 of {POINTS} points in more than one open cone; first: {p1} in clusters "
               f"{[list(model.clusters()[0]), list(model.clusters()[3])]}")


# --- polytope rows -------------------------------------------------------------------------

A2 = make_datum("A2")
C_A2 = coxeter_from_order(A2, (0, 1))
RANDOM_FS = 4


def polytope_details():
    return {r.name: (r.ok, r.detail) for r in V.suite_polytope(A2, C_A2, random_fs=RANDOM_FS)}


def f_texts():
    """'f=...' for each f suite_polytope draws with seed 0, in order."""
    rng = random.Random(0)
    fs = [default_f(A2)] + [random_valid_f(A2, rng) for _ in range(RANDOM_FS)]
    return ["f=" + ",".join(str(x) for x in f.values) for f in fs]


def fail_from(k, value, true_call):
    """Wrap true_call so that it returns (or raises) value from its k-th call on."""
    calls = []

    def wrapped(*args):
        calls.append(args)
        if len(calls) < k:
            return true_call(*args)
        if isinstance(value, Exception):
            raise value
        return value
    return wrapped


def test_passing_polytope_details_are_unchanged():
    assert polytope_details() == {
        "vertices-simple": (True, f"{RANDOM_FS + 1} support choices"),
        "support-function": (True, "max over vertices matches F_c with maximizers = clusters"),
        "exchange-inequalities": (True, "strict on every adjacent pair"),
        "negative-control": (True, f"f={V._broken_f(A2)} must be rejected or violate an inequality"),
    }


def test_polytope_failures_name_first_f(monkeypatch):
    third = f_texts()[2]
    true_vertices, solved = V.cluster_vertices, []

    def swap_first_two(model, hrep):
        """The true vertices, except that from the third f on vertices 0 and 1 trade places."""
        vrep = true_vertices(model, hrep)
        if len(solved) >= 2:
            verts = list(vrep.vertices)
            verts[0], verts[1] = verts[1], verts[0]
            vrep = dataclasses.replace(vrep, vertices=tuple(verts))
        solved.append((hrep, vrep))
        return vrep

    monkeypatch.setattr(V, "cluster_vertices", swap_first_two)
    ok, detail = polytope_details()["vertices-simple"]
    hrep, vrep = solved[2]
    assert not ok and detail == f"first: {third}: {simplicity_in_fractions(hrep, vrep)}"
    assert detail.startswith(f"first: {third}: cluster {list(vrep.clusters[0])}, label ")
    monkeypatch.undo()

    problem = "support value of label 3 is 7, expected f(1)"
    monkeypatch.setattr(V, "verify_support_function",
                        fail_from(3, (None, [problem, "later"]), V.verify_support_function))
    assert polytope_details()["support-function"] == (False, f"first: {third}: {problem}")
    monkeypatch.undo()

    violation = [(1, 4, Fraction(3, 2), Fraction(2)), (0, 2, Fraction(1), Fraction(1))]
    monkeypatch.setattr(V, "check_polytopality", fail_from(3, violation, V.check_polytopality))
    assert polytope_details()["exchange-inequalities"] == (
        False, f"first: {third}: labels 1, 4: F(a) + F(b) = 3/2 <= 2 = max(F(a + b), F(a uplus b))")


@pytest.mark.parametrize("label", ["B3", "F4", "A1xB2"])
def test_polytope_suite_never_runs_the_fraction_vertex_check(label, monkeypatch):
    d = make_datum(label)

    def forbidden(*args):
        raise AssertionError("Fraction vertex check called")

    for module in (P, V):   # the suite may not hold either name, nor reach it through polytope
        monkeypatch.setattr(module, "vertices", forbidden, raising=False)
        monkeypatch.setattr(module, "check_simple", forbidden, raising=False)
    rows = V.suite_polytope(d, coxeter_from_order(d, tuple(range(d.n))))
    assert rows and all(r.ok for r in rows), [r for r in rows if not r.ok]


def test_negative_control_fails_when_nothing_is_reported(monkeypatch):
    monkeypatch.setattr(V, "violated_condition", lambda datum, f: "")
    monkeypatch.setattr(V, "check_polytopality", lambda model, f: [])
    for label in ("A2", "A1xA1"):
        d = make_datum(label)
        rows = {r.name: r.ok for r in V.suite_polytope(d, coxeter_from_order(d, (0, 1)), random_fs=1)}
        assert rows["negative-control"] is False


@pytest.mark.parametrize("label", ["A1xA1", "A1xA1xA1", "A1xA1xA2", "A1xA2", "G2xA1xA1"])
def test_a1_factors_pass_the_polytope_suite(label, capsys):
    assert main(["verify", label, "--suite", "polytope", "--random-f", "2"]) == 0
    assert "[FAIL]" not in capsys.readouterr().out


def test_broken_f_breaks_a_column_condition():
    for label in ("A1", "A2", "A1xA1", "A1xA1xA2", "B3", "G2xA1xA1", "D4"):
        d = make_datum(label)
        assert V.violated_condition(d, V._broken_f(d)), label


# --- maps rows -----------------------------------------------------------------------------

MODEL_A2 = build_model(A2, C_A2)
ALL_PAIRS = [(a, b) for a in range(5) for b in range(5)]


def maps_details():
    return {r.name: (r.ok, r.detail) for r in V.suite_maps(A2, C_A2)}


def swapped(mapping, i, j):
    out = list(mapping)
    out[i], out[j] = out[j], out[i]
    return tuple(out)


def first_break(src, dst, mapping, pairs):
    a, b = next((a, b) for a, b in pairs
                if src.compat(a, b) != dst.compat(mapping[a], mapping[b]))
    return f"labels {a}, {b}: degree {src.compat(a, b)}, of their images {dst.compat(mapping[a], mapping[b])}"


def test_passing_maps_details_are_unchanged():
    assert maps_details() == {
        "phi-compat": (True, "weight-side degree equals root-side degree"),
        "sigma": (True, "per initial node: compat preserved, tau intertwined"),
        "bar": (True, "compat preserved, bar(tau x) = tau^{-1}(bar x)"),
        "iota": (True, "restriction preserves the degree"),
        "t-minus": (True, "bipartite oracle degree transported by t_-"),
    }


def test_phi_compat_names_first_pair(monkeypatch):
    true_degree = V.compat_pi_independent
    monkeypatch.setattr(V, "compat_pi_independent",
                        lambda m, a, b: true_degree(m, a, b) + ((a, b) in {(1, 3), (4, 0)}))
    x = MODEL_A2.compat(1, 3)
    assert maps_details()["phi-compat"] == (
        False, f"first: labels 1, 3: root-side degree {x}, weight-side degree {x + 1}")


def test_map_rows_name_first_pair(monkeypatch):
    true_sigma, true_bar, true_iota = V.sigma_map, V.bar_map, V.iota_map
    true_t_minus = BipartiteOracle.t_minus_map

    def sigma(model, i):
        tgt, mp = true_sigma(model, i)
        return tgt, swapped(mp, 0, 2)

    def bar(model):
        tgt, mp = true_bar(model)
        return tgt, swapped(mp, 1, 3)

    def iota(model, nodes):
        # an A1 sub-diagram has a degree-preserving swap, so send every label to one image
        sub, emb, kept = true_iota(model, nodes)
        return sub, (emb[0],) * len(emb), kept

    monkeypatch.setattr(V, "sigma_map", sigma)
    monkeypatch.setattr(V, "bar_map", bar)
    monkeypatch.setattr(V, "iota_map", iota)
    monkeypatch.setattr(BipartiteOracle, "t_minus_map",
                        lambda self, model: swapped(true_t_minus(self, model), 0, 4))
    details = maps_details()

    node = C_A2.initial_nodes()[0]
    tgt, mp = sigma(MODEL_A2, node)
    assert details["sigma"] == (False, f"first: s{node + 1}: {first_break(MODEL_A2, tgt, mp, ALL_PAIRS)}")
    tgt, mp = bar(MODEL_A2)
    assert details["bar"] == (False, f"first: {first_break(MODEL_A2, tgt, mp, ALL_PAIRS)}")
    sub, emb, _ = iota(MODEL_A2, (1,))
    assert details["iota"] == (
        False, f"first: without node 1: {first_break(sub, MODEL_A2, emb, [(0, 0), (0, 1), (1, 0), (1, 1)])}")
    oracle = BipartiteOracle(A2)
    mt = build_model(A2, oracle.t)
    tm = oracle.t_minus_map(mt)
    assert details["t-minus"] == (False, f"first: {first_break(oracle, mt, tm, ALL_PAIRS)}")


def test_bar_names_first_label_that_breaks_tau(monkeypatch):
    # the identity onto the model itself keeps every degree but sends tau to tau, not tau^-1
    monkeypatch.setattr(V, "bar_map", lambda model: (model, tuple(range(len(model.labels)))))
    assert maps_details()["bar"] == (False, "first: label 0: the map does not intertwine tau")


@pytest.mark.parametrize("label", ["B3", "F4", "E6", "A1xB2"])
def test_maps_suite_never_inverts_a_matrix(label, monkeypatch):
    d = make_datum(label)

    def forbidden(self):
        raise AssertionError("WeylElement.inverse called")

    monkeypatch.setattr(WeylElement, "inverse", forbidden)
    rows = V.suite_maps(d, coxeter_from_order(d, tuple(range(d.n))))
    assert rows and all(r.ok for r in rows), [r for r in rows if not r.ok]


@pytest.mark.parametrize("label", ["A3", "B3", "G2", "A1xB2"])
def test_weight_side_degree_is_the_compatibility_degree(label):
    d = make_datum(label)
    for c in all_coxeter_elements(d):
        m = build_model(d, c)
        size = len(m.labels)
        bad = [(a, b) for a in range(size) for b in range(size)
               if V.compat_pi_independent(m, a, b) != m.compat(a, b)]
        assert not bad, (c.order, bad[:3])


def test_a_singleton_that_is_not_sortable_fails_both_rows(monkeypatch, capsys):
    c = coxeter_from_order(A3, (0, 1, 2))
    bad = V.singletons(c)[3]
    word = V.render_word(V.c_sorting_word(c, bad)[0])
    true_sortable = V.is_sortable
    monkeypatch.setattr(V, "is_sortable", lambda cc, w: not (cc == c and w == bad) and true_sortable(cc, w))
    for suite, row in (("sorting", "singletons-prefixes"), ("cambrian", "ray-equality")):
        assert main(["verify", "A3", "--suite", suite]) == 1
        lines = [line for line in capsys.readouterr().out.splitlines() if f"/{row}:" in line]
        assert len(lines) == 1 and lines[0].startswith("[FAIL]")
        assert lines[0].endswith(f"; first: {word} is not both c-sortable and c-antisortable")


def test_cli_suites_import_only_the_standard_library():
    # -S: no site-packages on the path, so a third-party import would fail outright
    script = (
        "import contextlib, io, sys\n"
        "from coxfan.cli import main\n"
        "from coxfan.verify import SUITES\n"
        "for suite in SUITES:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(['verify', 'B3', '--suite', suite]) == 0, suite\n"
        "loaded = {name.partition('.')[0] for name in sys.modules}\n"
        "extra = loaded - set(sys.stdlib_module_names) - {'coxfan', '__main__'}\n"
        "assert not extra, sorted(extra)\n"
    )
    src = str(Path(coxfan.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-S", "-c", script], env={"PYTHONPATH": src},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
