"""Verification suites: failure details and the package's import footprint."""
from __future__ import annotations

import random
import subprocess
import sys
from pathlib import Path

import coxfan
import coxfan.verify as V
from coxfan.cartan import make_datum
from coxfan.model import build_model
from coxfan.weyl import coxeter_from_order

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


def test_cone_failures_name_first_witness(monkeypatch):
    model = build_model(A3, C_A3)
    first = list(model.clusters()[0])
    monkeypatch.setattr(V, "bareiss_det", lambda m: 2)
    ok, detail = fan_details()["cluster-z-basis"]
    assert not ok
    assert detail == f"14 clusters, 14 non-unimodular; first: cluster {first} has determinant 2"

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
