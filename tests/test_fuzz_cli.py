"""Fuzz targets for the CLI input boundary: a correct answer, or exit 2 with one line.

Valid inputs are products of irreducible labels of total rank at most 4 with
a random Coxeter order; the expansion of a random lattice point must
recombine to the point over a compatible support with positive coefficients.
Malformed orders and labels must exit 2 with one ``error:`` line and nothing
on stdout.
"""
from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from coxfan.cli import main

IRREDUCIBLE = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "F4", "G2")


def rank(label: str) -> int:
    return int(label[1:])


def cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@st.composite
def products(draw):
    """A product label of 1-3 irreducible factors, total rank <= 4, and a 1-based order."""
    factors = [draw(st.sampled_from(IRREDUCIBLE))]
    for _ in range(draw(st.integers(0, 2))):
        room = 4 - sum(map(rank, factors))
        fits = [f for f in IRREDUCIBLE if rank(f) <= room]
        if not fits:
            break
        factors.append(draw(st.sampled_from(fits)))
    n = sum(map(rank, factors))
    order = draw(st.permutations(range(1, n + 1)))
    return "x".join(factors), n, ",".join(map(str, order))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), case=products(), side=st.sampled_from(["root", "weight"]))
def test_expansion_of_random_points_recombines_over_a_cluster(data, case, side):
    label, n, order = case
    point = data.draw(st.lists(st.integers(-30, 30), min_size=n, max_size=n))
    code, out, err = cli("expand", label, "--coxeter", order, "--point=" + ",".join(map(str, point)),
                         "--side", side, "--format", "json")
    assert code == 0, err
    terms = json.loads(out)["expansion"]
    assert all(t["coefficient"] > 0 for t in terms)
    total = [sum(t["coefficient"] * t[side][k] for t in terms) for k in range(n)]
    assert total == point
    code, out, err = cli("compat", label, "--coxeter", order, "--format", "json")
    assert code == 0, err
    table = json.loads(out)["compatibility"]
    ids = [t["label"] for t in terms]
    assert all(table[a][b] == 0 == table[b][a] for a in ids for b in ids if a != b)


def _one_error_line(argv):
    code, out, err = cli(*argv)
    assert code == 2 and out == "", argv
    assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


@st.composite
def bad_orders(draw):
    label, n, _ = draw(products())
    nodes = list(range(1, n + 1))
    kind = draw(st.sampled_from(["repeat", "range", "length"]))
    order = draw(st.permutations(nodes))
    if kind == "repeat" and n > 1:
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        order[i] = order[j]
    elif kind == "range" or n == 1:
        order[draw(st.integers(0, n - 1))] = draw(st.sampled_from([0, n + 1, n + 7, -1]))
    else:
        order = order[:-1] if draw(st.booleans()) else order + [order[0]]
    return label, ",".join(map(str, order))


@settings(max_examples=40, deadline=None)
@given(case=bad_orders())
def test_malformed_coxeter_orders_exit_2(case):
    label, order = case
    _one_error_line(["orbits", label, "--coxeter=" + order])


BAD_FACTORS = ("A0", "B1", "C1", "D3", "D2", "E5", "E9", "F3", "F5", "G1", "G3",   # bad rank
               "H3", "I2", "K4", "Z1", "a2")                                     # unknown family


@settings(max_examples=40, deadline=None)
@given(good=st.lists(st.sampled_from(IRREDUCIBLE), max_size=2),
       bad=st.one_of(st.sampled_from(BAD_FACTORS), st.just("")),
       at=st.integers(0, 2))
def test_malformed_labels_exit_2(good, bad, at):
    factors = list(good)
    factors.insert(min(at, len(factors)), bad)   # "" is an empty factor: "xA2", "A2x", "A1xxB2"
    _one_error_line(["orbits", "x".join(factors)])
