"""CLI contracts: output shapes, exit codes, schema validity, determinism."""
from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from importlib import resources

import jsonschema
import pytest

from coxfan.cli import main

from paper_constructions import fraction_vertices


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def validate(payload, schema_name):
    schema = json.loads(
        resources.files("coxfan.schemas").joinpath(schema_name).read_text())
    jsonschema.validate(payload, schema)


def test_orbits_text_golden(capsys):
    code, out, _ = run(capsys, "orbits", "A3", "--coxeter", "1,2,3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1].strip() == "w1 -> -w1+w2 -> -w2+w3 -> -w3 -> w3 -> -w1"
    assert lines[2].strip() == "w2 -> -w1+w3 -> -w2"


def test_orbits_c3_text(capsys):
    code, out, _ = run(capsys, "orbits", "C3", "--coxeter", "1,2,3")
    assert code == 0
    assert "w3 -> -2w1+w3 -> -2w2+w3 -> -w3" in out


def test_orbits_a1(capsys):
    code, out, _ = run(capsys, "orbits", "A1")
    assert code == 0
    assert "w1 -> -w1" in out


def test_orbits_json_schema(capsys):
    code, out, _ = run(capsys, "orbits", "A3", "--coxeter", "1,2,3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "orbits.schema.json")
    assert payload["h"] == [3, 2, 1]


def test_polytope_off(capsys, tmp_path):
    path = tmp_path / "a3.off"
    code, out, _ = run(capsys, "polytope", "A3", "--coxeter", "1,2,3",
                       "--f", "default", "--format", "off", "--output", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "OFF" and lines[1] == "14 9 21"
    # exact sidecar accompanies the decimal OFF body
    sidecar = json.loads((tmp_path / "a3.off.json").read_text())
    assert len(sidecar["vertices"]) == 14 and len(sidecar["edges"]) == 21


def test_polytope_json_schema_and_roundtrip(capsys):
    code, out, _ = run(capsys, "polytope", "A3", "--coxeter", "1,2,3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "polytope.schema.json")
    assert len(payload["vertices"]) == 14 and len(payload["facets"]) == 9
    assert len(payload["edges"]) == 21


def test_polytope_invalid_f_exit_2(capsys):
    code, out, err = run(capsys, "polytope", "A3", "--coxeter", "1,2,3", "--f", "1,3,1")
    assert code == 2
    assert "2f(1)-f(2) > 0" in err


def test_bad_label_exit_2(capsys):
    code, _, err = run(capsys, "orbits", "H3")
    assert code == 2 and "error" in err


def test_bad_coxeter_exit_2(capsys):
    code, _, err = run(capsys, "orbits", "A3", "--coxeter", "1,1,2")
    assert code == 2


@pytest.mark.parametrize("order", ["1,2,4", "0,1,2", "1,1,2"])
def test_bad_coxeter_order_is_named_as_given(capsys, order):
    code, out, err = run(capsys, "compat", "A3", "--coxeter", order)
    assert (code, out) == (2, "")
    assert err == f"error: ({order.replace(',', ', ')}) is not a permutation of the nodes\n"


def test_all_coxeter_and_coxeter_exclude_each_other(capsys):
    for order in ("1,2", "9,9,9"):
        code, out, err = run(capsys, "verify", "A2", "--all-coxeter", "--coxeter", order,
                             "--suite", "cambrian")
        assert code == 2 and out == ""
        assert err == "error: --all-coxeter and --coxeter exclude each other\n"


def test_verify_suites_pass(capsys):
    for suite, datum in (("fan", "A2"), ("cambrian", "C3"), ("exchange", "A2"),
                         ("sorting", "A2"), ("maps", "A2"), ("polytope", "A2")):
        code, out, _ = run(capsys, "verify", datum, "--suite", suite,
                           "--points", "50", "--random-f", "3")
        assert code == 0, (suite, out)
        assert out.strip().endswith("OK")


def test_verify_all_coxeter_json(capsys):
    code, out, _ = run(capsys, "verify", "A3", "--all-coxeter", "--suite", "cambrian",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "verify.schema.json")
    assert payload["ok"] is True
    assert len(payload["checks"]) == 8   # 4 Coxeter elements x 2 checks


def test_compat_json_schema(capsys):
    code, out, _ = run(capsys, "compat", "A2", "--format", "json")
    assert code == 0
    validate(json.loads(out), "model.schema.json")


def test_clusters_json_schema(capsys):
    code, out, _ = run(capsys, "clusters", "A3", "--coxeter", "1,2,3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "clusters.schema.json")
    assert len(payload["clusters"]) == 14


def test_expand_json_schema(capsys):
    code, out, _ = run(capsys, "expand", "A2", "--coxeter", "1,2",
                       "--point", "0,-1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "expand.schema.json")
    assert payload["expansion"] == [
        {"label": 3, "coefficient": 1, "weight": [0, 1], "root": [0, -1]}]


def test_expand_weight_side(capsys):
    code, out, _ = run(capsys, "expand", "A2", "--coxeter", "1,2",
                       "--point", "1,0", "--side", "weight")
    assert code == 0
    assert out.strip() == "1*[w1]"


def test_expand_point_of_the_wrong_length_exits_2_on_both_sides(capsys):
    for side in ("root", "weight"):
        code, out, err = run(capsys, "expand", "B3", "--point", "1,2", "--side", side)
        assert (code, out) == (2, "")
        assert err == "error: point (1, 2) does not have 3 coordinates\n"


def test_a_non_integral_point_exits_2_with_the_model_message(capsys):
    for side in ("root", "weight"):
        for point, shown in (("1.5,2", "(3/2, 2)"), ("3/2,2", "(3/2, 2)"), ("0,-1/3", "(0, -1/3)")):
            code, out, err = run(capsys, "expand", "A2", f"--point={point}", "--side", side)
            assert (code, out, err) == (2, "", f"error: point {shown} has a non-integral coordinate\n")
    # a rational that is an integer is that integer
    assert run(capsys, "expand", "A2", "--point", "4/2,2.0") == run(capsys, "expand", "A2", "--point", "2,2")


def test_number_lists_that_do_not_parse_exit_2_with_one_line(capsys):
    for argv, what, text in ((("sorting-word", "A2", "--word", "1,x"), "word", "1,x"),
                             (("sorting-word", "A2", "--word", "1.5"), "word", "1.5"),
                             (("expand", "A2", "--point", "1,x"), "point", "1,x"),
                             (("expand", "A2", "--point", "1e3,2"), "point", "1e3,2"),
                             (("expand", "A2", "--point", "1/0,2"), "point", "1/0,2"),
                             (("orbits", "A2", "--coxeter", "1,x"), "Coxeter order", "1,x"),
                             (("polytope", "A2", "--f", "1,x"), "f", "1,x")):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: cannot parse {what} {text!r}\n")
        assert "invalid literal" not in err


def test_an_option_given_as_a_bare_double_dash_exits_2(capsys):
    for command, flag in (("expand", "--point"), ("polytope", "--f"), ("orbits", "--coxeter"),
                          ("sorting-word", "--word")):
        code, out, err = run(capsys, command, "A2", f"{flag}=--")
        assert (code, out, err) == (2, "", f"error: {flag} needs a value\n")


def test_sorting_word_json_schema(capsys):
    code, out, _ = run(capsys, "sorting-word", "A3", "--coxeter", "1,2,3",
                       "--word", "2,3,2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "sorting-word.schema.json")
    assert payload["factorization"] == [[2, 3], [2]]
    assert payload["sortable"] is True and payload["antisortable"] is False


def test_singletons_json_schema(capsys):
    code, out, _ = run(capsys, "singletons", "A2", "--coxeter", "1,2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "singletons.schema.json")
    assert payload["count"] == 4


def test_exchange_graph_json_schema(capsys):
    code, out, _ = run(capsys, "exchange-graph", "A2", "--coxeter", "1,2",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "exchange-graph.schema.json")
    assert len(payload["seeds"]) == 5


def test_identical_invocations_are_byte_identical(capsys):
    args = ("verify", "A2", "--suite", "fan", "--points", "40", "--format", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    args = ("polytope", "C3", "--format", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_verify_failure_exit_code(monkeypatch, capsys):
    # Force a failing check by monkeypatching one suite function.
    import coxfan.verify as V

    def broken(datum, c, points=1000, seed=0):
        return [V.CheckResult("forced", False, "synthetic failure")]

    monkeypatch.setattr(V, "suite_fan", broken)
    code, out, _ = run(capsys, "verify", "A2", "--suite", "fan")
    assert code == 1
    assert "FAIL" in out


def test_verify_spec_invocations(capsys):
    # the three documented pipelines, run end to end
    code, out, _ = run(capsys, "verify", "A3", "--all-coxeter", "--suite", "fan",
                       "--points", "120")
    assert code == 0 and out.strip().endswith("OK")
    code, out, _ = run(capsys, "verify", "C3", "--coxeter", "1,2,3", "--suite", "cambrian")
    assert code == 0 and out.strip().endswith("OK")
    code, out, _ = run(capsys, "verify", "A2", "--suite", "exchange")
    assert code == 0 and out.strip().endswith("OK")


def test_exchange_suite_has_no_rank_cap(capsys):
    # rank 5 was refused by a rank cap of 4; the seed budget admits it
    for label in ("D5", "B5"):
        code, out, err = run(capsys, "verify", label, "--suite", "exchange")
        assert code == 0 and out.splitlines()[-1] == "OK" and err == ""


def test_seed_walk_over_the_budget_exits_2(monkeypatch, capsys):
    import coxfan.mutation

    monkeypatch.setattr(coxfan.mutation, "_SEED_CAP", 10)   # A3 has 14 seeds
    code, out, err = run(capsys, "exchange-graph", "A3")
    assert code == 2 and out == ""
    assert err == "error: seed graph exceeded the cap of 10 seeds\n"


def test_polytope_keeps_its_simplicity_check(monkeypatch, capsys):
    import dataclasses

    import coxfan.cli
    from coxfan.polytope import HRep

    true_build = coxfan.cli.build_hrep

    def lowered(model, f):
        """The true facets, with the first one's right-hand side lowered by 1."""
        facets = list(true_build(model, f).facets)
        facets[0] = dataclasses.replace(facets[0], rhs=facets[0].rhs - 1)
        return HRep(tuple(facets))

    monkeypatch.setattr(coxfan.cli, "build_hrep", lowered)
    code, out, err = run(capsys, "polytope", "A3", "--coxeter", "1,2,3")
    assert (code, out) == (2, "")
    assert err == "error: vertex is not simple: an extra facet is tight or violated\n"


def test_output_ignores_the_old_cap_variables(monkeypatch, capsys):
    argvs = (("verify", "A3", "--suite", "exchange"), ("verify", "A2", "--suite", "sorting"))
    plain = [run(capsys, *argv) for argv in argvs]
    monkeypatch.setenv("COXFAN_RANK_CAP", "2")
    monkeypatch.setenv("COXFAN_GROUP_CAP", "junk")
    assert [run(capsys, *argv) for argv in argvs] == plain
    assert [code for code, _, _ in plain] == [0, 0]


def test_a_group_over_the_sorting_cap_skips_the_brute_force(monkeypatch, capsys):
    import coxfan.verify

    code, out, _ = run(capsys, "verify", "A2", "--suite", "sorting")
    assert code == 0 and "singletons-brute-force" in out
    monkeypatch.setattr(coxfan.verify, "SORTING_GROUP_CAP", 2)
    code, out, _ = run(capsys, "verify", "A2", "--suite", "sorting")
    assert code == 0 and out.splitlines()[-1] == "OK"
    assert "singletons-brute-force" not in out


def test_conditions_json_schema(capsys):
    code, out, _ = run(capsys, "conditions", "C3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "conditions.schema.json")
    assert payload["equalities"] == []
    assert len(payload["inequalities"]) == 3


def test_fractional_f_parses(capsys):
    code, out, _ = run(capsys, "polytope", "C3", "--f", "1,7/4,2", "--format", "json")
    assert code == 0
    assert json.loads(out)["f"] == ["1", "7/4", "2"]
    # boundary case: f(1) + f(3) = 2 f(2) is not strict, hence rejected
    code, _, err = run(capsys, "polytope", "C3", "--f", "1,3/2,2")
    assert code == 2 and "-f(1)+2f(2)-f(3) > 0" in err


def test_unknown_suite_exits_2(capsys):
    import pytest as _pytest

    with _pytest.raises(SystemExit) as exc:
        main(["verify", "A2", "--suite", "nonsense"])
    assert exc.value.code == 2


def test_sorting_word_letter_out_of_range_exits_2(capsys):
    code, out, err = run(capsys, "sorting-word", "A3", "--word", "0,5")
    assert code == 2 and out == "" and "error" in err
    code, _, _ = run(capsys, "sorting-word", "A3", "--word", "4")
    assert code == 2


def test_polytope_unparsable_f_exits_2(capsys):
    # exponent notation is refused: Fraction("1e<k>") builds 10**k however large k is
    for bad in ("1/0,1", "abc,1", "1", "1e0,1", "1,1E0"):
        code, out, err = run(capsys, "polytope", "A2", "--f", bad)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_points_must_be_positive(capsys):
    import pytest as _pytest

    for bad in ("-5", "0", "x"):
        with _pytest.raises(SystemExit) as exc:
            main(["verify", "A2", "--suite", "fan", "--points", bad])
        assert exc.value.code == 2
        assert "must be a positive integer" in capsys.readouterr().err


def test_polytope_precision_must_be_non_negative(capsys):
    import pytest as _pytest

    for bad in ("-1", "x"):
        with _pytest.raises(SystemExit) as exc:
            main(["polytope", "A3", "--format", "off", "--precision", bad])
        assert exc.value.code == 2
        assert "must be a non-negative integer" in capsys.readouterr().err
    # the OFF body would hold 10**precision-sized integers; the exact vertices are in the sidecar
    for bad in ("1001", "200000000"):
        with _pytest.raises(SystemExit) as exc:
            main(["polytope", "A3", "--format", "off", "--precision", bad])
        assert exc.value.code == 2
        assert f"must be at most 1000, got '{bad}'" in capsys.readouterr().err
    code, out, _ = run(capsys, "polytope", "A3", "--format", "off", "--precision", "0")
    assert code == 0 and out.startswith("OFF\n14 9 21\n")
    code, out, _ = run(capsys, "polytope", "A3", "--format", "off", "--precision", "1000")
    assert code == 0 and out.splitlines()[2].split()[0] == "1.5" + "0" * 999


def test_json_coxeter_is_the_expression_asked_for(capsys):
    # 1,3,2 and 3,1,2 are reduced expressions of one Coxeter element; each
    # document names the one on its command line, in any order in one process
    for cmd in (("compat", "A1xA2"), ("polytope", "A3")):
        for order in ("1,3,2", "3,1,2", "1,3,2"):
            code, out, _ = run(capsys, *cmd, "--coxeter", order, "--format", "json")
            assert code == 0
            assert json.loads(out)["coxeter"] == [int(x) for x in order.split(",")]


def test_verify_random_f_must_be_non_negative(capsys):
    import pytest as _pytest

    with _pytest.raises(SystemExit) as exc:
        main(["verify", "A2", "--suite", "polytope", "--random-f", "-3"])
    assert exc.value.code == 2
    assert "must be a non-negative integer" in capsys.readouterr().err
    code, out, _ = run(capsys, "verify", "A2", "--suite", "polytope", "--random-f", "0")
    assert code == 0 and out.strip().endswith("OK")


def test_polytope_json_round_trips_to_exact_vertices():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from coxfan.cartan import make_datum
    from coxfan.model import build_model
    from coxfan.polytope import build_hrep, random_valid_f, vertices
    from coxfan.weyl import coxeter_from_order

    @settings(max_examples=25, deadline=None)
    @given(label=st.sampled_from(["A3", "B3"]), rng=st.randoms(use_true_random=False),
           order=st.permutations([0, 1, 2]))
    def check(label, rng, order):
        datum = make_datum(label)
        f = random_valid_f(datum, rng)
        argv = ["polytope", label, "--coxeter", ",".join(str(i + 1) for i in order),
                "--f", ",".join(str(x) for x in f.values)]
        sink = io.StringIO()
        with redirect_stdout(sink):
            assert main(argv) == 0
        model = build_model(datum, coxeter_from_order(datum, tuple(order)))
        hrep = build_hrep(model, f)
        vrep = vertices(model, hrep)
        data = json.loads(sink.getvalue())
        assert [(tuple(fa["normal"]), Fraction(fa["rhs"]), (fa["label"]["i"], fa["label"]["m"]))
                for fa in data["facets"]] == [(fa.normal, fa.rhs, fa.tag) for fa in hrep.facets]
        assert tuple(tuple(Fraction(x) for x in v["coords"]) for v in data["vertices"]) == fraction_vertices(vrep)
        assert tuple(tuple(v["cluster"]) for v in data["vertices"]) == vrep.clusters
        assert tuple(tuple(e) for e in data["edges"]) == tuple(p[:2] for p in model.adjacent_cluster_pairs())

    check()


def test_unwritable_output_exits_2(capsys, tmp_path):
    code, out, err = run(capsys, "orbits", "A2", "--output", str(tmp_path / "missing" / "x"))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "No such file" in err
    # the OFF body's path is writable but its exact sidecar's is not: the old
    # body survives unchanged and no temporary file is left behind
    (tmp_path / "p.off").write_text("old body\n")
    (tmp_path / "p.off.json").mkdir()
    code, out, err = run(capsys, "polytope", "A3", "--format", "off",
                         "--output", str(tmp_path / "p.off"))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Is a directory" in err
    assert (tmp_path / "p.off").read_text() == "old body\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p.off", "p.off.json"]
    # once the sidecar path is free, both files are replaced
    (tmp_path / "p.off.json").rmdir()
    code, _, _ = run(capsys, "polytope", "A3", "--format", "off",
                     "--output", str(tmp_path / "p.off"))
    assert code == 0
    assert (tmp_path / "p.off").read_text().startswith("OFF\n14 9 21\n")
    assert (tmp_path / "p.off.json").read_text().startswith("{")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p.off", "p.off.json"]


def test_off_decimals_round_half_away_from_zero(capsys):
    argv = ("polytope", "C3", "--f", "1,7/4,2", "--format", "off")
    _, out, _ = run(capsys, *argv, "--precision", "2")
    assert "1.00 1.75 2.00" in out.splitlines()
    _, out, _ = run(capsys, *argv, "--precision", "0")
    body = out.splitlines()[2:22]
    assert "1 2 2" in body and "-1 -2 -2" in body
    assert not any("." in line for line in body)


def test_malformed_cli_strings_exit_0_or_2():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    junk = st.one_of(st.text(alphabet="0123456789,-+/._ eEx", max_size=14),
                     st.text(max_size=8))
    commands = {"--coxeter": "orbits", "--f": "polytope", "--word": "sorting-word",
                "--point": "expand"}

    @settings(max_examples=60, deadline=None)
    @given(label=st.sampled_from(["A2", "B3"]), flag=st.sampled_from(sorted(commands)),
           value=junk)
    def check(label, flag, value):
        argv = [commands[flag], label, f"{flag}={value}"]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:   # argparse rejects the token itself, with its usage
                assert exc.code == 2, argv
                return
        assert code in (0, 2), argv
        if code == 2:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1

    check()


def test_failed_write_keeps_old_files_and_leaves_no_temporary(monkeypatch, capsys, tmp_path):
    import coxfan.cli as cli

    def failing_export(model, f, hrep, vrep, write):
        write("{partial")
        raise OSError("disk full")

    for name in ("p.off", "p.off.json"):
        (tmp_path / name).write_text(f"old {name}\n")
    monkeypatch.setattr(cli, "export_json", failing_export)
    code, out, err = run(capsys, "polytope", "A3", "--format", "off",
                         "--output", str(tmp_path / "p.off"))
    assert code == 2 and out == "" and err == "error: disk full\n"
    for name in ("p.off", "p.off.json"):
        assert (tmp_path / name).read_text() == f"old {name}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p.off", "p.off.json"]
