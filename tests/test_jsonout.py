"""The streaming JSON writer: byte-identical to json.dumps, written in bounded batches.

No float ever reaches coxfan's JSON: every document a command writes is parsed
here with float parsing forbidden.
"""
from __future__ import annotations

import json
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from coxfan.cartan import make_datum
from coxfan.cli import main
from coxfan.jsonout import BATCH_CHARS, write_json
from coxfan.model import build_model
from coxfan.polytope import build_hrep, default_f, export_json, vertices
from coxfan.weyl import coxeter_from_order


def reference(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _no_float(text):
    raise AssertionError(f"float {text!r} in JSON output")


def exact_loads(text):
    """json.loads that fails on any float, NaN or Infinity in the text."""
    return json.loads(text, parse_float=_no_float, parse_constant=_no_float)


def dumps(data) -> str:
    """Everything write_json writes for ``data``, joined."""
    parts = []
    write_json(data, parts.append)
    return "".join(parts)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    assert code == 0, out.err
    return out.out


@pytest.mark.parametrize("data", [
    {}, [], 0, -7, "x", None, True, False,
    {"a": [], "b": {}, "c": [[]], "d": [{}]},
    {"z": 1, "a": [1, -2, 3], "m": ["p/q", "1"], "k": [True, None, 1, "s"]},
    [[1, 2], (3, 4), ["a", "b"], [1, "a"], {"n": (5,)}],
    {"text": "quote \" backslash \\ tab \t newline \n snowman ☃", "é": [False]},
    {"deep": {"deeper": {"deepest": [[[0]]]}}},
])
def test_dumps_matches_json_dumps(data):
    assert dumps(data) == reference(data)


def test_iterators_are_written_as_arrays():
    rows = [{"coords": ["1/2", "3"], "cluster": (0, 4)}, {"coords": ["0", "-1"], "cluster": (1, 2)}]
    data = {"rows": iter(rows), "empty": iter(()), "pairs": ((k, k + 1) for k in range(3))}
    assert dumps(data) == reference({"rows": rows, "empty": [], "pairs": [[0, 1], [1, 2], [2, 3]]})


def test_nested_and_single_item_iterators():
    data = {"nested": [iter([iter([1, 2]), iter(())]), (x for x in ())], "one": iter(["s"])}
    assert dumps(data) == reference({"nested": [[[1, 2], []], []], "one": ["s"]})
    assert dumps(iter(())) == "[]\n"


def test_unsupported_values_raise():
    # containers that are not iterators are refused too: only a one-pass iterator is an array
    for value in (Fraction(1, 2), {1, 2}, range(3), b"x", object()):
        with pytest.raises(TypeError):
            dumps({"x": [value]})


def test_exact_loads_refuses_floats():
    for text in ("1.5", "[1e3]", '{"x": NaN}', "-Infinity"):
        with pytest.raises(AssertionError):
            exact_loads(text)
    assert exact_loads('{"x": [1, "1/2"]}') == {"x": [1, "1/2"]}


JSON_COMMANDS = (
    ("orbits",), ("clusters",), ("compat",), ("singletons",), ("exchange-graph",),
    ("conditions",), ("sorting-word", "--word", "1"),
    ("verify", "--suite", "fan", "--points", "20"),
    ("verify", "--suite", "polytope", "--random-f", "2"),
    ("verify", "--suite", "cambrian"), ("verify", "--suite", "exchange"),
    ("verify", "--suite", "sorting"), ("verify", "--suite", "maps"),
)


@pytest.mark.parametrize("label", ["A1", "A2", "G2", "C3", "A1xA2"])
def test_every_json_command_is_json_dumps_text(capsys, label):
    n = make_datum(label).n
    commands = JSON_COMMANDS + (("expand", "--point=" + ",".join(["-1"] + ["2"] * (n - 1))),
                                ("expand", "--side", "weight", "--point=" + ",".join(["1"] * n)),
                                ("polytope",))
    for command in commands:
        out = run(capsys, command[0], label, *command[1:], "--format", "json")
        assert out == reference(exact_loads(out)), command


def test_polytope_outputs_match_json_dumps(capsys, tmp_path):
    for argv in (("polytope", "C3"), ("polytope", "C3", "--f", "1,7/4,2", "--coxeter", "2,1,3")):
        out = run(capsys, *argv)
        assert out == reference(exact_loads(out))
        path = tmp_path / "p.json"
        assert run(capsys, *argv, "--output", str(path)) == ""
        assert path.read_text() == out
        off = tmp_path / "p.off"
        run(capsys, *argv, "--format", "off", "--output", str(off))
        assert (tmp_path / "p.off.json").read_text() == out


class Recorder:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def test_e6_polytope_is_written_in_many_bounded_batches():
    datum = make_datum("E6")
    model = build_model(datum, coxeter_from_order(datum, tuple(range(6))))
    f = default_f(datum)
    hrep = build_hrep(model, f)
    parts = []
    export_json(model, f, hrep, vertices(model, hrep), parts.append)
    text = "".join(parts)
    assert text == reference(json.loads(text))

    sink = Recorder()
    with redirect_stdout(sink):
        assert main(["polytope", "E6"]) == 0
    assert "".join(sink.writes) == text
    assert len(sink.writes) >= len(text) // (2 * BATCH_CHARS) >= 8
    assert max(len(w) for w in sink.writes) < 2 * BATCH_CHARS


def test_bad_input_writes_no_byte(tmp_path):
    sink = Recorder()
    path = tmp_path / "never.json"
    with redirect_stdout(sink):
        assert main(["polytope", "A3", "--f", "1,3,1"]) == 2
        assert main(["polytope", "A3", "--f", "1,3,1", "--output", str(path)]) == 2
        assert main(["polytope", "A2", "--format", "off", "--output", str(path)]) == 2
    assert sink.writes == [] and not path.exists()


def test_write_json_sends_a_small_document_in_one_write():
    sink = Recorder()
    write_json({"a": [1, 2]}, sink.write)
    assert sink.writes == [reference({"a": [1, 2]})]
