"""Golden CLI corpus: the sha256 of every command's output, held byte-identical.

The digests in ``golden_cli.json`` were recorded once and must not be edited
to make a refactor pass: a changed digest means a changed output.  Run this
file as a script to print the digests of the current code as JSON:

    PYTHONPATH=src python tests/test_golden_cli.py > tests/golden_cli.json
"""
from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from coxfan.cartan import make_datum
from coxfan.cli import main

DIGESTS = Path(__file__).with_name("golden_cli.json")

TYPES = ("A1", "A2", "A3", "C3", "G2", "A1xA2", "B4", "F4")
SUITES = ("fan", "polytope", "cambrian", "exchange", "sorting", "maps")
BOTH = (("--format", "text"), ("--format", "json"))


def _commands() -> list:
    """Every golden command line, as a tuple of argv strings ({out} is a file path)."""
    cmds = []
    for label in TYPES:
        n = make_datum(label).n
        cmds += [("conditions", label, *fmt) for fmt in BOTH]
        orders = [()]
        if n > 1:
            orders.append(("--coxeter", ",".join(str(i) for i in range(n, 0, -1))))
        point = ",".join(str((-1) ** i * (i + 2)) for i in range(n))
        word = ",".join(str(i) for i in (*range(n, 0, -1), n)) if n > 1 else "1"
        for order in orders:
            for cmd in ("orbits", "compat", "clusters", "singletons", "exchange-graph"):
                cmds += [(cmd, label, *order, *fmt) for fmt in BOTH]
            for side in ("root", "weight"):
                cmds += [("expand", label, *order, "--point", point, "--side", side, *fmt)
                         for fmt in BOTH]
            cmds += [("sorting-word", label, *order, "--word", word, *fmt) for fmt in BOTH]
            cmds.append(("polytope", label, *order, "--format", "json"))
            if n == 3:
                cmds.append(("polytope", label, *order, "--format", "off"))
        if n <= 3:
            for suite in SUITES:
                cmds += [("verify", label, "--suite", suite, *fmt) for fmt in BOTH]
    cmds += [("verify", "C3", "--all-coxeter", "--suite", "exchange", *fmt) for fmt in BOTH]
    cmds += [
        ("polytope", "C3", "--f", "1,7/4,2", "--format", "json"),
        ("polytope", "C3", "--f", "1,7/4,2", "--format", "off", "--precision", "2"),
        # files written through --output, the OFF body with its exact sidecar
        ("orbits", "A3", "--format", "json", "--output", "{out}"),
        ("conditions", "C3", "--output", "{out}"),
        ("polytope", "A3", "--output", "{out}"),
        ("polytope", "C3", "--coxeter", "3,1,2", "--format", "off", "--output", "{out}"),
        # bad input: exit 2, one stderr line, nothing on stdout
        ("orbits", "H3"),
        ("orbits", "A3", "--coxeter", "1,1,2"),
        ("polytope", "A3", "--f", "1,3,1"),
        ("expand", "A2", "--point", "1,2,3"),
        ("sorting-word", "A3", "--word", "0,5"),
    ]
    return cmds


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_golden(argv: tuple, tmp: Path) -> dict:
    """Run one command in-process; digest its exit code, stdout, stderr and files."""
    out_path = tmp / "golden.out"
    argv = [a.replace("{out}", str(out_path)) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    record = {"exit": code, "stdout": _sha(out.getvalue()), "stderr": _sha(err.getvalue())}
    for suffix in ("", ".json"):
        path = Path(str(out_path) + suffix)
        if path.exists():
            record["file" + suffix] = _sha(path.read_text())
            path.unlink()
    return record


COMMANDS = _commands()


@pytest.fixture(scope="module")
def digests():
    return json.loads(DIGESTS.read_text())


def test_corpus_lists_every_command_once(digests):
    keys = [" ".join(cmd) for cmd in COMMANDS]
    assert len(set(keys)) == len(keys)
    assert sorted(keys) == sorted(digests)


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(cmd) for cmd in COMMANDS])
def test_golden_output(argv, digests, tmp_path):
    assert run_golden(argv, tmp_path) == digests[" ".join(argv)]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        recorded = {" ".join(cmd): run_golden(cmd, Path(tmp)) for cmd in COMMANDS}
    json.dump(recorded, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
