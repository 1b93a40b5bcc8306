"""Command-line surface: every pipeline stage with reproducible output.

Exit codes: 0 success, 1 verification failure, 2 bad input (labels, orders,
inadmissible f).  All JSON output is sorted and timestamp-free, so identical
invocations are byte-identical.

Each command is a row of ``COMMANDS``.  ``main`` makes the datum and the
Coxeter element, calls the row's handler, adds the ``datum``/``coxeter``
header to its JSON documents and writes them through ``_emit``.  A handler
returns one document, or a tuple whose second entry is the exact sidecar of
an ``--output`` file; a document is a list of text lines, a JSON object,
finished text, or a function that writes itself through a ``write`` callable.
"""
from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

from .cartan import fmt_combo, make_datum
from .jsonout import write_json
from .model import build_model
from .mutation import exchange_graph, exchange_graph_json
from .polytope import (
    SupportData,
    build_hrep,
    default_f,
    export_json,
    export_off,
    f_conditions,
    render_condition,
    vertices,
)
from .verify import SUITES, run_suite
from .weyl import (
    all_coxeter_elements,
    c_sorting_word,
    coxeter_from_order,
    is_antisortable,
    is_sortable,
    render_word,
    singletons,
    word_to_element,
)

USAGE_ERROR = 2
VERIFY_ERROR = 1


def _parse_list(text: str, what: str, number=int) -> tuple:
    """The comma-separated numbers of ``text``, each read by ``number``.

    This is the one reader of the CLI's number lists; whether the numbers fit
    their command (a node, an admissible f, an integral point) is left to the
    library.  Text that is not such a list raises ``ValueError`` naming
    ``what``.
    """
    try:
        if "e" in text.lower():   # Fraction("1e<k>") would build 10**k for any k
            raise ValueError(text)
        return tuple(number(x) for x in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse {what} {text!r}") from None


def _exact(text: str):
    """A rational read exactly: an int when it is integral, else a Fraction."""
    x = Fraction(text)
    return x.numerator if x.denominator == 1 else x


def _parse_coxeter(datum, text):
    if text is None:
        return coxeter_from_order(datum, tuple(range(datum.n)))
    return coxeter_from_order(datum, tuple(i - 1 for i in _parse_list(text, "Coxeter order")))


def _parse_f(datum, text):
    if text is None or text == "default":
        return default_f(datum)
    return SupportData.make(datum, _parse_list(text, "f", Fraction))


def _write(doc, write) -> None:
    """Write one document through ``write``."""
    if isinstance(doc, list):
        write("\n".join(doc) + "\n")
    elif isinstance(doc, dict):
        write_json(doc, write)
    elif isinstance(doc, str):
        write(doc)
    else:
        doc(write)


def _emit(path, docs) -> None:
    """Write docs[0] to stdout, or docs to ``path`` and ``path + ".json"``.

    Files are written to temporaries in their target directories and renamed
    over the targets only when every document is complete, so a failure
    leaves each target as it was and no temporary behind.  A target that
    exists but is not a regular file (a device, a pipe) is written in place.
    """
    if not path:
        _write(docs[0], sys.stdout.write)
        return
    opened = []   # (file object, temporary path or None, target)
    try:
        for target in (path, path + ".json")[:len(docs)]:
            if os.path.exists(target) and not os.path.isfile(target):
                opened.append((open(target, "w"), None, target))   # a directory raises here
                continue
            real = os.path.realpath(target)
            head, tail = os.path.split(real)
            temp = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
            try:
                opened.append((open(temp, "x"), temp, real))
            except OSError as exc:
                raise type(exc)(exc.errno, exc.strerror, target) from None
        for (fh, _, _), doc in zip(opened, docs):
            with fh:
                _write(doc, fh.write)
        for _, temp, real in opened:
            if temp:
                os.replace(temp, real)
    except BaseException:
        for fh, temp, _ in opened:
            fh.close()
            if temp and os.path.exists(temp):
                os.remove(temp)
        raise


def cmd_orbits(args, datum, c):
    model = build_model(datum, c)
    orbits = [[model.labels[k] for k in orb] for orb in model.orbits]
    if args.format == "json":
        return {
            "h": list(c.h_values),
            "orbits": [
                [{"i": lab.node + 1, "m": lab.power, "weight": list(lab.weight)} for lab in orb]
                for orb in orbits
            ],
        }
    lines = [f"{datum.label}, c = {c.render()}, h = {tuple(c.h_values)}"]
    for orb in orbits:
        lines.append("  " + " -> ".join(fmt_combo(lab.weight, "w{}") for lab in orb))
    return lines


def cmd_polytope(args, datum, c):
    model = build_model(datum, c)
    f = _parse_f(datum, args.f)
    hrep = build_hrep(model, f)
    vrep = vertices(model, hrep)

    def exact(write):
        export_json(model, f, hrep, vrep, write)

    if args.format == "off":
        # the decimal OFF body; an --output file also gets the exact JSON as a sidecar
        return export_off(model, hrep, vrep, precision=args.precision), exact
    return exact


def cmd_conditions(args, datum, c):
    equalities, rows = f_conditions(datum)
    if args.format == "json":
        return {
            "equalities": [[i + 1, j + 1] for (i, j) in equalities],
            "inequalities": [list(r) for r in rows],
        }
    lines = [f"f({i + 1}) = f({j + 1})" for (i, j) in equalities]
    return lines + [render_condition(r) for r in rows]


def cmd_verify(args, datum, c):
    cs = [c] if c is not None else all_coxeter_elements(datum)
    rows = []
    for c in cs:
        for res in run_suite(args.suite, datum, c, seed=args.seed,
                             points=args.points, random_fs=args.random_f):
            rows.append((c, res))
    all_ok = all(r.ok for (_, r) in rows)
    if not all_ok:
        args.status = VERIFY_ERROR
    if args.format == "json":
        return {
            "suite": args.suite,
            "checks": [
                {"coxeter": [i + 1 for i in c.order], "name": r.name, "ok": r.ok, "detail": r.detail}
                for (c, r) in rows
            ],
            "ok": all_ok,
        }
    lines = []
    for (c, r) in rows:
        status = "PASS" if r.ok else "FAIL"
        lines.append(f"[{status}] {datum.label} c={c.render()} {args.suite}/{r.name}: {r.detail}")
    return lines + ["OK" if all_ok else "FAILED"]


def cmd_compat(args, datum, c):
    model = build_model(datum, c)
    if args.format == "json":
        return model.to_json_dict()
    lines = ["labels: " + ", ".join(
        f"{k}:{fmt_combo(lab.weight, 'w{}')}" for k, lab in enumerate(model.labels))]
    return lines + [" ".join(str(x) for x in row) for row in model.compat_table()]


def cmd_clusters(args, datum, c):
    model = build_model(datum, c)
    if args.format == "json":
        return {
            "labels": [list(lab.weight) for lab in model.labels],
            "clusters": [list(cl) for cl in model.clusters()],
        }
    return ["{ " + ", ".join(fmt_combo(model.labels[k].weight, "w{}") for k in cl) + " }"
            for cl in model.clusters()]


def cmd_expand(args, datum, c):
    model = build_model(datum, c)
    point = _parse_list(args.point, "point", _exact)   # the model rejects a non-integral one
    expansion = model.expand_weight(point) if args.side == "weight" else model.expand_root(point)
    items = sorted(expansion.items())
    if args.format == "json":
        return {
            "side": args.side,
            "point": list(point),
            "expansion": [
                {"label": k, "coefficient": v, "weight": list(model.labels[k].weight),
                 "root": list(model.labels[k].root)}
                for k, v in items
            ],
        }
    sym = "w{}" if args.side == "weight" else "a{}"
    terms = [f"{v}*[{fmt_combo(getattr(model.labels[k], args.side), sym)}]" for k, v in items]
    return [" + ".join(terms) if terms else "0"]


def cmd_sorting_word(args, datum, c):
    letters = tuple(i - 1 for i in _parse_list(args.word, "word")) if args.word else ()
    w = word_to_element(datum, letters)
    word, blocks = c_sorting_word(c, w)
    sortable = is_sortable(c, w)
    anti = is_antisortable(c, w)
    if args.format == "json":
        return {
            "input": [i + 1 for i in letters],
            "sorting_word": [i + 1 for i in word],
            "factorization": [sorted(i + 1 for i in b) for b in blocks],
            "sortable": sortable,
            "antisortable": anti,
        }
    fact = " | ".join("{" + ",".join(str(i + 1) for i in sorted(b)) + "}" for b in blocks)
    kind = "sortable" if sortable else ("antisortable" if anti else "neither")
    kind = "sortable and antisortable" if sortable and anti else kind
    return [f"{render_word(word)}  factorization {fact}  [{kind}]"]


def cmd_singletons(args, datum, c):
    elems = singletons(c)
    words = [c_sorting_word(c, w)[0] for w in elems]
    if args.format == "json":
        return {"count": len(elems), "singletons": [[i + 1 for i in w] for w in words]}
    return [render_word(w) for w in words]


def cmd_exchange_graph(args, datum, c):
    graph = exchange_graph(datum, c)
    if args.format == "json":
        return exchange_graph_json(graph)
    lines = [f"{len(graph.seeds)} seeds, {len(graph.edges)} edges, "
             f"{len(graph.variables)} cluster variables"]
    return lines + [f"g={list(g)}  x = {p.render()}" for g, p in sorted(graph.variables.items())]


def _int_at_least(low: int, high: int = None):
    """argparse type for integers >= low (0 or 1) and, given high, <= high, so bad
    input exits 2 with a usage message."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            kind = "positive" if low else "non-negative"
            raise argparse.ArgumentTypeError(f"must be a {kind} integer, got {text!r}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {text!r}")
        return value
    return parse


class Command(NamedTuple):
    """One CLI command: its handler, help line and arguments beyond datum/--format/--output."""

    func: Callable
    help: str
    options: tuple = ()                  # (flag, argparse keywords) after the shared arguments
    formats: tuple = ("text", "json")    # the first is the default
    coxeter: bool = True                 # takes --coxeter; main builds c from it
    json_coxeter: bool = True            # main adds "coxeter" beside "datum" to JSON documents


COMMANDS = {
    "orbits": Command(cmd_orbits, "tau-orbits of the weight labels"),
    "polytope": Command(cmd_polytope, "build the generalized associahedron", (
        ("--f", dict(default="default", help='"default" or comma-separated rationals')),
        ("--precision", dict(type=_int_at_least(0, 1000), default=12)),   # exact values: the sidecar
    ), formats=("json", "off")),
    "conditions": Command(cmd_conditions, "admissibility conditions on f",
                          coxeter=False, json_coxeter=False),
    "verify": Command(cmd_verify, "run a named verification suite", (
        ("--all-coxeter", dict(action="store_true")),
        ("--suite", dict(required=True, choices=SUITES)),
        ("--seed", dict(type=int, default=0)),
        ("--points", dict(type=_int_at_least(1), default=1000)),
        ("--random-f", dict(type=_int_at_least(0), default=20)),
    ), json_coxeter=False),
    "compat": Command(cmd_compat, "full compatibility table"),
    "clusters": Command(cmd_clusters, "all c-clusters"),
    "expand": Command(cmd_expand, "c-cluster expansion of a lattice point", (
        ("--point", dict(required=True, help="comma-separated integers; "
                         "write --point=-1,2 when the first is negative")),
        ("--side", dict(default="root", choices=("root", "weight"))),
    )),
    "sorting-word": Command(cmd_sorting_word, "c-sorting word and factorization of a word", (
        ("--word", dict(default="", help="comma-separated 1-based letters, empty = identity")),
    )),
    "singletons": Command(cmd_singletons, "all c-singletons"),
    "exchange-graph": Command(cmd_exchange_graph, "mutation-oracle exchange graph"),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="coxfan",
                                 description="Exact cluster fans and generalized associahedra")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        p.add_argument("datum", help='type label, e.g. "A3", "C3", "A1xA2"')
        if cmd.coxeter:
            p.add_argument("--coxeter", help="comma-separated node order, 1-based (default 1,..,n)")
        p.add_argument("--format", default=cmd.formats[0], choices=cmd.formats)
        p.add_argument("--output", help="write to a file instead of stdout")
        for flag, kwargs in cmd.options:
            p.add_argument(flag, **kwargs)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cmd = COMMANDS[args.command]
    args.status = 0
    try:
        # argparse drops a "--" value, so --point=-- arrives as an empty list
        empty = next((name for name, value in vars(args).items() if value == []), None)
        if empty is not None:
            raise ValueError(f"--{empty.replace('_', '-')} needs a value")
        all_coxeter = getattr(args, "all_coxeter", False)
        if all_coxeter and args.coxeter is not None:
            raise ValueError("--all-coxeter and --coxeter exclude each other")
        datum = make_datum(args.datum)
        c = _parse_coxeter(datum, args.coxeter) if cmd.coxeter and not all_coxeter else None
        result = cmd.func(args, datum, c)
        docs = result if isinstance(result, tuple) else (result,)
        header = {"datum": datum.label}
        if cmd.json_coxeter:
            header["coxeter"] = [i + 1 for i in c.order]
        _emit(args.output, [{**header, **doc} if isinstance(doc, dict) else doc for doc in docs])
    except (ValueError, OSError) as exc:   # every coxfan error is a ValueError
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    return args.status


if __name__ == "__main__":
    sys.exit(main())
