"""Command-line surface: every pipeline stage with reproducible output.

Exit codes: 0 success, 1 verification failure, 2 bad input (labels, orders,
inadmissible f).  All JSON output is sorted and timestamp-free, so identical
invocations are byte-identical.
"""
from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from fractions import Fraction

from .cartan import CartanError, fmt_combo, make_datum
from .jsonout import write_json
from .model import build_model
from .mutation import MutationError, exchange_graph, exchange_graph_json
from .polytope import (
    PolytopeError,
    SupportData,
    build_hrep,
    default_f,
    export_json,
    export_off,
    f_conditions,
    render_condition,
    vertices,
    violated_condition,
)
from .verify import SUITES, run_suite
from .weyl import (
    WeylError,
    all_coxeter_elements,
    c_sorting_word,
    coxeter_from_order,
    singletons,
    word_to_element,
)

USAGE_ERROR = 2
VERIFY_ERROR = 1


def _parse_coxeter(datum, text):
    if text is None:
        return coxeter_from_order(datum, tuple(range(datum.n)))
    try:
        order = tuple(int(x) - 1 for x in text.split(","))
    except ValueError:
        raise WeylError(f"cannot parse Coxeter order {text!r}")
    return coxeter_from_order(datum, order)


def _parse_f(datum, text):
    if text is None or text == "default":
        return default_f(datum)
    try:
        if "e" in text.lower():   # Fraction("1e<k>") would build 10**k for any k
            raise ValueError(text)
        vals = tuple(Fraction(x) for x in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise PolytopeError(f"cannot parse f {text!r}")
    if len(vals) != datum.n:
        raise PolytopeError("f has the wrong arity")
    problem = violated_condition(datum, vals)
    if problem:
        raise PolytopeError(f"invalid f: violated condition {problem}")
    return SupportData.make(datum, vals)


@contextmanager
def _sink(path):
    """The write function of the --output file, or of stdout when there is none."""
    if path:
        with open(path, "w") as fh:
            yield fh.write
    else:
        yield sys.stdout.write


def _emit(args, text):
    with _sink(args.output) as write:
        write(text)


def _emit_json(args, data):
    with _sink(args.output) as write:
        write_json(data, write)


def cmd_orbits(args) -> int:
    datum = make_datum(args.datum)
    c = _parse_coxeter(datum, args.coxeter)
    model = build_model(datum, c)
    orbits = [[model.labels[k] for k in orb] for orb in model.orbits]
    if args.format == "json":
        data = {
            "datum": datum.label,
            "coxeter": [i + 1 for i in c.order],
            "h": list(c.h_values),
            "orbits": [
                [{"i": lab.node + 1, "m": lab.power, "weight": list(lab.weight)} for lab in orb]
                for orb in orbits
            ],
        }
        _emit_json(args, data)
    else:
        lines = [f"{datum.label}, c = {c.render()}, h = {tuple(c.h_values)}"]
        for orb in orbits:
            lines.append("  " + " -> ".join(fmt_combo(lab.weight, "w") for lab in orb))
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_polytope(args) -> int:
    datum = make_datum(args.datum)
    c = _parse_coxeter(datum, args.coxeter)
    model = build_model(datum, c)
    f = _parse_f(datum, args.f)
    hrep = build_hrep(model, f)
    vrep = vertices(model, hrep)
    if args.format == "off":
        body = export_off(model, hrep, vrep, precision=args.precision)
        if args.output:
            # exact sidecar next to the decimal OFF body; both open before either is written
            with _sink(args.output) as write, _sink(args.output + ".json") as write_exact:
                write(body)
                export_json(model, f, hrep, vrep, write_exact)
        else:
            _emit(args, body)
    else:
        with _sink(args.output) as write:
            export_json(model, f, hrep, vrep, write)
    return 0


def cmd_conditions(args) -> int:
    datum = make_datum(args.datum)
    equalities, rows = f_conditions(datum)
    if args.format == "json":
        data = {
            "datum": datum.label,
            "equalities": [[i + 1, j + 1] for (i, j) in equalities],
            "inequalities": [list(r) for r in rows],
        }
        _emit_json(args, data)
    else:
        lines = [f"f({i + 1}) = f({j + 1})" for (i, j) in equalities]
        lines += [render_condition(r) for r in rows]
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_verify(args) -> int:
    datum = make_datum(args.datum)
    if args.all_coxeter:
        cs = all_coxeter_elements(datum)
    else:
        cs = [_parse_coxeter(datum, args.coxeter)]
    group_cap = _env_cap("COXFAN_GROUP_CAP", 200)
    rank_cap = _env_cap("COXFAN_RANK_CAP", 4)
    all_ok = True
    rows = []
    for c in cs:
        for res in run_suite(args.suite, datum, c, seed=args.seed,
                             points=args.points, random_fs=args.random_f,
                             group_cap=group_cap, rank_cap=rank_cap):
            rows.append((c, res))
            all_ok = all_ok and res.ok
    if args.format == "json":
        data = {
            "datum": datum.label,
            "suite": args.suite,
            "checks": [
                {"coxeter": [i + 1 for i in c.order], "name": r.name, "ok": r.ok, "detail": r.detail}
                for (c, r) in rows
            ],
            "ok": all_ok,
        }
        _emit_json(args, data)
    else:
        lines = []
        for (c, r) in rows:
            status = "PASS" if r.ok else "FAIL"
            lines.append(f"[{status}] {datum.label} c={c.render()} {args.suite}/{r.name}: {r.detail}")
        lines.append("OK" if all_ok else "FAILED")
        _emit(args, "\n".join(lines) + "\n")
    return 0 if all_ok else VERIFY_ERROR


def cmd_compat(args) -> int:
    datum = make_datum(args.datum)
    c = _parse_coxeter(datum, args.coxeter)
    model = build_model(datum, c)
    if args.format == "json":
        _emit_json(args, model.to_json_dict())
    else:
        lines = ["labels: " + ", ".join(
            f"{k}:{fmt_combo(lab.weight, 'w')}" for k, lab in enumerate(model.labels))]
        for row in model.compat_table():
            lines.append(" ".join(str(x) for x in row))
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_clusters(args) -> int:
    datum = make_datum(args.datum)
    c = _parse_coxeter(datum, args.coxeter)
    model = build_model(datum, c)
    if args.format == "json":
        data = {
            "datum": datum.label,
            "coxeter": [i + 1 for i in c.order],
            "labels": [list(lab.weight) for lab in model.labels],
            "clusters": [list(cl) for cl in model.clusters()],
        }
        _emit_json(args, data)
    else:
        lines = []
        for cl in model.clusters():
            lines.append("{ " + ", ".join(fmt_combo(model.labels[k].weight, "w") for k in cl) + " }")
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_expand(args) -> int:
    datum = make_datum(args.datum)
    c = _parse_coxeter(datum, args.coxeter)
    model = build_model(datum, c)
    point = tuple(int(x) for x in args.point.split(","))
    if len(point) != datum.n:
        raise CartanError("point has the wrong arity")
    expansion = model.expand_weight(point) if args.side == "weight" else model.expand_root(point)
    items = sorted(expansion.items())
    if args.format == "json":
        data = {
            "datum": datum.label,
            "coxeter": [i + 1 for i in c.order],
            "side": args.side,
            "point": list(point),
            "expansion": [
                {"label": k, "coefficient": v, "weight": list(model.labels[k].weight),
                 "root": list(model.labels[k].root)}
                for k, v in items
            ],
        }
        _emit_json(args, data)
    else:
        sym = "w" if args.side == "weight" else "a"
        coords = "weight" if args.side == "weight" else "root"
        terms = [f"{v}*[{fmt_combo(getattr(model.labels[k], coords), sym)}]" for k, v in items]
        _emit(args, (" + ".join(terms) if terms else "0") + "\n")
    return 0


def cmd_sorting_word(args) -> int:
    datum = make_datum(args.datum)
    c = _parse_coxeter(datum, args.coxeter)
    letters = tuple(int(x) - 1 for x in args.word.split(",")) if args.word else ()
    w = word_to_element(datum, letters)
    word, blocks = c_sorting_word(c, w)
    from .weyl import is_antisortable

    sortable = all(blocks[k + 1] <= blocks[k] for k in range(len(blocks) - 1))
    anti = is_antisortable(c, w)
    if args.format == "json":
        data = {
            "datum": datum.label,
            "coxeter": [i + 1 for i in c.order],
            "input": [i + 1 for i in letters],
            "sorting_word": [i + 1 for i in word.letters],
            "factorization": [sorted(i + 1 for i in b) for b in blocks],
            "sortable": sortable,
            "antisortable": anti,
        }
        _emit_json(args, data)
    else:
        fact = " | ".join("{" + ",".join(str(i + 1) for i in sorted(b)) + "}" for b in blocks)
        kind = "sortable" if sortable else ("antisortable" if anti else "neither")
        kind = "sortable and antisortable" if sortable and anti else kind
        _emit(args, f"{word.render()}  factorization {fact}  [{kind}]\n")
    return 0


def cmd_singletons(args) -> int:
    datum = make_datum(args.datum)
    c = _parse_coxeter(datum, args.coxeter)
    elems = singletons(c)
    words = [c_sorting_word(c, w)[0] for w in elems]
    if args.format == "json":
        data = {
            "datum": datum.label,
            "coxeter": [i + 1 for i in c.order],
            "count": len(elems),
            "singletons": [[i + 1 for i in w.letters] for w in words],
        }
        _emit_json(args, data)
    else:
        _emit(args, "\n".join(w.render() for w in words) + "\n")
    return 0


def cmd_exchange_graph(args) -> int:
    datum = make_datum(args.datum)
    c = _parse_coxeter(datum, args.coxeter)
    graph = exchange_graph(datum, c, rank_cap=_env_cap("COXFAN_RANK_CAP", 4))
    if args.format == "json":
        _emit_json(args, exchange_graph_json(graph))
    else:
        lines = [f"{len(graph.seeds)} seeds, {len(graph.edges)} edges, "
                 f"{len(graph.variables)} cluster variables"]
        for g, p in sorted(graph.variables.items()):
            lines.append(f"g={list(g)}  x = {p.render()}")
        _emit(args, "\n".join(lines) + "\n")
    return 0


def _int_at_least(low: int):
    """argparse type for integers >= low (0 or 1), so bad input exits 2 with a usage message."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            kind = "positive" if low else "non-negative"
            raise argparse.ArgumentTypeError(f"must be a {kind} integer, got {text!r}")
        return value
    return parse


def _env_cap(name: str, default: int) -> int:
    """A non-negative integer cap from the environment; a malformed one is bad input."""
    text = os.environ.get(name)
    if text is None:
        return default
    try:
        return _int_at_least(0)(text)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"{name} {exc}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="coxfan",
                                 description="Exact cluster fans and generalized associahedra")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, with_coxeter=True):
        p.add_argument("datum", help='type label, e.g. "A3", "C3", "A1xA2"')
        if with_coxeter:
            p.add_argument("--coxeter", help="comma-separated node order, 1-based (default 1,..,n)")
        p.add_argument("--format", default="text", choices=("text", "json"))
        p.add_argument("--output", help="write to a file instead of stdout")

    p = sub.add_parser("orbits", help="tau-orbits of the weight labels")
    common(p)
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("polytope", help="build the generalized associahedron")
    p.add_argument("datum")
    p.add_argument("--coxeter")
    p.add_argument("--f", default="default", help='"default" or comma-separated rationals')
    p.add_argument("--format", default="json", choices=("json", "off"))
    p.add_argument("--precision", type=_int_at_least(0), default=12)
    p.add_argument("--output")
    p.set_defaults(func=cmd_polytope)

    p = sub.add_parser("conditions", help="admissibility conditions on f")
    common(p, with_coxeter=False)
    p.set_defaults(func=cmd_conditions)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("datum")
    p.add_argument("--coxeter")
    p.add_argument("--all-coxeter", action="store_true")
    p.add_argument("--suite", required=True, choices=SUITES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--points", type=_int_at_least(1), default=1000)
    p.add_argument("--random-f", type=_int_at_least(0), default=20)
    p.add_argument("--format", default="text", choices=("text", "json"))
    p.add_argument("--output")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("compat", help="full compatibility table")
    common(p)
    p.set_defaults(func=cmd_compat)

    p = sub.add_parser("clusters", help="all c-clusters")
    common(p)
    p.set_defaults(func=cmd_clusters)

    p = sub.add_parser("expand", help="c-cluster expansion of a lattice point")
    common(p)
    p.add_argument("--point", required=True,
                   help="comma-separated integers; write --point=-1,2 when the first is negative")
    p.add_argument("--side", default="root", choices=("root", "weight"))
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("sorting-word", help="c-sorting word and factorization of a word")
    common(p)
    p.add_argument("--word", default="", help="comma-separated 1-based letters, empty = identity")
    p.set_defaults(func=cmd_sorting_word)

    p = sub.add_parser("singletons", help="all c-singletons")
    common(p)
    p.set_defaults(func=cmd_singletons)

    p = sub.add_parser("exchange-graph", help="mutation-oracle exchange graph")
    common(p)
    p.set_defaults(func=cmd_exchange_graph)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (CartanError, WeylError, PolytopeError, MutationError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
