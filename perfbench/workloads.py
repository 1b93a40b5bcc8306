"""Seeded job streams for the three workloads, and the checks on their outputs.

The program under test only ever sees the generated inputs: a type label, a
Coxeter order (1-based, as on the command line) and, for expand-stream, a
lattice point.  Everything here is plain Python driven by ``random.Random``,
so a seed fixes the job stream independently of the code being measured.
"""
from __future__ import annotations

import gc
import hashlib
import importlib
import io
import json
import pkgutil
import random
from contextlib import redirect_stderr, redirect_stdout

WORKLOADS = ("polytope-sweep", "expand-stream", "oracle-suites")
SUITES = ("fan", "polytope", "cambrian", "exchange", "sorting", "maps")

# polytope-sweep block: every D5 orientation once, three distinct E6
# orientations and one E7 orientation.  By count that is 80% D5, 15% E6 and
# 5% E7; the single E7 job carries the largest vertex set and the memory peak.
POLYTOPE_MIX = (("D5", None), ("E6", 3), ("E7", 1))

# oracle-suites block: every suite once on each rank-4 type, each job with its
# own seeded orientation.  Rank 4 is the exchange suite's default cap.
ORACLE_TYPES = ("B4", "D4", "F4")

# expand-stream block: on each of F4, E6, E7, E8 two warm models, for the
# default Coxeter element s1 s2 ... sn and for its inverse, and on each model
# four queries per side (expand_root, expand_weight), the fourth of which
# repeats a point that stream asked before: a repeat share of 1/4.  The
# Coxeter elements are fixed rather than seeded: the cost of an expansion
# depends strongly on c, and a seeded c made one seed's queries 1.6 times as
# costly as another's.
EXPAND_TYPES = ("F4", "E6", "E7", "E8")
EXPAND_SIDES = ("root", "weight")
FRESH_PER_REPEAT = 3
POINT_RANGE = 20

# Number of leading jobs of a stream covered by ``inputs_digest``; fixed so two
# commits of different speed print the same digest for the same seed.
DIGEST_JOBS = 512


def edges_of(label: str) -> tuple:
    """Dynkin diagram edges (i < j, 0-based) of a type label."""
    from coxfan.cartan import make_datum

    return make_datum(label).edges


def rank_of(label: str) -> int:
    return int(label[1:])


def all_orders(label: str) -> list:
    """One 1-based Coxeter order per acyclic orientation, in orientation-mask order.

    Each orientation is written as its lexicographically least topological
    order, so one Coxeter element always reaches the program as the same
    command line (the CLI echoes the order it was given).
    """
    edges = edges_of(label)
    n = rank_of(label)
    out = []
    for mask in range(1 << len(edges)):
        preds = {i: set() for i in range(n)}
        for k, (i, j) in enumerate(edges):
            a, b = (j, i) if (mask >> k) & 1 else (i, j)
            preds[b].add(a)
        order, remaining = [], set(range(n))
        while remaining:
            i = min(k for k in remaining if not (preds[k] & remaining))
            order.append(i)
            remaining.discard(i)
        out.append(",".join(str(i + 1) for i in order))
    return out


class _OrderPool:
    """Draws orientations of one type without repetition until all are used."""

    def __init__(self, label: str, rng: random.Random):
        self.orders = all_orders(label)
        self.rng = rng
        self.queue = []

    def take(self, k: int) -> list:
        out = []
        for _ in range(k):
            if not self.queue:
                self.queue = list(self.orders)
                self.rng.shuffle(self.queue)
            out.append(self.queue.pop())
        return out


def polytope_blocks(seed: int):
    rng = random.Random(f"polytope-sweep:{seed}")
    pools = {label: _OrderPool(label, rng) for label, _ in POLYTOPE_MIX}
    while True:
        block = []
        for label, k in POLYTOPE_MIX:
            count = len(pools[label].orders) if k is None else k
            for order in pools[label].take(count):
                block.append({"argv": ["polytope", label, "--coxeter", order, "--format", "json"],
                              "cls": label})
        rng.shuffle(block)
        yield block


def oracle_blocks(seed: int):
    rng = random.Random(f"oracle-suites:{seed}")
    pools = {label: _OrderPool(label, rng) for label in ORACLE_TYPES}
    while True:
        block = []
        for label in ORACLE_TYPES:
            for suite, order in zip(SUITES, pools[label].take(len(SUITES))):
                block.append({"argv": ["verify", label, "--coxeter", order, "--suite", suite,
                                       "--format", "json"],
                              "cls": f"{label}/{suite}"})
        rng.shuffle(block)
        yield block


def expand_models() -> list:
    """(type, 1-based order) of every warm expand-stream model."""
    out = []
    for label in EXPAND_TYPES:
        nodes = [str(i) for i in range(1, rank_of(label) + 1)]
        out += [(label, ",".join(nodes)), (label, ",".join(reversed(nodes)))]
    return out


def expand_blocks(seed: int):
    rng = random.Random(f"expand-stream:{seed}")
    streams = [(label, order, side) for label, order in expand_models() for side in EXPAND_SIDES]
    asked = {s: [] for s in streams}
    while True:
        queues = {}
        for stream in streams:
            label, order, side = stream
            n = rank_of(label)
            seen = asked[stream]
            queue = []
            for _ in range(FRESH_PER_REPEAT):
                seen.append(tuple(rng.randint(-POINT_RANGE, POINT_RANGE) for _ in range(n)))
                queue.append({"type": label, "order": order, "side": side, "point": seen[-1],
                              "cls": f"{label}/{side}/miss"})
            queue.append({"type": label, "order": order, "side": side, "point": rng.choice(seen),
                          "cls": f"{label}/{side}/hit"})
            queues[stream] = iter(queue)
        # Interleave the streams but keep each one's own order, so a repeat
        # always comes after the query it repeats.
        slots = [s for s in streams for _ in range(FRESH_PER_REPEAT + 1)]
        rng.shuffle(slots)
        yield [next(queues[s]) for s in slots]


BLOCKS = {"polytope-sweep": polytope_blocks, "expand-stream": expand_blocks,
          "oracle-suites": oracle_blocks}


def job_key(job: dict) -> str:
    if "argv" in job:
        return " ".join(job["argv"])
    point = ",".join(map(str, job["point"]))
    return f"expand {job['type']} --coxeter {job['order']} --side {job['side']} --point {point}"


def inputs_digest(workload: str, seed: int, jobs: int = DIGEST_JOBS) -> str:
    """sha256 over the first ``jobs`` job keys of the seeded stream."""
    h = hashlib.sha256()
    got = 0
    for block in BLOCKS[workload](seed):
        for job in block:
            if got == jobs:
                return h.hexdigest()
            h.update(job_key(job).encode() + b"\n")
            got += 1


# --- running and checking jobs ---------------------------------------------------------

def process_caches() -> list:
    """Every process-wide ``lru_cache`` in coxfan.

    ``build_model``, ``generate_roots``, ``simple_reflection`` and friends
    memoise for the life of the process, and a model memoises its own
    expansions.  Clearing these caches (and collecting the garbage they free)
    returns the process to the state a fresh ``coxfan`` invocation sees.
    """
    import coxfan

    found = {}
    for info in pkgutil.iter_modules(coxfan.__path__):
        module = importlib.import_module(f"coxfan.{info.name}")
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                found[id(obj)] = obj
    return list(found.values())


def cold_start(caches: list) -> None:
    for cached in caches:
        cached.cache_clear()
    gc.collect()


def run_cli(argv: list):
    """One CLI invocation through ``coxfan.cli.main`` with stdout and stderr captured."""
    import coxfan.cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = coxfan.cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_cli(job: dict, result, digests: dict):
    """None when the output is correct, else a one-line reason."""
    code, out, err = result
    if code != 0:
        return f"exit {code}: {err.strip()[:200]}"
    want = digests.get(job_key(job))
    if want is None:
        return "no reference digest for this job"
    if job["argv"][0] == "verify":
        try:
            data = json.loads(out)
        except ValueError:
            return "verify output is not JSON"
        bad = [c["name"] for c in data.get("checks", []) if not c.get("ok")]
        if bad or not data.get("ok"):
            return f"verify checks failed: {bad}"
    if sha256_text(out) != want:
        return "stdout differs from the reference digest"
    return None


def check_expansion(model, job: dict, expansion: dict):
    """Independent check of one cluster expansion; None when correct.

    The expansion must recombine to the queried point (label roots for the
    root side, label weights for the weight side), carry positive integer
    coefficients only, and have a pairwise compatible support.
    """
    n = len(job["point"])
    field = "root" if job["side"] == "root" else "weight"
    total = [0] * n
    for label_id, coeff in expansion.items():
        if not isinstance(coeff, int) or coeff <= 0:
            return f"coefficient {coeff!r} of label {label_id} is not a positive integer"
        vec = getattr(model.labels[label_id], field)
        for t in range(n):
            total[t] += coeff * vec[t]
    if tuple(total) != tuple(job["point"]):
        return f"expansion recombines to {tuple(total)}, not {tuple(job['point'])}"
    table = model.compat_table()
    support = sorted(expansion)
    for i, a in enumerate(support):
        for b in support[i + 1:]:
            if table[a][b] != 0 or table[b][a] != 0:
                return f"labels {a} and {b} in the support are not compatible"
    if len(support) > n:
        return f"support has {len(support)} labels, more than the rank {n}"
    return None
