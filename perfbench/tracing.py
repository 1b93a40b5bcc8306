"""Spans around coxfan's public calls, installed from outside the library.

Each wrapped call records ``[span id, parent span id, name, start, end, job]``
in memory, with start and end read from the process CPU clock that also times
the jobs; ``write`` saves them when the run ends.  A span's layer is the
module prefix of its name, and a layer's self time is its spans' durations
minus the parts their child spans cover.

``cli``, ``verify``, ``polytope`` and ``model`` bind names such as
``build_model``, ``vertices`` and ``solve_fraction_free`` at import time, so
``install`` replaces a function in every coxfan module that holds it, not only
in the module that defines it.
"""
from __future__ import annotations

import functools
import importlib
import json
import pkgutil
from collections import Counter, defaultdict
from time import process_time

LAYERS = ("cli", "verify", "polytope", "mutation", "model", "weyl", "linalg", "cartan")

# (module, attribute) of every call that gets a span; "Class.method" patches the class.
SPANNED = (
    ("cli", "main"),
    ("verify", "suite_fan"), ("verify", "suite_polytope"), ("verify", "suite_cambrian"),
    ("verify", "suite_exchange"), ("verify", "suite_sorting"), ("verify", "suite_maps"),
    ("polytope", "build_hrep"), ("polytope", "vertices"), ("polytope", "export_json"),
    ("polytope", "verify_support_function"), ("polytope", "check_polytopality"),
    ("polytope", "cambrian_rays"), ("polytope", "cambrian_hrep"), ("polytope", "polytopes_equal"),
    ("mutation", "exchange_graph"), ("mutation", "verify_exchange_relations"),
    ("model", "build_model"), ("model", "ClusterModel.clusters"),
    ("model", "ClusterModel.adjacent_cluster_pairs"), ("model", "ClusterModel.expand_root"),
    ("model", "ClusterModel.expand_weight"), ("model", "ClusterModel.uplus"),
    ("model", "cone_membership"), ("model", "sigma_map"), ("model", "bar_map"),
    ("model", "iota_map"),
    ("weyl", "WeylElement.inverse"), ("weyl", "coxeter_from_order"), ("weyl", "singletons"),
    ("weyl", "c_sorting_word"), ("weyl", "w_m_word"), ("weyl", "enumerate_group"),
    ("linalg", "solve_fraction_free"), ("linalg", "int_mat_inv"), ("linalg", "bareiss_det"),
    ("cartan", "make_datum"), ("cartan", "generate_roots"), ("cartan", "weight_to_root"),
    ("cartan", "weight_to_root_int"), ("cartan", "root_to_weight"),
)

# Calls too frequent for a span; only counted.
COUNTED = (("mutation", "LaurentPoly.__mul__"),)

# Per-layer time metrics: inclusive time of the outermost span among these names.
INCLUSIVE = {
    "polytope.vertices_s": ("polytope.vertices",),
    "polytope.export_s": ("polytope.export_json",),
    "polytope.support_check_s": ("polytope.verify_support_function",),
    "polytope.polytopality_s": ("polytope.check_polytopality",),
    "polytope.cambrian_s": ("polytope.cambrian_rays", "polytope.cambrian_hrep",
                            "polytope.polytopes_equal"),
    "linalg.solve_s": ("linalg.solve_fraction_free",),
    "model.build_s": ("model.build_model",),
    "model.clusters_s": ("model.ClusterModel.clusters", "model.ClusterModel.adjacent_cluster_pairs"),
    "model.expand_s": ("model.ClusterModel.expand_root", "model.ClusterModel.expand_weight"),
    "model.cone_membership_s": ("model.cone_membership",),
    "model.uplus_s": ("model.ClusterModel.uplus",),
    "weyl.singletons_s": ("weyl.singletons",),
    "weyl.sorting_word_s": ("weyl.c_sorting_word", "weyl.w_m_word"),
    "weyl.group_enum_s": ("weyl.enumerate_group",),
    "mutation.graph_s": ("mutation.exchange_graph",),
    "mutation.relations_s": ("mutation.verify_exchange_relations",),
}

# Per-layer count metrics: number of spans with this name.
CALLS = {
    "linalg.solve_calls": "linalg.solve_fraction_free",
    "linalg.int_inv_calls": "linalg.int_mat_inv",
    "model.expand_calls": "model.ClusterModel.expand_root",
    "weyl.inverse_calls": "weyl.WeylElement.inverse",
}

SUITE_SELF = {f"verify.{s}_s": f"verify.suite_{s}"
              for s in ("fan", "polytope", "cambrian", "exchange", "sorting", "maps")}

# Per-layer metrics the trace reports, in output order, with their units.
PER_JOB = "/job"
METRICS = (
    [(f"{layer}.self_s", "s" + PER_JOB) for layer in LAYERS]
    + [(name, "s" + PER_JOB) for name in INCLUSIVE]
    + [(name, "s" + PER_JOB) for name in SUITE_SELF]
    + [(name, "calls" + PER_JOB) for name in CALLS]
    + [("mutation.seeds", "seeds" + PER_JOB), ("mutation.laurent_mults", "calls" + PER_JOB),
       ("model.expand_repeat_share", "ratio")]
)


def _modules():
    """The coxfan package and its submodules: every namespace that may hold a name."""
    import coxfan

    return [coxfan] + [importlib.import_module(f"coxfan.{info.name}")
                       for info in pkgutil.iter_modules(coxfan.__path__)]


class Tracer:
    """Records spans and counts for one run; one instance per process."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = "setup"
        self.counts = Counter()
        self.seeds = 0
        self._asked = set()
        self._models = {}
        self._expand_repeats = 0

    def begin_job(self, job_id: int, fresh_models: bool) -> None:
        """Attribute later spans to ``job_id``; forget asked points if models were rebuilt."""
        self.job = job_id
        if fresh_models:
            self._asked.clear()
            self._models.clear()

    # --- wrappers ---------------------------------------------------------------------

    def _span(self, name: str, fn, before=None, after=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            rec = [len(spans), stack[-1] if stack else -1, name, process_time(), 0.0, self.job]
            spans.append(rec)
            stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = process_time()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _note_expand(self, args) -> None:
        if not isinstance(self.job, int):
            return
        model, gamma = args[0], args[1]
        key = (id(model), tuple(int(x) for x in gamma))
        if key in self._asked:
            self._expand_repeats += 1
        else:
            self._asked.add(key)
            # Holding the model keeps its id from being reused by another one.
            self._models[id(model)] = model

    def _note_graph(self, graph) -> None:
        self.seeds += len(graph.seeds)

    def install(self) -> None:
        modules = _modules()
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        hooks = {
            ("model", "ClusterModel.expand_root"): {"before": self._note_expand},
            ("mutation", "exchange_graph"): {"after": self._note_graph},
        }
        for kind, targets in (("span", SPANNED), ("count", COUNTED)):
            for mod_name, attr in targets:
                name = f"{mod_name}.{attr}"
                home = by_name[mod_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    fn = vars(cls)[meth]
                    wrapped = (self._span(name, fn, **hooks.get((mod_name, attr), {}))
                               if kind == "span" else self._counter(name, fn))
                    setattr(cls, meth, wrapped)
                    continue
                fn = getattr(home, attr)
                wrapped = self._span(name, fn, **hooks.get((mod_name, attr), {}))
                for module in modules:
                    if vars(module).get(attr) is fn:
                        setattr(module, attr, wrapped)

    # --- reduction --------------------------------------------------------------------

    def self_times(self):
        """Self time of every span, in span order."""
        self_t = [rec[4] - rec[3] for rec in self.spans]
        for rec in self.spans:
            if rec[1] >= 0:
                self_t[rec[1]] -= rec[4] - rec[3]
        return self_t

    def per_job(self):
        """{job id: {layer: self seconds}} for every job that recorded spans."""
        out = defaultdict(lambda: defaultdict(float))
        for rec, st in zip(self.spans, self.self_times()):
            out[rec[5]][rec[2].split(".", 1)[0]] += st
        return out

    def metrics(self, jobs: int) -> dict:
        """Per-layer metrics averaged over the ``jobs`` measured jobs.

        Spans recorded outside a job (set-up, teardown) are left out.
        """
        spans = self.spans
        group_of = {span: metric for metric, names in INCLUSIVE.items() for span in names}
        self_t = self.self_times()
        layer_self = Counter()
        inclusive = Counter()
        calls = Counter()
        self_by_name = Counter()
        # Metric groups open on the path from the root to each span.
        open_groups = [frozenset()] * len(spans)
        for i, rec in enumerate(spans):
            parent = rec[1]
            if parent >= 0:
                above = open_groups[parent]
                g = group_of.get(spans[parent][2])
                open_groups[i] = above | {g} if g is not None and g not in above else above
            if not isinstance(rec[5], int):
                continue
            name = rec[2]
            layer_self[name.split(".", 1)[0]] += self_t[i]
            calls[name] += 1
            g = group_of.get(name)
            if g is not None and g not in open_groups[i]:
                inclusive[g] += rec[4] - rec[3]
            self_by_name[name] += self_t[i]
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer] / jobs
        for metric in INCLUSIVE:
            out[metric] = inclusive[metric] / jobs
        for metric, span in SUITE_SELF.items():
            out[metric] = self_by_name[span] / jobs
        for metric, span in CALLS.items():
            out[metric] = calls[span] / jobs
        out["mutation.seeds"] = self.seeds / jobs
        out["mutation.laurent_mults"] = self.counts["mutation.LaurentPoly.__mul__"] / jobs
        expand = calls["model.ClusterModel.expand_root"]
        out["model.expand_repeat_share"] = self._expand_repeats / expand if expand else 0.0
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end", "job"],
                       "spans": self.spans}, fh)
