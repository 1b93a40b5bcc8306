"""The traced benchmark wraps coxfan calls by name; every name must still exist.

``perfbench/tracing.py`` patches each ``(module, attribute)`` of ``SPANNED``
and ``COUNTED`` at run time, so a renamed or deleted function breaks the
traced benchmark with an ``AttributeError`` long after the change.  This test
catches it in the test suite instead.
"""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("coxfan_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_call_resolves_in_coxfan():
    tracing = _load_tracing()
    targets = tracing.SPANNED + tracing.COUNTED
    assert targets
    missing = []
    for mod_name, attr in targets:
        home = importlib.import_module(f"coxfan.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            found = vars(getattr(home, cls_name, object)).get(meth)
        else:
            found = getattr(home, attr, None)
        if not callable(found):
            missing.append(f"{mod_name}.{attr}")
    assert not missing, f"traced calls missing from coxfan: {missing}"
