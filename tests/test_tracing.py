"""Smoke test of the benchmark's span tracer against the library as it is.

`perfbench/tracing.py` wraps pretentious functions and methods by name, so a
renamed or removed name breaks traced benchmark runs; this test installs
the tracer, runs one Halasz bound and one exceptional-character scan, checks
that the scan's spans are traced and that it evaluates no direct objective,
and checks that uninstalling puts every attribute back.
"""

import importlib
import importlib.util
from pathlib import Path

from pretentious.arith import PrimeTable
from pretentious.funcspec import Mobius

ROOT = Path(__file__).resolve().parent.parent


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _attributes(tracing):
    """Every attribute the tracer may swap: module globals and method slots."""
    out = {}
    for layer in tracing.LAYERS:
        mod = importlib.import_module(f"pretentious.{layer}")
        out.update({(mod.__name__, k): v for k, v in vars(mod).items()})
    pkg = importlib.import_module("pretentious")
    out.update({(pkg.__name__, k): v for k, v in vars(pkg).items()})
    for layer, cls_name, attr, _ in tracing.METHODS:
        cls = getattr(importlib.import_module(f"pretentious.{layer}"), cls_name)
        out[(cls_name, attr)] = cls.__dict__[attr]
    return out


def test_tracer_installs_runs_and_restores():
    tracing = _load_tracing()
    from pretentious import meanvalues, pretension

    before = _attributes(tracing)
    table = PrimeTable(10**4)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert pretension.find_exceptional is not before[("pretentious.pretension",
                                                          "find_exceptional")]
        meanvalues.halasz_bound(Mobius(), 10**4, 1.0, table)
        rep = pretension.find_exceptional(Mobius(), 10**4, 5, 1.0, table)
    finally:
        tracer.uninstall()
    spans = tracer.spans
    names = {s[0] for s in spans}
    assert {"meanvalues.halasz_bound", "pretension.find_exceptional",
            "funcspec.prime_values"} <= names
    # every character of conductor <= 5 fits the default depth; each D^2 is
    # the scan kernel's value, so no direct objective is built or evaluated
    # and the traced pretension.objective.* metrics read 0
    in_scan = [s[0] for i, s in enumerate(spans)
               if tracing._has_ancestor(spans, i, "pretension.find_exceptional")]
    assert "funcspec.prime_values" in in_scan and len(rep.spectrum) == 6
    assert not {"pretension.objective.build", "pretension.objective.eval"} & names
    after = _attributes(tracing)
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
