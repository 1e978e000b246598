"""The benchmark's tracer names package functions and methods by
attribute; a rename in the package would break ``bench/smoke.py
--trace 1`` and traced benchmark runs, so its targets are checked here."""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_name_exists(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ under bench/
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    # construction looks up every target (a missing one raises KeyError)
    # and installs none of them
    t = tracer.Tracer()
    assert "engine.theta_cache" in t.names and "sparse.diag_inverse" in t.names
    assert t._sites and all(vars(target)[attr] is original
                            for target, attr, original, _ in t._sites)
