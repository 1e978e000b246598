"""The benchmark's tracer names package functions and methods by
attribute, and its probes read attributes of the objects it traces
(``_ThetaCache.cache``, a factor's ``L``, ...); a rename in the package
would break ``bench/smoke.py --trace 1`` and traced benchmark runs, so
its targets are checked here, and its probes run on one small fit."""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

from iterlace import engine
from iterlace.exprs import parse_expr
from shared import toy_counts, toy_model

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"
#: per-layer metrics that ``bench/run.py`` computes itself, not the tracer
RUN_METRICS = {"trace.untraced_workflow_s", "trace.traced_workflow_s", "trace.overhead_pct"}


def _load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ under bench/
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_exists(monkeypatch):
    tracer = _load_tracer(monkeypatch)
    # construction looks up every target (a missing one raises KeyError)
    # and installs none of them
    t = tracer.Tracer()
    assert "engine.theta_cache" in t.names and "sparse.diag_inverse" in t.names
    assert t._sites and all(vars(target)[attr] is original
                            for target, attr, original, _ in t._sites)


def test_probes_run_on_a_fit_and_generate(monkeypatch):
    tracer = _load_tracer(monkeypatch)
    t = tracer.Tracer()
    t.install()
    try:
        begin = t.mark()
        res = engine.fit(toy_model(toy_counts()))
        draws = engine.generate(res, parse_expr("lam"), 20, np.random.default_rng(0))
        metrics = t.pass_metrics(begin, t.mark())
    finally:
        t.uninstall()
    assert all(vars(target)[attr] is original for target, attr, original, _ in t._sites)
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(metrics) == {m["name"] for m in per_layer} - RUN_METRICS
    assert metrics["engine.generate.draws"] == draws.shape[0] == 20
    assert metrics["engine.theta_cache.calls"] == metrics["engine.log_posterior_theta.calls"] > 0
    assert metrics["sparse.chol.nnz_L"] > 0
