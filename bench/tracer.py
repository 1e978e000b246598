"""Timing wrappers around the package's public functions, installed from outside.

Each traced name is a span: ``(name, start, end, parent)``, kept in
memory and written out when the run ends.  A function is patched
wherever a caller looks it up -- every ``iterlace`` module attribute
that is the same object, so ``iterlace.engine.chol`` and
``iterlace.calibration.fit`` are wrapped along with their definitions --
and a method on every class that defines it.

Self time is a span's duration minus the time its child spans cover;
the calls run on one thread, so children never overlap.  Inclusive
time counts only the outermost span of a name, so a mapper that calls
an inner mapper is not counted twice.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

from iterlace import (
    calibration, cli, config, diagnostics, engine, exprs, latents, likelihoods, mappers, sparse,
)


def _classes(modules, base=object, method=None):
    """Classes defined in ``modules`` that subclass ``base`` and define ``method``."""
    out = []
    for mod in modules:
        for obj in vars(mod).values():
            if (isinstance(obj, type) and obj.__module__ == mod.__name__
                    and issubclass(obj, base) and method in vars(obj)):
                out.append(obj)
    return out


def _solve_lt_columns(counts, args, kwargs, result, pre):
    rhs = np.asarray(args[1])
    counts["sparse.solve_lt.columns"] += 1 if rhs.ndim == 1 else rhs.shape[1]


def _chol_nnz(counts, args, kwargs, result, pre):
    counts["sparse.chol.nnz_L"] += result.L.nnz


def _generate_draws(counts, args, kwargs, result, pre):
    counts["engine.generate.draws"] += result.shape[0]


def _cache_hit(counts, args, kwargs, result, pre):
    counts["engine.theta_cache.hits"] += len(args[0].cache) == pre


def _sbc_failures(counts, args, kwargs, result, pre):
    counts["calibration.sbc_run.failures"] += result.failures


def _cache_size(args):
    return len(args[0].cache)


# (span name, [(owner, attribute)], counter, pre-call probe).  Functions
# are listed at their definition; ``install`` finds the other bindings.
def _targets():
    def methods(classes, attr):
        return [(cls, attr) for cls in classes]

    mapper_classes = _classes((mappers, latents), mappers.Mapper, "eval")
    jac_classes = _classes((mappers, latents), mappers.Mapper, "jacobian")
    return [
        ("sparse.SparseSym", [(sparse.SparseSym, "__init__")], None, None),
        ("sparse.chol", [(sparse, "chol")], _chol_nnz, None),
        ("sparse.solve", [(sparse.CholFactor, "solve")], None, None),
        ("sparse.solve_lt", [(sparse.CholFactor, "solve_lt")], _solve_lt_columns, None),
        ("sparse.diag_inverse", [(sparse.CholFactor, "diag_inverse")], None, None),
        ("latents.precision",
         methods(_classes((latents,), latents.LatentModel, "precision"), "precision"),
         None, None),
        ("latents.graph_structure", [(latents.Graph, "structure")], None, None),
        ("likelihoods.grad_hess",
         methods(_classes((likelihoods,), object, "grad_hess"), "grad_hess"), None, None),
        ("likelihoods.loglik",
         methods(_classes((likelihoods,), object, "loglik"), "loglik"), None, None),
        ("exprs.expr_jacobian", [(exprs, "expr_jacobian")], None, None),
        ("mappers.eval", methods(mapper_classes, "eval"), None, None),
        ("mappers.jacobian", methods(jac_classes, "jacobian"), None, None),
        ("engine.fit", [(engine, "fit")], None, None),
        ("engine.linearise", [(engine.Model, "linearise")], None, None),
        ("engine.theta_explore", [(engine, "theta_explore")], None, None),
        ("engine.theta_cache", [(engine._ThetaCache, "__call__")], _cache_hit, _cache_size),
        ("engine.log_posterior_theta", [(engine, "log_posterior_theta")], None, None),
        ("engine.gaussian_approx", [(engine, "gaussian_approx")], None, None),
        ("engine.line_search", [(engine, "line_search")], None, None),
        ("engine.latent_var", [(engine.GaussResult, "latent_var")], None, None),
        ("engine.pred_var", [(engine.GaussResult, "pred_var")], None, None),
        ("engine.generate", [(engine, "generate")], _generate_draws, None),
        ("engine.expr_env", [(engine, "expr_env")], None, None),
        ("diagnostics.correction_matrix", [(diagnostics, "correction_matrix")], None, None),
        ("diagnostics.kl_divergences", [(diagnostics, "kl_divergences")], None, None),
        ("diagnostics.linearisation_deviation",
         [(diagnostics, "linearisation_deviation")], None, None),
        ("calibration.sbc_run", [(calibration, "sbc_run")], _sbc_failures, None),
        ("config.load_model", [(config, "load_model")], None, None),
        ("config.build_model", [(config, "build_model")], None, None),
        ("config.canonical_json", [(config, "canonical_json")], None, None),
        ("cli.fit_document", [(cli, "fit_document")], None, None),
    ]


#: counts that must repeat exactly between two traced passes at one seed
EXACT_COUNTS = (
    "sparse.chol.calls",
    "sparse.chol.nnz_L",
    "engine.log_posterior_theta.calls",
    "engine.generate.draws",
)


class Tracer:
    """Span recorder; ``install`` patches the package, ``uninstall`` restores it."""

    def __init__(self):
        self.names = []
        self.spans = []  # [name id, start, end, parent index, outermost of its name]
        self.stack = []
        self.active = []
        self.counts = {}
        self._sites = []  # (owner, attribute, original, wrapper)
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "iterlace" or name.startswith("iterlace."))]
        for name, sites, counter, probe in _targets():
            nid = len(self.names)
            self.names.append(name)
            self.active.append(0)
            for owner, attr in sites:
                original = vars(owner)[attr]
                wrapper = self._wrap(nid, original, counter, probe)
                owners = [owner]
                if not isinstance(owner, type):
                    owners = [m for m in modules if vars(m).get(attr) is original]
                self._sites.extend((target, attr, original, wrapper) for target in owners)
        self.reset_counts()

    def _wrap(self, nid, fn, counter, probe):
        spans, stack, active, counts = self.spans, self.stack, self.active, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pre = probe(args) if probe is not None else None
            span = [nid, 0.0, 0.0, stack[-1] if stack else -1, active[nid] == 0]
            stack.append(len(spans))
            spans.append(span)
            active[nid] += 1
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                active[nid] -= 1
                stack.pop()
            if counter is not None:
                counter(counts, args, kwargs, result, pre)
            return result

        return wrapper

    def install(self):
        for target, attr, _, wrapper in self._sites:
            setattr(target, attr, wrapper)

    def uninstall(self):
        for target, attr, original, _ in reversed(self._sites):
            setattr(target, attr, original)

    def reset_counts(self):
        self.counts.clear()
        self.counts.update({
            "sparse.chol.nnz_L": 0,
            "sparse.solve_lt.columns": 0,
            "engine.generate.draws": 0,
            "engine.theta_cache.hits": 0,
            "calibration.sbc_run.failures": 0,
        })

    def mark(self):
        return len(self.spans)

    def pass_metrics(self, begin, end):
        """Per-layer metrics over spans ``begin:end`` and the counters since reset."""
        rows = np.array(self.spans[begin:end], dtype=float).reshape(-1, 5)
        nid = rows[:, 0].astype(int)
        dur = rows[:, 2] - rows[:, 1]
        parent = rows[:, 3].astype(int) - begin
        outer = rows[:, 4] > 0
        covered = np.zeros(len(rows))
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self_time = dur - covered

        out = {}
        for k, name in enumerate(self.names):
            mine = nid == k
            out[f"{name}.calls"] = int(mine.sum())
            out[f"{name}.s"] = float(dur[mine & outer].sum())
            out[f"{name}.self_s"] = float(self_time[mine].sum())
        counts = dict(self.counts)
        cache_calls = out.pop("engine.theta_cache.calls")
        for key in ("engine.theta_cache.s", "engine.theta_cache.self_s"):
            out.pop(key)
        hits = counts.pop("engine.theta_cache.hits")
        out.update(counts)
        out["engine.theta_cache.calls"] = cache_calls
        out["engine.theta_cache.hit_ratio"] = hits / cache_calls if cache_calls else 0.0
        return out

    def dump(self, t0):
        """Spans as JSON-ready data, times in seconds from ``t0``."""
        return {
            "names": self.names,
            "fields": ["name", "start_s", "end_s", "parent"],
            "spans": [[s[0], round(s[1] - t0, 7), round(s[2] - t0, 7), s[3]]
                      for s in self.spans],
        }

