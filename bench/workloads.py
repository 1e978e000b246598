"""The three benchmark workloads: inputs from a seed, set-up, one pass, checks.

Every workload follows the same shape, so that every end-to-end metric
is measured on every workload:

* ``__init__`` generates the inputs (arrays in memory, or files in a
  work directory for the command-line workload);
* ``setup`` builds the models from those inputs -- the timed set-up;
* ``run_pass`` runs the user workflow once (fit, draw from the
  posterior, diagnose; on ``toy_sbc`` also calibrate), recording times
  into a ``Pass`` and correctness checks beside them.

Why fixed datasets: a fit's cost depends on its data (on the c5 joint
model the outer iterations and theta evaluations differ from one
dataset to the next), so a run on one seed-drawn dataset would measure
that dataset, not the code.  Every pass therefore fits the same data --
dataset k drawn with ``default_rng(k)``, for ``joint_fit`` exactly as
acceptance test c5 draws seed k; ``joint_fit`` and ``bym_lattice`` fit
dataset 0, ``toy_sbc`` a pool of them -- and the seed sets the order in
which the toy pool is visited and every random stream whose cost does
not depend on its values: the posterior draws and the deviation draws.
The SBC replicates are fixed too (``SBC_SEED``): their KS check would
otherwise fail at one seed in a hundred by chance.

The package is called through its module attributes (``engine.fit``,
not a name bound at import), so the timing wrappers that ``tracer``
installs see the benchmark's own calls too.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from iterlace import calibration, cli, config, diagnostics, engine, exprs
from iterlace.latents import (
    BesagModel,
    FixedEffectsModel,
    Graph,
    IidModel,
    _precision_hyper,
)
from iterlace.likelihoods import GaussianFamily, PoissonFamily
from iterlace.mappers import (
    BlockSpec,
    ExponentialQuantile,
    IndexMapper,
    LogSumExpMapper,
    MarginalMapper,
)

BYM_REFERENCE = Path(__file__).with_name("bym_reference.json")


@dataclass(frozen=True)
class Size:
    """Problem sizes; ``FULL`` is the benchmark, ``SMOKE`` its smoke test."""

    toy_pool: int
    toy_fits: int
    toy_draws: int
    toy_deviation: int
    sbc_replicates: int
    sbc_draws: int
    joint_side: int
    joint_draws: int
    joint_deviation: int
    bym_side: int
    bym_draws: int
    bym_deviation: int


FULL = Size(
    toy_pool=5, toy_fits=2, toy_draws=200, toy_deviation=200,
    sbc_replicates=10, sbc_draws=1000,
    joint_side=10, joint_draws=3000, joint_deviation=1000,
    bym_side=12, bym_draws=500, bym_deviation=500,
)
SMOKE = Size(
    toy_pool=2, toy_fits=1, toy_draws=20, toy_deviation=20,
    sbc_replicates=2, sbc_draws=20,
    joint_side=4, joint_draws=50, joint_deviation=20,
    bym_side=3, bym_draws=20, bym_deviation=20,
)


#: model builds timed before each operation of a pass
SETUP_BUILDS = 5
#: seed of the SBC replicates, fixed so that the KS check is the same in every run
SBC_SEED = 0


class Pass:
    """Timings, operation counts and check outcomes of one workflow pass.

    ``totals[metric]`` is (seconds, units): fits or diagnoses for the
    per-operation times, draws for the sampling rate; ``metrics`` turns
    them into the end-to-end metrics.  ``time`` runs one
    operation; before it, ``SETUP_BUILDS`` builds of the models are
    timed into ``setup_s``, so that the set-up samples span the whole
    pass -- machine speed can drift within seconds, and a burst of
    builds at one moment would measure that moment.  Traced passes pass
    ``setup=None``, so the builds do not show in the per-layer spans.
    """

    def __init__(self, setup):
        self.setup = setup
        self.setup_s = []
        self.totals = {}
        self.wall_s = None
        self.attempted = 0
        self.failed = 0
        self.checks = []

    def time(self, metric, fn, *args, units=1, **kwargs):
        """Run ``fn``, adding its wall time to ``metric`` unless that is None."""
        for _ in range(SETUP_BUILDS if self.setup is not None else 0):
            t0 = time.perf_counter()
            self.setup()
            self.setup_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        if metric is not None:
            total = self.totals.setdefault(metric, [0.0, 0])
            total[0] += time.perf_counter() - t0
            total[1] += units
        return out

    def check(self, name, ok, detail=None):
        """Record a correctness check; each is an operation, a failed one a failed operation."""
        self.attempted += 1
        self.failed += not ok
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})



def metrics(passes):
    """End-to-end metrics over ``passes``: each time is the passes' total
    over their total operations (draws, for the sampling rate), and
    ``workflow_s`` the mean pass.  Totals, not medians: a run makes
    three to five passes while the machine's speed jumps between states
    every few seconds, and a median of three samples rests on one of
    them, where a total uses the whole run.
    """
    seconds, units = {}, {}
    for p in passes:
        for metric, (s, u) in p.totals.items():
            seconds[metric] = seconds.get(metric, 0.0) + s
            units[metric] = units.get(metric, 0) + u
    out = {m: units[m] / seconds[m] if m == "sample_draws_per_s" else seconds[m] / units[m]
           for m in seconds}
    out["workflow_s"] = sum(p.wall_s - sum(p.setup_s) for p in passes) / len(passes)
    setup = [t for p in passes for t in p.setup_s]
    if setup:
        out["setup_s"] = sum(setup) / len(setup)
    return out


def rook_lattice(side):
    """Rook-neighbour edges of a side x side lattice, 0-based, row-major."""
    edges = []
    for r in range(side):
        for c in range(side):
            i = r * side + c
            if c + 1 < side:
                edges.append((i, i + 1))
            if r + 1 < side:
                edges.append((i, i + side))
    return edges


def sample_icar(rng, n, edges, tau):
    """Draw from the intrinsic CAR prior by eigen-sampling the non-null
    spectrum of the degree-minus-adjacency matrix."""
    W = np.zeros((n, n))
    for i, j in edges:
        W[i, j] = W[j, i] = 1.0
    Q = np.diag(W.sum(axis=1)) - W
    vals, vecs = np.linalg.eigh(Q)
    keep = vals > 1e-8
    coef = rng.standard_normal(keep.sum()) / np.sqrt(tau * vals[keep])
    x = vecs[:, keep] @ coef
    return x - x.mean()


def fit_checked(model, rec, max_iter=None):
    res = rec.time("fit_s", engine.fit, model)
    if max_iter is None:
        rec.check("fit converged", res.converged)
    else:
        rec.check(f"fit converged within {max_iter} outer iterations",
                  res.converged and res.records[-1].iter <= max_iter)
    return res


def sample(res, expr, n_draws, rng, rec):
    draws = rec.time("sample_draws_per_s", engine.generate, res, exprs.parse_expr(expr),
                     n_draws, rng, units=n_draws)
    rec.check(f"finite draws of {expr}",
              draws.shape[0] == n_draws and bool(np.all(np.isfinite(draws))))
    return draws


def diagnose(res, n_samples, seed, rec):
    """KL divergences plus the Monte-Carlo linearisation deviation."""
    def both():
        kl = diagnostics.kl_divergences(res)
        dev = diagnostics.linearisation_deviation(res, n_samples, seed=seed)
        return kl.kl_lin_to_nonlin, kl.kl_nonlin_to_lin, dev

    values = rec.time("diagnose_s", both)
    rec.check("diagnostics finite and non-negative",
              all(np.isfinite(v) and v >= -1e-9 for v in values))


# --- toy_sbc ----------------------------------------------------------------

class ToySbc:
    """Acceptance test c3's toy: Poisson counts, Exp(0.5) rate, one latent.

    A pass fits each pool dataset, draws from and diagnoses each fit --
    half the pool before and half after ``sbc_run`` on the all-zero
    template with K replicates of J draws each, where nearly all of the
    time goes.
    """

    name = "toy_sbc"
    rate = 0.5
    rows = 100

    def __init__(self, seed, size, workdir):
        self.seed = seed
        self.size = size
        # the pool's indices, starting at seed mod pool
        self.order = [(seed + i) % size.toy_pool for i in range(size.toy_pool)]
        self.ys = []
        for k in range(size.toy_pool):
            rng = np.random.default_rng(k)
            lam = rng.exponential(1.0 / self.rate)
            self.ys.append(rng.poisson(lam, self.rows).astype(float))

    def _model(self, y):
        comp = engine.Component(
            "lam",
            IidModel(1, _precision_hyper(initial=1.0, fixed=True)),
            mapper=MarginalMapper(ExponentialQuantile(self.rate), inner=IndexMapper(1)),
        )
        block = engine.ObsBlock(
            PoissonFamily(), y, exprs.parse_expr("log(lam)"),
            {"lam": np.ones(y.size, dtype=int)},
        )
        return engine.Model([comp], [block])

    def setup(self):
        template = self._model(np.zeros(self.rows))
        return [self._model(y) for y in self.ys], template

    def run_pass(self, models, rec):
        pool, template = models
        size = self.size

        # half the pool before the calibration run and half after, so the
        # short timings sample the whole pass, not one moment of it
        half = (len(self.order) + 1) // 2
        self._fit_pool(pool, self.order[:half], rec)
        out = rec.time(None, calibration.sbc_run, template, K=size.sbc_replicates,
                       J=size.sbc_draws, seed=SBC_SEED)
        rec.attempted += size.sbc_replicates
        rec.failed += out.failures
        rec.check("sbc: no failed replicates", out.failures == 0, out.failures)
        rec.check("sbc: KS p-value > 0.01", out.ks_pvalue > 0.01, out.ks_pvalue)
        self._fit_pool(pool, self.order[half:], rec)

    def _fit_pool(self, pool, order, rec):
        size = self.size
        for k in order:
            for _ in range(size.toy_fits):
                res = fit_checked(pool[k], rec)
            sample(res, "lam", size.toy_draws, np.random.default_rng([self.seed, k]), rec)
            diagnose(res, size.toy_deviation, self.seed, rec)


# --- joint_fit --------------------------------------------------------------

class JointFit:
    """Acceptance test c5's joint model on its dataset 0, ``build_joint(0)``.

    A Besag field seen directly (Gaussian, three stations per cell) and
    through counts aggregated over 2x2 blocks by log-sum-exp, scaled by
    ``beta1``: 103 latents, two free hyperparameters, a product
    predictor.  A pass fits it, draws ``beta1_latent`` from the fit and
    diagnoses it.
    """

    name = "joint_fit"
    true_b1 = 0.5
    reps = 3

    def __init__(self, seed, size, workdir):
        self.seed = seed
        self.size = size
        side = size.joint_side
        self.n = side * side
        self.edges = rook_lattice(side)
        self.data = self._simulate(side)

    def _simulate(self, side):
        n = self.n
        rng = np.random.default_rng(0)
        a0, b0, b1 = 0.5, 1.0, self.true_b1
        xi = sample_icar(rng, n, self.edges, tau=1.0)
        zidx = np.repeat(np.arange(1, n + 1), self.reps)
        z = a0 + xi[zidx - 1] + rng.normal(scale=0.5, size=zidx.size)
        cells = np.arange(n)
        area = (cells // side) // 2 * (side // 2) + (cells % side) // 2 + 1
        n_area = (side // 2) ** 2
        lam = np.bincount(area - 1, weights=np.exp(b0 + b1 * xi), minlength=n_area)
        counts = rng.poisson(lam).astype(float)
        return zidx, z, area, n_area, counts

    def _model(self, zidx, z, area, n_area, counts):
        n = self.n
        idx = np.arange(1, n + 1)
        comps = [
            engine.Component("xi", BesagModel(Graph(n, self.edges))),
            engine.Component("alpha0", FixedEffectsModel.constant()),
            engine.Component("beta0", FixedEffectsModel.constant()),
            engine.Component("beta1", FixedEffectsModel.constant()),
        ]
        z_block = engine.ObsBlock(
            GaussianFamily(), z, exprs.parse_expr("alpha0 + xi"),
            {"alpha0": np.ones(zidx.size), "xi": zidx},
        )
        count_block = engine.ObsBlock(
            PoissonFamily(), counts, exprs.parse_expr("beta0 + beta1 * xi"),
            {"beta0": np.ones(n), "beta1": np.ones(n), "xi": idx},
            aggregation=(LogSumExpMapper(), BlockSpec(area, np.ones(n), n_block=n_area)),
        )
        return engine.Model(
            comps, [z_block, count_block],
            options={"bru_initial": {"beta1": 1.0}, "bru_max_iter": 10},
        )

    def setup(self):
        return self._model(*self.data)

    def run_pass(self, model, rec):
        size = self.size
        res = fit_checked(model, rec, max_iter=10)
        draws = sample(res, "beta1_latent", size.joint_draws,
                       np.random.default_rng(self.seed), rec)
        lo, hi = np.quantile(draws[:, 0], [0.025, 0.975])
        rec.check("95% interval for beta1 covers 0.5", lo <= self.true_b1 <= hi,
                  [float(lo), float(hi)])
        diagnose(res, size.joint_deviation, self.seed, rec)


# --- bym_lattice ------------------------------------------------------------

@contextlib.contextmanager
def capture_cli_fit():
    """Keep the FitResult that ``iterlace fit`` computes, to read it after."""
    original = cli.fit
    results = []

    def capturing(*args, **kwargs):
        res = original(*args, **kwargs)
        results.append(res)
        return res

    cli.fit = capturing
    try:
        yield results
    finally:
        cli.fit = original


class BymLattice:
    """BYM disease mapping on a rook lattice, run through ``iterlace fit``.

    Counts y_i ~ Poisson(exp(b0 + u_i + v_i)) with an intrinsic CAR
    field u and iid noise v, drawn with ``default_rng(0)``; the config
    puts the intercept first, so it is latent 0.  A pass runs the
    ``fit`` command on the generated JSON config, CSV and graph file,
    checks ``fit.json``, then draws the per-area log risk from, and
    diagnoses, the fit the command computed.
    """

    name = "bym_lattice"
    b0 = 1.5
    tau_spatial = 2.0
    tau_iid = 10.0
    #: largest change in any latent mean, against the recorded reference,
    #: that still counts as the same fit; posterior sds here are 0.017-0.45
    mean_tolerance = 1e-4

    def __init__(self, seed, size, workdir):
        self.seed = seed
        self.size = size
        self.config = self._write_inputs(Path(workdir) / "data")
        self.first_fit_json = None
        self.reference = None
        if size.bym_side == FULL.bym_side:
            self.reference = np.array(json.loads(BYM_REFERENCE.read_text())["latent_mean"])

    def _write_inputs(self, directory):
        side = self.size.bym_side
        n = side * side
        edges = rook_lattice(side)
        rng = np.random.default_rng(0)
        u = sample_icar(rng, n, edges, tau=self.tau_spatial)
        v = rng.normal(scale=1.0 / np.sqrt(self.tau_iid), size=n)
        y = rng.poisson(np.exp(self.b0 + u + v))

        directory.mkdir(parents=True, exist_ok=True)
        (directory / "map.graph").write_text(
            f"n {n}\n" + "".join(f"{i + 1} {j + 1}\n" for i, j in edges)
        )
        (directory / "counts.csv").write_text(
            "y,area\n" + "".join(f"{int(c)},{i + 1}\n" for i, c in enumerate(y))
        )
        cfg = {
            "components": [
                {"name": "b0", "model": "constant"},
                {"name": "s", "model": "bym", "graph": "map.graph",
                 "input": {"kind": "index_column", "column": "area"}},
            ],
            "likelihoods": [
                {"family": "poisson", "response": "y", "formula": "~ b0 + s",
                 "data": "counts.csv"},
            ],
            "options": {"seed": 0},
        }
        path = directory / "model.json"
        path.write_text(json.dumps(cfg, indent=2))
        return path

    def setup(self):
        return config.build_model(config.load_model(self.config))

    def run_pass(self, built, rec):
        res = self.fit_command(rec)
        if res is not None:
            sample(res, "b0 + s", self.size.bym_draws, np.random.default_rng(self.seed), rec)
            diagnose(res, self.size.bym_deviation, self.seed, rec)

    def fit_command(self, rec):
        """``iterlace fit`` on the dataset, with its output checked."""
        out = self.config.parent / "out"
        stdout = io.StringIO()
        with capture_cli_fit() as fits, contextlib.redirect_stdout(stdout):
            code = rec.time("fit_s", cli.main, ["fit", "-m", str(self.config), "-o", str(out)])
        rec.check("iterlace fit exits 0", code == 0, stdout.getvalue()[-500:] if code else None)
        if code != 0:
            return None
        raw = (out / "fit.json").read_bytes()
        doc = json.loads(raw)
        rec.check("fit.json converged", doc["converged"] is True)
        # the run's first pass sets what the later ones must repeat (c9)
        if self.first_fit_json is None:
            self.first_fit_json = raw
        else:
            rec.check("fit.json byte-identical to the run's first pass",
                      raw == self.first_fit_json)
        means = np.concatenate([doc["components"][c]["mean"] for c in ("b0", "s")])
        if self.reference is not None:
            gap = float(np.max(np.abs(means - self.reference)))
            rec.check("latent means match the recorded reference",
                      gap <= self.mean_tolerance, gap)
        else:
            rec.check("latent means match the recorded reference", True,
                      "skipped: no reference recorded at this lattice size")
        return fits[-1]


WORKLOADS = {w.name: w for w in (ToySbc, JointFit, BymLattice)}
