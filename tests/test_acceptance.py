"""Release gate: one test per advertised accuracy/behaviour bar.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per bar.  Every expected value here comes from an independent
route -- closed-form conjugate posteriors, hand-evaluated divergence
formulas, analytic Jacobians/Hessians, extended-precision arithmetic,
or byte comparison -- never from the code under test.
"""

import json
import time

import mpmath
import numpy as np
import scipy.sparse as sp
from numpy.random import default_rng
from scipy import stats

from iterlace.calibration import sbc_run
from iterlace.cli import main as cli_main
from iterlace.diagnostics import correction_matrix, kl_divergences
from iterlace.engine import Component, Model, ObsBlock, fit, generate
from iterlace.exprs import expr_jacobian, parse_expr
from iterlace.latents import BymModel, FixedEffectsModel, IidModel, _precision_hyper
from iterlace.likelihoods import GaussianFamily, PoissonFamily
from iterlace.mappers import (
    AggregateMapper,
    BlockSpec,
    CollectMapper,
    ExponentialQuantile,
    FactorMapper,
    GammaQuantile,
    IndexMapper,
    LinearMapper,
    LogSumExpMapper,
    MarginalMapper,
    MultiMapper,
    PipeMapper,
    ScaleMapper,
)
from shared import (
    TRUE_B1, build_joint, curvature_fixture, exp_predictor_model, fd_jacobian, gls_model,
    lattice_graph, product_predictor_model, toy_config, toy_model,
)


# --- builders ---------------------------------------------------------------

def random_blockspec(rng, n=None):
    nb = int(rng.integers(2, 5))
    if n is None:
        n = int(rng.integers(nb + 1, 16))
    block = np.concatenate(
        [np.arange(1, nb + 1), rng.integers(1, nb + 1, size=n - nb)]
    )
    rng.shuffle(block)
    return BlockSpec(block, rng.uniform(0.2, 2.0, size=n), n_block=nb)


# --- 1: conjugate Gaussian exactness ----------------------------------------

def test_c1_conjugate_gaussian_exactness():
    """Gaussian likelihood + linear formula + fixed precisions must hit
    the normal-equations posterior to 1e-8, across randomized designs."""
    t0 = time.perf_counter()
    for seed in range(5):
        rng = default_rng(seed)
        n = int(rng.integers(15, 40))
        k = int(rng.integers(2, 5))
        tau = float(rng.uniform(0.5, 4.0))
        tau_u = float(rng.uniform(0.5, 4.0))
        m0 = float(rng.normal())
        p0 = float(rng.uniform(0.5, 2.0))
        x = rng.normal(size=n)
        idx = rng.integers(1, k + 1, size=n)
        y = rng.normal(size=n)

        comps = [
            Component("b0", FixedEffectsModel.constant(mean=m0, prec=p0)),
            Component("b1", FixedEffectsModel.linear()),
            Component("u", IidModel(k, _precision_hyper(initial=tau_u, fixed=True))),
        ]
        block = ObsBlock(
            GaussianFamily(fixed_prec=tau), y, parse_expr("b0 + b1 + u"),
            {"b0": np.ones(n), "b1": x, "u": idx},
        )
        res = fit(Model(comps, [block]))

        X = np.zeros((n, 2 + k))
        X[:, 0] = 1.0
        X[:, 1] = x
        X[np.arange(n), 1 + idx] = 1.0
        q_prior = np.concatenate([[p0, 0.001], np.full(k, tau_u)])
        mu_prior = np.concatenate([[m0], np.zeros(1 + k)])
        Q = np.diag(q_prior) + tau * X.T @ X
        mean = np.linalg.solve(Q, q_prior * mu_prior + tau * X.T @ y)
        sd = np.sqrt(np.diag(np.linalg.inv(Q)))

        assert np.max(np.abs(res.latent_mean - mean)) <= 1e-8
        assert np.max(np.abs(res.latent_sd - sd)) <= 1e-8
    assert time.perf_counter() - t0 < 1.0


# --- 2: count toy vs exact Gamma posterior ----------------------------------

def test_c2_poisson_exponential_toy():
    """With rate prior Exp(0.5) and Poisson counts the posterior is
    Ga(1 + sum y, 0.5 + n) exactly; sampled posterior must sit within
    KS distance 0.05 of it."""
    t0 = time.perf_counter()
    gam, n = 0.5, 100
    rng = default_rng(20240819)
    lam_true = rng.exponential(1.0 / gam)
    y = rng.poisson(lam_true, size=n).astype(float)

    res = fit(toy_model(y, rate=gam))
    draws = generate(
        res, parse_expr("lam"), 20000, default_rng(77),
        inputs={"lam": np.ones(1, dtype=int)},
    )
    lam_samples = draws[:, 0]

    a, b = 1.0 + y.sum(), gam + n
    ks = stats.kstest(lam_samples, stats.gamma(a, scale=1.0 / b).cdf).statistic
    assert ks <= 0.05, f"KS distance {ks:.4f}"
    assert time.perf_counter() - t0 < 60.0


# --- 3: calibration uniformity ----------------------------------------------

def test_c3_sbc_uniformity():
    """Rank statistics from prior-predictive replication must be
    uniform: KS p > 0.01 for the fitted pipeline on three seeds, and
    p > 0.05 when the exact conjugate sampler replaces the fitter."""
    t0 = time.perf_counter()
    template = toy_model(np.zeros(100), rate=0.5)

    for seed in (11, 22, 33):
        out = sbc_run(template, K=200, J=1000, seed=seed)
        assert out.ks_pvalue > 0.01, f"seed {seed}: p = {out.ks_pvalue:.4f}"

    def exact_gamma_sampler(rng, model_k, J):
        yk = model_k.obs[0].y
        return rng.gamma(1.0 + yk.sum(), 1.0 / (0.5 + yk.size), size=J)

    oracle = sbc_run(
        template, K=200, J=1000, seed=44, posterior_sampler=exact_gamma_sampler
    )
    assert oracle.ks_pvalue > 0.05, f"oracle p = {oracle.ks_pvalue:.4f}"
    assert time.perf_counter() - t0 < 900.0


# --- 4: linear predictors converge immediately --------------------------------

def test_c4_linear_predictor_immediacy():
    """A linear-predictor spatial model forced down the iterative path
    must stop right after iteration 2, matching the single-pass fit."""
    g = lattice_graph(4)
    n = g.n
    rng = default_rng(3)
    y = rng.poisson(np.exp(1.0 + 0.3 * rng.standard_normal(n))).astype(float)

    def build():
        comps = [
            Component("b0", FixedEffectsModel.constant()),
            Component("s", BymModel(g)),
        ]
        block = ObsBlock(
            PoissonFamily(), y, parse_expr("b0 + s"),
            {"b0": np.ones(n), "s": np.arange(1, n + 1)},
        )
        return Model(comps, [block])

    single = fit(build())
    forced = fit(build(), {"force_iterative": True})

    assert single.converged and len(single.records) == 1
    assert forced.converged
    assert forced.records[-1].iter == 2
    assert forced.records[-1].max_dev_over_sd < 0.1
    assert np.max(np.abs(single.latent_mean - forced.latent_mean)) <= 1e-6
    assert np.max(np.abs(single.latent_sd - forced.latent_sd)) <= 1e-6


# --- 5: joint two-likelihood model with a product predictor -------------------

def test_c5_joint_nonlinear_model():
    """20 replicates: every fit converges within 10 iterations, the
    deviation sequence settles monotonically on >= 18, and the scaling
    coefficient's 95% interval covers the truth on >= 17."""
    n_rep = 20
    converged = monotone = covered = 0
    for seed in range(n_rep):
        model = build_joint(seed)
        assert model.n_latent == 103
        assert len(model.theta_names) == 2
        res = fit(model)

        if res.converged and res.records[-1].iter <= 10:
            converged += 1
        seq = [r.max_dev_over_sd for r in res.records if r.iter >= 3]
        if all(b <= a for a, b in zip(seq, seq[1:])):
            monotone += 1
        draws = generate(res, parse_expr("beta1_latent"), 3000, default_rng(900 + seed))
        lo, hi = np.quantile(draws[:, 0], [0.025, 0.975])
        if lo <= TRUE_B1 <= hi:
            covered += 1

    assert converged == n_rep, f"converged on {converged}/{n_rep}"
    assert monotone >= 18, f"monotone deviations on {monotone}/{n_rep}"
    assert covered >= 17, f"interval covered truth on {covered}/{n_rep}"


# --- 6: Jacobian correctness across the mapper/formula algebra ---------------

def mapper_case(rng):
    pick = int(rng.integers(0, 11))
    n = int(rng.integers(2, 9))
    k = int(rng.integers(2, 5))
    idx = rng.integers(1, k + 1, size=n)
    if pick == 0:
        return LinearMapper(), rng.normal(size=n), rng.normal(size=1)
    if pick == 1:
        return IndexMapper(k), idx, rng.normal(size=k)
    if pick == 2:
        levels = [f"l{i}" for i in range(k)]
        coding = "contrast" if rng.integers(2) else "full"
        m = FactorMapper(levels, coding=coding)
        values = np.array([levels[i] for i in rng.integers(0, k, size=n)])
        return m, values, rng.normal(size=m.n_latent())
    if pick == 3:
        return (
            ScaleMapper(LinearMapper()),
            (rng.uniform(0.5, 2.0, size=n), rng.normal(size=n)),
            rng.normal(size=1),
        )
    if pick == 4:
        m = MarginalMapper(ExponentialQuantile(rng.uniform(0.3, 2.0)),
                           inner=IndexMapper(k))
        return m, idx, rng.normal(size=k)
    if pick == 5:
        m = MarginalMapper(GammaQuantile(rng.uniform(1.0, 3.0), rng.uniform(0.5, 2.0)),
                           inner=IndexMapper(k))
        return m, idx, rng.normal(size=k)
    if pick == 6:
        spec = random_blockspec(rng)
        return (LogSumExpMapper(rescale=bool(rng.integers(2))), spec,
                rng.normal(scale=2.0, size=spec.block.size))
    if pick == 7:
        spec = random_blockspec(rng)
        return (AggregateMapper(rescale=bool(rng.integers(2))), spec,
                rng.normal(scale=2.0, size=spec.block.size))
    if pick == 8:
        spec = random_blockspec(rng, n=n)
        return (PipeMapper([IndexMapper(k), LogSumExpMapper()]), [idx, spec],
                rng.normal(size=k))
    if pick == 9:
        gk = int(rng.integers(2, 4))
        m = MultiMapper(IndexMapper(k), group=IndexMapper(gk))
        return (m, (idx, rng.integers(1, gk + 1, size=n), None),
                rng.normal(size=k * gk))
    m2 = int(rng.integers(2, 5))
    mapper = CollectMapper(
        {"a": IndexMapper(k), "b": IndexMapper(m2)}, hidden=False
    )
    inp = [idx, rng.integers(1, m2 + 1, size=int(rng.integers(1, 6)))]
    return mapper, inp, rng.normal(size=k + m2)


def formula_case(rng):
    n = int(rng.integers(1, 9))
    a = rng.normal(size=n)
    b = rng.normal(size=n)
    c = rng.uniform(0.5, 2.0, size=n)
    env = {"a": a, "b": b, "c": c}
    k = int(rng.integers(0, 6))
    if k == 0:
        return "a + 2.5*b - c", env, {
            "a": np.ones(n), "b": np.full(n, 2.5), "c": -np.ones(n)}
    if k == 1:
        return "a*b + c", env, {"a": b, "b": a, "c": np.ones(n)}
    if k == 2:
        return "exp(a) + b", env, {"a": np.exp(a), "b": np.ones(n)}
    if k == 3:
        return "log(c) * b", env, {"b": np.log(c), "c": b / c}
    if k == 4:
        return "a/c + b", env, {"a": 1.0 / c, "b": np.ones(n), "c": -a / c**2}
    return "(a + b) * (a - c)", env, {
        "a": 2 * a + b - c, "b": a - c, "c": -(a + b)}


def test_c6_jacobian_suite():
    """Analytic mapper Jacobians against central differences, and the
    formula differentiator against hand derivatives, 100 seeded cases;
    plus the aggregation mapper's shift identity at magnitude 1000."""
    t0 = time.perf_counter()
    for seed in range(100):
        rng = default_rng(seed)
        if seed % 2 == 0:
            mapper, inp, state = mapper_case(rng)
            got = mapper.jacobian(inp, state)
            got = got.toarray() if sp.issparse(got) else np.asarray(got)
            want = fd_jacobian(mapper, inp, state, h=1e-6)
            denom = max(1.0, np.abs(want).max()) if want.size else 1.0
            assert np.abs(got - want).max(initial=0.0) <= 1e-6 * denom, (
                f"seed {seed}: {type(mapper).__name__}")
        else:
            text, env, grads = formula_case(rng)
            got = expr_jacobian(parse_expr(text), env, list(grads))
            for name, want in grads.items():
                scale = np.maximum(1.0, np.abs(want))
                err = np.max(np.abs(got[name] - want) / scale)
                assert err <= 1e-6, f"seed {seed}: d({text})/d{name}: {err:.2e}"

    rng = default_rng(123)
    spec = random_blockspec(rng, n=30)
    state = rng.uniform(-1000.0, 1000.0, size=30)
    m = LogSumExpMapper()
    base = m.eval(spec, state)
    assert np.all(np.isfinite(base))
    np.testing.assert_allclose(m.eval(spec, state + 1000.0), base + 1000.0,
                               rtol=0, atol=1e-10)
    assert time.perf_counter() - t0 < 30.0


# --- 7: linearisation-error diagnostics ---------------------------------------

def test_c7_divergence_diagnostics():
    """Zero divergence on linear fits; the 1-D hand case hits the
    closed-form Gaussian divergences; the numerically assembled
    curvature matrix matches analytic Hessians."""
    rep_lin = kl_divergences(fit(gls_model()))
    assert abs(rep_lin.kl_lin_to_nonlin) <= 1e-12
    assert abs(rep_lin.kl_nonlin_to_lin) <= 1e-12

    # 0.5*(ln 2 - ln 1.5 + 1.5/2 - 1) and its reverse, precomputed at
    # 50-digit precision and frozen
    rep = kl_divergences(curvature_fixture(0.25))
    assert abs(rep.kl_lin_to_nonlin - 0.01884103622589045) <= 1e-6
    assert abs(rep.kl_nonlin_to_lin - 0.0228256304407762) <= 1e-6

    # exponential predictor: curvature is diagonal in the mapped latents
    tau = 2.0
    model = exp_predictor_model()
    y, idx = model.obs[0].y, model.obs[0].inputs["v"]
    res = fit(model, {"rel_tol": 1e-6, "bru_max_iter": 30})
    u0 = res.linearisation.u0
    g_star = tau * (y - np.exp(u0[idx - 1]))
    want = np.zeros((3, 3))
    for j in range(3):
        want[j, j] = g_star[idx - 1 == j].sum() * np.exp(u0[j])
    got = correction_matrix(res).toarray()
    assert np.linalg.norm(got - want) <= 1e-4 * np.linalg.norm(want)

    # product predictor: curvature is the off-diagonal cross term
    tau = 4.0
    model = product_predictor_model()
    y, x, z = model.obs[0].y, model.obs[0].inputs["a"], model.obs[0].inputs["b"]
    res = fit(model,
              {"rel_tol": 1e-6, "bru_max_iter": 40,
               "bru_initial": {"a": 1.0, "b": 1.0}})
    a0, b0 = res.linearisation.u0
    g_star = tau * (y - (x * a0) * (z * b0))
    cross = float(g_star @ (x * z))
    want = np.array([[0.0, cross], [cross, 0.0]])
    got = correction_matrix(res).toarray()
    assert np.linalg.norm(got - want) <= 1e-4 * np.linalg.norm(want)


# --- 8: aggregation vs extended precision -------------------------------------

def test_c8_aggregation_extended_precision():
    """Blockwise log-sum-exp must agree with 60-digit direct evaluation
    of ln sum_j w_j exp(s_j) to 1e-10, both rescale modes."""
    t0 = time.perf_counter()
    rng = default_rng(8)
    with mpmath.workdps(60):
        for _ in range(50):
            spec = random_blockspec(rng)
            state = rng.uniform(-300.0, 300.0, size=spec.block.size)
            for rescale in (False, True):
                got = LogSumExpMapper(rescale=rescale).eval(spec, state)
                for b in range(spec.n_block):
                    mask = spec.block == b + 1
                    total = mpmath.fsum(
                        mpmath.mpf(w) * mpmath.exp(mpmath.mpf(s))
                        for w, s in zip(spec.weights[mask], state[mask])
                    )
                    want = mpmath.log(total)
                    if rescale:
                        want -= mpmath.log(mpmath.fsum(
                            mpmath.mpf(w) for w in spec.weights[mask]))
                    assert abs(got[b] - float(want)) <= 1e-10
    assert time.perf_counter() - t0 < 5.0


# --- 9: bit-level determinism --------------------------------------------------

def test_c9_fit_output_determinism(tmp_path, capsys):
    """The fit command must be a pure function of (config, data, seed):
    re-running it produces a byte-identical result file."""
    rng = default_rng(7)
    y = rng.poisson(2.0, size=30)
    lines = ["y"] + [str(int(v)) for v in y]
    (tmp_path / "counts.csv").write_text("\n".join(lines) + "\n")
    cfg = dict(toy_config("counts.csv"), options={"seed": 42})
    (tmp_path / "model.json").write_text(json.dumps(cfg))

    for out in ("out1", "out2"):
        code = cli_main(["fit", "-m", str(tmp_path / "model.json"),
                         "-o", str(tmp_path / out)])
        capsys.readouterr()
        assert code == 0

    first = (tmp_path / "out1" / "fit.json").read_bytes()
    second = (tmp_path / "out2" / "fit.json").read_bytes()
    assert first == second
