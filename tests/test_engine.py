"""Inference engine tests.

Expected values come from independent dense-matrix algebra, closed-form
conjugate posteriors, scipy special functions and brute-force searches,
never from the engine itself.
"""

import gc
import itertools
import warnings
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy import optimize, stats
from scipy.special import lambertw

from iterlace import engine, sparse
from iterlace.engine import (
    Component,
    EngineError,
    Linearisation,
    Model,
    ObsBlock,
    ThetaPoint,
    _ThetaCache,
    _fmt3,
    _posterior_draws,
    fit,
    gaussian_approx,
    generate,
    line_search,
    log_posterior_theta,
    marginals,
    predict_summary,
    sample_mode,
    theta_explore,
)
from iterlace.diagnostics import linearisation_deviation
from iterlace.exprs import parse_expr
from iterlace.latents import (
    Ar1Model,
    BesagModel,
    BymModel,
    FixedEffectsModel,
    Graph,
    GaussianPrior,
    IidModel,
    Rw1Model,
    _precision_hyper,
)
from iterlace.likelihoods import GaussianFamily, PoissonFamily
from iterlace.mappers import (
    ExponentialQuantile, IndexMapper, MarginalMapper, MultiMapper, PipeMapper,
)
from iterlace.sparse import CholFactor, SparseSym, chol
from shared import (
    build_joint, gls_model, lattice_graph, public_solve_lt, sample_icar, toy_counts, toy_model,
)


# --- dense oracles -----------------------------------------------------

def dense_posterior(q_prior, mu, bmat, delta, y, tau):
    """Gaussian-likelihood posterior by plain dense algebra."""
    q_post = q_prior + tau * bmat.T @ bmat
    rhs = tau * bmat.T @ (y - delta) + q_prior @ mu
    mean = np.linalg.solve(q_post, rhs)
    return mean, np.linalg.inv(q_post)


def condition_on_zero(mean, cov, cmat):
    """Condition N(mean, cov) on C x = 0."""
    smat = cmat @ cov @ cmat.T
    gain = cov @ cmat.T @ np.linalg.inv(smat)
    return mean - gain @ (cmat @ mean), cov - gain @ cmat @ cov


# --- model assembly ------------------------------------------------------

class TestModelValidation:
    def test_duplicate_component_names(self):
        comp = lambda: Component("b", FixedEffectsModel.linear())
        block = ObsBlock(
            GaussianFamily(fixed_prec=1.0),
            np.zeros(2),
            parse_expr("b"),
            {"b": np.ones(2)},
        )
        with pytest.raises(EngineError, match="distinct"):
            Model([comp(), comp()], [block])

    def test_undeclared_reference(self):
        block = ObsBlock(
            GaussianFamily(fixed_prec=1.0),
            np.zeros(2),
            parse_expr("b + nope"),
            {"b": np.ones(2)},
        )
        with pytest.raises(EngineError, match="nope"):
            Model([Component("b", FixedEffectsModel.linear())], [block])

    def test_eval_reference_rejected_when_fitting(self):
        block = ObsBlock(
            GaussianFamily(fixed_prec=1.0),
            np.zeros(2),
            parse_expr("b_eval(c(1.0, 2.0))"),
            {"b": np.ones(2)},
        )
        model = Model([Component("b", FixedEffectsModel.linear())], [block])
        with pytest.raises(EngineError, match="predicting"):
            model.linearise(np.zeros(1))

    def test_bru_initial_unknown_component(self):
        model = gls_model(40)
        with pytest.raises(EngineError, match="unknown component"):
            fit(model, {"bru_initial": {"zzz": 1.0}})

    def test_too_many_hyperparameters(self):
        comps = [Component(f"u{i}", IidModel(2)) for i in range(4)]
        block = ObsBlock(
            GaussianFamily(fixed_prec=1.0),
            np.zeros(2),
            parse_expr("u0 + u1 + u2 + u3"),
            {f"u{i}": np.array([1, 2]) for i in range(4)},
        )
        model = Model(comps, [block])
        with pytest.raises(EngineError, match="hyperparameters"):
            theta_explore(model, model.linearise(np.zeros(8)))

    def test_too_many_hyperparameters_named_before_any_evaluation(self, monkeypatch):
        comps = [Component(f"u{i}", IidModel(2)) for i in range(4)]
        block = ObsBlock(
            GaussianFamily(fixed_prec=1.0),
            np.zeros(2),
            parse_expr("u0 + u1 + u2 + u3"),
            {f"u{i}": np.array([1, 2]) for i in range(4)},
        )
        model = Model(comps, [block])

        def no_evaluation(*args, **kwargs):
            raise AssertionError("a Laplace evaluation ran")

        monkeypatch.setattr(engine, "log_posterior_theta", no_evaluation)
        with pytest.raises(EngineError) as exc:
            fit(model)
        msg = str(exc.value)
        assert "4 free hyperparameters (u0.prec, u1.prec, u2.prec, u3.prec)" in msg
        assert "maximum of 3" in msg
        assert '"hyper": {"<name>": {"fixed": true, "initial": <value>}}' in msg
        assert "fixed=True on its HyperParam" in msg

    @pytest.mark.parametrize("rows", [np.ones((2, 3)), np.array([[1.0, 0, 0], [0, 0, 0]])])
    def test_dependent_constraint_rows_named_at_build(self, rows):
        class Dependent(IidModel):
            def constraints(self):
                return rows

        block = ObsBlock(
            GaussianFamily(fixed_prec=1.0),
            np.zeros(3),
            parse_expr("b + u"),
            {"b": np.ones(3), "u": np.arange(1, 4)},
        )
        comps = [Component("b", FixedEffectsModel.constant()), Component("u", Dependent(3))]
        with pytest.raises(EngineError, match="component 'u' have linearly dependent rows"):
            Model(comps, [block])

    def test_is_linear_detection(self):
        gls = gls_model(40)
        assert gls.is_linear
        toy = toy_model(toy_counts())
        assert not toy.is_linear


# --- linearisation ---------------------------------------------------------

class TestLinearise:
    def test_anchor_matches_nonlinear_predictor(self):
        model = toy_model(toy_counts())
        rng = np.random.default_rng(5)
        for _ in range(5):
            u0 = rng.normal(size=1)
            lin = model.linearise(u0)
            np.testing.assert_allclose(lin.eval(u0), model.eta(u0), atol=1e-10)

    def test_linearisation_is_tangent(self):
        model = toy_model(toy_counts())
        u0 = np.array([0.3])
        lin = model.linearise(u0)
        # the gap to the true predictor must vanish quadratically
        gaps = []
        for h in (1e-2, 5e-3, 2.5e-3):
            u = u0 + h
            gaps.append(np.max(np.abs(model.eta(u) - lin.eval(u))))
        assert gaps[1] / gaps[0] == pytest.approx(0.25, rel=0.1)
        assert gaps[2] / gaps[1] == pytest.approx(0.25, rel=0.1)

    def test_non_finite_slope_names_likelihood_and_component(self):
        # a / (1 + exp(c)) at c = 800: the predictor is 0, but its slope in
        # c is inf / inf, which must not reach Q*
        comps = [Component("a", FixedEffectsModel.constant()),
                 Component("c", FixedEffectsModel.constant())]
        block = ObsBlock(GaussianFamily(fixed_prec=1.0), np.zeros(3),
                         parse_expr("a / (1 + exp(c))"),
                         {"a": np.ones(3), "c": np.ones(3)})
        model = Model(comps, [block])
        lin = model.linearise(np.array([1.0, 0.0]))
        assert np.all(np.isfinite(lin.B.data))
        with np.errstate(over="ignore"):
            with pytest.raises(EngineError, match=r"likelihood 1.*component 'c'"):
                model.linearise(np.array([1.0, 800.0]))


# --- gaussian approximation ------------------------------------------------

class TestGaussianApprox:
    def _run(self, model, theta=()):
        comp_vals, obs_vals = model.natural_values(np.asarray(theta))
        lin = model.linearise(np.zeros(model.n_latent))
        prior_q = model.precision(comp_vals)
        return gaussian_approx(model, lin, prior_q, model.prior_mean(), obs_vals)

    def test_conjugate_normal(self):
        # y = 2 with unit noise precision and a N(0, 1) prior:
        # posterior mode 1, precision 2
        comp = Component("u", IidModel(1, _precision_hyper(initial=1.0, fixed=True)))
        block = ObsBlock(
            GaussianFamily(fixed_prec=1.0),
            np.array([2.0]),
            parse_expr("u"),
            {"u": np.array([1])},
        )
        ga = self._run(Model([comp], [block]))
        assert ga.mode[0] == pytest.approx(1.0, abs=1e-10)
        assert ga.qstar.to_dense()[0, 0] == pytest.approx(2.0, abs=1e-10)

    def test_poisson_zero_count(self):
        # y = 0, eta = u, N(0,1) prior: mode solves u = -exp(u),
        # i.e. -W(1); curvature 1 + exp(mode)
        comp = Component("u", IidModel(1, _precision_hyper(initial=1.0, fixed=True)))
        block = ObsBlock(
            PoissonFamily(),
            np.array([0]),
            parse_expr("u"),
            {"u": np.array([1])},
        )
        ga = self._run(Model([comp], [block]))
        omega = float(lambertw(1.0).real)
        assert ga.mode[0] == pytest.approx(-omega, abs=1e-8)
        assert ga.qstar.to_dense()[0, 0] == pytest.approx(1.0 + np.exp(-omega), abs=1e-8)

    def test_empty_data_returns_prior(self):
        comp = Component("b", FixedEffectsModel.linear(mean=0.7, prec=2.0))
        block = ObsBlock(
            GaussianFamily(fixed_prec=1.0),
            np.empty(0),
            parse_expr("b"),
            {"b": np.empty(0)},
        )
        ga = self._run(Model([comp], [block]))
        assert ga.mode[0] == pytest.approx(0.7, abs=1e-12)
        assert ga.qstar.to_dense()[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_constrained_matches_dense_conditioning(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=4)
        comp = Component("f", Rw1Model(4, _precision_hyper(initial=1.3, fixed=True)))
        block = ObsBlock(
            GaussianFamily(fixed_prec=2.0),
            y,
            parse_expr("f"),
            {"f": np.arange(1, 5)},
        )
        model = Model([comp], [block])
        ga = self._run(model)

        q_dense = model.precision(model.natural_values(np.empty(0))[0]).to_dense()
        mean_u, cov_u = dense_posterior(
            q_dense, np.zeros(4), np.eye(4), np.zeros(4), y, 2.0
        )
        mean_c, cov_c = condition_on_zero(mean_u, cov_u, np.ones((1, 4)))
        np.testing.assert_allclose(ga.mode, mean_c, atol=1e-8)
        np.testing.assert_allclose(ga.latent_var(), np.diag(cov_c), atol=1e-8)
        assert abs(ga.mode.sum()) < 1e-8


def _besag_poisson_model():
    """Intercept plus a Besag field on a 3 x 3 rook lattice, Poisson counts
    with two stations in each cell: one sum-to-zero constraint."""
    idx = np.arange(9).reshape(3, 3)
    edges = [(int(i), int(j)) for i, j in zip(idx[:, :-1].ravel(), idx[:, 1:].ravel())]
    edges += [(int(i), int(j)) for i, j in zip(idx[:-1, :].ravel(), idx[1:, :].ravel())]
    comps = [
        Component("b0", FixedEffectsModel.constant()),
        Component("s", BesagModel(Graph(9, tuple(edges)),
                                  _precision_hyper(initial=1.5, fixed=True))),
    ]
    cells = np.tile(np.arange(1, 10), 2)
    y = np.random.default_rng(5).poisson(3.0, size=cells.size).astype(float)
    block = ObsBlock(PoissonFamily(), y, parse_expr("b0 + s"),
                     {"b0": np.ones(cells.size), "s": cells})
    return Model(comps, [block])


def _ar1_poisson_model():
    """AR(1) on 8 latents with a free precision and correlation, Poisson
    counts on every second latent, once or twice: no constraint."""
    cells = np.array([1, 3, 5, 7, 1, 5])
    y = np.array([2.0, 0.0, 5.0, 1.0, 3.0, 4.0])
    block = ObsBlock(PoissonFamily(), y, parse_expr("a"), {"a": cells})
    return Model([Component("a", Ar1Model(8))], [block])


def _besag_free_precision_model():
    """``_besag_poisson_model`` with the field's precision free: p = 1."""
    model = _besag_poisson_model()
    b0, s = model.components
    field = Component("s", BesagModel(s.model.graph, _precision_hyper(initial=1.5)))
    return Model([b0, field], model.obs)


def _gauss_at(model, lin, theta, warm=None):
    comp_vals, obs_vals = model.natural_values(np.asarray(theta, dtype=float))
    return gaussian_approx(model, lin, model.precision(comp_vals), model.prior_mean(),
                           obs_vals, warm=warm)


def _newton_states(monkeypatch):
    """Every ``_obs_grad_hess`` call as (state, h), from a warm start the
    previous mode first (the chord's gradient), and the state each Newton
    step starts at: that of the call whose h builds the step's Q*."""
    calls, starts = [], []
    real, real_qstar = engine._obs_grad_hess, Linearisation.qstar

    def grad_hess(model, lin, u, *args):
        g, h = real(model, lin, u, *args)
        calls.append((u, h))
        return g, h

    def qstar(self, q, h):
        starts.append(next(u for u, hh in calls if hh is h))
        return real_qstar(self, q, h)

    monkeypatch.setattr(engine, "_obs_grad_hess", grad_hess)
    monkeypatch.setattr(Linearisation, "qstar", qstar)
    return calls, starts


class TestChordStart:
    @pytest.mark.parametrize("build, thetas", [
        (_besag_free_precision_model, ([0.0], [0.3], [0.1], [-0.4])),
        (_ar1_poisson_model, ([0.0, 0.0], [0.2, 0.3], [0.0, 0.1], [-0.3, 0.2])),
    ])
    def test_chord_started_mode_matches_a_fresh_newton_run(self, monkeypatch, build, thetas):
        model = build()
        lin = model.linearise(model.prior_mean())  # a fresh run starts at mu
        _, starts = _newton_states(monkeypatch)
        warm, kept = _gauss_at(model, lin, thetas[0]), 0
        for theta in thetas[1:]:
            starts.clear()
            ga = _gauss_at(model, lin, theta, warm=warm)
            kept += starts[0] is not warm.mode
            fresh = _gauss_at(model, lin, theta)
            assert np.max(np.abs(ga.mode - fresh.mode)) < 1e-7
            if model.constraints is not None:
                assert np.max(np.abs(model.constraints @ ga.mode)) < 1e-10
            warm = ga
        assert kept == len(thetas) - 1  # every chord step was a start

    def test_overflowing_or_lower_chord_is_dropped_without_warning(self, monkeypatch):
        # Poisson counts, mostly zero, and a jump of 16 or 6 in log
        # precision: from the low-precision mode the chord step overshoots,
        # to exp overflow or to a far lower objective
        y = np.array([0.0, 0.0, 0.0, 1.0, 0.0, 12.0, 30.0, 0.0])
        block = ObsBlock(PoissonFamily(), y, parse_expr("f"), {"f": np.arange(1, 9)})
        model = Model([Component("f", IidModel(8))], [block])
        lin = model.linearise(np.zeros(8))
        calls, starts = _newton_states(monkeypatch)
        logliks = []
        real = PoissonFamily.loglik
        monkeypatch.setattr(PoissonFamily, "loglik",
                            lambda self, *a: logliks.append(real(self, *a)) or logliks[-1])
        for start, theta, finite in ((-8.0, 8.0, False), (-3.0, 3.0, True)):
            warm = _gauss_at(model, lin, [start])
            calls.clear()
            starts.clear()
            logliks.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                ga = _gauss_at(model, lin, [theta], warm=warm)
            # the log-likelihood at the previous mode, then at the chord's end
            assert np.isfinite(logliks[1]) == finite
            assert starts[0] is warm.mode  # Newton starts at the previous mode
            assert sum(u is warm.mode for u, _ in calls) == 1  # with the chord's g and h
            fresh = _gauss_at(model, lin, [theta])
            assert np.max(np.abs(ga.mode - fresh.mode)) < 1e-7


class TestPosteriorVariances:
    """latent_var and pred_var from the selected inverse, against dense
    algebra on the same Q*: Sigma = Q*^-1 conditioned on C u = 0."""

    @staticmethod
    def _approx(model):
        theta = model.theta_internal0()
        comp_vals, obs_vals = model.natural_values(theta)
        lin = model.linearise(np.full(model.n_latent, 0.1))
        ga = gaussian_approx(model, lin, model.precision(comp_vals), model.prior_mean(),
                             obs_vals)
        return ga, lin

    @staticmethod
    def _dense_cov(ga, model):
        cov = np.linalg.inv(ga.qstar.to_dense())
        cmat = model.constraints
        if cmat is not None:
            _, cov = condition_on_zero(np.zeros(cov.shape[0]), cov, cmat)
        return cov

    @pytest.mark.parametrize("build", [_besag_poisson_model, _ar1_poisson_model])
    def test_match_dense_conditioning(self, build):
        model = build()
        ga, lin = self._approx(model)
        assert (ga.kriging is not None) == (model.constraints is not None)
        cov = self._dense_cov(ga, model)
        bmat = lin.B.toarray()
        np.testing.assert_allclose(ga.latent_var(), np.diag(cov), rtol=1e-9)
        np.testing.assert_allclose(ga.pred_var(), np.diag(bmat @ cov @ bmat.T), rtol=1e-9)

    def test_cancelled_qstar_entry(self):
        # Q[0, 1] = -0.5 and h = -0.5 on the row of B touching latents 0
        # and 1 cancel: Q* stores (0, 1) as a zero and keeps its plan, but
        # (0, 1) falls outside L's pattern, yet pred_var of that row needs
        # Sigma[0, 1]
        q = SparseSym.from_dense([[2.0, -0.5, 0.3, 0.0], [-0.5, 2.0, 0.3, 0.3],
                                  [0.3, 0.3, 2.0, 0.3], [0.0, 0.3, 0.3, 2.0]])
        bmat = sp.csr_matrix(np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 2.0, 1.0, 0.0]]))
        lin = Linearisation(u0=np.zeros(4), B=bmat, delta=np.zeros(2), block_slices=[])
        h = np.array([-0.5, 0.0])
        qstar = lin.qstar(q, h)
        assert qstar.plan is lin._qstar.plan and qstar.to_dense()[0, 1] == 0.0
        want = SparseSym(q.csc - (bmat.T @ sp.diags(h) @ bmat).tocsc())
        assert np.array_equal(qstar.to_dense(), want.to_dense())
        factor = chol(qstar)
        at = np.argsort(factor.perm)[:2]  # where latents 0 and 1 sit in L
        coo = factor.L.tocoo()
        assert (at.max(), at.min()) not in set(zip(coo.row, coo.col))
        ga = engine.GaussResult(mode=np.zeros(4), factor=factor, qstar=qstar, lin=lin,
                                pattern=lin._qstar, grad_at_mode=np.zeros(4))
        cov = np.linalg.inv(qstar.to_dense())
        np.testing.assert_allclose(ga.latent_var(), np.diag(cov), rtol=1e-12)
        b = bmat.toarray()
        np.testing.assert_allclose(ga.pred_var(), np.diag(b @ cov @ b.T), rtol=1e-12)

    def test_no_solve(self, monkeypatch):
        model = _besag_poisson_model()
        ga, _ = self._approx(model)
        calls = []
        real = CholFactor.solve

        def counting(self, rhs):
            calls.append(1)
            return real(self, rhs)

        monkeypatch.setattr(CholFactor, "solve", counting)
        ga.latent_var()
        ga.pred_var()
        assert calls == []


def _kriging_case(k, n=150):
    """A precision A = Q + diag(h), Q intrinsic as in Q*, and k constraint
    rows: RW1 for k = 1, Besag on a graph of two paths for k = 2."""
    if k == 1:
        latent = Rw1Model(n)
    else:
        half = n // 2
        edges = [(i, i + 1) for i in range(n - 1) if i != half - 1]
        latent = BesagModel(Graph(n, tuple(edges)))
    cmat = np.atleast_2d(latent.constraints())
    assert cmat.shape == (k, n)
    rng = np.random.default_rng(k)
    q = latent.precision({"prec": 1.3}).csc + sp.diags(rng.uniform(0.5, 2.0, n))
    return SparseSym(q), cmat, rng


class TestKriging:
    """``_Kriging`` against dense conditioning on C u = 0, and its block
    projection against projecting each row alone."""

    @pytest.mark.parametrize("k", [1, 2])
    def test_match_dense_conditioning(self, k):
        a, cmat, rng = _kriging_case(k)
        n = a.n
        kriging = engine._Kriging.of(chol(a), cmat)
        cov = np.linalg.inv(a.to_dense())
        u = rng.normal(size=n)
        mean_c, cov_c = condition_on_zero(u, cov, cmat)
        np.testing.assert_allclose(kriging.project(u), mean_c, rtol=1e-12)
        np.testing.assert_allclose(cmat @ kriging.project(u), 0.0, atol=1e-12)
        drop = cov - cov_c
        np.testing.assert_allclose(kriging.var_drop(kriging.W), np.diag(drop), rtol=1e-12)
        bmat = rng.normal(size=(5, n))
        np.testing.assert_allclose(
            kriging.var_drop(bmat @ kriging.W), np.diag(bmat @ drop @ bmat.T), rtol=1e-12
        )

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("m", [1, 2, 7, 40])
    def test_block_projection_is_row_by_row(self, k, m):
        a, cmat, rng = _kriging_case(k)
        kriging = engine._Kriging.of(chol(a), cmat)
        states = rng.normal(size=(m, a.n))
        got = kriging.project(states)
        want = np.stack([kriging.project(states[s].copy()) for s in range(m)])
        assert got.shape == (m, a.n) and np.array_equal(got, want)


def _same_matrix(got, want):
    return all(
        np.array_equal(getattr(got, attr), getattr(want, attr))
        for attr in ("data", "indices", "indptr")
    )


def _same_values(got, want):
    """Equal dense values: a matrix on a kept pattern may store zeros that
    scipy's expression drops."""
    return np.array_equal(got.toarray(), want.toarray())


def _random_b(rng, n_rows, d, max_per_row=6):
    """A CSR matrix whose rows hold 0..max_per_row entries at random columns."""
    rows, cols, vals = [], [], []
    for i in range(n_rows):
        k = int(rng.integers(0, min(max_per_row, d) + 1))
        rows += [i] * k
        cols += list(rng.choice(d, size=k, replace=False))
        vals += list(rng.normal(size=k) * rng.exponential(size=k))
    return sp.csr_matrix((vals, (rows, cols)), shape=(n_rows, d))


class TestQStarAssembly:
    """Q* on its fixed pattern against scipy's expression, bit for bit."""

    @staticmethod
    def _scipy(q, bmat, h):
        return SparseSym((q.csc - (bmat.T @ sp.diags(h) @ bmat).tocsc()))

    @staticmethod
    def _lin(bmat):
        n, d = bmat.shape
        return Linearisation(u0=np.zeros(d), B=bmat, delta=np.zeros(n), block_slices=[])

    def test_random_rows_and_mixed_sign_curvature(self):
        rng = np.random.default_rng(12)
        bmat = _random_b(rng, 70, 25)
        lin = self._lin(bmat)
        q = Ar1Model(25).precision({"prec": 1.7, "rho": 0.4})
        for _ in range(5):
            h = rng.normal(size=70) * 3.0  # mixed sign
            h[rng.integers(0, 70)] = 0.0
            got = lin.qstar(q, h)
            assert _same_values(got.csc, self._scipy(q, bmat, h).csc)
            assert got.indices is lin._qstar.indices and got.plan is lin._qstar.plan

    def test_b_with_zero_rows(self):
        q = Ar1Model(6).precision({"prec": 2.0, "rho": -0.3})
        bmat = sp.csr_matrix((0, 6))
        got = self._lin(bmat).qstar(q, np.empty(0))
        assert _same_matrix(got.csc, self._scipy(q, bmat, np.empty(0)).csc)
        assert _same_matrix(got.csc, q.csc)

    def test_pattern_follows_q(self):
        # an AR(1) through the public constructor stores no off-diagonal
        # entries at rho = 0, so Q's pattern changes when rho moves off
        # zero and the Q* pattern is rebuilt
        rng = np.random.default_rng(13)
        bmat = _random_b(rng, 30, 12, max_per_row=2)
        lin = self._lin(bmat)
        ar1 = Ar1Model(12)
        patterns = []
        for rho in (0.0, 0.0, 0.6, 0.6, 0.0):
            q = SparseSym(ar1.precision({"prec": 1.0, "rho": rho}).csc)
            h = rng.normal(size=30)
            assert _same_values(lin.qstar(q, h).csc, self._scipy(q, bmat, h).csc)
            patterns.append(lin._qstar)
        assert patterns[0] is patterns[1] and patterns[2] is patterns[3]
        assert patterns[1] is not patterns[2] and patterns[3] is not patterns[4]

    def test_exact_cancellation_drops_entries(self):
        # Q[0, 0] = 1, and these h cancel it exactly: scipy drops the
        # entry, and Q* stores it as a zero on its kept pattern
        q = Ar1Model(4).precision({"prec": 0.75, "rho": 0.5})
        bmat = sp.csr_matrix(np.array([[1.0, 0, 0, 0], [0, 0, 0, 0], [1.0, 1.0, 0, 0]]))
        lin = self._lin(bmat)
        for h, cancels in (([1.0, 0.0, 0.0], True), ([0.5, 3.0, 0.5], True),
                           ([0.0, 0.0, 0.0], False)):
            h = np.array(h)
            got = lin.qstar(q, h)
            want = self._scipy(q, bmat, h).csc
            assert _same_values(got.csc, want)
            assert (0 not in want.indices[:want.indptr[1]]) == cancels
            assert 0 in got.csc.indices[:got.csc.indptr[1]]
            assert got.indices is lin._qstar.indices and got.plan is lin._qstar.plan


class TestLazyQStar:
    """Q* keeps its data on the pattern's arrays and builds no CSC until one
    is read; ``chol`` factors it from the data and the pattern's plan."""

    @staticmethod
    def _cases():
        # a random B on an AR(1) prior, and a Q* whose entry (0, 1) cancels
        rng = np.random.default_rng(14)
        bmat = _random_b(rng, 40, 15)
        q = Ar1Model(15).precision({"prec": 2.5, "rho": 0.3})
        h = -np.abs(rng.normal(size=40))
        yield q, bmat, h
        q = SparseSym.from_dense([[2.0, -0.5, 0.3], [-0.5, 2.0, 0.3], [0.3, 0.3, 2.0]])
        yield q, sp.csr_matrix(np.array([[1.0, 1.0, 0.0]])), np.array([-0.5])

    def test_csc_is_built_on_first_read_and_matches_scipy(self):
        for q, bmat, h in self._cases():
            lin = TestQStarAssembly._lin(bmat)
            a = lin.qstar(q, h)
            assert a._csc is None and a.plan is lin._qstar.plan
            csc = a.csc
            assert _same_values(csc, TestQStarAssembly._scipy(q, bmat, h).csc)
            assert a.csc is csc
            assert np.shares_memory(csc.data, a.data)  # built on Q*'s own arrays

    def test_chol_from_data_and_plan_matches_a_dense_round_trip(self):
        for q, bmat, h in self._cases():
            a = TestQStarAssembly._lin(bmat).qstar(q, h)
            got = chol(a)
            assert a._csc is None  # factorised without building the CSC
            # the dense values back on Q*'s pattern (which stores the
            # cancelled entry), factorised on a plan of their own
            cols = np.repeat(np.arange(a.n), np.diff(a.indptr))
            again = SparseSym._on_pattern(a.to_dense()[a.indices, cols],
                                          a.indptr.copy(), a.indices.copy())
            assert again.plan is None
            want = chol(again)
            assert _same_matrix(got.L, want.L)
            assert np.array_equal(got.perm, want.perm)
            assert got.log_det == want.log_det


class TestStructuralPatterns:
    """B stores every slope the model's structure gives, zeros included, so
    a fit keeps one Q* pattern, with one ordering, for all its
    linearisations."""

    def test_joint_b_pattern_is_the_same_at_three_states(self):
        model = build_joint(0)
        start = engine._initial_point(model, model.options)  # xi = 0, beta1 = 1
        assert not start[model.slice_of("xi")].any()
        fitted = fit(model).linearisation.u0
        no_beta1 = fitted.copy()
        no_beta1[model.slice_of("beta1")] = 0.0
        bs = [model.linearise(u).B for u in (start, no_beta1, fitted)]
        for b in bs[1:]:
            assert np.array_equal(b.indptr, bs[0].indptr)
            assert np.array_equal(b.indices, bs[0].indices)
        # the slopes that vanish there are stored zeros
        assert (bs[0].data == 0.0).any() and (bs[1].data == 0.0).any()
        assert (bs[2].data != 0.0).all()

    def test_a_joint_fit_builds_one_qstar_pattern(self, monkeypatch):
        calls = {"pattern": 0, "order": 0, "schedule": 0}

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(engine._QStarPattern, "__init__",
                            counted("pattern", engine._QStarPattern.__init__))
        monkeypatch.setattr(engine.CholPlan, "_analyse",
                            counted("order", engine.CholPlan._analyse))
        monkeypatch.setattr(sparse._InverseSchedule, "__init__",
                            counted("schedule", sparse._InverseSchedule.__init__))
        res = fit(build_joint(0))
        assert len(res.records) == 5
        # one ordering for Q*'s pattern, one for the Besag field's R + c I
        assert calls["pattern"] == 1 and calls["order"] <= 2
        # one selected-inverse schedule, on Q*'s symbolic factor, although
        # the first two linearisations' L leave out entries that cancelled
        assert calls["schedule"] == 1


    def test_an_underflowed_derivative_keeps_the_patterns(self):
        # past t = -39 the exponential quantile's derivative underflows to
        # 0; its slope stays stored, so B keeps its pattern and the next
        # linearisation shares the Q* pattern, with its plan and schedule
        comp = Component(
            "lam", IidModel(2, _precision_hyper(initial=1.0, fixed=True)),
            mapper=MarginalMapper(ExponentialQuantile(0.5), inner=IndexMapper(2)),
        )
        block = ObsBlock(GaussianFamily(fixed_prec=1.0), np.array([0.5, 1.0, 2.0, 0.1]),
                         parse_expr("lam"), {"lam": np.array([1, 2, 2, 1])})
        model = Model([comp], [block])
        q = model.precision(model.natural_values(np.empty(0))[0])
        h = -np.ones(4)
        under = model.linearise(np.array([0.3, -40.0]))
        assert (under.B.data == 0.0).sum() == 2
        first = under.qstar(q, h)
        lin = model.linearise(np.array([0.3, 0.5]))
        assert (lin.B.data != 0.0).all()
        assert np.array_equal(lin.B.indptr, under.B.indptr)
        assert np.array_equal(lin.B.indices, under.B.indices)
        assert lin._qstar is under._qstar
        second = lin.qstar(q, h)
        assert second.plan is first.plan and second.indices is first.indices

    @pytest.mark.parametrize("mapper, inputs, n_latent", [
        (PipeMapper([IndexMapper(2), MarginalMapper(ExponentialQuantile(0.5))]),
         [np.array([1, 2, 2, 1]), 4], 2),
        (MultiMapper(MarginalMapper(ExponentialQuantile(0.5), inner=IndexMapper(2)),
                     group=IndexMapper(2)),
         (np.array([1, 2, 2, 1]), np.array([1, 1, 2, 2]), None), 4),
    ], ids=["pipe", "multi"])
    def test_composed_mappers_keep_their_patterns(self, mapper, inputs, n_latent):
        # a Pipe stage's and a Multi block's underflowed derivative stays
        # stored: the Jacobian keeps one pattern across states, and so the
        # second linearisation shares the first one's Q* pattern
        under_state = np.full(n_latent, 0.3)
        under_state[1] = -40.0
        states = (under_state, np.full(n_latent, 0.5))
        jacs = [mapper.jacobian(inputs, u).tocsr() for u in states]
        assert (jacs[0].data == 0.0).any() and (jacs[1].data != 0.0).all()
        assert np.array_equal(jacs[0].indptr, jacs[1].indptr)
        assert np.array_equal(jacs[0].indices, jacs[1].indices)

        comp = Component("lam", IidModel(n_latent, _precision_hyper(initial=1.0, fixed=True)),
                         mapper=mapper)
        block = ObsBlock(GaussianFamily(fixed_prec=1.0), np.array([0.5, 1.0, 2.0, 0.1]),
                         parse_expr("lam"), {"lam": inputs})
        model = Model([comp], [block])
        q = model.precision(model.natural_values(np.empty(0))[0])
        under = model.linearise(states[0])
        first = under.qstar(q, -np.ones(4))
        lin = model.linearise(states[1])
        assert lin._qstar is under._qstar
        assert lin.qstar(q, -np.ones(4)).plan is first.plan


class TestLeanProducts:
    """Products with B, B^T and Q(theta) go through ``sparse.matmul`` on
    the arrays the linearisation and the SparseSym hold: bit for bit
    scipy's ``@``, and a warm Laplace evaluation builds and dispatches no
    scipy matrix."""

    def test_products_match_scipy_on_the_workload_models(self):
        rng = np.random.default_rng(81)
        g = lattice_graph(12)  # the BYM workload's structure; B and Q do not read y
        bym = Model([Component("b0", FixedEffectsModel.constant()), Component("s", BymModel(g))],
                    [ObsBlock(PoissonFamily(), np.zeros(g.n), parse_expr("b0 + s"),
                              {"b0": np.ones(g.n), "s": np.arange(1, g.n + 1)})])
        for model in (toy_model(np.arange(100) % 7), build_joint(0), bym):
            u0 = engine._initial_point(model, model.options)
            lin = model.linearise(u0)
            q = model.precision(model.natural_values(model.theta_internal0())[0])
            B, n = lin.B, model.n_latent
            assert np.array_equal(lin.delta, model.eta(u0) - B @ u0)
            x = rng.standard_normal((n, 4))
            g = rng.standard_normal((B.shape[0], 4))
            for xs, gs in ((x[:, 0], g[:, 0]), (x, g), (x[:, ::3], g[:, ::3]),
                           (np.asfortranarray(x), np.asfortranarray(g))):
                assert np.array_equal(lin.b_dot(xs), B @ xs)
                assert np.array_equal(lin.eval(xs), lin.eval(np.ascontiguousarray(xs)))
                assert np.array_equal(lin.bt_dot(gs), B.T @ gs)
                assert np.array_equal(q @ xs, q.csc @ xs)

    def test_a_warm_laplace_evaluation_builds_no_scipy_matrix(self, monkeypatch):
        import scipy.sparse._base as sp_base
        import scipy.sparse._compressed as sp_compressed

        model = build_joint(0)
        res = fit(model)  # c5 seed 0
        lin = res.linearisation
        theta = max(res.grid, key=lambda p: p.weight).theta
        _, warm = log_posterior_theta(model, lin, theta)
        counts = {"built": 0, "dispatched": 0}

        def counted(name, original):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(sp_compressed._cs_matrix, "__init__",
                            counted("built", sp_compressed._cs_matrix.__init__))
        monkeypatch.setattr(sp_base._spbase, "__matmul__",
                            counted("dispatched", sp_base._spbase.__matmul__))
        lp, ga = log_posterior_theta(model, lin, theta + 0.05, warm=warm)
        monkeypatch.undo()
        assert np.isfinite(lp) and ga.kriging is not None
        assert counts == {"built": 0, "dispatched": 0}


class TestModelPrecision:
    def _model(self):
        comps = [
            Component("b0", FixedEffectsModel.constant()),
            Component("a", Ar1Model(8)),
            Component("f", Rw1Model(5)),
        ]
        block = ObsBlock(
            GaussianFamily(fixed_prec=1.0), np.zeros(8), parse_expr("b0 + a"),
            {"b0": np.ones(8), "a": np.arange(1, 9)},
        )
        return Model(comps, [block])

    def test_matches_the_validated_block_diagonal(self):
        model = self._model()
        first = None
        for theta in ([0.3, 0.0, -1.0], [0.3, 0.8, -1.0], [1.1, 0.8, 2.0], [0.5, 0.0, 0.0]):
            comp_vals, _ = model.natural_values(np.array(theta))
            blocks = [c.model.precision(comp_vals[c.name]).csc for c in model.components]
            want = SparseSym(sp.block_diag(blocks, format="csc"))
            got = model.precision(comp_vals)
            assert _same_values(got.csc, want.csc)
            # AR(1) at rho = 0 (theta[1] = 0) stores its off-diagonal
            # zeros, so every theta keeps the first pattern and its plan
            first = got if first is None else first
            assert got.indices is first.indices and got.plan is first.plan is not None

    def test_a_new_theta_reuses_the_pattern(self):
        model = self._model()
        first = model.precision(model.natural_values(np.array([0.3, 0.8, -1.0]))[0])
        again = model.precision(model.natural_values(np.array([1.1, 0.5, 2.0]))[0])
        assert again.indptr is first.indptr and again.indices is first.indices
        assert again.plan is first.plan is not None
        assert again._csc is None


# --- hyperparameter posterior ------------------------------------------------

class TestLogPosteriorTheta:
    def _shared_model(self, prior=None):
        rng = np.random.default_rng(11)
        n = 6
        y = 0.8 + rng.normal(size=n) * 0.9
        comp = Component("u", IidModel(1, _precision_hyper(prior=prior)))
        block = ObsBlock(
            GaussianFamily(fixed_prec=1.5),
            y,
            parse_expr("u"),
            {"u": np.ones(n, dtype=int)},
        )
        return Model([comp], [block]), y, n

    def test_matches_closed_form_evidence(self):
        model, y, n = self._shared_model()
        lin = model.linearise(np.zeros(1))
        for theta in (0.0, 0.7, -1.2):
            lp, _ = log_posterior_theta(model, lin, np.array([theta]))
            cov = np.ones((n, n)) / np.exp(theta) + np.eye(n) / 1.5
            oracle = model.log_prior_theta(np.array([theta])) + (
                stats.multivariate_normal.logpdf(y, mean=np.zeros(n), cov=cov)
            )
            assert lp == pytest.approx(oracle, abs=1e-8)

    def test_prior_change_passes_straight_through(self):
        prior_a = GaussianPrior(mean=0.0, prec=1.0)
        prior_b = GaussianPrior(mean=2.0, prec=1.0)
        model_a, _, _ = self._shared_model(prior=prior_a)
        model_b, _, _ = self._shared_model(prior=prior_b)
        theta = np.array([0.4])
        lp_a, _ = log_posterior_theta(model_a, model_a.linearise(np.zeros(1)), theta)
        lp_b, _ = log_posterior_theta(model_b, model_b.linearise(np.zeros(1)), theta)
        expected = prior_a.logpdf(0.4) - prior_b.logpdf(0.4)
        assert lp_a - lp_b == pytest.approx(expected, abs=1e-10)

    def test_constrained_evidence_matches_dense(self):
        # conditioning the near-intrinsic prior on sum(u) = 0 equals
        # restricting it to the null space of the constraint, which is
        # the numerically stable way to build the oracle
        from scipy.linalg import null_space

        rng = np.random.default_rng(21)
        y = rng.normal(size=4)
        comp = Component("f", Rw1Model(4))
        block = ObsBlock(
            GaussianFamily(fixed_prec=2.0),
            y,
            parse_expr("f"),
            {"f": np.arange(1, 5)},
        )
        model = Model([comp], [block])
        lin = model.linearise(np.zeros(4))
        basis = null_space(np.ones((1, 4)))
        for theta in (0.0, 0.9):
            lp, _ = log_posterior_theta(model, lin, np.array([theta]))
            comp_vals, _ = model.natural_values(np.array([theta]))
            q_dense = model.precision(comp_vals).to_dense()
            cov_c = basis @ np.linalg.inv(basis.T @ q_dense @ basis) @ basis.T
            evid = stats.multivariate_normal.logpdf(
                y, mean=np.zeros(4), cov=cov_c + np.eye(4) / 2.0
            )
            oracle = model.log_prior_theta(np.array([theta])) + evid
            assert lp == pytest.approx(oracle, abs=1e-8)

    def test_one_factorisation_per_newton_step(self, monkeypatch):
        # Poisson counts on an RW1 with a free precision: neither the prior
        # Q(theta) nor the curvature at the mode is factorised
        rng = np.random.default_rng(5)
        comp = Component("f", Rw1Model(12))
        block = ObsBlock(
            PoissonFamily(), rng.poisson(3.0, size=12).astype(float),
            parse_expr("f"), {"f": np.arange(1, 13)},
        )
        model = Model([comp], [block])
        lin = model.linearise(np.zeros(12))
        theta = np.array([0.4])

        factored, gradients = [], []
        real_chol, real_grad_hess = engine.chol, engine._obs_grad_hess
        monkeypatch.setattr(engine, "chol", lambda a: factored.append(a) or real_chol(a))
        monkeypatch.setattr(
            engine, "_obs_grad_hess",
            lambda *args: gradients.append(1) or real_grad_hess(*args),
        )
        _, ga = log_posterior_theta(model, lin, theta)
        newton_steps = len(gradients) - 1  # one gradient per step, one at the mode
        assert newton_steps >= 3
        assert len(factored) == newton_steps
        assert ga.qstar is factored[-1]

    def test_scipy_matrices_built_per_evaluation_do_not_grow_with_steps(self, monkeypatch):
        # once a warm-up evaluation has built the patterns, their plans and
        # B^T, an evaluation builds Q(theta)'s CSC (for its products with
        # the state) and no scipy matrix per Newton step.  SuperLU hands
        # its factors out as csc_array, part of each factorisation, which
        # the count leaves out.
        rng = np.random.default_rng(5)
        comp = Component("f", Rw1Model(12))
        block = ObsBlock(
            PoissonFamily(), rng.poisson(3.0, size=12).astype(float),
            parse_expr("f"), {"f": np.arange(1, 13)},
        )
        model = Model([comp], [block])
        lin = model.linearise(np.zeros(12))
        _, warm = log_posterior_theta(model, lin, np.array([0.4]))

        built, gradients = [], []
        for cls in (sp.csc_matrix, sp.csr_matrix, sp.coo_matrix):
            real = cls.__init__
            monkeypatch.setattr(
                cls, "__init__",
                lambda self, *a, _real=real, **k: built.append(1) or _real(self, *a, **k),
            )
        real_grad_hess = engine._obs_grad_hess
        monkeypatch.setattr(
            engine, "_obs_grad_hess",
            lambda *args: gradients.append(1) or real_grad_hess(*args),
        )
        budget = 1  # Q(theta)'s CSC
        steps = []
        for theta, start in ((-0.7, None), (1.2, None), (0.4, warm)):
            built.clear()
            gradients.clear()
            log_posterior_theta(model, lin, np.array([theta]), warm=start)
            steps.append(len(gradients) - 1)
            assert len(built) <= budget
        assert max(steps) >= 3 and min(steps) < max(steps)

    def test_an_evaluation_builds_no_factor_matrix(self, monkeypatch):
        # a Newton step reads its factor's pivots and solver only, so
        # SuperLU's L and U stay raw arrays: no csc_array is built until
        # the kept factor's L is read, and then once
        rng = np.random.default_rng(5)
        comp = Component("f", Rw1Model(12))
        block = ObsBlock(
            PoissonFamily(), rng.poisson(3.0, size=12).astype(float),
            parse_expr("f"), {"f": np.arange(1, 13)},
        )
        model = Model([comp], [block])
        lin = model.linearise(np.zeros(12))

        built, gradients = [], []
        real_init = sp.csc_array.__init__
        monkeypatch.setattr(
            sp.csc_array, "__init__",
            lambda self, *a, **k: built.append(1) or real_init(self, *a, **k),
        )
        real_grad_hess = engine._obs_grad_hess
        monkeypatch.setattr(
            engine, "_obs_grad_hess",
            lambda *args: gradients.append(1) or real_grad_hess(*args),
        )
        _, ga = log_posterior_theta(model, lin, np.array([0.4]))
        assert len(gradients) - 1 >= 3
        assert built == []
        L = ga.factor.L
        assert len(built) == 1
        assert ga.factor.L is L and len(built) == 1


def _iid_groups_model():
    """The 25-group iid model of ``test_mixture_mean_matches_quadrature``,
    with its exact log p(theta | y) from the per-group evidence."""
    rng = np.random.default_rng(42)
    groups, reps, tau_true, tau_obs = 25, 4, 2.0, 4.0
    u_true = rng.normal(size=groups) / np.sqrt(tau_true)
    idx = np.repeat(np.arange(1, groups + 1), reps)
    y = u_true[idx - 1] + rng.normal(size=groups * reps) / np.sqrt(tau_obs)
    model = Model(
        [Component("u", IidModel(groups))],
        [ObsBlock(GaussianFamily(fixed_prec=tau_obs), y, parse_expr("u"), {"u": idx})],
    )
    y_g = y.reshape(groups, reps)
    prior = model.theta_entries[0][2].prior

    def log_post(theta):
        cov = np.ones((reps, reps)) / np.exp(theta) + np.eye(reps) / tau_obs
        ll = stats.multivariate_normal.logpdf(y_g, mean=np.zeros(reps), cov=cov).sum()
        return prior.logpdf(theta) + ll

    return model, log_post


def _rw1_iid_noise_model():
    """RW1 + iid over crossed indices with a free Gaussian noise
    precision: 20 latents and p = 3 free hyperparameters, the cap."""
    rng = np.random.default_rng(11)
    n = 10
    f_idx = np.repeat(np.arange(1, n + 1), n)
    v_idx = np.tile(np.arange(1, n + 1), n)
    v = rng.normal(size=n) / 2.0
    y = np.sin(np.linspace(0.0, 3.0, n))[f_idx - 1] + v[v_idx - 1]
    y = y + rng.normal(size=y.size) / np.sqrt(10.0)
    def hyper(initial, prior_mean):
        return _precision_hyper(initial=initial, prior=GaussianPrior(prior_mean, 2.0))

    comps = [
        Component("f", Rw1Model(n, hyper(2.0, 0.0))),
        Component("v", IidModel(n, hyper(2.0, 1.0))),
    ]
    family = GaussianFamily(prec_hyper=hyper(10.0, 2.0))
    block = ObsBlock(family, y, parse_expr("f + v"), {"f": f_idx, "v": v_idx})
    return Model(comps, [block])


def _bym_lattice_model():
    """The benchmark's BYM lattice: Poisson counts on a 12 x 12 rook
    lattice, y ~ Poisson(exp(1.5 + u + v)) with u an intrinsic CAR draw
    of precision 2 and v iid of precision 10, drawn with default_rng(0).
    log p(theta | y) has two modes, each switching one half of the BYM
    off: (0.475, 9.902) and, 4.2 higher, (9.904, 1.361)."""
    g = lattice_graph(12)
    rng = np.random.default_rng(0)
    u = sample_icar(rng, g, tau=2.0)
    v = rng.normal(scale=1.0 / np.sqrt(10.0), size=g.n)
    y = rng.poisson(np.exp(1.5 + u + v)).astype(float)
    comps = [Component("b0", FixedEffectsModel.constant()), Component("s", BymModel(g))]
    block = ObsBlock(PoissonFamily(), y, parse_expr("b0 + s"),
                     {"b0": np.ones(g.n), "s": np.arange(1, g.n + 1)})
    return Model(comps, [block])


def _tight_search(monkeypatch):
    """Stop a mode search only at a 1e-8 wide simplex or a 1e-8 step."""
    monkeypatch.setattr(engine, "SEARCH_XATOL", 1e-8)
    monkeypatch.setattr(engine, "SEARCH_FATOL", 1e-8)


def _count_laplace(monkeypatch):
    """Count log_posterior_theta calls in calls["laplace"] and the
    factorisations the engine makes in calls["chol"]."""
    calls = {"laplace": 0, "chol": 0}
    for name, key in (("log_posterior_theta", "laplace"), ("chol", "chol")):
        def counted(*args, _key=key, _original=getattr(engine, name), **kwargs):
            calls[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(engine, name, counted)
    return calls


def _exact_scalar_mode(log_post):
    return optimize.minimize_scalar(
        lambda t: -log_post(t), bounds=(-3.0, 5.0), method="bounded",
        options={"xatol": 1e-10},
    ).x


class TestThetaExplore:
    def test_mixture_mean_matches_quadrature(self):
        # 25 groups of 4 replicate observations, free group precision
        rng = np.random.default_rng(42)
        groups, reps, tau_true, tau_obs = 25, 4, 2.0, 4.0
        u_true = rng.normal(size=groups) / np.sqrt(tau_true)
        idx = np.repeat(np.arange(1, groups + 1), reps)
        y = u_true[idx - 1] + rng.normal(size=groups * reps) / np.sqrt(tau_obs)

        comp = Component("u", IidModel(groups))
        block = ObsBlock(
            GaussianFamily(fixed_prec=tau_obs),
            y,
            parse_expr("u"),
            {"u": idx},
        )
        model = Model([comp], [block])
        lin = model.linearise(np.zeros(groups))
        theta_hat, grid, _ = theta_explore(model, lin)

        weights = np.array([p.weight for p in grid])
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        taus = np.exp(np.array([p.theta[0] for p in grid]))
        mix_mean = float(weights @ taus)

        # quadrature oracle: evidence factorises over groups, and the
        # 4x4 within-group covariance is the same for every group
        y_g = y.reshape(groups, reps)
        prior = model.theta_entries[0][2].prior

        def log_post(theta):
            cov = np.ones((reps, reps)) / np.exp(theta) + np.eye(reps) / tau_obs
            ll = stats.multivariate_normal.logpdf(
                y_g, mean=np.zeros(reps), cov=cov
            ).sum()
            return prior.logpdf(theta) + ll

        ts = np.linspace(theta_hat[0] - 8.0, theta_hat[0] + 8.0, 3201)
        lps = np.array([log_post(t) for t in ts])
        w = np.exp(lps - lps.max())
        oracle_mean = float(np.trapezoid(w * np.exp(ts), ts) / np.trapezoid(w, ts))

        assert mix_mean == pytest.approx(oracle_mean, rel=0.02)

    def test_zero_free_hypers_single_point(self):
        model = toy_model(toy_counts())
        lin = model.linearise(np.zeros(1))
        _, grid, _ = theta_explore(model, lin)
        assert len(grid) == 1
        assert grid[0].weight == 1.0

    def test_search_stops_near_the_exact_mode(self):
        # Gaussian data and a linear predictor make the Laplace
        # log p(theta | y) exact, so the mode is a scalar minimisation
        model, log_post = _iid_groups_model()
        lin = model.linearise(np.zeros(model.n_latent))
        theta_hat, _, _ = theta_explore(model, lin, mode_only=True)
        assert abs(theta_hat[0] - _exact_scalar_mode(log_post)) < 1e-4

    def test_warm_search_refines_to_the_exact_mode(self, monkeypatch):
        model, log_post = _iid_groups_model()
        lin = model.linearise(np.zeros(model.n_latent))
        exact = _exact_scalar_mode(log_post)
        calls = _count_laplace(monkeypatch)
        theta_explore(model, lin, mode_only=True)
        n_cold, calls["laplace"] = calls["laplace"], 0
        for start in (exact + 0.3, exact - 0.3):
            theta_hat, _, _ = theta_explore(model, lin, theta_start=[start], mode_only=True)
            assert abs(theta_hat[0] - exact) < 1e-4
            assert calls["laplace"] < n_cold
            calls["laplace"] = 0

    def test_convex_start_reaches_the_exact_mode_without_nelder_mead(self, monkeypatch):
        # the Laplace log p(theta | y) of this model is convex at theta = 5;
        # the refinement takes the stencil's curvature there with its sign
        # flipped, and its BFGS updates carry it to the mode (22 evaluations)
        model, log_post = _iid_groups_model()
        lin = model.linearise(np.zeros(model.n_latent))
        exact = _exact_scalar_mode(log_post)
        methods = []
        monkeypatch.setattr(engine.optimize, "minimize",
                            lambda *args, **kwargs: methods.append(kwargs["method"]))
        calls = _count_laplace(monkeypatch)
        for start in (exact + 0.3, 5.0):
            theta_hat, _, _ = theta_explore(model, lin, theta_start=[start], mode_only=True)
            assert abs(theta_hat[0] - exact) < 1e-4
        assert methods == []
        assert calls["laplace"] <= 40

    @pytest.mark.parametrize("build, start, budget, mode", [
        # c5's seed-0 data: its mode, and a stationary point 48 lower
        (lambda: build_joint(0), (0.0, 0.0), 60, None),
        (lambda: build_joint(0), (9.9, 0.0), 40, (9.866, 0.470)),
        (lambda: build_joint(0), (0.0, 9.9), 125, None),
        # the BYM lattice: its higher mode, from theta0 too, and its lower one
        (_bym_lattice_model, (0.0, 0.0), 105, (9.904, 1.361)),
        (_bym_lattice_model, (9.9, 0.0), 40, (9.904, 1.361)),
        (_bym_lattice_model, (0.0, 9.9), 35, (0.475, 9.902)),
    ], ids=["joint-theta0", "joint-9.9,0", "joint-0,9.9", "bym-theta0", "bym-9.9,0", "bym-0,9.9"])
    def test_refinement_from_far_starts(self, monkeypatch, build, start, budget, mode):
        # each workload's first linearisation, searched from theta0 and from
        # either precision at 2e4; measured counts 49, 29, 104, 86, 29, 24
        model = build()
        lin = model.linearise(engine._initial_point(model, model.options))
        calls = _count_laplace(monkeypatch)
        theta_hat, _, _ = theta_explore(model, lin, theta_start=start, mode_only=True)
        assert calls["laplace"] <= budget
        evals = _ThetaCache(model, lin)
        grad, hess = engine._stencil(lambda t: evals(t)[0], theta_hat, evals(theta_hat)[0])
        assert np.max(np.abs(np.linalg.solve(hess, grad))) < 1e-3  # a stationary point
        if mode is None:  # the mode of the cold search
            mode = theta_explore(model, lin, mode_only=True)[0]
            assert np.max(np.abs(theta_hat - mode)) < 1e-4
        else:
            assert np.max(np.abs(theta_hat - mode)) < 1e-3

    def test_tight_refinement_ends_at_the_jitter(self, monkeypatch):
        # with SEARCH_FATOL = 0 only the step rules stop a refinement:
        # in lp's ~1e-9 jitter, halving a step below SEARCH_XATOL ends it
        model = build_joint(0)
        res = fit(model)
        theta_hat = engine._mode_point(res.grid).theta
        _tight_search(monkeypatch)
        monkeypatch.setattr(engine, "SEARCH_FATOL", 0.0)
        for start in (theta_hat + 0.3, theta_hat - np.array([0.2, -0.1])):
            refined, _, _ = theta_explore(
                model, res.linearisation, theta_start=start, mode_only=True
            )
            assert np.max(np.abs(refined - theta_hat)) < 1e-4

    def test_joint_fit_evaluation_budget(self, monkeypatch):
        # c5's seed-0 data: the warm searches of outer iterations 2-5
        # refine the previous mode instead of restarting Nelder-Mead, the
        # cold search starts from a sized simplex, and each evaluation
        # starts at the previous one's chord step
        model = build_joint(0)
        calls = _count_laplace(monkeypatch)
        res = fit(model)
        assert calls["laplace"] <= 220
        assert calls["chol"] <= 480
        assert res.converged and len(res.records) == 5
        theta_hat = engine._mode_point(res.grid).theta
        _tight_search(monkeypatch)
        tight, _, _ = theta_explore(model, res.linearisation, mode_only=True)
        assert np.max(np.abs(theta_hat - tight)) < 1e-3

    def test_cold_search_from_zero_on_three_hyperparameters(self, monkeypatch):
        # every precision at initial value 1 starts at 0 on the log scale,
        # where scipy's default simplex has an edge of 0.00025; the sized
        # simplex reaches the mode in 174 evaluations, against 441
        model = _rw1_iid_noise_model()
        lin = model.linearise(np.zeros(model.n_latent))
        calls = _count_laplace(monkeypatch)
        theta_hat, _, _ = engine._nelder_mead(_ThetaCache(model, lin), np.zeros(3))
        assert calls["laplace"] <= 250
        _tight_search(monkeypatch)
        tight, _, _ = engine._nelder_mead(_ThetaCache(model, lin), model.theta_internal0())
        assert np.max(np.abs(theta_hat - tight)) < 1e-3

    def test_exhausted_search_names_itself_and_its_start(self, monkeypatch):
        model, log_post = _iid_groups_model()
        lin = model.linearise(np.zeros(model.n_latent))
        monkeypatch.setattr(engine, "SEARCH_MAXFEV", 3)
        start = str(engine._theta_dict(model, model.theta_internal0()))
        with pytest.raises(EngineError, match="Nelder-Mead") as cold:
            theta_explore(model, lin, mode_only=True)
        assert start in str(cold.value) and "within 3 evaluations" in str(cold.value)
        warm = [_exact_scalar_mode(log_post) + 0.3]
        with pytest.raises(EngineError, match="Newton refinement") as refined:
            theta_explore(model, lin, theta_start=warm, mode_only=True)
        assert str(engine._theta_dict(model, warm)) in str(refined.value)

    def test_search_saves_evaluations(self, monkeypatch):
        calls = _count_laplace(monkeypatch)
        default = _fit_rw1_free_precision()
        n_default, calls["laplace"] = calls["laplace"], 0
        _tight_search(monkeypatch)
        tight = _fit_rw1_free_precision()
        assert n_default <= 0.8 * calls["laplace"]
        shift = np.abs(default.latent_mean - tight.latent_mean) / tight.latent_sd
        assert shift.max() < 1e-5

    def test_three_free_hyperparameters(self, monkeypatch):
        model = _rw1_iid_noise_model()
        assert len(model.theta_names) == engine.MAX_THETA_DIM == 3
        res = fit(model)
        assert res.converged
        assert sum(p.weight for p in res.grid) == pytest.approx(1.0, abs=1e-12)
        theta_hat = engine._mode_point(res.grid).theta
        _tight_search(monkeypatch)
        tight, _, _ = theta_explore(model, res.linearisation, mode_only=True)
        assert np.max(np.abs(theta_hat - tight)) < 1e-3


def _explore_recorded(monkeypatch, model, lin, **kwargs):
    """``theta_explore``'s result and the ``_ThetaCache`` it walked with."""
    caches = []

    class Recorded(_ThetaCache):
        def __init__(self, *args):
            super().__init__(*args)
            caches.append(self)

    monkeypatch.setattr(engine, "_ThetaCache", Recorded)
    theta_hat, grid, _ = theta_explore(model, lin, **kwargs)
    (evals,) = caches
    return theta_hat, grid, evals


def _tensor_grid(evals, theta_hat):
    """The thetas of the grid by the tensor-product rule, on the walk's own
    evaluations read from ``evals.cache`` (a point the walk skipped is
    evaluated here): each axis walked outwards to its first point below
    the floor, then every point of the axes' box at or above it, in
    lexicographic z order."""
    def lp_at(theta):
        lp = evals.cache.get(tuple(np.round(theta, 12)))  # the cache's key
        return evals(theta)[0] if lp is None else lp

    lp_hat = lp_at(theta_hat)
    _, hess = engine._stencil(lp_at, theta_hat, lp_hat)
    lam, vec = np.linalg.eigh(-hess)
    axes = vec @ np.diag(1.0 / np.sqrt(engine._floored(lam)))
    floor = lp_hat - engine.GRID_DROP
    p = theta_hat.size
    offsets = []
    for i in range(p):
        vals = [0.0]
        for direction in (1.0, -1.0):
            for k in range(1, 11):
                z = np.zeros(p)
                z[i] = direction * engine.GRID_SPACING * k
                if lp_at(theta_hat + axes @ z) < floor:
                    break
                vals.append(z[i])
        offsets.append(sorted(vals))
    thetas = [theta_hat + axes @ np.array(z) for z in itertools.product(*offsets)]
    return np.array([t for t in thetas if lp_at(t) >= floor])


class TestGridWalk:
    """The grid walks each column outwards from the mode's slab, as it
    walks the axes, and skips a point whose parent (one step towards the
    mode along its first non-zero coordinate) fell below the floor."""

    @pytest.mark.parametrize("build", [
        *[lambda s=s: build_joint(s) for s in range(4)],
        _rw1_iid_noise_model,
        lambda: _iid_groups_model()[0],
    ], ids=["c5-0", "c5-1", "c5-2", "c5-3", "p3", "p1"])
    def test_same_points_as_the_tensor_product(self, monkeypatch, build):
        model = build()
        lin = model.linearise(engine._initial_point(model, model.options))
        theta_hat, grid, evals = _explore_recorded(monkeypatch, model, lin)
        assert len(grid) > 1
        assert all(p.latent_var is not None and p.pred_var is not None for p in grid)
        want = _tensor_grid(evals, theta_hat)
        assert np.array_equal(np.array([p.theta for p in grid]), want)

    def test_a_column_cut_off_from_the_mode_is_skipped(self, monkeypatch):
        # log p(theta | y) replaced by -|z|^2 / 2, z = diag(1, 2) (theta -
        # theta*), except at the four points (+-1, +-2) grid steps from
        # theta*, where it is far below the floor: the columns beyond them
        # are cut off from the mode's slab, and the walk evaluates none of
        # their points, though (+-2, +-2) and (+-3, +-2) are above the floor
        model = build_joint(0)
        lin = model.linearise(engine._initial_point(model, model.options))
        theta_star = model.theta_internal0()
        scale = np.array([1.0, 2.0])
        real = engine.log_posterior_theta

        def steps_of(theta):
            return np.round(np.abs(scale * (theta - theta_star)) / engine.GRID_SPACING, 6)

        def surface(model, lin, theta, warm=None):
            _, ga = real(model, lin, theta, warm=warm)
            lp = -0.5 * float(np.sum((scale * (theta - theta_star)) ** 2))
            return (-100.0 if tuple(steps_of(theta)) == (1.0, 2.0) else lp), ga

        monkeypatch.setattr(engine, "log_posterior_theta", surface)
        _, grid, evals = _explore_recorded(monkeypatch, model, lin, known_mode=theta_star)
        walked = {tuple(steps_of(p.theta)) for p in grid}
        # the tensor product keeps every point of the 9 x 9 box with
        # 0.75^2 (a^2 + b^2) <= 10 but the cut ones
        tensor = [(abs(a), abs(b)) for a in range(-4, 5) for b in range(-4, 5)
                  if 0.5625 * (a * a + b * b) <= 10.0 and (abs(a), abs(b)) != (1, 2)]
        skipped = {(2.0, 2.0), (3.0, 2.0)}
        assert walked == {(float(a), float(b)) for a, b in tensor} - skipped
        assert len(grid) == len(tensor) - 4 * len(skipped) == 45
        evaluated = {tuple(steps_of(np.array(key))) for key in evals.cache}
        assert not evaluated & (skipped | {(4.0, 2.0)})
        assert (1.0, 2.0) in evaluated


# --- line search ---------------------------------------------------------

class TestLineSearch:
    def test_scalar_quadratic_case(self):
        # eta(v) = 2v - v^2 from u0=0 to u1=1: quartic coefficients
        # a=4, b=-2, c=1, minimised exactly at alpha=1 with value 1
        alpha, v = line_search(
            lambda u: 2.0 * u - u**2,
            np.zeros(1),
            np.ones(1),
            np.array([0.0]),
            np.array([2.0]),
            np.array([1.0]),
        )
        assert alpha == pytest.approx(1.0, abs=1e-12)
        assert v[0] == pytest.approx(1.0, abs=1e-12)

    def test_linear_predictor_accepts_full_step(self):
        rng = np.random.default_rng(1)
        a_mat = rng.normal(size=(5, 3))
        u0 = rng.normal(size=3)
        u1 = rng.normal(size=3)
        alpha, v = line_search(
            lambda u: a_mat @ u,
            u0,
            u1,
            a_mat @ u0,
            a_mat @ u1,
            rng.uniform(0.5, 2.0, size=5),
        )
        assert alpha == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(v, u1, atol=1e-12)

    def test_matches_brute_force_quartic(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            a_mat = rng.normal(size=(6, 2))
            c_mat = rng.normal(size=(6, 2))
            u0 = rng.normal(size=2) * 0.3
            u1 = u0 + rng.normal(size=2)

            def eta(u):
                return a_mat @ u + 0.5 * (c_mat @ u) ** 2

            b_at_u0 = a_mat + (c_mat @ u0)[:, None] * c_mat
            eb0 = eta(u0)
            eb1 = eb0 + b_at_u0 @ (u1 - u0)
            sigma2 = rng.uniform(0.5, 2.0, size=6)
            alpha, _ = line_search(eta, u0, u1, eb0, eb1, sigma2)

            oracle = self._brute_force(eta, u0, u1, eb0, eb1, 1.0 / sigma2)
            assert alpha == pytest.approx(oracle, abs=1e-3)

    @staticmethod
    def _brute_force(eta, u0, u1, eb0, eb1, w, gamma=2.0):
        def exact(a):
            r = eta((1 - a) * u0 + a * u1) - eb1
            return float(np.sum(r * r * w))

        k = 0
        f_cur = exact(1.0)
        for direction in (1, -1):
            if exact(gamma**direction) < f_cur:
                k = direction
                f_cur = exact(gamma**k)
                for _ in range(9):
                    if exact(gamma ** (k + direction)) < f_cur:
                        k += direction
                        f_cur = exact(gamma**k)
                    else:
                        break
                break
        ak = gamma**k
        d1 = eb1 - eb0
        d2 = (eta((1 - ak) * u0 + ak * u1) - ((1 - ak) * eb0 + ak * eb1)) / ak**2
        qa = float(np.sum(d1 * d1 * w))
        qb = float(np.sum(d1 * d2 * w))
        qc = float(np.sum(d2 * d2 * w))
        grid = np.arange(gamma ** (k - 1), gamma ** (k + 1) + 1e-12, 1e-4)
        vals = (
            qa * (grid - 1.0) ** 2
            + 2.0 * qb * (grid - 1.0) * grid**2
            + qc * grid**4
        )
        return float(grid[np.argmin(vals)])

    @pytest.mark.parametrize("target, alphas", [
        (5.0, [1.0, 2.0, 4.0, 8.0]),  # the walk expands to alpha = 4
        (0.3, [1.0, 2.0, 0.5, 0.25, 0.125]),  # it contracts to alpha = 1/4
    ])
    def test_each_alpha_is_evaluated_once(self, target, alphas):
        # eta(v) = v from u0 = 0 to u1 = 1, so v = alpha: the walk and the
        # quartic's second difference read eta once per candidate
        seen = []
        line_search(lambda u: seen.append(float(u[0])) or u, np.zeros(1), np.ones(1),
                    np.zeros(1), np.array([target]), np.ones(1))
        assert seen == alphas

    def test_all_non_finite_candidates_error(self):
        with pytest.raises(EngineError, match="non-finite"):
            line_search(
                lambda u: np.full(2, np.nan),
                np.zeros(1),
                np.ones(1),
                np.zeros(2),
                np.ones(2),
                np.ones(2),
            )

    def test_nonpositive_variance_error(self):
        with pytest.raises(EngineError, match="positive"):
            line_search(
                lambda u: u,
                np.zeros(1),
                np.ones(1),
                np.zeros(1),
                np.ones(1),
                np.zeros(1),
            )


# --- full fits -------------------------------------------------------------

class TestLinearPath:
    def test_matches_dense_gls(self):
        model = gls_model(40)
        x, y = model.obs[0].inputs["b1"], model.obs[0].y
        res = fit(model)
        n = len(y)
        bmat = np.column_stack([np.ones(n), x])
        mean, cov = dense_posterior(
            np.eye(2) * 0.001, np.zeros(2), bmat, np.zeros(n), y, 2.0
        )
        assert res.converged
        assert len(res.records) == 1
        assert res.records[0].alpha == 1.0
        np.testing.assert_allclose(res.latent_mean, mean, atol=1e-8)
        np.testing.assert_allclose(res.latent_sd, np.sqrt(np.diag(cov)), atol=1e-8)
        np.testing.assert_allclose(
            res.predictor_sigma2, np.diag(bmat @ cov @ bmat.T), atol=1e-8
        )

    def test_forced_iterative_matches_single_pass(self):
        model = gls_model(40)
        res_direct = fit(model)
        res_forced = fit(model, {"force_iterative": True})
        assert res_forced.converged
        assert len(res_forced.records) == 2
        assert res_forced.records[1].alpha == 1.0
        assert res_forced.records[1].max_dev_over_sd < 0.1
        np.testing.assert_allclose(
            res_forced.latent_mean, res_direct.latent_mean, atol=1e-6
        )
        np.testing.assert_allclose(
            res_forced.latent_sd, res_direct.latent_sd, atol=1e-6
        )


class TestToyFixedPoint:
    def test_fixed_point_is_the_joint_mode(self):
        y = toy_counts()
        model = toy_model(y)
        res = fit(model, {"rel_tol": 1e-9, "bru_max_iter": 30})
        assert res.converged

        rate = 0.5

        def neg_log_post(u):
            lam = stats.expon.ppf(stats.norm.cdf(u), scale=1.0 / rate)
            return -(
                stats.norm.logpdf(u) + np.sum(stats.poisson.logpmf(y, lam))
            )

        opt = optimize.minimize_scalar(
            neg_log_post, bounds=(-4.0, 4.0), method="bounded",
            options={"xatol": 1e-12},
        )
        assert res.linearisation.u0[0] == pytest.approx(opt.x, abs=1e-6)

    def test_idempotent_once_converged(self):
        model = toy_model(toy_counts())
        res = fit(model)
        assert res.converged
        u0 = res.linearisation.u0
        lin = model.linearise(u0)
        _, _, ga = theta_explore(model, lin, mode_only=True)
        sd = np.sqrt(ga.latent_var())
        assert np.max(np.abs(ga.mode - u0) / sd) < 0.1

    def test_samples_match_conjugate_posterior(self):
        y = toy_counts(n=60, seed=12)
        model = toy_model(y)
        res = fit(model)
        samples = generate(
            res,
            parse_expr("lam"),
            4000,
            rng=np.random.default_rng(99),
            inputs={"lam": np.array([1])},
        )
        lam = samples[:, 0]
        a, b = 1.0 + y.sum(), 0.5 + len(y)
        d_stat = stats.kstest(lam, lambda q: stats.gamma.cdf(q, a, scale=1.0 / b))
        assert d_stat.statistic <= 0.05

    def test_tiny_rate_fits_and_matches_conjugate_posterior(self):
        # demos/toy_rate.py at gamma = 5e4: lam is about 2e-5, so a
        # difference step in lam would leave the domain of log(lam)
        gamma, n = 5e4, 100
        rng = np.random.default_rng(4)
        y = rng.poisson(rng.exponential(1.0 / gamma), size=n).astype(float)
        res = fit(toy_model(y, rate=gamma))
        assert res.converged
        lam = generate(res, parse_expr("lam"), 20000, np.random.default_rng(10),
                       inputs={"lam": np.ones(1, dtype=int)})[:, 0]
        exact = stats.gamma(1.0 + y.sum(), scale=1.0 / (gamma + n))
        assert lam.mean() == pytest.approx(exact.mean(), rel=0.01)
        # measured 0.0040; the 1 % critical value at 20 000 draws is 0.0115
        assert stats.kstest(lam, exact.cdf).statistic <= 0.01

    def test_far_start_triggers_line_search(self):
        model = toy_model(toy_counts())
        res = fit(model, {"bru_initial": {"lam": 3.0}})
        assert res.converged
        assert any(r.line_search_ran for r in res.records)
        assert any(line.startswith("iinla: Step rescaling:") for line in res.log_lines)


class TestRunLog:
    def test_iteration_log_structure(self):
        model = toy_model(toy_counts())
        res = fit(model)
        lines = res.log_lines
        assert lines[0] == "iinla: Iteration 1 [max:10] (level 1)"
        assert any(l.startswith("iinla: Max deviation from previous: ") for l in lines)
        assert any(l.startswith("       [stop if: <10") for l in lines)
        assert "iinla: Convergence criterion met." in lines
        assert (
            "       Running final INLA integration step with known theta mode."
            " (level 1)" in lines
        )
        # one extra header for the final integration pass
        k_last = res.records[-1].iter
        assert f"iinla: Iteration {k_last + 1} [max:10] (level 1)" in lines

    @pytest.mark.parametrize(
        "value,text",
        [
            (99.53, "99.5"),
            (101.2, "101"),
            (1499.6, "1500"),
            (5.7432, "5.74"),
            (0.0001234, "0.000123"),
            (10.000000000000002, "10"),
        ],
    )
    def test_three_significant_figures(self, value, text):
        assert _fmt3(value) == text


# --- posterior summaries ------------------------------------------------------

def _fake_point(weight, mode, var):
    return ThetaPoint(
        theta=np.empty(0),
        log_post=0.0,
        weight=weight,
        mode=np.array([mode]),
        factor=None,
        latent_var=np.array([var]),
        pred_mean=np.array([mode]),
        pred_var=np.array([var]),
    )


class TestSummaries:
    def test_mixture_moments_hand_case(self):
        grid = [
            _fake_point(0.2, 0.0, 1.0),
            _fake_point(0.3, 1.0, 4.0),
            _fake_point(0.5, 2.0, 9.0),
        ]
        mean, sd = marginals(grid)
        assert mean[0] == pytest.approx(1.3, abs=1e-14)
        assert sd[0] == pytest.approx(np.sqrt(8.2 - 1.69), abs=1e-14)

    def test_predict_summary_basic(self):
        out = predict_summary(np.array([[1.0], [2.0], [3.0]]))
        assert out["mean"][0] == pytest.approx(2.0)
        assert out["sd"][0] == pytest.approx(1.0)
        assert out["q0.5"][0] == pytest.approx(2.0)

    def test_predict_summary_needs_samples(self):
        with pytest.raises(EngineError):
            predict_summary(np.array([[1.0]]))

    def test_predict_summary_keys_keep_close_levels_apart(self):
        samples = np.arange(12.0).reshape(6, 2)
        out = predict_summary(samples, (0.1234561, 0.1234562, 0.5))
        assert {"q0.1234561", "q0.1234562", "q0.5"} <= set(out)
        assert np.array_equal(out["q0.1234562"], np.quantile(samples, 0.1234562, axis=0))

    def test_sample_mode_picks_densest_bin(self):
        rng = np.random.default_rng(0)
        col = np.concatenate([rng.normal(3.0, 0.05, size=2000), [12.0, -7.0]])
        mode = sample_mode(col[:, None])
        assert mode[0] == pytest.approx(3.0, abs=0.1)


class TestGenerate:
    def test_bit_reproducible(self):
        model = gls_model(40)
        x = model.obs[0].inputs["b1"]
        res = fit(model)
        inputs = {"b0": np.ones(3), "b1": x[:3]}
        expr = parse_expr("b0 + b1")
        s1 = generate(res, expr, 50, rng=123, inputs=inputs)
        s2 = generate(res, expr, 50, rng=123, inputs=inputs)
        s3 = generate(res, expr, 50, rng=124, inputs=inputs)
        assert np.array_equal(s1, s2)
        assert not np.array_equal(s1, s3)

    def test_moments_match_marginals(self):
        model = gls_model(40)
        res = fit(model)
        samples = generate(
            res,
            parse_expr("b0"),
            20000,
            rng=np.random.default_rng(7),
            inputs={"b0": np.ones(1)},
        )
        se = res.latent_sd[0] / np.sqrt(samples.shape[0])
        assert samples[:, 0].mean() == pytest.approx(res.latent_mean[0], abs=4 * se)
        assert samples[:, 0].std(ddof=1) == pytest.approx(res.latent_sd[0], rel=0.05)

    def test_eval_reference_scales_effect(self):
        model = gls_model(40)
        res = fit(model)
        samples = generate(
            res,
            parse_expr("b1_eval(c(2.0))"),
            5000,
            rng=np.random.default_rng(3),
        )
        assert samples[:, 0].mean() == pytest.approx(
            2.0 * res.latent_mean[1], abs=4 * 2.0 * res.latent_sd[1] / np.sqrt(5000)
        )

    def test_constrained_samples_respect_constraint(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=4)
        comp = Component("f", Rw1Model(4, _precision_hyper(initial=1.3, fixed=True)))
        block = ObsBlock(
            GaussianFamily(fixed_prec=2.0), y, parse_expr("f"), {"f": np.arange(1, 5)}
        )
        res = fit(Model([comp], [block]))
        samples = generate(
            res, parse_expr("f"), 200, rng=5, inputs={"f": np.arange(1, 5)}
        )
        np.testing.assert_allclose(samples.sum(axis=1), 0.0, atol=1e-8)

    def test_nonpositive_count_is_an_error(self):
        model = gls_model(40)
        res = fit(model)
        with pytest.raises(EngineError, match="n_samples must be positive"):
            generate(res, parse_expr("b0"), 0, rng=1, inputs={"b0": np.ones(1)})

    def test_draw_order_matches_reference_loop(self):
        # free RW1 precision: a multi-point grid, and a sum-to-zero constraint
        rng = np.random.default_rng(4)
        t = np.linspace(0.0, 3.0, 10)
        y = np.exp(0.4 * np.sin(t)) + 0.2 * rng.normal(size=10)
        comp = Component(
            "f", Rw1Model(10, _precision_hyper(initial=1.0, prior=GaussianPrior(0.0, 1.0)))
        )
        block = ObsBlock(
            GaussianFamily(fixed_prec=25.0), y, parse_expr("exp(f)"),
            {"f": np.arange(1, 11)},
        )
        model = Model([comp], [block])
        res = fit(model)
        assert res.converged and len(res.grid) > 1
        weights = np.array([p.weight for p in res.grid])

        def reference_draws(n, seed):
            gen = np.random.default_rng(seed)
            out = []
            for _ in range(n):
                point = res.grid[int(gen.choice(len(res.grid), p=weights))]
                u = point.mode + point.factor.solve_lt(gen.standard_normal(10))
                out.append(point.kriging.project(u))
            return out

        draws = generate(res, parse_expr("f_latent"), 40, rng=9)
        assert np.array_equal(draws, np.stack(reference_draws(40, 9)))

        lin = res.linearisation
        acc = np.zeros(10)
        for u in reference_draws(30, 2):
            gap = lin.eval(u) - model.eta(u)
            acc += gap * gap
        want = float(np.sum(acc / (30 * res.predictor_sigma2)))
        got = linearisation_deviation(res, 30, seed=2)
        assert want > 0.0
        assert np.array_equal(got, want)

    def test_draws_match_the_public_triangular_solve(self, monkeypatch):
        # c5 seed 0: generate samples through SuperLU's gstrs alone, and
        # its draws are the bytes that scipy's spsolve_triangular gives
        res = fit(build_joint(0))
        expr = parse_expr("xi_latent")

        def refused(*args, **kwargs):
            raise AssertionError("spsolve_triangular called")

        with monkeypatch.context() as m:
            m.setattr(spla, "spsolve_triangular", refused)
            got = generate(res, expr, 500, rng=0)

        blocks = []

        def public(factor, rhs):
            blocks.append(rhs.shape)
            return public_solve_lt(factor, rhs)

        monkeypatch.setattr(CholFactor, "solve_lt", public)
        want = generate(res, expr, 500, rng=0)
        assert blocks  # the draws above did go through the public route
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_single_draw_is_prefix_of_longer_run(self):
        # batching per grid point must not let later draws change earlier
        # ones, with one constraint (RW1) and with two (Besag, two islands)
        expr = parse_expr("f_latent")
        for res in (_fit_rw1_free_precision(), _fit_besag_two_islands()):
            for seed in (0, 9, 31):
                one = generate(res, expr, 1, rng=seed)
                many = generate(res, expr, 40, rng=seed)
                assert np.array_equal(one[0], many[0])

    @pytest.mark.parametrize("weights", [
        [0.25, 0.0, 0.5, 0.25, 0.0],          # exact zeros, inside and last
        [0.1, 0.2, 0.0, 0.3, 0.4 + 1e-12],    # sum is not exactly 1
    ])
    def test_grid_point_choice_matches_rng_choice(self, weights):
        # one latent with precision 1e6 per point: draw s lies within 1e-2
        # of its point's mode 10 * g, so the chosen index can be read back
        grid = []
        for g, w in enumerate(weights):
            p = _fake_point(w, 10.0 * g, 1e-6)
            p.factor = chol(SparseSym(sp.csc_matrix([[1e6]])))
            grid.append(p)
        model = SimpleNamespace(n_latent=1, constraints=None)
        res = SimpleNamespace(grid=grid, model=model)
        gen = np.random.default_rng(11)
        want_idx, want = [], []
        for _ in range(2000):
            g = int(gen.choice(len(weights), p=weights))
            want_idx.append(g)
            want.append(grid[g].mode + grid[g].factor.solve_lt(gen.standard_normal(1)))
        draws = np.stack(list(_posterior_draws(res, 2000, np.random.default_rng(11))))
        assert np.array_equal(draws, np.stack(want))
        got_idx = np.rint(draws[:, 0] / 10.0).astype(int)
        assert np.array_equal(got_idx, want_idx)
        assert not np.isin(got_idx, np.flatnonzero(np.array(weights) == 0.0)).any()


def _fit_rw1_free_precision():
    """RW1 with a free precision through exp(f): a multi-point grid and a
    sum-to-zero constraint."""
    rng = np.random.default_rng(4)
    t = np.linspace(0.0, 3.0, 10)
    y = np.exp(0.4 * np.sin(t)) + 0.2 * rng.normal(size=10)
    comp = Component(
        "f", Rw1Model(10, _precision_hyper(initial=1.0, prior=GaussianPrior(0.0, 1.0)))
    )
    block = ObsBlock(
        GaussianFamily(fixed_prec=25.0), y, parse_expr("exp(f)"), {"f": np.arange(1, 11)},
    )
    res = fit(Model([comp], [block]))
    assert res.converged and len(res.grid) > 1
    return res


def _fit_besag_two_islands():
    """Besag with a free precision on a graph of two paths: two sum-to-zero
    constraints and a multi-point grid."""
    rng = np.random.default_rng(6)
    graph = Graph(n=10, edges=tuple((i, i + 1) for i in range(9) if i != 4))
    y = np.sin(np.arange(10.0)) + 0.3 * rng.normal(size=10)
    comp = Component(
        "f", BesagModel(graph, _precision_hyper(initial=1.0, prior=GaussianPrior(0.0, 1.0)))
    )
    block = ObsBlock(
        GaussianFamily(fixed_prec=25.0), y, parse_expr("f"), {"f": np.arange(1, 11)},
    )
    model = Model([comp], [block])
    assert model.constraints.shape == (2, 10)
    res = fit(model)
    assert res.converged and len(res.grid) > 1
    return res


class TestGridPoints:
    def test_grid_factors_keep_no_superlu_object(self):
        res = _fit_rw1_free_precision()
        for point in res.grid:
            assert point.factor._splu is None
            assert point.factor.L.nnz > 0
        draws = generate(res, parse_expr("f_latent"), 5, rng=0)
        assert np.all(np.isfinite(draws))

    def test_summaries_are_computed_once_per_point(self, monkeypatch):
        # one latent_var and one pred_var per outer iteration's mode and
        # per final grid point, each on a factor that one selected-inverse
        # sweep took, in a block of at most one grid line: every final grid
        # point's factor is swept exactly once, and no curvature or
        # below-floor evaluation is finished
        calls = {"latent_var": 0, "pred_var": 0}
        for name in calls:
            original = getattr(engine.GaussResult, name)

            def counted(self, *args, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(engine.GaussResult, name, counted)
        swept, blocks = [], []
        sweep = sparse.CholPlan.selected_inverses

        def counted_sweep(self, factors, slots=()):
            swept.extend(factors)
            blocks.append(len(factors))
            return sweep(self, factors, slots)

        monkeypatch.setattr(sparse.CholPlan, "selected_inverses", counted_sweep)
        res = _fit_rw1_free_precision()
        want = len(res.records) + len(res.grid)
        assert calls == {"latent_var": want, "pred_var": want}
        assert len(swept) == want and max(blocks) <= 21 and len(blocks) < want
        assert all(sum(f is p.factor for f in swept) == 1 for p in res.grid)
        assert all(f._splu is None for f in swept)


def _record_laplace(monkeypatch):
    """Record (theta, lp, GaussResult) for every ``log_posterior_theta`` call."""
    evaluations = []
    real = engine.log_posterior_theta

    def recorded(model, lin, theta, warm=None):
        lp, ga = real(model, lin, theta, warm=warm)
        evaluations.append((np.array(theta), lp, ga))
        return lp, ga

    monkeypatch.setattr(engine, "log_posterior_theta", recorded)
    return evaluations


class TestThetaCache:
    """Every call evaluates and records one lp; the searches hand on
    their mode's evaluation, and few factors are alive at a time."""

    @pytest.mark.parametrize("search", ["_nelder_mead", "_refine_mode"])
    def test_search_returns_its_modes_evaluation(self, monkeypatch, search):
        model = build_joint(0)
        lin = model.linearise(engine._initial_point(model, model.options))
        evaluations = _record_laplace(monkeypatch)
        evals = _ThetaCache(model, lin)
        theta_hat, lp_hat, ga_hat = getattr(engine, search)(evals, model.theta_internal0())
        assert any(ga is ga_hat and lp == lp_hat for theta, lp, ga in evaluations
                   if np.array_equal(theta, theta_hat))
        assert lp_hat == max(evals.cache.values())
        # one float per evaluation, in evaluation order
        assert len(evaluations) > 20
        assert all(isinstance(lp, float) for lp in evals.cache.values())
        assert list(evals.cache.values()) == [lp for _, lp, _ in evaluations]

    def test_few_factors_are_alive_during_a_fit(self, monkeypatch):
        # a GaussResult keeps its SuperLU object; the searches and the grid
        # hold at most three of them when an evaluation starts (measured:
        # three), and the fit none once it returns
        alive, peaks = [], []
        real = engine.log_posterior_theta

        def holding_solvers():
            gc.collect()
            return sum(ga is not None and ga.factor._splu is not None
                       for ga in (ref() for ref in alive))

        def watched(*args, **kwargs):
            peaks.append(holding_solvers())
            lp, ga = real(*args, **kwargs)
            alive.append(weakref.ref(ga))
            return lp, ga

        monkeypatch.setattr(engine, "log_posterior_theta", watched)
        gc.freeze()  # older objects hold no GaussResult; collect only the fit's
        try:
            res = fit(build_joint(0))
        finally:
            gc.unfreeze()
        assert res.converged and len(alive) > 200
        assert max(peaks) <= 3
        assert holding_solvers() == 0


# --- state matrices ------------------------------------------------------------

def _aggregated_model():
    """A Besag field seen directly and through log-sum-exp areas, scaled
    by b1: two blocks, one aggregated, a product predictor."""
    from iterlace.mappers import BlockSpec, LogSumExpMapper

    model = _besag_poisson_model()
    comps = model.components + [Component("b1", FixedEffectsModel.constant())]
    area = np.array([1, 1, 2, 2, 2, 3, 3, 1, 3])
    agg = ObsBlock(PoissonFamily(), np.array([4.0, 7.0, 2.0]), parse_expr("b1 * s"),
                   {"b1": np.ones(9), "s": np.arange(1, 10)},
                   aggregation=(LogSumExpMapper(), BlockSpec(area, np.ones(9), 3)))
    return Model(comps, model.obs + [agg])


def _reference_generate(res, expr, n, seed, inputs=None):
    """generate's values, one expression evaluation per draw."""
    draws = _posterior_draws(res, n, np.random.default_rng(seed))
    return np.stack([
        np.atleast_1d(np.asarray(expr.eval(engine.expr_env(res.model, expr, u, inputs)),
                                 dtype=float))
        for u in draws
    ])


def _per_draw_generate(res, expr, n, seed, inputs=None):
    """generate's values from the per-draw stream, one draw at a time: a
    uniform for the grid point, a standard-normal vector, that draw
    alone, and its expression evaluation."""
    rng = np.random.default_rng(seed)
    cdf = np.cumsum([p.weight for p in res.grid])
    cdf /= cdf[-1]
    rows = []
    for _ in range(n):
        point = res.grid[cdf.searchsorted(rng.random(), "right")]
        z = rng.standard_normal(res.model.n_latent)
        u = engine._draw_block(point.mode, point.factor, point.kriging, z[:, None])[0]
        val = expr.eval(engine.expr_env(res.model, expr, u, inputs))
        rows.append(np.atleast_1d(np.asarray(val, dtype=float)))
    return np.stack(rows)


class TestStateMatrices:
    def test_generate_keeps_the_per_draw_stream(self):
        # c5's seed-0 fit (58 grid points, a constraint) and c2's toy
        rng = np.random.default_rng(20240819)
        y = rng.poisson(rng.exponential(2.0), size=100).astype(float)
        cases = [
            (fit(build_joint(0)), "beta1_latent + exp(alpha0 + xi)", None),
            (fit(toy_model(y)), "lam", {"lam": np.ones(1, dtype=int)}),
        ]
        for res, text, inputs in cases:
            expr = parse_expr(text)
            got = generate(res, expr, 300, rng=3, inputs=inputs)
            want = _per_draw_generate(res, expr, 300, 3, inputs)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_posterior_draws_are_a_matrix(self):
        res = _fit_rw1_free_precision()
        draws = _posterior_draws(res, 7, np.random.default_rng(0))
        assert isinstance(draws, np.ndarray) and draws.shape == (7, 10)
        assert all(np.array_equal(u, draws[s]) for s, u in enumerate(list(draws)))

    def test_eta_and_linearisation_take_state_matrices(self):
        model = _aggregated_model()
        rng = np.random.default_rng(1)
        states = rng.normal(scale=0.5, size=(model.n_latent, 5))
        lin = model.linearise(states[:, 0].copy())
        for f in (model.eta, lin.eval, lambda u: model.eta_block(model.obs[1], u)):
            got = f(states)
            want = np.column_stack([f(states[:, s].copy()) for s in range(5)])
            assert got.shape == want.shape and np.array_equal(got, want)

    @pytest.mark.parametrize("text", ["exp(f)", "2 * f_latent - f", "f_eval(c(1, 3))", "2.5"])
    def test_generate_matches_per_draw_reference(self, text):
        res = _fit_rw1_free_precision()
        expr = parse_expr(text)
        for n, seed in ((1, 0), (250, 4)):
            want = _reference_generate(res, expr, n, seed)
            got = generate(res, expr, n, rng=seed)
            assert got.shape == want.shape and np.array_equal(got, want)

    def test_generate_with_rebound_inputs(self):
        model = gls_model(40)
        x = model.obs[0].inputs["b1"]
        res = fit(model)
        inputs = {"b0": np.ones(3), "b1": x[:3]}
        expr = parse_expr("exp(b0 + b1)")
        assert np.array_equal(generate(res, expr, 60, rng=2, inputs=inputs),
                              _reference_generate(res, expr, 60, 2, inputs))

    def test_column_blocks_do_not_change_generate(self, monkeypatch):
        res = _fit_rw1_free_precision()
        expr = parse_expr("exp(f) + f_latent")
        want = generate(res, expr, 101, rng=6)
        for entries in (1, 45, 200):
            monkeypatch.setattr(engine, "COLUMN_BLOCK", entries)
            assert np.array_equal(generate(res, expr, 101, rng=6), want)

    def test_column_blocks_cover_every_column_once(self, monkeypatch):
        monkeypatch.setattr(engine, "COLUMN_BLOCK", 100)
        blocks = engine._column_blocks(1, 24, per_column=30)  # 3 columns a block
        want = [(a, min(a + 3, 24)) for a in range(1, 24, 3)]
        assert [(b.start, b.stop) for b in blocks] == want
        assert engine._column_blocks(0, 5, per_column=500) == [slice(a, a + 1) for a in range(5)]
        assert engine._column_blocks(3, 3, per_column=1) == []
