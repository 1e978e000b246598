"""Diagnostics tests.

KL values are checked against hand-computed one-dimensional Gaussian
divergences, curvature matrices against analytic Hessians of the test
predictors, and the sampling deviation against closed-form Gaussian
moments -- never against the module under test.
"""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from iterlace.diagnostics import (
    DiagnosticsError,
    correction_matrix,
    kl_divergences,
    linearisation_deviation,
)
from iterlace.engine import (
    Component,
    FitResult,
    Linearisation,
    Model,
    ObsBlock,
    ThetaPoint,
    fit,
)
from iterlace.exprs import parse_expr
from iterlace.latents import FixedEffectsModel, IidModel, _precision_hyper
from iterlace.likelihoods import GaussianFamily, PoissonFamily
from iterlace.mappers import (
    BlockSpec,
    ExponentialQuantile,
    IndexMapper,
    LogSumExpMapper,
    MarginalMapper,
)
from iterlace.sparse import SparseSym, chol

# KL(N(0, 1/2) || N(0, 1/1.5)) and its reverse, from the closed form
# 0.5 * (log(v1/v0) + v0/v1 - 1); the fixture below is built so the
# linearised precision is 2 and the corrected one 2 - 0.5 = 1.5.
KL_LIN_TO_NONLIN = 0.01884103622589045
KL_NONLIN_TO_LIN = 0.0228256304407762


def gauss_kl(m0, v0, m1, v1):
    """KL(N(m0, v0) || N(m1, v1)) for scalars, the textbook way."""
    return 0.5 * (np.log(v1 / v0) + (v0 + (m0 - m1) ** 2) / v1 - 1.0)


def curvature_fixture(curv, sigma2=None):
    """Hand-assembled single-latent fit with predictor v + curv * v^2.

    Anchored at u0 = 0 with unit Jacobian, observation y = 1 under a
    unit-precision Gaussian and a unit-precision prior: the linearised
    precision is 2, the likelihood gradient at the anchor is 1, and the
    predictor Hessian is 2 * curv.
    """
    comp = Component("v", IidModel(1, _precision_hyper(initial=1.0, fixed=True)))
    block = ObsBlock(
        GaussianFamily(fixed_prec=1.0),
        np.array([1.0]),
        parse_expr(f"v + {curv}*v*v"),
        {"v": np.array([1])},
    )
    model = Model([comp], [block])
    lin = Linearisation(
        u0=np.zeros(1),
        B=sp.csr_matrix(np.array([[1.0]])),
        delta=np.zeros(1),
        block_slices=[slice(0, 1)],
    )
    point = ThetaPoint(
        theta=np.array([]),
        log_post=0.0,
        weight=1.0,
        mode=np.zeros(1),
        factor=chol(SparseSym(sp.csc_matrix(np.array([[2.0]])))),
        latent_var=np.array([0.5]),
        pred_mean=np.zeros(1),
        pred_var=np.array([0.5]),
    )
    return FitResult(
        model=model,
        grid=[point],
        linearisation=lin,
        converged=True,
        records=[],
        theta_names=[],
        latent_mean=np.zeros(1),
        latent_sd=np.array([np.sqrt(0.5)]),
        predictor_sigma2=np.array([0.5]) if sigma2 is None else sigma2,
        hyper_summary=[],
        log_lines=[],
    )


def make_gls(formula="b0 + b1", seed=0, tau=2.0, n=25):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    y = 0.5 + 1.5 * x + rng.normal(size=n) / np.sqrt(tau)
    comps = [
        Component("b0", FixedEffectsModel.constant()),
        Component("b1", FixedEffectsModel.linear()),
    ]
    block = ObsBlock(
        family=GaussianFamily(fixed_prec=tau),
        y=y,
        formula=parse_expr(formula),
        inputs={"b0": np.ones(n), "b1": x},
    )
    return Model(comps, [block])


def make_toy(n=30, rate=0.5, seed=7):
    rng = np.random.default_rng(seed)
    y = rng.poisson(1.7, size=n)
    comp = Component(
        "lam",
        IidModel(1, _precision_hyper(initial=1.0, fixed=True)),
        mapper=MarginalMapper(ExponentialQuantile(rate), inner=IndexMapper(1)),
    )
    block = ObsBlock(
        family=PoissonFamily(),
        y=y,
        formula=parse_expr("log(lam)"),
        inputs={"lam": np.ones(n, dtype=int)},
    )
    return Model([comp], [block])


# --- KL comparison -------------------------------------------------------

class TestKlDivergences:
    def test_hand_case(self):
        rep = kl_divergences(curvature_fixture(0.25))
        assert abs(rep.kl_lin_to_nonlin - KL_LIN_TO_NONLIN) < 1e-8
        assert abs(rep.kl_nonlin_to_lin - KL_NONLIN_TO_LIN) < 1e-8
        assert abs(rep.g_matrix_norm - 0.5) < 1e-9

    def test_hand_case_against_scalar_formula(self):
        # same numbers via the one-dimensional closed form
        rep = kl_divergences(curvature_fixture(0.25))
        assert abs(rep.kl_lin_to_nonlin - gauss_kl(0, 0.5, 0, 1 / 1.5)) < 1e-10
        assert abs(rep.kl_nonlin_to_lin - gauss_kl(0, 1 / 1.5, 0, 0.5)) < 1e-10

    def test_strong_curvature_is_rejected(self):
        # 2 * curv = 5 exceeds the linearised precision 2
        with pytest.raises(DiagnosticsError, match="nonlinearity too strong"):
            kl_divergences(curvature_fixture(2.5))

    def test_linear_fit_has_negligible_divergence(self):
        rep = kl_divergences(fit(make_gls()))
        assert abs(rep.kl_lin_to_nonlin) <= 1e-12
        assert abs(rep.kl_nonlin_to_lin) <= 1e-12
        assert rep.g_matrix_norm <= 1e-6

    def test_domain_exit_names_the_latent(self):
        # log(b) at b of about 5e-4: the steps b -+ FD_STEP leave log's
        # domain, so the correction matrix is not finite
        rng = np.random.default_rng(0)
        y = np.log(5e-4) + 0.1 * rng.normal(size=50)
        block = ObsBlock(GaussianFamily(fixed_prec=100.0), y, parse_expr("log(b)"),
                         {"b": np.ones(50)})
        model = Model([Component("b", FixedEffectsModel.constant())], [block],
                      options={"bru_initial": {"b": 1e-3}})
        res = fit(model)
        assert res.converged
        with pytest.raises(DiagnosticsError, match=r"correction matrix is not finite at latent b\[0\]"):
            correction_matrix(res)
        with pytest.raises(DiagnosticsError, match="not finite"):
            kl_divergences(res)

    def test_nonlinear_fit_invariants(self):
        rep = kl_divergences(fit(make_toy()))
        assert rep.kl_lin_to_nonlin >= -1e-12
        assert rep.kl_nonlin_to_lin >= -1e-12
        assert rep.g_matrix_norm > 0


# --- curvature matrix vs analytic Hessians --------------------------------

class TestCorrectionMatrix:
    def test_exponential_predictor(self):
        # eta_i = exp(v_{c(i)}): G is diagonal with entries
        # exp(u0_j) * sum of likelihood gradients mapped to j
        tau = 2.0
        rng = np.random.default_rng(5)
        idx = np.tile(np.arange(1, 4), 4)
        y = np.exp([0.2, 0.6, -0.3])[idx - 1] + rng.normal(size=idx.size) / np.sqrt(tau)
        comp = Component("v", IidModel(3, _precision_hyper(initial=1.0, fixed=True)))
        block = ObsBlock(GaussianFamily(fixed_prec=tau), y, parse_expr("exp(v)"), {"v": idx})
        model = Model([comp], [block])
        res = fit(model, {"rel_tol": 1e-6, "bru_max_iter": 30})

        u0 = res.linearisation.u0
        g_star = tau * (y - np.exp(u0[idx - 1]))
        want = np.zeros((3, 3))
        for j in range(3):
            want[j, j] = g_star[idx - 1 == j].sum() * np.exp(u0[j])
        got = correction_matrix(res).toarray()
        assert np.linalg.norm(got - want) <= 1e-4 * np.linalg.norm(want)

    def test_product_predictor(self):
        # eta_i = (x_i a)(z_i b): the only curvature is the cross term
        # sum_i g_i x_i z_i
        tau = 4.0
        rng = np.random.default_rng(9)
        n = 30
        x, z = rng.normal(size=n), rng.normal(size=n)
        y = (1.3 * x) * (0.7 * z) + rng.normal(size=n) / np.sqrt(tau)
        comps = [
            Component("a", FixedEffectsModel.linear()),
            Component("b", FixedEffectsModel.linear()),
        ]
        block = ObsBlock(
            GaussianFamily(fixed_prec=tau), y, parse_expr("a * b"), {"a": x, "b": z}
        )
        model = Model(comps, [block])
        res = fit(
            model,
            {
                "rel_tol": 1e-6,
                "bru_max_iter": 40,
                "bru_initial": {"a": 1.0, "b": 1.0},
            },
        )

        a0, b0 = res.linearisation.u0
        g_star = tau * (y - (x * a0) * (z * b0))
        cross = float(g_star @ (x * z))
        want = np.array([[0.0, cross], [cross, 0.0]])
        got = correction_matrix(res).toarray()
        assert np.linalg.norm(got - want) <= 1e-4 * np.linalg.norm(want)

    def test_log_sum_exp_predictor(self):
        # aggregated rows: H is diag(p) - p p^T on each block's softmax
        tau = 4.0
        rng = np.random.default_rng(3)
        blocks = np.array([1, 1, 1, 2, 2, 2])
        w = np.array([0.5, 1.0, 1.5, 2.0, 0.3, 0.7])
        v_true = rng.normal(scale=0.4, size=6)
        eta_true = [
            np.log(np.sum(w[blocks == a + 1] * np.exp(v_true[blocks == a + 1])))
            for a in range(2)
        ]
        y = np.array(eta_true) + rng.normal(size=2) / np.sqrt(tau)
        comp = Component("v", IidModel(6, _precision_hyper(initial=1.0, fixed=True)))
        spec = BlockSpec(block=blocks, weights=w, n_block=2)
        block = ObsBlock(
            GaussianFamily(fixed_prec=tau),
            y,
            parse_expr("v"),
            {"v": np.arange(1, 7)},
            aggregation=(LogSumExpMapper(), spec),
        )
        model = Model([comp], [block])
        res = fit(model, {"rel_tol": 1e-6, "bru_max_iter": 40})

        u0 = res.linearisation.u0
        g_star = tau * (y - res.model.eta(u0))
        want = np.zeros((6, 6))
        for a in range(2):
            mem = np.flatnonzero(blocks == a + 1)
            t = u0[mem] + np.log(w[mem])
            p = np.exp(t - t.max())
            p /= p.sum()
            want[np.ix_(mem, mem)] += g_star[a] * (np.diag(p) - np.outer(p, p))
        got = correction_matrix(res).toarray()
        assert np.linalg.norm(got - want) <= 1e-4 * np.linalg.norm(want)


# --- sampling deviation ----------------------------------------------------

def one_latent_exp_fit(n=40, tau=4.0, seed=11):
    rng = np.random.default_rng(seed)
    y = np.exp(0.4) + rng.normal(size=n) / np.sqrt(tau)
    comp = Component("v", IidModel(1, _precision_hyper(initial=1.0, fixed=True)))
    block = ObsBlock(
        GaussianFamily(fixed_prec=tau), y, parse_expr("exp(v)"), {"v": np.ones(n, dtype=int)}
    )
    model = Model([comp], [block])
    return fit(model, {"rel_tol": 1e-8, "bru_max_iter": 50})


class TestLinearisationDeviation:
    def test_linear_model_is_numerically_exact(self):
        # additive formula, linear mappers: the linearisation is the
        # predictor, so only float roundoff survives
        res = fit(make_gls(formula=None))
        assert linearisation_deviation(res, 400, seed=3) <= 1e-20

    def test_exponential_against_closed_form_moments(self):
        # with one latent, E[(delta + b u - e^u)^2] under N(mu, s2) has
        # closed-form pieces: E e^u, E e^{2u} and E u e^u are lognormal
        # moments
        res = one_latent_exp_fit()
        bcol = res.linearisation.B.toarray()[:, 0]
        delta = res.linearisation.delta
        want_rows = np.zeros(delta.size)
        for p in res.grid:
            mu, s2 = p.mode[0], p.latent_var[0]
            e_u, e_u2 = mu, mu * mu + s2
            e_exp = np.exp(mu + s2 / 2)
            e_exp2 = np.exp(2 * mu + 2 * s2)
            e_uexp = (mu + s2) * e_exp
            want_rows += p.weight * (
                delta**2
                + bcol**2 * e_u2
                + e_exp2
                + 2 * delta * bcol * e_u
                - 2 * delta * e_exp
                - 2 * bcol * e_uexp
            )
        want = float(np.sum(want_rows / res.predictor_sigma2))
        got = linearisation_deviation(res, 50_000, seed=21)
        assert abs(got - want) <= 0.05 * want

    def test_doubling_sample_size_is_stable(self):
        res = one_latent_exp_fit()
        reps = [linearisation_deviation(res, 2000, seed=s) for s in range(100, 112)]
        sd = float(np.std(reps, ddof=1))
        e1 = linearisation_deviation(res, 2000, seed=1)
        e2 = linearisation_deviation(res, 4000, seed=2)
        assert abs(e1 - e2) <= 3.0 * sd * np.sqrt(1.5)

    def test_same_seed_reproduces(self):
        res = one_latent_exp_fit(n=10)
        a = linearisation_deviation(res, 300, seed=4)
        assert a == linearisation_deviation(res, 300, seed=4)
        assert a != linearisation_deviation(res, 300, seed=5)

    def test_zero_variance_row_is_an_error(self):
        broken = dataclasses.replace(
            curvature_fixture(0.25), predictor_sigma2=np.zeros(1)
        )
        with pytest.raises(DiagnosticsError, match="zero predictor variance"):
            linearisation_deviation(broken, 10, seed=0)

    def test_sample_count_must_be_positive(self):
        with pytest.raises(DiagnosticsError, match="positive"):
            linearisation_deviation(curvature_fixture(0.25), 0, seed=0)


# --- batched evaluation against a state-by-state reference ------------------

def product_fit(free_precision=False):
    """b0 * exp(v) with v iid on 4 cells, three rows a cell: every pair
    (b0, v_j) couples, and no aggregation."""
    from iterlace.latents import GaussianPrior

    rng = np.random.default_rng(2)
    idx = np.tile(np.arange(1, 5), 3)
    y = 1.5 * np.exp(np.array([0.3, -0.2, 0.5, 0.0]))[idx - 1] + 0.3 * rng.normal(size=idx.size)
    hyper = (_precision_hyper(initial=2.0, prior=GaussianPrior(0.0, 1.0)) if free_precision
             else _precision_hyper(initial=2.0, fixed=True))
    comps = [Component("b0", FixedEffectsModel.constant()), Component("v", IidModel(4, hyper))]
    block = ObsBlock(GaussianFamily(fixed_prec=10.0), y, parse_expr("b0 * exp(v)"),
                     {"b0": np.ones(idx.size), "v": idx})
    res = fit(Model(comps, [block]), {"bru_initial": {"b0": 1.0}, "bru_max_iter": 40})
    assert res.converged
    return res


def reference_correction_matrix(fit_result):
    """G with one predictor evaluation per perturbed state."""
    from iterlace.diagnostics import FD_STEP, _interaction_pairs
    from iterlace.engine import _mode_point, _obs_grad_hess

    model, lin = fit_result.model, fit_result.linearisation
    _, obs_vals = model.natural_values(_mode_point(fit_result.grid).theta)
    g_star, _ = _obs_grad_hess(model, lin, lin.u0, obs_vals)
    u0, d, h = lin.u0, lin.u0.size, FD_STEP

    def psi(u):
        return float(g_star @ model.eta(u))

    psi0 = psi(u0)
    rows, cols, vals = [], [], []
    for j, k in _interaction_pairs(lin):
        ej = np.zeros(d)
        ej[j] = h
        if j == k:
            rows.append(j)
            cols.append(j)
            vals.append((psi(u0 + ej) - 2.0 * psi0 + psi(u0 - ej)) / h**2)
        else:
            ek = np.zeros(d)
            ek[k] = h
            val = (psi(u0 + ej + ek) - psi(u0 + ej - ek) - psi(u0 - ej + ek)
                   + psi(u0 - ej - ek)) / (4.0 * h**2)
            rows.extend([j, k])
            cols.extend([k, j])
            vals.extend([val, val])
    return sp.coo_matrix((vals, (rows, cols)), shape=(d, d)).tocsr()


def reference_deviation(fit_result, n, seed):
    from iterlace.engine import _posterior_draws

    model, lin = fit_result.model, fit_result.linearisation
    acc = np.zeros(lin.delta.size)
    for u in _posterior_draws(fit_result, n, np.random.default_rng(seed)):
        gap = lin.eval(u) - model.eta(u)
        acc += gap * gap
    return float(np.sum(acc / (n * np.asarray(fit_result.predictor_sigma2))))


class TestBatchedAgainstPerState:
    @pytest.mark.parametrize("make", [product_fit, lambda: fit(make_toy()),
                                      lambda: curvature_fixture(0.25)])
    def test_correction_matrix_and_kl_are_bit_identical(self, make, monkeypatch):
        from iterlace import diagnostics

        res = make()
        got, want = correction_matrix(res), reference_correction_matrix(res)
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)
        kl = kl_divergences(res)
        monkeypatch.setattr(diagnostics, "correction_matrix", reference_correction_matrix)
        assert kl == kl_divergences(res)

    @pytest.mark.parametrize("make", [lambda: product_fit(free_precision=True),
                                      lambda: fit(make_toy()),
                                      lambda: curvature_fixture(0.25)])
    def test_deviation_is_bit_identical(self, make):
        # curvature_fixture has one predictor row
        res = make()
        for n, seed in ((1, 0), (37, 3), (400, 8)):
            assert linearisation_deviation(res, n, seed=seed) == reference_deviation(res, n, seed)

    def test_column_blocks_do_not_change_results(self, monkeypatch):
        from iterlace import engine

        res = product_fit(free_precision=True)
        want = (correction_matrix(res).toarray(), linearisation_deviation(res, 90, seed=1))
        for entries in (1, 40, 100):  # one column a block, then a few
            monkeypatch.setattr(engine, "COLUMN_BLOCK", entries)
            got = (correction_matrix(res).toarray(), linearisation_deviation(res, 90, seed=1))
            assert np.array_equal(got[0], want[0])
            assert got[1] == want[1]


# --- KL against dense linear algebra ----------------------------------------

def dense_kl(fit_result):
    """Both KL divergences from dense Q-bar, G and Q-tilde, by the textbook
    formula 0.5 (tr(Q1 Q0^-1) - d + delta' Q1 delta + log|Q0| - log|Q1|)
    for KL(N(m0, Q0^-1) || N(m1, Q1^-1))."""
    from iterlace.engine import _mode_point, _obs_grad_hess

    model, lin = fit_result.model, fit_result.linearisation
    point = _mode_point(fit_result.grid)
    comp_vals, obs_vals = model.natural_values(point.theta)
    _, h = _obs_grad_hess(model, lin, point.mode, obs_vals)
    bmat = lin.B.toarray()
    q_bar = model.precision(comp_vals).to_dense() - bmat.T @ np.diag(h) @ bmat
    g = correction_matrix(fit_result).toarray()
    q_tilde = q_bar - g
    m_tilde = np.linalg.solve(q_tilde, q_bar @ point.mode - g @ lin.u0)
    delta = m_tilde - point.mode
    d = delta.size

    def kl(q0, q1):
        return 0.5 * (np.trace(q1 @ np.linalg.inv(q0)) - d + delta @ q1 @ delta
                      + np.linalg.slogdet(q0)[1] - np.linalg.slogdet(q1)[1])

    return kl(q_bar, q_tilde), kl(q_tilde, q_bar), g


def product_fit_off_pattern():
    """``product_fit`` relinearised where b0 = 0: there b0 * exp(v) has no
    slope in v, so B stores those slopes as zeros and Q-bar = Q* stores
    its (b0, v_j) entries as zeros, while G has non-zero values there.
    The responses are scaled down tenfold, which keeps the likelihood
    gradient at the anchor, and with it G, small enough for the corrected
    precision to stay positive definite."""
    res = product_fit()
    res.model.obs[0].y = 0.1 * res.model.obs[0].y
    u0 = res.linearisation.u0.copy()
    u0[res.model.slice_of("b0")] = 0.0
    lin = res.model.linearise(u0)
    grid = [dataclasses.replace(pt, mode=u0) for pt in res.grid]
    return dataclasses.replace(res, linearisation=lin, grid=grid)


def test_product_b_pattern_is_the_same_where_b0_is_zero():
    # at b0 = 0 the slopes in v vanish, and B stores them as zeros
    res = product_fit()
    lin = res.linearisation
    u0 = lin.u0.copy()
    u0[res.model.slice_of("b0")] = 0.0
    off = res.model.linearise(u0)
    assert np.array_equal(off.B.indptr, lin.B.indptr)
    assert np.array_equal(off.B.indices, lin.B.indices)
    assert (off.B.toarray()[:, 1:] == 0.0).all() and (lin.B.data != 0.0).all()
    assert off._qstar is lin._qstar


def test_g_outside_q_bar_pattern_names_both_latents(monkeypatch):
    # Q-bar of product_fit couples b0 with each v_j but no two v's, so a G
    # entry at (v_0, v_1) has no place in Q-tilde's data
    from iterlace import diagnostics

    res = product_fit()
    exact = diagnostics.correction_matrix

    def off_pattern(fit_result):
        g = exact(fit_result).tolil()
        g[1, 2] = g[2, 1] = 1e-3
        return g.tocsr()

    monkeypatch.setattr(diagnostics, "correction_matrix", off_pattern)
    with pytest.raises(DiagnosticsError,
                       match=r"at latents v\[0\] and v\[1\], outside the linearised"):
        kl_divergences(res)


class TestKlAgainstDense:
    @pytest.mark.parametrize("make", [product_fit, product_fit_off_pattern])
    def test_matches_dense_inverse_and_log_determinants(self, make):
        res = make()
        rep = kl_divergences(res)
        want_lin, want_nonlin, g = dense_kl(res)
        assert rep.kl_lin_to_nonlin > 1e-6 and rep.kl_nonlin_to_lin > 1e-6
        # the log-determinants and the trace are O(1) and cancel to the
        # KL, so round-off is absolute at that scale
        assert abs(rep.kl_lin_to_nonlin - want_lin) <= 1e-10 * max(1.0, want_lin)
        assert abs(rep.kl_nonlin_to_lin - want_nonlin) <= 1e-10 * max(1.0, want_nonlin)
        assert rep.g_matrix_norm == pytest.approx(np.linalg.norm(g), rel=1e-12)

    @pytest.mark.parametrize("make", [product_fit, product_fit_off_pattern])
    def test_g_lies_in_q_bar_pattern(self, make):
        from iterlace.diagnostics import _interaction_pairs
        from iterlace.engine import _mode_point

        res = make()
        lin = res.linearisation
        comp_vals, _ = res.model.natural_values(_mode_point(res.grid).theta)
        q_bar = lin.qstar(res.model.precision(comp_vals), np.ones(lin.delta.size))
        stored, g = q_bar.csc.tocoo(), correction_matrix(res).tocoo()
        assert set(zip(g.row, g.col)) <= set(zip(stored.row, stored.col))
        pairs = set(map(tuple, _interaction_pairs(lin).tolist()))
        assert (0, 1) in pairs and (1, 1) in pairs
        if make is product_fit_off_pattern:
            # b0 = 0: Q-bar's (b0, v_j) entries are stored zeros, G's are not
            assert (q_bar.to_dense()[0, 1:] == 0.0).all()
            assert (g.toarray()[0, 1:] != 0.0).all()

    @pytest.mark.parametrize("make", [product_fit, product_fit_off_pattern])
    def test_no_ordering_and_no_linearisation(self, make, monkeypatch):
        from iterlace.sparse import CholPlan

        res = make()
        calls = {"order": 0, "linearise": 0}

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(CholPlan, "_analyse", counted("order", CholPlan._analyse))
        monkeypatch.setattr(Model, "linearise", counted("linearise", Model.linearise))
        kl_divergences(res)
        assert calls == {"order": 0, "linearise": 0}

    def test_one_qstar_and_one_solve(self, monkeypatch):
        from iterlace.sparse import CholFactor

        res = product_fit()
        calls = {"qstar": 0, "solve": 0}

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(Linearisation, "qstar", counted("qstar", Linearisation.qstar))
        monkeypatch.setattr(CholFactor, "solve", counted("solve", CholFactor.solve))
        kl_divergences(res)
        assert calls == {"qstar": 1, "solve": 1}
