"""Calibration harness tests.

The KS statistic is checked against hand-enumerable ECDF cases and
scipy's independent implementation; the replication loop against exact
conjugate posteriors, where the rank of the truth must be uniform by
construction.
"""

import itertools
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy import special, stats

from iterlace import calibration, engine, sparse
from iterlace.calibration import CalibrationError, SbcResult, ks_statistic, sbc_run
from iterlace.engine import Component, Model, ObsBlock
from iterlace.engine import fit as engine_fit
from iterlace.exprs import parse_expr
from iterlace.latents import (
    FixedEffectsModel,
    GaussianPrior,
    IidModel,
    Rw1Model,
    _precision_hyper,
)
from iterlace.likelihoods import GaussianFamily, PoissonFamily
from shared import toy_model

# --- KS statistic ---------------------------------------------------------

class TestKsStatistic:
    def test_single_value(self):
        d, p = ks_statistic([0.5])
        assert abs(d - 0.5) < 1e-15
        assert 0.0 < p <= 1.0

    def test_equispaced_midpoints(self):
        # ECDF through (k - 0.5)/n leaves a uniform gap of 0.5/n
        for n in (10, 25):
            vals = (np.arange(1, n + 1) - 0.5) / n
            d, _ = ks_statistic(vals)
            assert abs(d - 0.5 / n) < 1e-12

    def test_against_scipy(self):
        rng = np.random.default_rng(42)
        vals = rng.uniform(size=1000)
        d, p = ks_statistic(vals)
        ref = stats.kstest(vals, "uniform")
        assert abs(d - ref.statistic) < 1e-12
        # the 100-term series equals the asymptotic Kolmogorov law here
        assert abs(p - special.kolmogorov(np.sqrt(vals.size) * d)) < 1e-10
        assert abs(p - ref.pvalue) < 0.02

    def test_empty_is_an_error(self):
        with pytest.raises(CalibrationError, match="at least one"):
            ks_statistic([])

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.2, np.nan])
    def test_domain_is_open_unit_interval(self, bad):
        with pytest.raises(CalibrationError, match="strictly inside"):
            ks_statistic([0.5, bad])


# --- replication loop with exact conjugate posteriors ----------------------

def conjugate_model():
    """One latent u ~ N(0,1), single observation y | u ~ N(u, 1)."""
    comp = Component("u", IidModel(1, _precision_hyper(initial=1.0, fixed=True)))
    block = ObsBlock(
        GaussianFamily(fixed_prec=1.0),
        np.zeros(1),
        parse_expr("u"),
        {"u": np.array([1])},
    )
    return Model([comp], [block])


def exact_posterior(rng, model_k, J):
    # u | y ~ N(y/2, 1/2) by conjugacy
    y = float(model_k.obs[0].y[0])
    return rng.normal(y / 2.0, np.sqrt(0.5), size=J)


class TestSbcRun:
    def test_h_is_drawn_at_the_first_datum_alone(self, monkeypatch):
        # h = lam is read at the first datum: drawing it there alone gives
        # the result that drawing it at all 100 rows gives
        real = calibration.generate
        seen = []

        def first_datum(res, expr, n, rng, inputs=None):
            out = real(res, expr, n, rng, inputs=inputs)
            seen.append((inputs["lam"].shape, out.shape))
            return out

        monkeypatch.setattr(calibration, "generate", first_datum)
        cut = sbc_run(toy_model(np.zeros(100)), K=3, J=1000, seed=0)
        assert seen == [((1,), (1000, 1))] * 3

        monkeypatch.setattr(
            calibration, "generate",
            lambda res, expr, n, rng, inputs=None: real(res, expr, n, rng),
        )
        full = sbc_run(toy_model(np.zeros(100)), K=3, J=1000, seed=0)
        assert np.array_equal(cut.w_values, full.w_values)
        assert np.array_equal(cut.ranks, full.ranks)
        assert (cut.K, cut.J, cut.failures) == (full.K, full.J, full.failures) == (3, 1000, 0)
        assert cut.ks_statistic == full.ks_statistic
        assert cut.ks_pvalue == full.ks_pvalue

    def test_exact_sampler_passes_ks_on_seed_sweep(self):
        for seed in (1, 5, 13):
            res = sbc_run(
                conjugate_model(), K=200, J=40, seed=seed,
                posterior_sampler=exact_posterior,
            )
            assert res.failures == 0
            assert res.w_values.size == 200
            assert res.ks_pvalue > 0.05

    def test_monotone_functional_keeps_ranks(self):
        # exp() preserves order, so calibration is invariant to it:
        # rank-for-rank the same result as the untransformed functional
        def exp_posterior(rng, model_k, J):
            return np.exp(exact_posterior(rng, model_k, J))

        res = sbc_run(
            conjugate_model(), h=parse_expr("exp(u)"), K=200, J=40, seed=2,
            posterior_sampler=exp_posterior,
        )
        plain = sbc_run(
            conjugate_model(), K=200, J=40, seed=2,
            posterior_sampler=exact_posterior,
        )
        assert np.array_equal(res.ranks, plain.ranks)
        assert res.ks_pvalue > 0.05

    def test_rank_counts_are_uniform(self):
        res = sbc_run(
            conjugate_model(), K=2000, J=8, seed=5,
            posterior_sampler=exact_posterior,
        )
        counts = np.bincount(res.ranks, minlength=9)
        assert counts.sum() == 2000
        expected = 2000 / 9.0
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert stats.chi2.sf(chi2, df=8) > 0.01

    def test_both_draws_below_truth(self):
        res = sbc_run(
            conjugate_model(), K=5, J=2, seed=0,
            posterior_sampler=lambda rng, m, J: np.full(J, -1e9),
        )
        np.testing.assert_allclose(res.w_values, 0.75)
        assert list(res.ranks) == [2] * 5

    def test_zero_rank_is_nudged_inside_the_interval(self):
        res = sbc_run(
            conjugate_model(), K=4, J=10, seed=0,
            posterior_sampler=lambda rng, m, J: np.full(J, 1e9),
        )
        np.testing.assert_allclose(res.w_values, 1.0 / 40.0)
        assert list(res.ranks) == [0] * 4

    def test_w_lattice_and_bounds(self):
        # a sampler that walks m through 0..J checks the whole formula
        state = {"k": 0}

        def sampler(rng, model_k, J):
            m = state["k"]
            state["k"] += 1
            return np.concatenate([np.full(m, -1e9), np.full(J - m, 1e9)])

        J = 4
        res = sbc_run(
            conjugate_model(), K=J + 1, J=J, seed=0, posterior_sampler=sampler
        )
        want = [1 / 16, 1 / 8, 3 / 8, 5 / 8, 7 / 8]
        np.testing.assert_allclose(res.w_values, want, atol=1e-15)
        assert np.all((res.w_values > 0) & (res.w_values < 1))
        assert np.all(res.w_values > -1.0 / (2 * J) + 1e-15)

    def test_replicates_share_the_template_precision_plan(self, monkeypatch):
        # a replicate is the template with its responses swapped
        # (Model.with_responses): it keeps the template's Q pattern and
        # plan, so no CholPlan is built for Q after the first replicate's
        # prior draw; and the replicates share one Q* pattern, so the whole
        # run builds one _QStarPattern, one ordering for Q*
        # (CholPlan._analyse) and one _InverseSchedule; the results are
        # those of a fresh Model per replicate, bit for bit
        rng = np.random.default_rng(5)
        idx = np.repeat(np.arange(1, 6), 3)
        hyper = _precision_hyper(initial=1.0, prior=GaussianPrior(0.0, 1.0))
        model = Model([Component("u", Rw1Model(5, hyper))],
                      [ObsBlock(GaussianFamily(fixed_prec=4.0), rng.normal(size=15),
                                parse_expr("u"), {"u": idx})])
        fits, q_plans, in_precision = [0], [], []
        real_fit, real_plan, real_precision = calibration.fit, engine.CholPlan, Model.precision
        built = Counter()

        def counted_fit(m):
            fits[0] += 1
            return real_fit(m)

        def precision(self, comp_vals):
            in_precision.append(True)
            try:
                return real_precision(self, comp_vals)
            finally:
                in_precision.pop()

        def plan(*args):
            if in_precision:
                q_plans.append(fits[0])
            return real_plan(*args)

        def counted(owner, attr, key):
            real = getattr(owner, attr)

            def wrapper(*args):
                built[key] += 1
                return real(*args)

            monkeypatch.setattr(owner, attr, wrapper)

        monkeypatch.setattr(calibration, "fit", counted_fit)
        monkeypatch.setattr(Model, "precision", precision)
        monkeypatch.setattr(engine, "CholPlan", plan)
        counted(engine._QStarPattern, "__init__", "pattern")
        counted(real_plan, "_analyse", "ordering")
        counted(sparse._InverseSchedule, "__init__", "schedule")
        shared = sbc_run(model, h=parse_expr("u_latent"), K=4, J=30, seed=2)
        assert fits[0] == 4 and q_plans == [0]  # the template's, at replicate 0's prior draw
        # orderings: Q's, the RW1 structure's (its prior terms) and Q*'s
        assert built == Counter(pattern=1, ordering=3, schedule=1)
        toy = toy_model(np.zeros(100))
        built.clear()
        toy_shared = sbc_run(toy, K=10, J=50)
        assert built == Counter(pattern=1, ordering=2, schedule=1)  # Q's and Q*'s orderings

        def fresh(self, ys):
            return Model(self.components, [
                ObsBlock(b.family, y, b.formula, b.inputs, b.aggregation)
                for b, y in zip(self.obs, ys)
            ], self.options)

        monkeypatch.setattr(Model, "with_responses", fresh)
        q_plans.clear()
        alone = sbc_run(model, h=parse_expr("u_latent"), K=4, J=30, seed=2)
        assert len(q_plans) == 4  # one per replicate's fit, as before
        assert np.array_equal(shared.w_values, alone.w_values)
        assert np.array_equal(shared.ranks, alone.ranks)
        built.clear()
        toy_alone = sbc_run(toy, K=10, J=50)
        assert built == Counter(pattern=10, ordering=10, schedule=10)
        assert np.array_equal(toy_shared.w_values, toy_alone.w_values)
        assert np.array_equal(toy_shared.ranks, toy_alone.ranks)

    def test_real_fits_end_to_end(self):
        rng = np.random.default_rng(0)
        n = 20
        x = rng.normal(size=n)
        fam = GaussianFamily(
            prec_hyper=_precision_hyper(
                initial=1.0, prior=GaussianPrior(0.0, 2.0)
            )
        )
        comps = [
            Component("b0", FixedEffectsModel.constant()),
            Component("b1", FixedEffectsModel.linear()),
        ]
        block = ObsBlock(fam, np.zeros(n), parse_expr("b0 + b1"),
                         {"b0": np.ones(n), "b1": x})
        model = Model(comps, [block])
        res = sbc_run(model, h=parse_expr("b1_latent"), K=12, J=50, seed=3)
        assert isinstance(res, SbcResult)
        assert res.failures == 0
        assert res.w_values.size == 12
        assert np.all((res.w_values > 0) & (res.w_values < 1))
        assert res.K == 12 and res.J == 50

    def test_constrained_prior_draws_end_to_end(self):
        # RW1 with a free precision: the prior draw goes through the
        # sum-to-zero projection before data are simulated
        comp = Component(
            "f", Rw1Model(6, _precision_hyper(initial=1.0, prior=GaussianPrior(0.0, 1.0)))
        )
        block = ObsBlock(GaussianFamily(fixed_prec=4.0), np.zeros(6), parse_expr("f"),
                         {"f": np.arange(1, 7)})
        model = Model([comp], [block])
        first = sbc_run(model, K=4, J=20, seed=5)
        second = sbc_run(model, K=4, J=20, seed=5)
        assert first.failures == 0
        assert first.w_values.size == 4
        assert np.array_equal(first.w_values, second.w_values)
        assert np.array_equal(first.ranks, second.ranks)

    def test_too_many_fit_failures_abort(self):
        # one iteration can never satisfy the convergence check, so
        # every replicate fails and the run aborts early
        comp = Component("v", IidModel(1, _precision_hyper(initial=1.0, fixed=True)))
        block = ObsBlock(
            GaussianFamily(fixed_prec=4.0),
            np.zeros(8),
            parse_expr("exp(v)"),
            {"v": np.ones(8, dtype=int)},
        )
        model = Model([comp], [block], options={"bru_max_iter": 1})
        with pytest.raises(CalibrationError, match="fits failed"):
            sbc_run(model, K=5, J=10, seed=1)

    @staticmethod
    def _failing_fits(monkeypatch, raise_at, unconverged_at):
        """``calibration.fit`` that raises on one call and returns a fit
        marked not converged on another; calls are made in replicate order."""
        calls = itertools.count()

        def fit(model):
            k = next(calls)
            if k == raise_at:
                raise ValueError("simulated failure")
            res = engine_fit(model)
            return replace(res, converged=False) if k == unconverged_at else res

        monkeypatch.setattr(calibration, "fit", fit)

    def test_failure_reasons_are_recorded(self, monkeypatch):
        self._failing_fits(monkeypatch, raise_at=3, unconverged_at=7)
        res = sbc_run(conjugate_model(), K=20, J=10, seed=2)
        assert res.failures == 2
        assert res.failure_reasons == [
            (3, "ValueError", "simulated failure"),
            (7, "EngineError", "fit did not converge"),
        ]
        assert res.w_values.size == res.ranks.size == 18

    def test_abort_names_every_reason(self, monkeypatch):
        self._failing_fits(monkeypatch, raise_at=0, unconverged_at=1)
        with pytest.raises(CalibrationError) as info:
            sbc_run(conjugate_model(), K=10, J=10, seed=2)
        msg = str(info.value)
        assert "2 of 10 replicate fits failed" in msg
        assert "replicate 0: ValueError: simulated failure" in msg
        assert "replicate 1: EngineError: fit did not converge" in msg

    def test_failed_response_draw_names_its_replicate(self):
        # an intercept under the default wide prior (precision 0.001): a
        # prior draw near +44 gives a Poisson rate that numpy refuses, at
        # replicates 2, 11 and 14 of seed 0; the failure is a dropped
        # replicate with its reason, not a bare ValueError
        comp = Component("b0", FixedEffectsModel.constant())
        block = ObsBlock(PoissonFamily(), np.zeros(5), parse_expr("b0"),
                         {"b0": np.ones(5)})
        model = Model([comp], [block])

        def sampler(rng, model_k, J):
            return rng.standard_normal(J)

        reason = "prior-predictive response draw: lam value too large"
        res = sbc_run(model, K=10, J=10, seed=0, posterior_sampler=sampler)
        assert res.failure_reasons == [(2, "ValueError", reason)]
        assert res.failures == 1 and res.w_values.size == res.ranks.size == 9
        with pytest.raises(CalibrationError) as info:
            sbc_run(model, K=20, J=10, seed=0, posterior_sampler=sampler)
        msg = str(info.value)
        assert "3 of 20 replicates failed (0 fits, 3 prior-predictive response draws)" in msg
        for k in (2, 11, 14):
            assert f"replicate {k}: ValueError: {reason}" in msg

    def test_successful_run_records_no_reasons(self):
        res = sbc_run(conjugate_model(), K=5, J=10, seed=2)
        assert res.failures == 0 and res.failure_reasons == []

    def test_seed_reproducibility(self):
        a = sbc_run(conjugate_model(), K=20, J=16, seed=9,
                    posterior_sampler=exact_posterior)
        b = sbc_run(conjugate_model(), K=20, J=16, seed=9,
                    posterior_sampler=exact_posterior)
        c = sbc_run(conjugate_model(), K=20, J=16, seed=10,
                    posterior_sampler=exact_posterior)
        assert np.array_equal(a.w_values, b.w_values)
        assert not np.array_equal(a.w_values, c.w_values)

    def test_n_data_must_match_the_template(self):
        with pytest.raises(CalibrationError, match="n_data"):
            sbc_run(conjugate_model(), K=2, J=2, n_data=5,
                    posterior_sampler=exact_posterior)
        res = sbc_run(conjugate_model(), K=2, J=2, n_data=1,
                      posterior_sampler=exact_posterior)
        assert res.w_values.size == 2

    def test_unknown_functional_component(self):
        with pytest.raises(CalibrationError, match="unknown component"):
            sbc_run(conjugate_model(), h=parse_expr("nope"), K=2, J=2,
                    posterior_sampler=exact_posterior)

    def test_counts_must_be_positive(self):
        with pytest.raises(CalibrationError, match="positive"):
            sbc_run(conjugate_model(), K=0, J=2)
