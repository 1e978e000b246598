"""Latent component tests: graphs, priors, transforms, precisions."""

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose
from scipy import stats

from iterlace.latents import (
    Ar1Model,
    BesagModel,
    BymIndexMapper,
    BymModel,
    FixedEffectsModel,
    GaussianPrior,
    Graph,
    IidModel,
    INTRINSIC_RIDGE,
    LatentModel,
    LogGammaPrior,
    LogitPm1Transform,
    LogTransform,
    Rw1Model,
    read_graph,
)
from iterlace.mappers import IndexMapper
from iterlace.sparse import SparseSym, chol


class TestGraph:
    def test_degrees_and_structure(self):
        g = Graph(n=4, edges=((0, 1), (1, 2), (2, 3)))
        assert_allclose(g.degrees(), [1, 2, 2, 1])
        want = np.array(
            [[1, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 1]],
            dtype=float,
        )
        assert_allclose(g.structure().toarray(), want)

    def test_structure_is_a_fresh_copy(self):
        g = Graph(n=4, edges=((0, 1), (1, 2), (2, 3)))
        first = g.structure()
        want = first.toarray()
        first.data[:] = 7.0
        first.indices[:] = 0
        second = g.structure()
        assert_allclose(second.toarray(), want)
        assert second is not first and second.data is not first.data

    def test_structure_of_an_edgeless_graph(self):
        assert_allclose(Graph(n=3, edges=()).structure().toarray(), np.zeros((3, 3)))

    def test_components(self):
        g = Graph(n=5, edges=((0, 1), (3, 4)))
        comps = g.components()
        assert [list(c) for c in comps] == [[0, 1], [2], [3, 4]]

    def test_validation(self):
        with pytest.raises(ValueError, match="self-loop at node 2"):
            Graph(n=3, edges=((1, 1),))
        with pytest.raises(ValueError, match="duplicate edge"):
            Graph(n=3, edges=((0, 1), (1, 0)))
        with pytest.raises(ValueError, match="out of range"):
            Graph(n=3, edges=((0, 3),))

    def test_read_graph(self, tmp_path):
        path = tmp_path / "map.graph"
        path.write_text("n 4\n1 2\n2 3\n3 4\n")
        g = read_graph(path)
        assert g.n == 4
        assert g.edges == ((0, 1), (1, 2), (2, 3))

    def test_read_graph_skips_comments(self, tmp_path):
        path = tmp_path / "map.graph"
        path.write_text("# areal map\nn 2\n\n1 2\n")
        assert read_graph(path).edges == ((0, 1),)

    def test_read_graph_bad_header(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("4\n1 2\n")
        with pytest.raises(ValueError, match="expected header"):
            read_graph(path)

    def test_read_graph_empty(self, tmp_path):
        path = tmp_path / "empty.graph"
        path.write_text("")
        with pytest.raises(ValueError, match="empty graph file"):
            read_graph(path)


class TestTransforms:
    def test_log_round_trip(self):
        t = LogTransform()
        for x in (1e-6, 0.5, 1.0, 42.0):
            assert_allclose(t.to_natural(t.to_internal(x)), x, rtol=1e-14)
        assert t.to_internal(1.0) == 0.0

    def test_logit_pm1_round_trip(self):
        t = LogitPm1Transform()
        for r in (-0.95, -0.3, 0.0, 0.6, 0.99):
            assert_allclose(t.to_natural(t.to_internal(r)), r, rtol=1e-12)
        assert t.to_internal(0.0) == 0.0
        # log((1+r)/(1-r)) spelled out
        assert_allclose(t.to_internal(0.5), np.log(3.0), rtol=1e-14)


class TestPriors:
    def test_log_gamma_default_at_unit_precision(self):
        # tau = 1 means internal x = 0: a*log(b) - lgamma(a) = log(5e-5)
        p = LogGammaPrior(1.0, 5e-5)
        assert_allclose(p.logpdf(0.0), np.log(5e-5) - 5e-5, rtol=1e-14)

    def test_log_gamma_matches_change_of_variables(self):
        # density of x = log(t), t ~ Gamma(a, rate b), is gamma pdf times e^x
        for a, b, x in [(1.0, 5e-5, 0.0), (2.5, 0.7, 1.3), (0.5, 2.0, -2.0)]:
            want = stats.gamma.logpdf(np.exp(x), a, scale=1.0 / b) + x
            assert_allclose(LogGammaPrior(a, b).logpdf(x), want, rtol=1e-12)

    def test_gaussian_prior(self):
        assert_allclose(GaussianPrior(0.0, 1.0).logpdf(0.0), -0.5 * np.log(2 * np.pi))
        want = stats.norm.logpdf(1.7, loc=0.5, scale=1.0 / np.sqrt(4.0))
        assert_allclose(GaussianPrior(0.5, 4.0).logpdf(1.7), want, rtol=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            LogGammaPrior(0.0, 1.0)
        with pytest.raises(ValueError):
            GaussianPrior(0.0, -1.0)

    def test_log_gamma_sampling_matches_density(self):
        # exp(x) should be Gamma(a, rate b); KS against the scipy cdf
        rng = np.random.default_rng(13)
        draws = np.array([LogGammaPrior(2.0, 3.0).sample(rng) for _ in range(2000)])
        d, p = stats.kstest(np.exp(draws), stats.gamma(2.0, scale=1.0 / 3.0).cdf)
        assert p > 0.01

    def test_gaussian_prior_sampling_moments(self):
        rng = np.random.default_rng(8)
        draws = np.array([GaussianPrior(1.5, 4.0).sample(rng) for _ in range(4000)])
        assert abs(draws.mean() - 1.5) < 4 * 0.5 / np.sqrt(4000)
        assert abs(draws.std() - 0.5) < 0.03


class TestIid:
    def test_precision_and_hyper(self):
        m = IidModel(3)
        q = m.precision({"prec": 2.5}).to_dense()
        assert_allclose(q, 2.5 * np.eye(3))
        (h,) = m.hypers()
        assert h.name == "prec"
        assert h.transform.name == "log"
        assert h.prior.name == "log_gamma"
        assert h.initial_internal() == 0.0

    def test_fixed_hyper_disappears(self):
        from iterlace.latents import HyperParam

        h = HyperParam("prec", LogTransform(), LogGammaPrior(), initial=4.0, fixed=True)
        m = IidModel(2, prec_hyper=h)
        assert m.hypers() == []
        assert_allclose(m.precision({}).to_dense(), 4.0 * np.eye(2))


class TestFixedEffects:
    def test_linear_defaults(self):
        m = FixedEffectsModel.linear()
        assert m.n_latent() == 1
        assert m.hypers() == []
        assert_allclose(m.precision({}).to_dense(), [[0.001]])
        assert_allclose(m.prior_mean(), [0.0])

    def test_constant_supplies_ones_input(self):
        m = FixedEffectsModel.constant()
        assert_allclose(m.default_input(5), np.ones(5))
        eff = m.default_mapper().eval(m.default_input(3), np.array([2.0]))
        assert_allclose(eff, [2.0, 2.0, 2.0])

    def test_factor_dimensions(self):
        full = FixedEffectsModel.factor(["a", "b", "c"])
        assert full.n_latent() == 3
        contrast = FixedEffectsModel.factor(["a", "b", "c"], coding="contrast")
        assert contrast.n_latent() == 2


class TestAr1:
    def test_inverse_is_marginal_covariance(self):
        # prec is the marginal precision: cov = rho^|i-j| / prec
        m = Ar1Model(5)
        tau, rho = 2.0, 0.6
        q = m.precision({"prec": tau, "rho": rho}).to_dense()
        i, j = np.meshgrid(np.arange(5), np.arange(5), indexing="ij")
        want = rho ** np.abs(i - j) / tau
        assert_allclose(np.linalg.inv(q), want, rtol=1e-12, atol=1e-13)

    def test_single_node(self):
        q = Ar1Model(1).precision({"prec": 3.0, "rho": 0.5}).to_dense()
        assert_allclose(q, [[3.0]])

    def test_cached_pattern_matches_the_scipy_expression(self):
        # the tridiagonal written on a cached pattern is, bit for bit, the
        # matrix scipy's diags expression gives, zeros dropped at rho = 0
        for n in (2, 3, 9):
            m = Ar1Model(n)
            for tau, rho in ((2.0, 0.0), (0.7, 0.35), (1.3, -0.9)):
                q = m.precision({"prec": tau, "rho": rho})
                diag = np.full(n, 1.0 + rho * rho)
                diag[0] = diag[-1] = 1.0
                off = np.full(n - 1, -rho)
                want = sp.diags([off, diag, off], (-1, 0, 1), format="csc")
                want = want * (tau / (1.0 - rho * rho))
                want.eliminate_zeros()
                for attr in ("data", "indices", "indptr"):
                    assert np.array_equal(getattr(q.csc, attr), getattr(want, attr))
                assert q.indptr is m._tridiagonal[0] or rho == 0.0

    def test_two_hypers_with_defaults(self):
        m = Ar1Model(4)
        names = [h.name for h in m.hypers()]
        assert names == ["prec", "rho"]
        rho = m.hypers()[1]
        assert rho.transform.name == "logit_pm1"
        assert rho.prior.params() == {"mean": 0.0, "prec": 0.15}


class TestRw1:
    def test_structure_and_ridge(self):
        m = Rw1Model(4)
        tau = 3.0
        q = m.precision({"prec": tau}).to_dense()
        base = tau * np.array(
            [[1, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 1]],
            dtype=float,
        )
        ridge = INTRINSIC_RIDGE * base.diagonal().mean()
        assert_allclose(q, base + ridge * np.eye(4), rtol=1e-12)
        # the ridge makes the former null direction barely proper
        assert_allclose(q @ np.ones(4), ridge * np.ones(4), atol=1e-15)

    def test_constraint_is_sum_to_zero(self):
        assert_allclose(Rw1Model(5).constraints(), np.ones((1, 5)))


class TestBesag:
    def test_precision_follows_graph(self):
        g = Graph(n=3, edges=((0, 1), (1, 2)))
        m = BesagModel(g)
        q = m.precision({"prec": 2.0}).to_dense()
        base = 2.0 * np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], dtype=float)
        ridge = INTRINSIC_RIDGE * base.diagonal().mean()
        assert_allclose(q, base + ridge * np.eye(3), rtol=1e-12)

    def test_constraint_per_component(self):
        g = Graph(n=5, edges=((0, 1), (3, 4)))
        c = BesagModel(g).constraints()
        assert c.shape == (3, 5)
        assert_allclose(c[0], [1, 1, 0, 0, 0])
        assert_allclose(c[1], [0, 0, 1, 0, 0])
        assert_allclose(c[2], [0, 0, 0, 1, 1])


class TestBym:
    def test_block_structure(self):
        g = Graph(n=3, edges=((0, 1), (1, 2)))
        m = BymModel(g)
        assert m.n_latent() == 6
        q = m.precision({"prec_spatial": 2.0, "prec_iid": 5.0}).to_dense()
        assert_allclose(q[3:, 3:], 5.0 * np.eye(3))
        assert_allclose(q[:3, 3:], 0.0)
        base = 2.0 * np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], dtype=float)
        ridge = INTRINSIC_RIDGE * base.diagonal().mean()
        assert_allclose(q[:3, :3], base + ridge * np.eye(3), rtol=1e-12)

    def test_constraint_touches_structured_half_only(self):
        g = Graph(n=3, edges=((0, 1), (1, 2)))
        c = BymModel(g).constraints()
        assert_allclose(c, [[1, 1, 1, 0, 0, 0]])

    def test_mapper_sums_the_halves(self):
        m = BymIndexMapper(3)
        state = np.array([1.0, 2.0, 3.0, 10.0, 20.0, 30.0])
        idx = np.array([2, 1, 3, 2])
        assert_allclose(m.eval(idx, state), [22.0, 11.0, 33.0, 22.0])
        jac = m.jacobian(idx, state)
        assert_allclose(jac @ state, m.eval(idx, state))
        assert jac.shape == (4, 6)

    def test_hyper_names(self):
        g = Graph(n=2, edges=((0, 1),))
        names = [h.name for h in BymModel(g).hypers()]
        assert names == ["prec_spatial", "prec_iid"]


# --- prior terms ------------------------------------------------------------

class _Tridiagonal(LatentModel):
    """A user-defined component: no prior_terms of its own."""

    def n_latent(self):
        return 5

    def precision(self, values):
        t = values["t"]
        q = t * (3.0 * np.eye(5) - np.eye(5, k=1) - np.eye(5, k=-1))
        return SparseSym.from_dense(q)

    def constraints(self):
        return np.arange(1.0, 6.0)  # one constraint, given as a vector

    def default_mapper(self):
        return IndexMapper(5)


class TestPriorTerms:
    """log|Q| and C Q^-1 C^T against a factorisation of precision().

    The intrinsic precisions are tau U with U = R + c I, whose smallest
    eigenvalue is the ridge c, about 1e-8 of the others.  With tau a power
    of two, tau U is stored exactly and the reference factorises the very
    matrix the closed form scales; otherwise see
    ``test_intrinsic_terms_at_any_precision``.
    """

    CASES = [
        (IidModel(4), {"prec": 2.5}),
        (FixedEffectsModel.factor(["a", "b", "c"], prec=0.01), {}),
        (Ar1Model(7), {"prec": 1.7, "rho": 0.0}),
        (Ar1Model(7), {"prec": 1.7, "rho": 0.6}),
        (Ar1Model(7), {"prec": 0.3, "rho": -0.95}),
        (Ar1Model(1), {"prec": 3.0, "rho": 0.5}),
        (Rw1Model(9), {"prec": 0.5}),
        (BesagModel(Graph(n=6, edges=((0, 1), (1, 2), (0, 2), (3, 4), (4, 5)))),
         {"prec": 4.0}),
        (BymModel(Graph(n=5, edges=((0, 1), (1, 2), (2, 3), (3, 4)))),
         {"prec_spatial": 2.0, "prec_iid": 12.0}),
        (_Tridiagonal(), {"t": 1.9}),
    ]

    @pytest.mark.parametrize("model, values", CASES)
    def test_match_a_factorisation(self, model, values):
        factor = chol(model.precision(values))
        for _ in range(2):  # the cached terms serve a second call too
            log_det, cov = model.prior_terms(values)
            assert log_det == pytest.approx(factor.log_det, rel=1e-10)
            cons = model.constraints()
            if cons is None:
                assert cov is None
                continue
            c = np.atleast_2d(cons)
            assert_allclose(cov, c @ factor.solve(c.T), rtol=1e-10)

    def test_intrinsic_terms_at_any_precision(self):
        # tau U and U round differently, which moves the eigenvalue c of
        # the stored matrix by about eps ||U|| / c = 2e-16 * 2 / 1e-8 ~ 4e-8
        # relatively: a bound set by the ridge, not by either computation
        graph = Graph(n=6, edges=((0, 1), (1, 2), (0, 2), (3, 4), (4, 5)))
        for model, values in ((Rw1Model(9), {"prec": 0.7}),
                              (BesagModel(graph), {"prec": 4.2})):
            factor = chol(model.precision(values))
            log_det, cov = model.prior_terms(values)
            assert log_det == pytest.approx(factor.log_det, abs=2e-7)
            c = model.constraints()
            assert_allclose(cov, c @ factor.solve(c.T), rtol=2e-7)

    def test_scale_with_the_precision(self):
        # the intrinsic terms come from one factorisation of R + c I
        m = Rw1Model(6)
        ld1, cov1 = m.prior_terms({"prec": 1.0})
        ld3, cov3 = m.prior_terms({"prec": 3.0})
        assert ld3 - ld1 == pytest.approx(6 * np.log(3.0), rel=1e-12)
        assert_allclose(cov3, cov1 / 3.0, rtol=1e-12)
