"""Mapper algebra tests: dimensions, hand-checked values, FD Jacobians."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import special

from iterlace.mappers import (
    AggregateMapper,
    BlockSpec,
    CollectMapper,
    ConstMapper,
    ExponentialQuantile,
    FactorMapper,
    GammaQuantile,
    IndexMapper,
    LinearMapper,
    LogSumExpMapper,
    MapperError,
    MarginalMapper,
    MultiMapper,
    PipeMapper,
    ScaleMapper,
    ibm_eval,
    ibm_jacobian,
    ibm_n,
    ibm_n_output,
)
from shared import fd_jacobian


class TestBasicMappers:
    def test_const(self):
        m = ConstMapper(2.5)
        assert ibm_n(m) == 0
        assert ibm_n_output(m, 4) == 4
        assert_allclose(ibm_eval(m, 4, np.empty(0)), [2.5] * 4)
        jac = ibm_jacobian(m, 4, np.empty(0))
        assert jac.shape == (4, 0)

    def test_linear(self):
        m = LinearMapper()
        x = np.array([1.0, -2.0, 0.5])
        assert ibm_n(m) == 1
        assert_allclose(ibm_eval(m, x, [3.0]), [3.0, -6.0, 1.5])
        assert_allclose(ibm_jacobian(m, x, [3.0]).toarray(), x.reshape(-1, 1))

    def test_index(self):
        m = IndexMapper(4)
        state = np.array([10.0, 20.0, 30.0, 40.0])
        idx = np.array([2, 2, 4, 1])
        assert_allclose(ibm_eval(m, idx, state), [20, 20, 40, 10])
        jac = ibm_jacobian(m, idx, state).toarray()
        assert_allclose(jac @ state, ibm_eval(m, idx, state))
        assert jac.sum() == 4  # one unit entry per row

    def test_index_out_of_range(self):
        m = IndexMapper(3)
        with pytest.raises(MapperError, match="out of range"):
            m.eval(np.array([1, 4]), np.zeros(3))
        with pytest.raises(MapperError, match="out of range"):
            m.eval(np.array([0, 2]), np.zeros(3))

    def test_state_shape_checked(self):
        m = IndexMapper(3)
        with pytest.raises(MapperError, match="state has shape"):
            m.eval(np.array([1]), np.zeros(2))


class TestFactor:
    def test_full_coding(self):
        m = FactorMapper(["a", "b", "c"])
        assert ibm_n(m) == 3
        state = np.array([1.0, 2.0, 3.0])
        vals = np.array(["b", "a", "c", "b"])
        assert_allclose(m.eval(vals, state), [2, 1, 3, 2])

    def test_contrast_coding_drops_first_level(self):
        m = FactorMapper(["a", "b", "c"], coding="contrast")
        assert ibm_n(m) == 2
        state = np.array([5.0, 7.0])  # effects of b and c
        vals = np.array(["a", "b", "c"])
        assert_allclose(m.eval(vals, state), [0, 5, 7])
        jac = m.jacobian(vals, state).toarray()
        assert_allclose(jac, [[0, 0], [1, 0], [0, 1]])

    def test_unknown_level(self):
        m = FactorMapper(["a", "b"])
        with pytest.raises(MapperError, match="unknown factor level"):
            m.eval(np.array(["a", "z"]), np.zeros(2))

    def test_duplicate_levels_rejected(self):
        with pytest.raises(MapperError, match="distinct"):
            FactorMapper(["a", "a"])


class TestScale:
    def test_scales_inner_effect(self):
        m = ScaleMapper(IndexMapper(2))
        state = np.array([3.0, 4.0])
        inp = (np.array([2.0, -1.0, 0.5]), np.array([1, 2, 2]))
        assert_allclose(m.eval(inp, state), [6.0, -4.0, 2.0])
        assert_allclose(
            m.jacobian(inp, state).toarray(),
            [[2, 0], [0, -1], [0, 0.5]],
        )

    def test_length_mismatch(self):
        m = ScaleMapper(IndexMapper(2))
        with pytest.raises(MapperError, match="scale length"):
            m.eval((np.array([1.0]), np.array([1, 2])), np.zeros(2))

    def test_linearity_follows_inner(self):
        assert ScaleMapper(IndexMapper(2)).is_linear
        assert not ScaleMapper(MarginalMapper(ExponentialQuantile(1.0))).is_linear


class TestMarginal:
    def test_exponential_at_zero(self):
        # Phi(0) = 1/2, so the effect is the exponential median ln(2)/rate
        m = MarginalMapper(ExponentialQuantile(2.0))
        assert_allclose(m.eval(1, np.array([0.0])), [np.log(2.0) / 2.0], rtol=1e-14)

    def test_exponential_round_trip(self):
        # F(value(t)) must equal Phi(t):  exp(-rate * x) == Phi(-t)
        fam = ExponentialQuantile(0.7)
        t = np.array([-30.0, -3.0, -0.2, 0.0, 1.3, 8.0, 30.0])
        x = fam.value(t)
        assert np.all(np.isfinite(x)) and np.all(x >= 0)
        assert_allclose(-0.7 * x, special.log_ndtr(-t), rtol=1e-12)

    def test_gamma_round_trip(self):
        # check gammainc(shape, rate*x) == Phi(t) in whichever tail is stable
        fam = GammaQuantile(shape=2.5, rate=1.5)
        t = np.array([-8.0, -1.0, 0.0, 0.5, 2.0, 8.0])
        g = fam.value(t) * 1.5
        assert_allclose(special.gammainc(2.5, g[t <= 0]), special.ndtr(t[t <= 0]), rtol=1e-10)
        assert_allclose(special.gammaincc(2.5, g[t > 0]), special.ndtr(-t[t > 0]), rtol=1e-10)

    def test_derivative_matches_fd(self):
        for fam in (ExponentialQuantile(2.0), GammaQuantile(3.0, 0.5)):
            t = np.linspace(-2.5, 2.5, 11)
            h = 1e-6
            fd = (fam.value(t + h) - fam.value(t - h)) / (2 * h)
            assert_allclose(fam.deriv(t), fd, rtol=1e-7)

    def test_tail_derivative_stays_finite(self):
        fam = ExponentialQuantile(1.0)
        d = fam.deriv(np.array([-38.0, 38.0]))
        assert np.all(np.isfinite(d)) and np.all(d > 0)

    def test_composes_with_inner_mapper(self):
        m = MarginalMapper(ExponentialQuantile(1.0), inner=IndexMapper(3))
        state = np.array([0.0, 1.0, -1.0])
        idx = np.array([1, 2, 3, 1])
        direct = -special.log_ndtr(-state[idx - 1])
        assert_allclose(m.eval(idx, state), direct, rtol=1e-13)
        assert_allclose(
            m.jacobian(idx, state).toarray(),
            fd_jacobian(m, idx, state),
            rtol=1e-6, atol=1e-9,
        )

    def test_bad_parameters(self):
        with pytest.raises(MapperError):
            ExponentialQuantile(0.0)
        with pytest.raises(MapperError):
            GammaQuantile(-1.0, 2.0)


class TestLogSumExp:
    def test_hand_case(self):
        # weights (2, 3), state (0, ln 2): 2*1 + 3*2 = 8
        spec = BlockSpec(block=[1, 1], weights=[2.0, 3.0], n_block=1)
        state = np.array([0.0, np.log(2.0)])
        plain = LogSumExpMapper(rescale=False)
        assert_allclose(plain.eval(spec, state), [np.log(8.0)], rtol=1e-14)
        scaled = LogSumExpMapper(rescale=True)
        assert_allclose(scaled.eval(spec, state), [np.log(8.0 / 5.0)], rtol=1e-14)
        # softmax Jacobian row (2*1, 3*2)/8, identical in both modes
        for m in (plain, scaled):
            assert_allclose(m.jacobian(spec, state).toarray(), [[0.25, 0.75]], rtol=1e-14)

    def test_shift_identity_at_large_state(self):
        rng = np.random.default_rng(7)
        spec = BlockSpec(
            block=rng.integers(1, 4, size=12),
            weights=rng.uniform(0.1, 2.0, size=12),
            n_block=3,
        )
        m = LogSumExpMapper()
        base = rng.normal(size=12)
        shifted = m.eval(spec, base + 1000.0)
        assert np.all(np.isfinite(shifted))
        assert_allclose(shifted, m.eval(spec, base) + 1000.0, atol=1e-9)

    def test_zero_weights_drop_out(self):
        spec = BlockSpec(block=[1, 1, 1], weights=[1.0, 0.0, 1.0], n_block=1)
        m = LogSumExpMapper()
        state = np.array([0.0, 100.0, 0.0])
        assert_allclose(m.eval(spec, state), [np.log(2.0)], rtol=1e-14)
        jac = m.jacobian(spec, state).toarray()
        assert_allclose(jac, [[0.5, 0.0, 0.5]], rtol=1e-14)

    def test_negative_weight_rejected(self):
        spec = BlockSpec(block=[1, 1], weights=[1.0, -0.5], n_block=1)
        with pytest.raises(MapperError, match="negative weights"):
            LogSumExpMapper().eval(spec, np.zeros(2))

    def test_block_without_mass_rejected(self):
        spec = BlockSpec(block=[1, 1], weights=[1.0, 1.0], n_block=2)
        with pytest.raises(MapperError, match="block 2"):
            LogSumExpMapper().eval(spec, np.zeros(2))

    def test_rescale_needs_positive_total(self):
        spec = BlockSpec(block=[1, 2], weights=[1.0, 0.0], n_block=2)
        with pytest.raises(MapperError, match="positive total weight"):
            LogSumExpMapper(rescale=True).eval(spec, np.zeros(2))


class TestAggregate:
    def test_weighted_sums(self):
        spec = BlockSpec(block=[1, 2, 1, 2], weights=[1.0, 2.0, 3.0, -1.0], n_block=2)
        m = AggregateMapper()
        state = np.array([1.0, 1.0, 2.0, 4.0])
        assert_allclose(m.eval(spec, state), [1 + 6, 2 - 4])
        assert_allclose(
            m.jacobian(spec, state).toarray(),
            [[1, 0, 3, 0], [0, 2, 0, -1]],
        )

    def test_rescale_averages(self):
        spec = BlockSpec(block=[1, 1], weights=[1.0, 3.0], n_block=1)
        m = AggregateMapper(rescale=True)
        assert_allclose(m.eval(spec, np.array([4.0, 8.0])), [(4 + 24) / 4])

    def test_rescale_rejects_negative(self):
        spec = BlockSpec(block=[1, 1], weights=[2.0, -1.0], n_block=1)
        with pytest.raises(MapperError, match="negative weights"):
            AggregateMapper(rescale=True).eval(spec, np.zeros(2))

    def test_is_linear(self):
        assert AggregateMapper().is_linear
        assert not LogSumExpMapper().is_linear


class TestMulti:
    def test_latent_dimension_is_product(self):
        m = MultiMapper(IndexMapper(3), group=IndexMapper(4))
        assert ibm_n(m) == 12

    def test_group_layout_matches_brute_force(self):
        # column-major: main index fastest, then group
        rng = np.random.default_rng(3)
        m = MultiMapper(IndexMapper(3), group=IndexMapper(4))
        state = rng.normal(size=12)
        main_idx = np.array([1, 3, 2, 2, 1])
        group_idx = np.array([2, 1, 4, 2, 3])
        got = m.eval((main_idx, group_idx, None), state)
        want = np.array(
            [state[(g - 1) * 3 + (i - 1)] for i, g in zip(main_idx, group_idx)]
        )
        assert_allclose(got, want)
        jac = m.jacobian((main_idx, group_idx, None), state).toarray()
        assert_allclose(jac @ state, want)

    def test_group_and_replicate(self):
        m = MultiMapper(IndexMapper(2), group=IndexMapper(2), replicate=IndexMapper(3))
        assert ibm_n(m) == 12
        state = np.arange(12.0)
        inp = (np.array([2, 1]), np.array([1, 2]), np.array([3, 1]))
        # flat offset = (repl-1)*n_main*n_group + (group-1)*n_main + (main-1)
        want = [state[2 * 2 * 2 + 0 + 1], state[0 + 2 + 0]]
        assert_allclose(m.eval(inp, state), want)

    def test_nonlinear_main(self):
        fam = ExponentialQuantile(1.0)
        m = MultiMapper(MarginalMapper(fam, inner=IndexMapper(2)), group=IndexMapper(2))
        state = np.array([0.3, -0.2, 1.1, 0.4])
        inp = (np.array([1, 2, 1]), np.array([1, 2, 2]), None)
        want = fam.value(np.array([state[0], state[3], state[2]]))
        assert_allclose(m.eval(inp, state), want, rtol=1e-13)
        assert_allclose(
            m.jacobian(inp, state).toarray(),
            fd_jacobian(m, inp, state),
            rtol=1e-6, atol=1e-9,
        )

    def test_group_must_be_index(self):
        with pytest.raises(MapperError, match="IndexMapper"):
            MultiMapper(IndexMapper(2), group=LinearMapper())


class TestPipe:
    def test_chains_eval_and_jacobian(self):
        # state -> index selection -> scaled -> logsumexp over one block
        spec = BlockSpec(block=[1, 1, 1], weights=[1.0, 1.0, 1.0], n_block=1)
        stages = [
            IndexMapper(2),
            ScaleMapper(MarginalMapper(ExponentialQuantile(1.0))),
            LogSumExpMapper(),
        ]
        m = PipeMapper(stages)
        inp = [
            np.array([1, 2, 2]),
            (np.array([1.0, 0.5, 2.0]), 3),
            spec,
        ]
        state = np.array([0.2, -0.4])
        assert ibm_n(m) == 2
        assert ibm_n_output(m, inp) == 1
        t = np.array([0.2, -0.4, -0.4])
        lam = -special.log_ndtr(-t) * np.array([1.0, 0.5, 2.0])
        want = np.log(np.sum(np.exp(lam)))
        assert_allclose(m.eval(inp, state), [want], rtol=1e-13)
        assert_allclose(
            m.jacobian(inp, state).toarray(),
            fd_jacobian(m, inp, state),
            rtol=1e-6, atol=1e-9,
        )

    def test_input_count_checked(self):
        m = PipeMapper([IndexMapper(2), AggregateMapper()])
        with pytest.raises(MapperError, match="2 stages"):
            m.eval([np.array([1])], np.zeros(2))


class TestCollect:
    def test_hidden_exposes_first_part_only(self):
        m = CollectMapper({"a": IndexMapper(2), "b": IndexMapper(3)}, hidden=True)
        assert ibm_n(m) == 5
        state = np.array([1.0, 2.0, 10.0, 20.0, 30.0])
        inp = [np.array([2, 1]), np.array([1])]
        assert ibm_n_output(m, inp) == 2
        assert_allclose(m.eval(inp, state), [2.0, 1.0])
        jac = m.jacobian(inp, state).toarray()
        assert jac.shape == (2, 5)
        assert_allclose(jac[:, 2:], 0.0)

    def test_stacked_outputs(self):
        m = CollectMapper({"a": IndexMapper(2), "b": IndexMapper(3)}, hidden=False)
        state = np.array([1.0, 2.0, 10.0, 20.0, 30.0])
        inp = [np.array([2, 1]), np.array([3, 3])]
        assert ibm_n_output(m, inp) == 4
        assert_allclose(m.eval(inp, state), [2.0, 1.0, 30.0, 30.0])
        jac = m.jacobian(inp, state)
        assert_allclose(jac @ state, m.eval(inp, state))


def _random_case(rng):
    """Draw one (mapper, input, state) triple for the FD sweep."""
    kind = rng.integers(0, 8)
    n_rows = int(rng.integers(2, 9))
    if kind == 0:
        m = LinearMapper()
        return m, rng.normal(size=n_rows), rng.normal(size=1)
    if kind == 1:
        n = int(rng.integers(2, 6))
        m = IndexMapper(n)
        return m, rng.integers(1, n + 1, size=n_rows), rng.normal(size=n)
    if kind == 2:
        levels = ["a", "b", "c", "d"][: int(rng.integers(2, 5))]
        coding = "contrast" if rng.random() < 0.5 else "full"
        m = FactorMapper(levels, coding=coding)
        vals = np.array(levels)[rng.integers(0, len(levels), size=n_rows)]
        return m, vals, rng.normal(size=m.n_latent())
    if kind == 3:
        n = int(rng.integers(2, 5))
        m = ScaleMapper(IndexMapper(n))
        inp = (rng.normal(size=n_rows), rng.integers(1, n + 1, size=n_rows))
        return m, inp, rng.normal(size=n)
    if kind == 4:
        fam = (
            ExponentialQuantile(rng.uniform(0.5, 3.0))
            if rng.random() < 0.5
            else GammaQuantile(rng.uniform(0.8, 4.0), rng.uniform(0.5, 2.0))
        )
        n = int(rng.integers(2, 5))
        m = MarginalMapper(fam, inner=IndexMapper(n))
        return m, rng.integers(1, n + 1, size=n_rows), rng.uniform(-2, 2, size=n)
    if kind == 5:
        n_block = int(rng.integers(1, 4))
        spec = BlockSpec(
            block=np.concatenate(
                [np.arange(1, n_block + 1), rng.integers(1, n_block + 1, size=n_rows)]
            ),
            weights=rng.uniform(0.1, 2.0, size=n_rows + n_block),
            n_block=n_block,
        )
        m = LogSumExpMapper(rescale=rng.random() < 0.5)
        return m, spec, rng.normal(size=n_rows + n_block)
    if kind == 6:
        n_block = int(rng.integers(1, 4))
        spec = BlockSpec(
            block=np.concatenate(
                [np.arange(1, n_block + 1), rng.integers(1, n_block + 1, size=n_rows)]
            ),
            weights=rng.uniform(0.1, 2.0, size=n_rows + n_block),
            n_block=n_block,
        )
        m = AggregateMapper(rescale=rng.random() < 0.5)
        return m, spec, rng.normal(size=n_rows + n_block)
    n_main, n_group = int(rng.integers(2, 4)), int(rng.integers(2, 4))
    m = MultiMapper(IndexMapper(n_main), group=IndexMapper(n_group))
    inp = (
        rng.integers(1, n_main + 1, size=n_rows),
        rng.integers(1, n_group + 1, size=n_rows),
        None,
    )
    return m, inp, rng.normal(size=n_main * n_group)


class TestJacobianAgainstFiniteDifferences:
    def test_hundred_seeded_cases(self):
        """Analytic Jacobians agree with central differences."""
        rng = np.random.default_rng(20260819)
        for _ in range(100):
            m, inp, state = _random_case(rng)
            jac = m.jacobian(inp, state).toarray()
            fd = fd_jacobian(m, inp, state)
            assert_allclose(jac, fd, rtol=1e-6, atol=1e-7)
            assert jac.shape == (m.n_output(inp), state.size)
            assert m.eval(inp, state).shape == (m.n_output(inp),)


class TestLinearMappersAreExactlyLinear:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_eval_equals_jacobian_times_state(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(4):
            m, inp, state = _random_case(rng)
            if not m.is_linear:
                continue
            offset = m.eval(inp, np.zeros_like(state))
            assert_allclose(
                m.jacobian(inp, state) @ state + offset,
                m.eval(inp, state),
                rtol=1e-12, atol=1e-12,
            )

    @given(
        n=st.integers(2, 6),
        rows=st.integers(1, 10),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_index_jacobian_rows_are_unit(self, n, rows, seed):
        rng = np.random.default_rng(seed)
        idx = rng.integers(1, n + 1, size=rows)
        jac = IndexMapper(n).jacobian(idx, np.zeros(n))
        assert_allclose(np.asarray(jac.sum(axis=1)).ravel(), 1.0)


# --- state matrices ------------------------------------------------------------

def _matrix_cases():
    """(label, mapper, input, latent size) for every mapper class."""
    from iterlace.latents import BymIndexMapper

    idx = np.array([3, 1, 2, 2, 3])
    spec = BlockSpec(
        block=[3, 1, 2, 1, 3, 2, 1, 3], weights=[1.0, 0.5, 2.0, 0.0, 1.5, 0.7, 1.2, 0.3],
        n_block=3,
    )
    lse_pipe = [np.array([1, 2, 2]), (np.array([1.0, 0.5, 2.0]), 3),
                BlockSpec([1, 1, 1], np.ones(3), 1)]
    return [
        ("const", ConstMapper(2.5), 4, 0),
        ("linear", LinearMapper(), np.array([0.5, -1.0, 2.0]), 1),
        ("index", IndexMapper(3), idx, 3),
        ("factor-full", FactorMapper(["a", "b", "c"]), np.array(["b", "a", "c", "b"]), 3),
        ("factor-contrast", FactorMapper(["a", "b", "c"], coding="contrast"),
         np.array(["b", "a", "c", "b"]), 2),
        ("scale", ScaleMapper(IndexMapper(3)), (np.array([1.0, -2.0, 0.5, 3.0, 0.1]), idx), 3),
        ("marginal-exp", MarginalMapper(ExponentialQuantile(1.5), inner=IndexMapper(3)), idx, 3),
        ("marginal-gamma", MarginalMapper(GammaQuantile(2.0, 1.5), inner=IndexMapper(3)), idx, 3),
        ("marginal-no-inner", MarginalMapper(ExponentialQuantile(0.5)), 4, 4),
        ("logsumexp", LogSumExpMapper(), spec, 8),
        ("logsumexp-rescale", LogSumExpMapper(rescale=True), spec, 8),
        ("aggregate", AggregateMapper(), spec, 8),
        ("aggregate-rescale", AggregateMapper(rescale=True), spec, 8),
        ("multi", MultiMapper(MarginalMapper(ExponentialQuantile(1.0), inner=IndexMapper(2)),
                              group=IndexMapper(2), replicate=IndexMapper(2)),
         (np.array([1, 2, 1, 2]), np.array([1, 2, 2, 1]), np.array([2, 1, 2, 2])), 8),
        ("pipe", PipeMapper([IndexMapper(2),
                             ScaleMapper(MarginalMapper(ExponentialQuantile(1.0))),
                             LogSumExpMapper()]), lse_pipe, 2),
        ("collect-hidden", CollectMapper({"a": IndexMapper(2), "b": LinearMapper()}),
         [np.array([2, 1, 2]), np.array([1.0])], 3),
        ("collect-stacked", CollectMapper({"a": IndexMapper(2), "b": LinearMapper()}, hidden=False),
         [np.array([2, 1, 2]), np.array([1.0, -3.0])], 3),
        ("bym-index", BymIndexMapper(3), idx, 6),
    ]


def _old_logsumexp(spec, state, rescale):
    """The per-block loop that LogSumExpMapper.eval replaced."""
    with np.errstate(divide="ignore"):
        logterms = state + np.log(spec.weights)
    out = np.empty(spec.n_block)
    for b in range(spec.n_block):
        lt = logterms[spec.block == b + 1]
        lt = lt[lt > -np.inf]
        shift = lt.max()
        out[b] = shift + np.log(np.sum(np.exp(lt - shift)))
    if rescale:
        out -= np.log(np.bincount(spec.block - 1, weights=spec.weights, minlength=spec.n_block))
    return out


def _old_logsumexp_jacobian(spec, state):
    with np.errstate(divide="ignore"):
        logterms = state + np.log(spec.weights)
    vals = np.zeros(spec.block.size)
    for b in range(spec.n_block):
        mask = spec.block == b + 1
        lt = logterms[mask]
        keep = lt > -np.inf
        expd = np.zeros(lt.size)
        expd[keep] = np.exp(lt[keep] - lt[keep].max())
        vals[mask] = expd / expd.sum()
    return vals


class TestStateMatrices:
    @pytest.mark.parametrize("case", range(len(_matrix_cases())),
                             ids=[c[0] for c in _matrix_cases()])
    def test_matrix_eval_is_the_column_stack(self, case):
        _, m, inp, n = _matrix_cases()[case]
        states = np.random.default_rng(case).uniform(-1.5, 1.5, size=(n, 6))
        got = m.eval(inp, states)
        want = np.column_stack([m.eval(inp, states[:, s].copy()) for s in range(6)])
        assert got.shape == (m.n_output(inp), 6)
        assert np.array_equal(got, want)

    def test_single_column_matrix(self):
        m = IndexMapper(3)
        got = m.eval(np.array([2, 3]), np.array([[1.0], [2.0], [3.0]]))
        assert np.array_equal(got, [[2.0], [3.0]])

    def test_matrix_shape_checked(self):
        with pytest.raises(MapperError, match="state has shape"):
            IndexMapper(3).eval(np.array([1]), np.zeros((2, 4)))
        with pytest.raises(MapperError, match="state has shape"):
            IndexMapper(3).eval(np.array([1]), np.zeros((3, 4, 1)))

    @staticmethod
    def _random_lse_case(seed, max_rows):
        """Unsorted block ids, some zero weights, blocks of up to max_rows."""
        rng = np.random.default_rng(seed)
        n_block = int(rng.integers(1, 5))
        sizes = rng.integers(1, max_rows + 1, size=n_block)
        block = rng.permutation(np.repeat(np.arange(1, n_block + 1), sizes))
        weights = rng.uniform(0.1, 3.0, size=block.size)
        weights[rng.random(block.size) < 0.2] = 0.0
        weights[np.unique(block, return_index=True)[1]] = rng.uniform(0.1, 3.0, n_block)
        return BlockSpec(block, weights, n_block), rng.normal(scale=3.0, size=block.size)

    @given(seed=st.integers(0, 10_000), rescale=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_logsumexp_matches_the_block_loop(self, seed, rescale):
        spec, state = self._random_lse_case(seed, max_rows=7)
        m = LogSumExpMapper(rescale=rescale)
        np.testing.assert_array_max_ulp(m.eval(spec, state),
                                        _old_logsumexp(spec, state, rescale), maxulp=4)
        np.testing.assert_array_max_ulp(m.jacobian(spec, state).toarray().sum(axis=0),
                                        _old_logsumexp_jacobian(spec, state), maxulp=4)

    @given(seed=st.integers(0, 10_000), rescale=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_logsumexp_large_blocks_match_the_block_loop(self, seed, rescale):
        # from 8 terms on, np.sum adds pairwise and the indicator product
        # in row order: the block sums may differ in the last bits
        spec, state = self._random_lse_case(seed, max_rows=40)
        m = LogSumExpMapper(rescale=rescale)
        want = _old_logsumexp(spec, state, rescale)
        assert_allclose(m.eval(spec, state), want, rtol=0, atol=1e-14 * (1 + np.abs(want)).max())
        assert_allclose(m.jacobian(spec, state).toarray().sum(axis=0),
                        _old_logsumexp_jacobian(spec, state), rtol=1e-14, atol=0)

    def test_logsumexp_small_blocks_are_bit_identical_to_the_loop(self):
        # fewer than 8 rows a block: the loop's np.sum also adds in row order
        rng = np.random.default_rng(5)
        spec = BlockSpec(rng.permutation(np.repeat(np.arange(1, 26), 4)), np.ones(100), 25)
        state = rng.normal(size=100)
        assert np.array_equal(LogSumExpMapper().eval(spec, state),
                              _old_logsumexp(spec, state, False))

    @pytest.mark.parametrize("block, weights", [
        ([1, 3, 1], [1.0, 1.0, 1.0]),       # block 2 has no rows
        ([1, 2, 3, 2], [1.0, 0.0, 1.0, 0.0]),  # block 2 has only zero weights
    ])
    def test_logsumexp_empty_block_rejected(self, block, weights):
        spec = BlockSpec(block, weights, n_block=3)
        m = LogSumExpMapper()
        for state in (np.zeros(len(block)), np.zeros((len(block), 3))):
            with pytest.raises(MapperError, match="block 2 has no entries"):
                m.eval(spec, state)
        with pytest.raises(MapperError, match="block 2 has no entries"):
            m.jacobian(spec, np.zeros(len(block)))

    def test_aggregate_keeps_empty_blocks_at_zero(self):
        spec = BlockSpec([1, 3, 1], [1.0, 2.0, 0.5], n_block=3)
        got = AggregateMapper().eval(spec, np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        assert np.array_equal(got, [[3.5, 5.0], [0.0, 0.0], [6.0, 8.0]])

    def test_blockspec_orders_rows_once(self):
        spec = BlockSpec([2, 1, 2, 1, 2], np.ones(5), n_block=3)
        assert np.array_equal(spec.order, [1, 3, 0, 2, 4])
        assert np.array_equal(spec.bounds, [0, 2, 5, 5])
        assert np.array_equal(spec.indicator.toarray(),
                              [[0, 1, 0, 1, 0], [1, 0, 1, 0, 1], [0, 0, 0, 0, 0]])


# --- Jacobians from CSR arrays ---------------------------------------------------

def _scipy_index_jacobian(n, idx):
    return sp.csr_matrix(
        (np.ones(idx.size), (np.arange(idx.size), idx - 1)), shape=(idx.size, n)
    )


def _scipy_factor_jacobian(cols, n_latent):
    used = np.where(cols >= 0)[0]
    return sp.csr_matrix(
        (np.ones(used.size), (used, cols[used])), shape=(cols.size, n_latent)
    )


def _scipy_collect_jacobian(m, inp, state):
    """CollectMapper's Jacobian by scipy's hstack and vstack, blocks of zeros
    beside each active part."""
    rows, start = [], 0
    starts = np.cumsum([0] + [p.n_latent() for p in m.parts])
    for k, (p, i) in enumerate(zip(m.parts[:1] if m.hidden else m.parts, inp)):
        row = [
            p.jacobian(i, state[starts[k]:starts[k + 1]]) if j == k
            else sp.csr_matrix((p.n_output(i), q.n_latent()))
            for j, q in enumerate(m.parts)
        ]
        rows.append(sp.hstack(row, format="csr"))
    return sp.vstack(rows, format="csr")


def _stored_zeros_beyond(got, want):
    """Check that the CSR Jacobian ``got`` has the values and stored pattern
    of scipy's construction ``want``, except for entries that come out 0,
    which scipy's diagonal product drops and ``got`` keeps stored; return
    how many such entries ``got`` stores."""
    got, want = got.tocsr(copy=True), want.tocsr(copy=True)
    for m in (got, want):
        m.sort_indices()
    assert got.shape == want.shape
    assert np.array_equal(got.toarray(), want.toarray())
    kept = got.copy()
    kept.eliminate_zeros()
    for a, b in ((kept.indptr, want.indptr), (kept.indices, want.indices),
                 (kept.data, want.data)):
        assert np.array_equal(a, b)
    return got.nnz - want.nnz


class TestJacobiansFromArrays:
    """The built-in mappers build their Jacobians from CSR arrays; each has
    the values and stored pattern of the scipy construction it replaces,
    except that a row scaled by an exact 0 keeps its entries stored."""

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 5), rows=st.integers(0, 8))
    @settings(max_examples=30, deadline=None)
    def test_index_linear_and_factor(self, seed, n, rows):
        rng = np.random.default_rng(seed)
        idx = rng.integers(1, n + 1, size=rows)
        got = IndexMapper(n).jacobian(idx, np.zeros(n))
        assert _stored_zeros_beyond(got, _scipy_index_jacobian(n, idx)) == 0
        x = rng.normal(size=rows)
        x[rng.random(rows) < 0.3] = 0.0  # a zero covariate stores no entry
        got = LinearMapper().jacobian(x, np.zeros(1))
        assert _stored_zeros_beyond(got, sp.csr_matrix(x.reshape(-1, 1))) == 0
        for coding in ("full", "contrast"):
            m = FactorMapper(["a", "b", "c"][:n] if n <= 3 else ["a", "b"], coding=coding)
            vals = np.array(m.levels)[rng.integers(0, len(m.levels), size=rows)]
            want = _scipy_factor_jacobian(m._columns(vals), m.n_latent())
            assert _stored_zeros_beyond(m.jacobian(vals, np.zeros(m.n_latent())), want) == 0

    @given(seed=st.integers(0, 10_000), zeros=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_scale(self, seed, zeros):
        rng = np.random.default_rng(seed)
        rows, n = int(rng.integers(1, 8)), int(rng.integers(1, 4))
        scale = rng.normal(size=rows)
        if zeros:
            scale[rng.random(rows) < 0.4] = 0.0
        for inner, inner_inp in ((IndexMapper(n), rng.integers(1, n + 1, size=rows)),
                                 (LinearMapper(), rng.normal(size=rows))):
            state = rng.normal(size=inner.n_latent())
            got = ScaleMapper(inner).jacobian((scale, inner_inp), state)
            J = inner.jacobian(inner_inp, state)
            zeros_kept = _stored_zeros_beyond(got, sp.diags(scale).tocsr() @ J)
            assert zeros_kept == np.count_nonzero(np.repeat(scale == 0, np.diff(J.indptr)))

    @given(seed=st.integers(0, 10_000), gamma=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_marginal(self, seed, gamma):
        rng = np.random.default_rng(seed)
        fam = GammaQuantile(rng.uniform(0.8, 4.0), 1.5) if gamma else ExponentialQuantile(0.5)
        n, rows = int(rng.integers(1, 5)), int(rng.integers(1, 8))
        state = rng.uniform(-5.0, 5.0, size=n)
        idx = rng.integers(1, n + 1, size=rows)
        d = fam.deriv(state[idx - 1])
        got = MarginalMapper(fam, inner=IndexMapper(n)).jacobian(idx, state)
        want = sp.diags(d).tocsr() @ _scipy_index_jacobian(n, idx)
        assert _stored_zeros_beyond(got, want) == 0
        got = MarginalMapper(fam).jacobian(n, state)
        assert _stored_zeros_beyond(got, sp.diags(fam.deriv(state)).tocsr()) == 0

    def test_marginal_keeps_an_underflowed_derivative_stored(self):
        # the deliberate exception: past t = -39 the exponential quantile's
        # derivative underflows to 0, and its entry stays stored, so the
        # Jacobian's pattern does not follow the state
        fam = ExponentialQuantile(0.5)
        state = np.array([0.3, -40.0])
        assert fam.deriv(state[1]) == 0.0
        idx = np.array([1, 2, 2, 1])
        for m, inp, want in (
            (MarginalMapper(fam, inner=IndexMapper(2)), idx,
             sp.diags(fam.deriv(state[idx - 1])).tocsr() @ _scipy_index_jacobian(2, idx)),
            (MarginalMapper(fam), 2, sp.diags(fam.deriv(state)).tocsr()),
        ):
            got = m.jacobian(inp, state)
            elsewhere = m.jacobian(inp, np.array([0.3, 0.5]))
            assert _stored_zeros_beyond(got, want) == (2 if m.inner else 1)
            assert np.array_equal(got.indptr, elsewhere.indptr)
            assert np.array_equal(got.indices, elsewhere.indices)

    @given(seed=st.integers(0, 10_000), hidden=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_collect(self, seed, hidden):
        rng = np.random.default_rng(seed)
        rows, n = int(rng.integers(0, 6)), int(rng.integers(1, 4))
        m = CollectMapper({"a": IndexMapper(n), "b": LinearMapper(), "c": IndexMapper(2)},
                          hidden=hidden)
        x = rng.normal(size=rows)
        x[rng.random(rows) < 0.3] = 0.0
        inp = [rng.integers(1, n + 1, size=rows), x, rng.integers(1, 3, size=rows)]
        state = rng.normal(size=m.n_latent())
        got, want = m.jacobian(inp, state), _scipy_collect_jacobian(m, inp, state)
        assert _stored_zeros_beyond(got, want) == 0
        for a, b in ((got.indptr, want.indptr), (got.indices, want.indices),
                     (got.data, want.data)):
            assert np.array_equal(a, b)  # in scipy's storage order too

    @given(seed=st.integers(0, 10_000), under=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_pipe_and_multi(self, seed, under):
        # against the product and the dense fill they replaced; a state
        # past -39 underflows the derivative, whose entries stay stored
        rng = np.random.default_rng(seed)
        fam = ExponentialQuantile(0.5)
        n, rows = int(rng.integers(1, 4)), int(rng.integers(1, 7))
        state = rng.uniform(-3.0, 3.0, size=2 * n)
        if under:
            state[rng.random(2 * n) < 0.5] = -40.0
        idx = rng.integers(1, n + 1, size=rows)
        pipe = PipeMapper([IndexMapper(n), MarginalMapper(fam)])
        inp = [idx, rows]
        stages = [s.jacobian(i, v) for s, i, v in zip(
            pipe.stages, inp, (state[:n], IndexMapper(n).eval(idx, state[:n])))]
        got = pipe.jacobian(inp, state[:n])
        zeros = _stored_zeros_beyond(got, (stages[1] @ stages[0]).tocsr())
        assert zeros == np.count_nonzero(fam.deriv(state[idx - 1]) == 0.0)

        multi = MultiMapper(MarginalMapper(fam, inner=IndexMapper(n)), group=IndexMapper(2))
        inp = (idx, rng.integers(1, 3, size=rows), None)
        dense = sp.lil_matrix((rows, 2 * n))
        block, _ = multi._flat_blocks(inp, rows)
        for b in np.unique(block):
            sel = np.where(block == b)[0]
            jac = multi.main.jacobian(idx[sel], state[b * n:(b + 1) * n])
            dense[np.ix_(sel, np.arange(b * n, (b + 1) * n))] = jac.toarray()
        got = multi.jacobian(inp, state)
        zeros = _stored_zeros_beyond(got, dense.tocsr())
        flat = block * n + idx - 1
        assert zeros == np.count_nonzero(fam.deriv(state[flat]) == 0.0)
