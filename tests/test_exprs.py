"""Predictor expression parsing, printing, evaluation, differentiation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from iterlace.exprs import (
    AdditiveAll,
    BinOp,
    Call,
    ExprError,
    Neg,
    Num,
    Ref,
    detect_additive,
    expr_jacobian,
    parse_expr,
)


class TestParsing:
    def test_precedence(self):
        assert parse_expr("a + b * c") == BinOp(
            "+", Ref("a"), BinOp("*", Ref("b"), Ref("c"))
        )

    def test_left_associativity(self):
        assert parse_expr("a - b - c") == BinOp(
            "-", BinOp("-", Ref("a"), Ref("b")), Ref("c")
        )

    def test_parentheses_regroup(self):
        assert parse_expr("a - (b - c)") == BinOp(
            "-", Ref("a"), BinOp("-", Ref("b"), Ref("c"))
        )

    def test_unary_minus(self):
        assert parse_expr("-a + b") == BinOp("+", Neg(Ref("a")), Ref("b"))
        assert parse_expr("a * -b") == BinOp("*", Ref("a"), Neg(Ref("b")))

    def test_calls(self):
        assert parse_expr("exp(log(a))") == Call("exp", Call("log", Ref("a")))

    def test_numbers(self):
        assert parse_expr("2.5e-3") == Num(2.5e-3)
        assert parse_expr(".5 + 2") == BinOp("+", Num(0.5), Num(2.0))

    def test_leading_tilde_optional(self):
        assert parse_expr("~ a + b") == parse_expr("a + b")

    def test_additive_sentinels(self):
        for text in (None, "", "~", ".", "~.", "~ ."):
            assert parse_expr(text) == AdditiveAll()

    def test_latent_suffix(self):
        assert parse_expr("u_latent") == Ref("u", kind="latent")

    def test_eval_suffix(self):
        got = parse_expr("beta_eval(c(1, -2, 3.5))")
        assert got == Ref("beta", kind="eval", args=(1.0, -2.0, 3.5))


class TestParseErrors:
    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("a + ", "unexpected"),
            ("(a + b", "expected ')'"),
            ("a b", "unexpected 'b'"),
            ("a + $", "unexpected character '$'"),
            ("sqrt(a)", "unknown function"),
            ("beta_eval(1)", "expected c"),
            ("beta_eval(c(x))", "expected a number"),
            (". + a", "unexpected '+' after '.'"),
        ],
    )
    def test_messages(self, text, fragment):
        with pytest.raises(ExprError, match=__import__("re").escape(fragment)):
            parse_expr(text)

    def test_position_recorded(self):
        with pytest.raises(ExprError) as err:
            parse_expr("a + $")
        assert err.value.pos == 4


class TestEvaluation:
    def test_elementwise_arithmetic(self):
        env = {"a": np.array([1.0, 2.0]), "b": np.array([3.0, 5.0])}
        got = parse_expr("exp(a) + 2 * b - a / b").eval(env)
        want = np.exp(env["a"]) + 2 * env["b"] - env["a"] / env["b"]
        assert_allclose(got, want, rtol=1e-15)

    def test_additive_sums_effects_only(self):
        env = {
            "a": np.array([1.0, 2.0]),
            "b": np.array([10.0, 20.0]),
            "a_latent": np.array([99.0, 99.0]),
        }
        assert_allclose(AdditiveAll().eval(env), [11.0, 22.0])

    def test_unknown_name(self):
        with pytest.raises(ExprError, match="unknown name 'z'"):
            parse_expr("z").eval({"a": np.zeros(2)})

    def test_latent_lookup_key(self):
        env = {"u": np.array([1.0]), "u_latent": np.array([5.0, 7.0])}
        assert_allclose(parse_expr("u_latent").eval(env), [5.0, 7.0])


class TestAdditiveDetection:
    @pytest.mark.parametrize(
        "text, want",
        [
            ("a + b", True),
            ("a - b", True),
            ("-a + b", True),
            ("a + b + 1", True),
            (".", True),
            (None, True),
            ("a + a", False),
            ("2 * a", False),
            ("exp(a)", False),
            ("a + b * c", False),
            ("a_latent + b", False),
            ("a / 2", False),
        ],
    )
    def test_cases(self, text, want):
        assert detect_additive(parse_expr(text)) is want


class TestJacobian:
    def test_matches_analytic_derivatives(self):
        env = {
            "a": np.array([0.5, -1.0, 2.0]),
            "b": np.array([2.0, 3.0, 0.5]),
            "c": np.array([1.0, -2.0, 4.0]),
        }
        expr = parse_expr("exp(a) + b * c")
        got = expr_jacobian(expr, env, ["a", "b", "c"])
        assert_allclose(got["a"], np.exp(env["a"]), rtol=1e-6)
        assert_allclose(got["b"], env["c"], rtol=1e-6)
        assert_allclose(got["c"], env["b"], rtol=1e-6)

    def test_additive_derivative_is_one(self):
        env = {"a": np.array([1.0, 2.0]), "b": np.array([3.0, 4.0])}
        got = expr_jacobian(AdditiveAll(), env, ["a", "b"])
        assert_allclose(got["a"], 1.0, rtol=1e-9)
        assert_allclose(got["b"], 1.0, rtol=1e-9)

    def test_large_effects_use_relative_steps(self):
        env = {"a": np.array([1e6, -1e6])}
        got = expr_jacobian(parse_expr("a * a"), env, ["a"])
        assert_allclose(got["a"], 2 * env["a"], rtol=1e-6)

    def test_log_at_a_tiny_effect(self):
        x = np.array([2e-4, 5e-4])
        got = expr_jacobian(parse_expr("log(x)"), {"x": x}, ["x"])["x"]
        assert_allclose(got, 1.0 / x, rtol=1e-12)

    def test_sum_is_exactly_one_at_large_effects(self):
        env = {"a": np.array([1e3, -1e3]), "b": np.array([-1e3, 1e3])}
        got = expr_jacobian(parse_expr("a + b"), env, ["a", "b"])
        assert np.all(got["a"] == 1.0) and np.all(got["b"] == 1.0)

    def test_quotient_rule(self):
        env = {"a": np.array([1.5, -2.0, 0.3]), "b": np.array([0.5, 4.0, -3.0])}
        got = expr_jacobian(parse_expr("a / b"), env, ["a", "b"])
        assert_allclose(got["a"], 1.0 / env["b"], rtol=1e-14)
        assert_allclose(got["b"], -env["a"] / env["b"] ** 2, rtol=1e-14)

    def test_unreferenced_name_has_zero_derivative(self):
        env = {"a": np.array([1.0, 2.0]), "b": np.array([3.0, 4.0])}
        got = expr_jacobian(parse_expr("exp(a)"), env, ["b"])
        assert np.array_equal(got["b"], np.zeros(2))

    def test_overflow_outside_the_name_leaves_the_derivative_exact(self):
        # exp(800) is inf, but the subtree 1 + exp(c) does not reference
        # a, so d/da is 1 / inf = 0 in row 0, not inf * 0
        env = {"a": np.array([1.0, 2.0]), "c": np.array([800.0, 0.0])}
        with np.errstate(over="ignore"):
            got = expr_jacobian(parse_expr("a / (1 + exp(c))"), env, ["a"])
        assert np.array_equal(got["a"], [0.0, 0.5])

    def test_log_of_zero_outside_the_name_leaves_the_derivative_exact(self):
        # log(0) is -inf, and forward mode would take its slope as 0 / 0,
        # but log(b) does not reference a
        env = {"a": np.array([1.0, 2.0]), "b": np.array([0.0, 1.0])}
        with np.errstate(divide="ignore"):
            got = expr_jacobian(parse_expr("a + log(b)"), env, ["a"])
        assert np.array_equal(got["a"], [1.0, 1.0])


_names = st.sampled_from(["a", "bb", "c1"])
_leaf = st.one_of(
    st.builds(
        Num,
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False).map(float),
    ),
    st.builds(Ref, _names),
)
_ast = st.recursive(
    _leaf,
    lambda inner: st.one_of(
        st.builds(Neg, inner),
        st.builds(Call, st.sampled_from(["exp", "log"]), inner),
        st.builds(BinOp, st.sampled_from(["+", "-", "*", "/"]), inner, inner),
    ),
    max_leaves=12,
)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [
            "a + b * c",
            "a - (b - c)",
            "(a + b) / (c - 1)",
            "-exp(a) * log(b + 1)",
            "beta_eval(c(1, 2)) + u_latent",
            "a * -b",
        ],
    )
    def test_named_cases(self, text):
        once = parse_expr(text)
        assert parse_expr(once.to_string()) == once

    @given(expr=_ast)
    @settings(max_examples=200, deadline=None)
    def test_printing_preserves_structure(self, expr):
        assert parse_expr(expr.to_string()) == expr


# magnitudes well above the complex step, so that x + ih stays a perturbation
_effects = st.lists(
    st.one_of(st.floats(-3.0, -0.1), st.floats(0.1, 3.0)), min_size=4, max_size=4
)


def _complex_step(expr, env, name, h):
    """Im f(x + ih) / h: a derivative that takes no difference of nearby
    values, so it is exact to round-off like forward mode."""
    return np.imag(expr.eval(dict(env, **{name: env[name] + h * 1j}))) / h


class TestForwardModeProperty:
    @given(expr=_ast, a=_effects, bb=_effects, c1=_effects, name=_names)
    @settings(max_examples=300, deadline=None)
    def test_matches_complex_step(self, expr, a, bb, c1, name):
        env = {"a": np.array(a), "bb": np.array(bb), "c1": np.array(c1)}
        with np.errstate(all="ignore"):
            value = np.asarray(expr.eval(env), dtype=float)
            got = expr_jacobian(expr, env, [name])[name]
            want, check = (np.broadcast_to(_complex_step(expr, env, name, h), got.shape)
                           for h in (1e-30, 1e-20))
        # rows where the value is finite, and where the complex step is
        # trustworthy: h times an intermediate derivative did not underflow
        # (the two steps agree) and no intermediate overflowed to inf
        rows = (np.isfinite(value) & np.isfinite(got) & np.isfinite(want)
                & np.isclose(want, check, rtol=1e-12, atol=0.0))
        # atol: round-off of derivatives that cancel to 0, as in d(a / a)
        assert_allclose(got[rows], want[rows], rtol=1e-9, atol=1e-9)
