from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from revtype import (
    DomainEvalError,
    ParseError,
    UnboundParameterError,
    eval_jet3,
    eval_value,
    parse,
    unparse,
)
from revtype.expressions import ArityError, BinOp, Func, Num, Param, Pow, UnknownFunctionError, Var

from helpers import FD_WINDOW, sample_well_behaved, sympy_jet


class TestParse:
    def test_sqrt_tree(self):
        tree = parse("sqrt(1+s^2)")
        assert tree == Func("sqrt", BinOp("+", Num(1.0), Pow(Var(), Fraction(2))))

    def test_variable(self):
        assert parse("s") == Var()

    def test_unbalanced_paren_offset(self):
        with pytest.raises(ParseError) as err:
            parse("sin(s")
        assert err.value.offset == 5  # 0-based, at end of input

    def test_precedence(self):
        assert parse("1+2*s") == BinOp("+", Num(1.0), BinOp("*", Num(2.0), Var()))
        # unary minus binds below ^: -s^2 == -(s^2)
        assert parse("-s^2") == Func("neg", Pow(Var(), Fraction(2)))
        # and above *: -s*2 == (-s)*2
        assert parse("-s*2") == BinOp("*", Func("neg", Var()), Num(2.0))

    def test_left_associativity(self):
        assert parse("1-2-3") == BinOp("-", BinOp("-", Num(1.0), Num(2.0)), Num(3.0))

    def test_power_right_associative(self):
        # s^2^3 folds the constant tower 2^3
        assert parse("s^2^3") == Pow(Var(), Fraction(8))
        assert parse("(s^2)^3") == Pow(Pow(Var(), Fraction(2)), Fraction(3))

    def test_rational_exponent_folding(self):
        assert parse("s^(3/2)") == Pow(Var(), Fraction(3, 2))
        assert parse("s^0.5") == Pow(Var(), Fraction(1, 2))
        assert parse("s^-2") == Pow(Var(), Fraction(-2))
        assert parse("s^(1+1)") == Pow(Var(), Fraction(2))

    def test_general_power_rewrites_to_exp_ln(self):
        assert parse("s^s") == Func("exp", BinOp("*", Var(), Func("ln", Var())))
        assert parse("2^s") == Func("exp", BinOp("*", Var(), Func("ln", Num(2.0))))

    def test_parameters(self):
        assert parse("c*s") == BinOp("*", Param("c"), Var())

    def test_unknown_function(self):
        with pytest.raises(UnknownFunctionError) as err:
            parse("1 + foo(s)")
        assert err.value.offset == 4

    def test_arity_mismatch(self):
        with pytest.raises(ArityError):
            parse("sin(s, 1)")

    def test_function_without_call(self):
        with pytest.raises(ParseError):
            parse("sin + 1")

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as err:
            parse("s + $")
        assert err.value.offset == 4

    def test_trailing_input(self):
        with pytest.raises(ParseError) as err:
            parse("s 1")
        assert err.value.offset == 2

    def test_empty(self):
        with pytest.raises(ParseError):
            parse("")


class TestEval:
    def test_sqrt_jet_frozen_values(self):
        # symbolic oracle: d^k/ds^k sqrt(1+s^2) at s=1
        j = eval_jet3(parse("sqrt(1+s^2)"), 1.0)
        assert j.v0 == pytest.approx(1.4142135623730951, abs=1e-12)
        assert j.v1 == pytest.approx(0.7071067811865476, abs=1e-12)
        assert j.v2 == pytest.approx(0.35355339059327384, abs=1e-12)
        assert j.v3 == pytest.approx(-0.5303300858899106, abs=1e-12)

    def test_identity_jet(self):
        j = eval_jet3(parse("s"), 7.0)
        assert (j.v0, j.v1, j.v2, j.v3) == (7.0, 1.0, 0.0, 0.0)

    def test_sine_at_zero(self):
        j = eval_jet3(parse("sin(s)"), 0.0)
        assert (j.v0, j.v1, j.v2, j.v3) == (0.0, 1.0, 0.0, -1.0)

    def test_polynomial_exactness(self):
        e = parse("s^3")
        for s0 in (-3.0, -1.0, 0.5, 2.0, 11.0):
            j = eval_jet3(e, s0)
            assert j.v0 == pytest.approx(s0 ** 3, rel=1e-12)
            assert j.v1 == pytest.approx(3 * s0 ** 2, rel=1e-12)
            assert j.v2 == pytest.approx(6 * s0, rel=1e-12)
            assert j.v3 == pytest.approx(6.0, rel=1e-12)

    def test_parameters_bound(self):
        e = parse("c * sin(s / c)")
        j = eval_jet3(e, 0.0, {"c": 2.0})
        assert j.v0 == 0.0 and j.v1 == pytest.approx(1.0)

    def test_unbound_parameter(self):
        with pytest.raises(UnboundParameterError):
            eval_value(parse("c*s"), 1.0)

    def test_domain_error_carries_subexpression(self):
        with pytest.raises(DomainEvalError) as err:
            eval_jet3(parse("1 + sqrt(s)"), -4.0)
        assert "sqrt(s)" in str(err.value)
        with pytest.raises(DomainEvalError) as err:
            eval_jet3(parse("1/(s-1)"), 1.0)
        assert err.value.subexpression

    def test_domain_error_in_batch_reports_first_point(self):
        s = np.array([4.0, 1.0, -1.0, -4.0])
        with pytest.raises(DomainEvalError) as err:
            eval_jet3(parse("1 + sqrt(s)"), s)
        assert err.value.index == 2
        assert "sqrt(s)" in str(err.value)

    def test_batch_matches_pointwise(self):
        # the acceptance suite's 1000 expressions, each evaluated once over
        # its point and finite-difference window
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            text, s0 = sample_well_behaved(rng)
            expr = parse(text)
            points = s0 + np.array((0.0,) + FD_WINDOW)
            batch = eval_jet3(expr, points)
            for i, s in enumerate(points):
                one = eval_jet3(expr, float(s))
                for k in range(4):
                    got = getattr(batch, f"v{k}")[i]
                    assert got == getattr(one, f"v{k}"), (text, float(s), k)

    def test_ln_domain(self):
        with pytest.raises(DomainEvalError):
            eval_value(parse("ln(s)"), 0.0)

    def test_sympy_oracle_battery(self):
        cases = [
            ("sqrt(1+s^2)", 1.0),
            ("sin(s)*cos(s)", 0.7),
            ("exp(-s^2)", 0.3),
            ("asinh(s)", 2.0),
            ("s^(3/2)", 1.7),
            ("tan(s)", 0.4),
            ("sinh(s)/cosh(s)", -0.9),
            ("ln(2+s^2)", -1.2),
            ("(1+s)/(2+s^2)", 0.25),
            ("cos(exp(s/4))", 1.1),
        ]
        for text, s0 in cases:
            want = sympy_jet(text, s0)
            got = eval_jet3(parse(text), s0)
            for g, w in zip((got.v0, got.v1, got.v2, got.v3), want):
                assert g == pytest.approx(w, rel=1e-9, abs=1e-9), text

    def test_sympy_oracle_random(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            text, s0 = sample_well_behaved(rng)
            want = sympy_jet(text, s0)
            got = eval_jet3(parse(text), s0)
            for k, (g, w) in enumerate(zip((got.v0, got.v1, got.v2, got.v3), want)):
                assert g == pytest.approx(w, rel=1e-8, abs=1e-8), (text, s0, k)


# Strategy for trees in parsed form (what the parser can produce).
_names = st.sampled_from(["c", "r", "alpha", "k0"])
_leaf = st.one_of(
    st.builds(Num, st.floats(min_value=0.0, max_value=100.0, allow_nan=False)),
    st.just(Var()),
    st.builds(Param, _names),
)
_exponents = st.sampled_from(
    [Fraction(2), Fraction(3), Fraction(-1), Fraction(1, 2), Fraction(3, 2), Fraction(-2, 3)]
)


def _extend(children):
    return st.one_of(
        st.builds(Func, st.sampled_from(["sin", "cos", "sqrt", "ln", "exp", "neg", "asinh"]), children),
        st.builds(BinOp, st.sampled_from(["+", "-", "*", "/"]), children, children),
        st.builds(Pow, children, _exponents),
    )


_trees = st.recursive(_leaf, _extend, max_leaves=20)


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(_trees)
    def test_unparse_parse_identity(self, tree):
        text = unparse(tree)
        reparsed = parse(text)
        assert reparsed == tree
        # and the stronger form: parse(unparse(parse(text))) == parse(text)
        assert parse(unparse(reparsed)) == reparsed

    @pytest.mark.parametrize(
        "text",
        [
            "sqrt(1+s^2)",
            "c*asinh(s/c)",
            "-s^2 + 3*s - 1/(s+2)",
            "s^(3/2) / (1 + cos(s)^2)",
            "exp(s*ln(2))",
            "1e-3 * s + 2.5E+2",
            "s^-2",
            "-(s+1)*(s-1)",
        ],
    )
    def test_grammar_samples(self, text):
        first = parse(text)
        assert parse(unparse(first)) == first
