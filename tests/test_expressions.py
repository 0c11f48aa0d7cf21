import string
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from revtype import (
    DomainEvalError,
    ParseError,
    UnboundParameterError,
    eval_jet3,
    expressions,
    jets,
    parse,
    unparse,
)
from revtype.expressions import (
    MAX_DEPTH,
    ArityError,
    BinOp,
    Func,
    Num,
    Param,
    Pow,
    UnknownFunctionError,
    Var,
)

from helpers import (
    DEEP_TEXTS,
    FD_WINDOW,
    eval_value,
    reference_eval_jet3,
    reference_tokenize,
    sample_well_behaved,
    sympy_jet,
)


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

    def test_offsets_count_characters(self):
        # The 'é' is character 4 of the text and byte 5 of its UTF-8 form.
        with pytest.raises(ParseError, match="unexpected character 'é'") as err:
            parse("\u0663 + é")
        assert err.value.offset == 4
        assert unparse(parse("\u0663 * s")) == "3.0 * s"

    def test_trailing_input(self):
        with pytest.raises(ParseError) as err:
            parse("s 1")
        assert err.value.offset == 2

    def test_empty(self):
        with pytest.raises(ParseError):
            parse("")

    @pytest.mark.parametrize("text, offset", (
        ("2 + s^(2^(10^6))", 6),
        ("s^(1e300^1e300)", 9),
        ("s^(2^64)", 2),
        ("s^(1/2^64)", 2),
        ("s^18446744073709551616", 2),
        ("s^((3/2)^128)", 2),
    ))
    def test_exponent_too_large(self, text, offset):
        with pytest.raises(ParseError, match="exponent too large") as err:
            parse(text)
        assert err.value.offset == offset

    def test_largest_exponents_fold(self):
        assert parse("s^(2^63)") == Pow(Var(), Fraction(2**63))
        assert parse("s^-(1/2)^63") == Pow(Var(), Fraction(-1, 2**63))
        assert parse("s^(1^1000)") == Pow(Var(), Fraction(1))

    @pytest.mark.parametrize("name, offset", (
        ("parentheses", 102), ("minus-signs", 102), ("powers", 204), ("flat-sum", 398),
    ))
    def test_deep_text_is_a_parse_error(self, name, offset):
        with pytest.raises(ParseError, match="expression nested too deeply") as err:
            parse(DEEP_TEXTS[name])
        assert err.value.offset == offset

    @pytest.mark.parametrize("text", (
        "sin(" * (MAX_DEPTH - 1) + "s" + ")" * (MAX_DEPTH - 1),
        " + ".join(["s"] * MAX_DEPTH),
        "-" * (MAX_DEPTH - 1) + "s",
        "(" * (MAX_DEPTH + 1) + "s" + ")" * (MAX_DEPTH + 1),
        # unparse writes s^(-1.0), two levels deeper than the tree.
        "cos(" * (MAX_DEPTH - 2) + "s^-1" + ")" * (MAX_DEPTH - 2),
    ), ids=("functions", "flat-sum", "minus-signs", "parentheses", "exponent"))
    def test_text_at_the_bound_round_trips_and_evaluates(self, text):
        tree = parse(text)
        assert parse(unparse(tree)) == tree
        assert np.isfinite(eval_jet3(tree, np.linspace(0.5, 1.0, 3)).v3).all()
        with pytest.raises(ParseError, match="expression nested too deeply"):
            parse("-" + text)

    def test_frame_budget(self):
        # 101 nested parentheses take about 516 frames over the caller at
        # five frames a nesting level; one more frame a level takes 618.
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 530)
        try:
            tree = parse("(" * 101 + "s" + ")" * 101)
        finally:
            sys.setrecursionlimit(limit)
        assert tree == Var()

    @pytest.mark.parametrize("text, offset", (("s^1e999", 2), ("2 + 1e999 * s", 4)))
    def test_number_out_of_range(self, text, offset):
        with pytest.raises(ParseError, match="number out of range") as err:
            parse(text)
        assert err.value.offset == offset

    def test_catalog_trees_unchanged_by_the_exponent_bound(self, monkeypatch):
        from revtype import catalog, expressions

        curves = [catalog.make(name).curve for name in catalog.names()]
        texts = [unparse(e) for curve in curves for e in (curve.f, curve.g)]
        bounded = [parse(text) for text in texts]
        monkeypatch.setattr(expressions, "MAX_EXPONENT_BITS", 10**9)
        assert [parse(text) for text in texts] == bounded


# Characters of each token class, Unicode whitespace, a non-ASCII decimal
# digit and letter, and stray characters, each class drawn equally often.
_token_chars = st.one_of(
    st.sampled_from(string.digits),
    st.sampled_from(string.ascii_letters + "_"),
    st.sampled_from(".eE+-*/^(),#$"),
    st.sampled_from(" \t\n\u00a0\u2003\u001c"),
    st.sampled_from("\u0663é"),
)


def _tokens(tokenize, text):
    try:
        return [tuple(tok) for tok in tokenize(text)]
    except ParseError as exc:
        return str(exc), exc.offset


class TestTokenize:
    @settings(max_examples=500, deadline=None)
    @given(st.text(_token_chars, max_size=24))
    def test_matches_character_at_a_time_reference(self, text):
        assert _tokens(expressions._tokenize, text) == _tokens(reference_tokenize, text)


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


# Trees over every node kind the evaluator meets, for the oracle comparison.
_PARAMS = {"c": 1.5, "r": -0.75, "alpha": 0.0, "k0": 3.0}
_all_leaves = st.one_of(
    st.builds(Num, st.floats(min_value=0.0, max_value=10.0, allow_nan=False)),
    st.just(Var()),
    st.builds(Param, st.sampled_from(sorted(_PARAMS))),
)
_rational_exponents = st.sampled_from(
    [Fraction(0), Fraction(1), Fraction(2), Fraction(3), Fraction(-1), Fraction(-2),
     Fraction(1, 2), Fraction(3, 2), Fraction(-1, 3), Fraction(5, 4)]
)


def _all_nodes(children):
    return st.one_of(
        st.builds(Func, st.sampled_from(sorted(jets.FUNCTIONS)), children),
        st.builds(BinOp, st.sampled_from(["+", "-", "*", "/"]), children, children),
        st.builds(Pow, children, _rational_exponents),
    )


_eval_trees = st.recursive(_all_leaves, _all_nodes, max_leaves=12)
_points = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
_s_values = st.one_of(_points, st.lists(_points, min_size=1, max_size=6).map(np.array))


def _outcome(evaluate, tree, s):
    """Channels of one evaluation, or the domain error it raised.  Both
    evaluators run on arrays, where a derivative formula that underflows to
    a zero divisor (ln(s) at s = 1e-170) gives an infinite channel, not an
    exception; inside a constant subtree (ln(1e-200)) only the value is
    kept."""
    try:
        with np.errstate(all="ignore"):
            j = evaluate(tree, s, _PARAMS)
    except DomainEvalError as exc:
        return "error", str(exc), exc.subexpression, exc.index
    return j


class TestScalarConstants:
    """Constants evaluated as floats give the channels of the all-jet
    evaluator, which runs the full Leibniz and chain rules on them."""

    @settings(max_examples=400, deadline=None)
    @given(_eval_trees, _s_values)
    def test_matches_all_jet_evaluator(self, tree, s):
        # A float s is a one-point batch: the oracle runs on [s], and each
        # of its channels is compared at element 0.
        scalar = np.ndim(s) == 0
        want = _outcome(reference_eval_jet3, tree, np.array([s]) if scalar else s)
        got = _outcome(eval_jet3, tree, s)
        if isinstance(want, tuple):
            assert got == want
            return
        assert not isinstance(got, tuple), got
        for k in range(4):
            g, w = np.asarray(getattr(got, f"v{k}")), np.asarray(getattr(want, f"v{k}"))
            if scalar:
                w = w[0]
            assert g.shape == w.shape, k
            if k:
                # Where an overflowed value meets a zero channel the full
                # rules form inf * 0 = nan, a term the scalar paths never
                # compute; every derivative the oracle does not make nan
                # must agree, and values agree everywhere.
                g, w = g[~np.isnan(w)], w[~np.isnan(w)]
            assert np.array_equal(g, w, equal_nan=True), (unparse(tree), s, k, g, w)

    @pytest.mark.parametrize("text, subexpression", (
        ("s + 1/0", "1.0 / 0.0"),
        ("s * ln(0 - 1)", "ln(0.0 - 1.0)"),
        ("sqrt(c - 2) + s", "sqrt(c - 2.0)"),
    ))
    def test_constant_domain_error_names_the_constant(self, text, subexpression):
        for s in (0.5, np.array([0.5, 1.5])):
            with pytest.raises(DomainEvalError) as err:
                eval_jet3(parse(text), s, {"c": 1.0})
            assert err.value.subexpression == subexpression
            assert err.value.index == 0

    @pytest.mark.parametrize("text, folded, value", (
        # The full rules divide a Python float by an underflowed zero here,
        ("s + 0*ln(1e-200)", "s + c", 0.0 * np.log(1e-200)),
        # and here and below form inf and nan on np.float64 scalars.
        ("s * ln(sin(1e-200))", "s * c", np.log(np.sin(1e-200))),
        ("s + sqrt(1e-300)", "s + c", np.sqrt(1e-300)),
    ))
    def test_constant_keeps_only_its_value(self, text, folded, value):
        for s in (0.5, np.array([0.5, 1.5])):
            with np.errstate(all="raise"):
                got = eval_jet3(parse(text), s)
                want = eval_jet3(parse(folded), s, {"c": float(value)})
            for k in range(4):
                assert np.array_equal(getattr(got, f"v{k}"), getattr(want, f"v{k}")), (text, k)

    def test_plain_constants_skip_the_constant_rule(self, monkeypatch):
        # The catalog sphere's g = -r * cos(s / r) meets only the constant
        # `neg`, whose float arithmetic cannot trap, so it makes no
        # `_constant_value` round trip, and keeps the all-jet bits.
        def forbidden(fn, args):
            raise AssertionError("_constant_value called")

        monkeypatch.setattr(expressions, "_constant_value", forbidden)
        tree, params = parse("-r * cos(s / r)"), {"r": 1.7}
        s = np.linspace(0.1, 5.2, 37)
        with np.errstate(all="raise"):
            got = eval_jet3(tree, s, params)
        want = reference_eval_jet3(tree, s, params)
        for k in range(4):
            g, w = getattr(got, f"v{k}"), getattr(want, f"v{k}")
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes(), k
        for text in ("s * (2 + 3)", "s - (2 - 3)", "(-2) * s", "s + -(1.5 * 4)"):
            eval_jet3(parse(text), s)

    def test_overflowing_constant_product_folds_to_inf(self):
        for s in (0.5, np.array([0.5, 1.5])):
            with np.errstate(all="raise"):
                j = eval_jet3(parse("1e200 * 1e200 + 0 * s"), s)
            assert np.all(j.v0 == np.inf), s

    def test_constant_expression_fills_the_batch(self):
        j = eval_jet3(parse("c * sin(2)"), np.array([0.0, 1.0, 2.0]), {"c": 3.0})
        assert j.v0.shape == (3,) and np.all(j.v0 == 3.0 * np.sin(2.0))
        for channel in (j.v1, j.v2, j.v3):
            assert channel.shape == (3,) and not np.any(channel)


class TestScalarIsOnePointBatch:
    """A float ``s`` evaluates as the batch ``[s]``: the same channels, the
    same domain errors and the same floating-point faults."""

    @staticmethod
    def _outcome(tree, s, flags):
        try:
            with np.errstate(all=flags):
                return eval_jet3(tree, s, _PARAMS)
        except (DomainEvalError, FloatingPointError) as exc:
            return type(exc), str(exc)

    @pytest.mark.parametrize("flags", ("ignore", "raise"))
    @settings(max_examples=200, deadline=None)
    @given(tree=_eval_trees, s=_points)
    def test_scalar_is_element_zero_of_batch(self, flags, tree, s):
        got = self._outcome(tree, s, flags)
        batch = self._outcome(tree, np.array([s]), flags)
        if isinstance(batch, tuple):
            assert got == batch
            return
        for k in range(4):
            g, b = getattr(got, f"v{k}"), getattr(batch, f"v{k}")
            assert np.ndim(g) == 0 and np.array_equal(g, b[0], equal_nan=True), (unparse(tree), k)

    def test_underflowed_divisor_is_infinite(self):
        with np.errstate(all="ignore"):
            j = eval_jet3(parse("ln(s)"), 1e-170)
        assert (j.v1, j.v2, j.v3) == (1e170, -np.inf, np.inf)
        assert j.v0 == np.log(1e-170)
        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            eval_jet3(parse("ln(s)"), 1e-170)
