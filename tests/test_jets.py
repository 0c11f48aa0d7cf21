import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from revtype import Jet3, JetDomainError
from revtype import eval_jet3, jets, parse

from helpers import reference_pow_int

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
jet_st = st.builds(Jet3, finite, finite, finite, finite)


def test_variable_seed():
    s = Jet3.variable(7.0)
    assert (s.v0, s.v1, s.v2, s.v3) == (7.0, 1.0, 0.0, 0.0)


def test_cubic_closed_form():
    # derivatives of s^3 are exact in every channel
    for s0 in (-2.0, -0.5, 0.0, 0.3, 1.7):
        j = jets.pow_int(Jet3.variable(s0), 3)
        assert j.v0 == pytest.approx(s0 ** 3, rel=1e-12, abs=1e-15)
        assert j.v1 == pytest.approx(3 * s0 ** 2, rel=1e-12, abs=1e-15)
        assert j.v2 == pytest.approx(6 * s0, rel=1e-12, abs=1e-15)
        assert j.v3 == pytest.approx(6.0, rel=1e-12)


@pytest.mark.parametrize("text, s0", (("s^2", 1e100), ("s^3", 1e80)))
def test_integer_power_does_not_square_past_its_last_bit(text, s0):
    # s^2 = 1e200 and s^3 = 1e240 are finite; a square after the last bit
    # of the exponent would overflow.
    with np.errstate(all="raise"):
        j = eval_jet3(parse(text), np.array([s0]))
    assert all(np.isfinite(c).all() for c in (j.v0, j.v1, j.v2, j.v3))
    assert j.v0[0] == pytest.approx(s0 ** int(text[-1]), rel=1e-14)


@pytest.mark.parametrize("n", range(-8, 65))
def test_integer_power_matches_square_past_last_bit(n):
    # Dropping the unused square leaves every product, so every bit, alone.
    for u in (Jet3(np.array([0.3, -1.1, 1.5, -0.7]), 1.0),
              Jet3(np.array([1.2, -0.4]), np.array([0.5, -2.0]), np.array([0.25, 1.0]),
                   np.array([-3.0, 0.125])),
              Jet3(0.9, -0.2, 0.3, 0.1)):
        got, want = jets.pow_int(u, n), reference_pow_int(u, n)
        for g, w in zip((got.v0, got.v1, got.v2, got.v3), (want.v0, want.v1, want.v2, want.v3)):
            assert np.asarray(g).tobytes() == np.asarray(w).tobytes(), n


@given(jet_st, jet_st)
def test_product_rule(a, b):
    # (fg)'' = f''g + 2f'g' + fg'' and the third-order analogue
    p = a * b
    assert p.v1 == pytest.approx(a.v1 * b.v0 + a.v0 * b.v1, rel=1e-12, abs=1e-9)
    assert p.v2 == pytest.approx(
        a.v2 * b.v0 + 2 * a.v1 * b.v1 + a.v0 * b.v2, rel=1e-12, abs=1e-9
    )
    assert p.v3 == pytest.approx(
        a.v3 * b.v0 + 3 * a.v2 * b.v1 + 3 * a.v1 * b.v2 + a.v0 * b.v3,
        rel=1e-12,
        abs=1e-9,
    )


@given(jet_st, jet_st)
@example(a=Jet3(2.0, 0.0, 0.0, 0.001), b=Jet3(0.001, 2.0, 0.0, 0.0))
def test_division_inverts_product(a, b):
    if abs(b.v0) < 1e-3:
        return
    q = a / b
    back = q * b
    qs, bs = (q.v0, q.v1, q.v2, q.v3), (b.v0, b.v1, b.v2, b.v3)
    for k, (got, want) in enumerate(zip(
        (back.v0, back.v1, back.v2, back.v3), (a.v0, a.v1, a.v2, a.v3)
    )):
        # Channel k is the Leibniz sum of C(k, i) q_i b_(k-i).  At small
        # |b.v0| its terms grow like 1/b.v0^k and cancel, so the rounding
        # left over scales with the largest term, not with the channel;
        # the floor absorbs subnormal intermediates.
        scale = max(abs(math.comb(k, i) * qs[i] * bs[k - i]) for i in range(k + 1))
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12 * scale + 1e-300)


def test_chain_rule_sin_of_square():
    # d/ds sin(s^2) at s0, against hand derivatives
    s0 = 0.7
    j = jets.sin(jets.pow_int(Jet3.variable(s0), 2))
    u = s0 * s0
    assert j.v1 == pytest.approx(2 * s0 * math.cos(u), rel=1e-12)
    assert j.v2 == pytest.approx(2 * math.cos(u) - 4 * s0 * s0 * math.sin(u), rel=1e-12)
    assert j.v3 == pytest.approx(
        -12 * s0 * math.sin(u) - 8 * s0 ** 3 * math.cos(u), rel=1e-12
    )


def test_negative_integer_power():
    s0 = 1.5
    j = jets.pow_int(Jet3.variable(s0), -2)
    assert j.v0 == pytest.approx(s0 ** -2, rel=1e-13)
    assert j.v1 == pytest.approx(-2 * s0 ** -3, rel=1e-13)
    assert j.v2 == pytest.approx(6 * s0 ** -4, rel=1e-13)
    assert j.v3 == pytest.approx(-24 * s0 ** -5, rel=1e-13)


def test_rational_power():
    s0 = 2.0
    j = jets.pow_rational(Jet3.variable(s0), Fraction(3, 2))
    assert j.v0 == pytest.approx(s0 ** 1.5, rel=1e-13)
    assert j.v1 == pytest.approx(1.5 * s0 ** 0.5, rel=1e-13)
    assert j.v2 == pytest.approx(0.75 * s0 ** -0.5, rel=1e-13)
    assert j.v3 == pytest.approx(-0.375 * s0 ** -1.5, rel=1e-13)


def test_integer_power_at_zero_base():
    j = jets.pow_int(Jet3.variable(0.0), 3)
    assert (j.v0, j.v1, j.v2, j.v3) == (0.0, 0.0, 0.0, 6.0)


@pytest.mark.parametrize(
    "fn, bad",
    [
        (jets.sqrt, Jet3.constant(-1.0)),
        (jets.sqrt, Jet3.constant(0.0)),
        (jets.ln, Jet3.constant(0.0)),
        (jets.ln, Jet3.constant(-2.0)),
    ],
)
def test_domain_errors(fn, bad):
    with pytest.raises(JetDomainError):
        fn(bad)


def test_division_by_zero():
    with pytest.raises(JetDomainError):
        Jet3.constant(1.0) / Jet3.constant(0.0)


def test_fractional_power_of_negative():
    with pytest.raises(JetDomainError):
        jets.pow_rational(Jet3.constant(-1.0), Fraction(1, 2))


def test_scalar_mixing():
    j = 2.0 * Jet3.variable(3.0) + 1.0
    assert (j.v0, j.v1) == (7.0, 2.0)
    j = 1.0 / Jet3.variable(2.0)
    assert j.v0 == 0.5 and j.v1 == -0.25


def _same(a: Jet3, b: Jet3) -> bool:
    """Equal channels; a scalar channel stands for its broadcast, since
    the full rules broadcast a scalar channel that a float path leaves."""
    return all(np.array_equal(*np.broadcast_arrays(x, y)) for x, y in zip(
        (a.v0, a.v1, a.v2, a.v3), (b.v0, b.v1, b.v2, b.v3)))


_row = st.lists(finite, min_size=3, max_size=3).map(np.array)
_any_jet = st.one_of(jet_st, st.builds(Jet3, _row, finite, finite, finite),
                     st.builds(Jet3, _row, _row, _row, _row))


# No divisor so small that a quotient overflows: there the full rule
# multiplies inf by a zero channel and forms the nan that a float path skips.
_scale = finite.filter(lambda c: c == 0.0 or abs(c) > 1e-300)


@given(_any_jet, _scale)
def test_float_operand_matches_constant_jet(u, c):
    # A float operand skips the Leibniz terms that a constant's zero
    # channels would contribute; the channels agree up to the sign of zero.
    k = Jet3.constant(c)
    pairs = [(u + c, u + k), (c + u, k + u), (u - c, u - k), (c - u, k - u),
             (u * c, u * k), (c * u, k * u)]
    if c != 0.0:
        pairs.append((u / c, u / k))
    for fast, full in pairs:
        assert _same(fast, full)


def test_float_minus_jet_keeps_the_sign_of_zero():
    # -v would give -0.0 where the full rule's 0.0 - v gives +0.0.
    u = Jet3(1.0, 0.0, -0.0, 0.0)
    fast, full = 2.0 - u, Jet3.constant(2.0) - u
    signs = [math.copysign(1.0, x) for x in (fast.v1, fast.v2, fast.v3)]
    assert signs == [math.copysign(1.0, x) for x in (full.v1, full.v2, full.v3)] == [1.0] * 3


@pytest.mark.parametrize("zero", (0.0, -0.0))
def test_division_by_float_zero(zero):
    with pytest.raises(JetDomainError, match="division by zero") as err:
        Jet3.variable(np.array([1.0, 2.0])) / zero
    assert err.value.index == 0


@given(finite, finite, st.tuples(finite, finite, finite, finite))
def test_compose_of_linear_inner_jet(v0, v1, d):
    # 0-d array zeros are not float zeros, so they take the full chain rule.
    full = jets.compose(Jet3(v0, v1, np.array(0.0), np.array(0.0)), *d)
    assert _same(jets.compose(Jet3(v0, v1), *d), full)
