import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from revtype import Jet3, JetDomainError
from revtype import jets

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
