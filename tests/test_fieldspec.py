import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from darboux3.fieldspec import (
    HsaParams,
    NonPolynomialError,
    ParseError,
    UnknownIdentifierError,
    build_hsa,
    field_to_text,
    hsa_params_of,
    lie_derivative,
    parse_expression,
    parse_field,
)
from darboux3.polyring import Monomial, Poly

X = Poly.variable("x")
Y = Poly.variable("y")
Z = Poly.variable("z")
ONE = Poly.constant(1)


class TestBuildHsa:
    def test_unit_parameters(self):
        f = build_hsa(HsaParams(1, 1, 1, 1))
        assert f.fx == X * Y - X - Z
        assert f.fy == ONE - X * X - Y
        assert f.fz == X - Z

    def test_zeroed_parameters(self):
        f = build_hsa(HsaParams(1, 0, 0, 0))
        assert f.fz == X

    def test_resonance_instance(self):
        # alpha = -kappa*(kappa - 1) with kappa = 2
        f = build_hsa(HsaParams(-2, 0, 2, 0))
        assert f.fy == Poly.constant(-2) + 2 * X * X - 2 * Y
        assert HsaParams(-2, 0, 2, 0).alpha_matches_kappa()

    def test_params_recoverable(self):
        p = HsaParams(F(1, 2), 0, F(-3), 7)
        assert hsa_params_of(build_hsa(p)) == p

    @pytest.mark.parametrize("alpha", [0, 1, -1, F(1, 2), F(-3, 2)])
    def test_terms_match_arithmetic_reference(self, alpha):
        # build_hsa writes the terms out; Poly arithmetic on the formulas must
        # give the same terms in the same key order, and the same text
        for beta, kappa, lam in itertools.product([0, 1, F(-2, 3)], repeat=3):
            p = HsaParams(alpha, beta, kappa, lam)
            want = (
                X * (Y - ONE) - Z.scale(p.beta),
                (ONE - X * X).scale(p.alpha) - Y.scale(p.kappa),
                X - Z.scale(p.lam),
            )
            f = build_hsa(p)
            for got, ref in zip(f.components(), want):
                assert list(got.terms.items()) == list(ref.terms.items())
                assert str(got) == str(ref)
            assert hsa_params_of(f) == p
            assert f.label == f"hsa(alpha={alpha}, beta={beta}, kappa={kappa}, lambda={lam})"

    def test_non_hsa_field_not_recognized(self):
        f = parse_field("dx = x\ndy = y\ndz = z\n")
        assert hsa_params_of(f) is None


class TestParseExpression:
    def test_hsa_x_component(self):
        p = parse_expression("x*(y-1) - b*z", {"b": F(1)})
        assert p == X * Y - X - Z

    def test_hsa_y_component(self):
        p = parse_expression("a*(1 - x^2) - k*y", {"a": F(1), "k": F(1)})
        assert p == ONE - X * X - Y

    def test_division_by_variable_rejected(self):
        with pytest.raises(NonPolynomialError):
            parse_expression("x/y")

    def test_fraction_literal(self):
        assert parse_expression("3/2") == Poly.constant(F(3, 2))
        assert parse_expression("3/2*x") == X.scale(F(3, 2))

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError) as err:
            parse_expression("x + w")
        assert "w" in str(err.value)

    def test_syntax_error_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_expression("x + + ")
        assert err.value.position >= 4

    def test_juxtaposition_is_not_multiplication(self):
        with pytest.raises(ParseError):
            parse_expression("2 x")

    def test_fractional_exponent_rejected(self):
        with pytest.raises(NonPolynomialError):
            parse_expression("x^(1/2)")

    def test_negative_exponent_rejected(self):
        with pytest.raises(NonPolynomialError):
            parse_expression("x^(-1)")

    def test_variable_exponent_rejected(self):
        with pytest.raises(NonPolynomialError):
            parse_expression("x^y")

    def test_exponent_above_cap_rejected(self):
        from darboux3 import fieldspec

        assert fieldspec.MAX_EXPONENT < 1000
        assert parse_expression(f"x^{fieldspec.MAX_EXPONENT}").degree == fieldspec.MAX_EXPONENT
        with pytest.raises(NonPolynomialError, match="exponent above"):
            parse_expression("x^1000")
        with pytest.raises(NonPolynomialError):
            parse_expression(f"2^({fieldspec.MAX_EXPONENT} + 1)")

    def test_degree_above_cap_rejected_before_multiplying(self):
        from darboux3 import fieldspec

        cap = fieldspec.MAX_DEGREE
        assert parse_expression(f"x^{cap // 2}*y^{cap - cap // 2}").degree == cap
        assert parse_expression(f"(x^2)^{cap // 2}").degree == cap
        for text in (f"x^{cap}*y", "(x^32)^3", "((x+y+z+1)^8)^8"):
            with pytest.raises(NonPolynomialError, match=f"above {cap}"):
                parse_expression(text)

    def test_coefficient_size_above_cap_rejected_before_multiplying(self):
        from darboux3 import fieldspec

        cap = fieldspec.MAX_COEFFICIENT_BITS
        assert parse_expression("(2^32)^32") == Poly.constant(2**1024)
        assert parse_expression("(3/2*x + 1)^32").degree == 32
        power = "(2^32)^32"
        for text in (f"({power})^32", "((((((2^32)^32)^32)^32)^32)^32)", "*".join([power] * 4)):
            with pytest.raises(NonPolynomialError, match=f"bits above {cap}"):
                parse_expression(text)

    def test_division_by_zero(self):
        with pytest.raises(ParseError):
            parse_expression("x/(1-1)")

    def test_unary_minus_and_powers(self):
        assert parse_expression("-x^2") == -(X * X)
        assert parse_expression("(-x)^2") == X * X

    def test_float_literal_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("0.5*x")


class TestParseField:
    def test_full_file(self):
        text = """
        # dynamo with beta bound externally
        param b = 1
        param k = 3/2
        dx = x*(y-1) - b*z
        dy = 1 - x^2 - k*y
        dz = x
        """
        f = parse_field(text)
        assert f.fx == X * Y - X - Z
        assert f.fy == ONE - X * X - Y.scale(F(3, 2))
        assert f.fz == X
        assert f.params["b"] == 1

    def test_missing_component(self):
        with pytest.raises(ParseError) as err:
            parse_field("dx = x\ndy = y\n")
        assert "dz" in str(err.value)

    def test_duplicate_component(self):
        with pytest.raises(ParseError):
            parse_field("dx = x\ndx = y\ndy = y\ndz = z\n")

    def test_bad_param_literal(self):
        with pytest.raises(ParseError):
            parse_field("param a = 0.5\ndx = x\ndy = y\ndz = z\n")

    def test_unknown_line(self):
        with pytest.raises(ParseError):
            parse_field("dw = x\ndx = x\ndy = y\ndz = z\n")

    def test_bindings_merge(self):
        f = parse_field("dx = a*x\ndy = y\ndz = z\n", {"a": F(5)})
        assert f.fx == X.scale(5)

    def test_roundtrip_through_rendering(self):
        f = build_hsa(HsaParams(F(1, 2), 1, F(-2, 3), 0))
        g = parse_field(field_to_text(f))
        assert (g.fx, g.fy, g.fz) == (f.fx, f.fy, f.fz)


class TestLieDerivative:
    def test_constant(self):
        f = build_hsa(HsaParams(2, 3, 5, 7))
        assert lie_derivative(f, Poly.constant(9)) == Poly.zero()

    def test_x_with_beta_zero(self):
        f = build_hsa(HsaParams(5, 0, 3, 2))
        assert lie_derivative(f, X) == X * (Y - ONE)

    def test_z_any_parameters(self):
        f = build_hsa(HsaParams(1, 1, 1, 1))
        assert lie_derivative(f, Z) == X - Z


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

coeffs = st.fractions(min_value=-2, max_value=2, max_denominator=2)


@st.composite
def small_poly(draw):
    n_terms = draw(st.integers(min_value=0, max_value=3))
    terms = {}
    for _ in range(n_terms):
        m = Monomial(
            draw(st.integers(min_value=0, max_value=2)),
            draw(st.integers(min_value=0, max_value=2)),
            draw(st.integers(min_value=0, max_value=1)),
        )
        terms[m] = draw(coeffs)
    return Poly(terms)


@st.composite
def hsa_field(draw):
    vals = [draw(st.sampled_from([F(0), F(1), F(-1), F(2), F(1, 2)])) for _ in range(4)]
    return build_hsa(HsaParams(*vals))


@given(hsa_field(), small_poly(), small_poly(), coeffs)
@settings(max_examples=150, deadline=None)
def test_linearity(f, h1, h2, c):
    lhs = lie_derivative(f, h1.scale(c) + h2)
    rhs = lie_derivative(f, h1).scale(c) + lie_derivative(f, h2)
    assert lhs == rhs


@given(hsa_field(), small_poly(), small_poly())
@settings(max_examples=150, deadline=None)
def test_leibniz_rule(f, h1, h2):
    lhs = lie_derivative(f, h1 * h2)
    rhs = h1 * lie_derivative(f, h2) + h2 * lie_derivative(f, h1)
    assert lhs == rhs


@given(hsa_field(), small_poly())
@settings(max_examples=150, deadline=None)
def test_degree_growth_bound(f, h):
    image = lie_derivative(f, h)
    if not image.is_zero():
        assert image.degree <= h.degree + 1
