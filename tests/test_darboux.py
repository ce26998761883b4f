import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from darboux3.darboux import (
    CofactorTemplate,
    _coefficient_spaces,
    _lie_matrix,
    DarbouxCert,
    analyze,
    combination_log_terms,
    combine_cofactors,
    lie_derivative_log_combination,
    search_darboux_fixed,
    search_darboux_pencil,
    search_exp_factors,
    verify_cofactor,
    verify_exp_factor,
    verify_exp_factor_rational,
)
from darboux3.exactmath import QMatrix, rref
from darboux3.fieldspec import FieldDef, HsaParams, build_hsa, lie_derivative, parse_expression
from darboux3.polyring import Cofactor, Poly, monomials_up_to

X = Poly.variable("x")
Y = Poly.variable("y")
Z = Poly.variable("z")
ONE = Poly.constant(1)


def hsa(*params):
    return build_hsa(HsaParams(*params))


def exp_span_canonical(certs, degree_bound):
    """Canonical basis of the span of (g, L) coefficient vectors; compares
    exponential-factor sets modulo scaling and basis change."""
    basis = monomials_up_to(degree_bound, 1)
    rows = []
    for g, l in certs:
        rows.append([g.coefficient(m) for m in basis] + list(l.coordinates()))
    reduced, _, rank = rref(QMatrix.from_rows(rows))
    return [tuple(reduced.row(i)) for i in range(rank)]


def expected_exp_certs(params):
    """Exponential factors the search must reproduce, with the cofactor signs
    pinned by the verify_exp_factor oracle (see the sign tests below)."""
    alpha, beta, kappa, lam = (F(v) for v in params)
    certs = [(Z, Cofactor(0, F(1), 0, -lam))]  # e^z with L = x - lambda*z
    if kappa == 0:
        g = (
            -(X * X).scale(F(1, 2))
            + Y.scale(1 / alpha)
            - (Y * Y).scale(1 / (2 * alpha))
            - (Z * Z).scale(beta / 2)
        )
        certs.append((g, Cofactor(F(1), 0, F(-1), 0)))  # L = 1 - y
    return certs


class TestVerify:
    def test_darboux_poly_true(self):
        assert verify_cofactor(hsa(1, 0, 1, 1), X, Cofactor(-1, 0, 1, 0))

    def test_darboux_poly_false_with_beta(self):
        assert not verify_cofactor(hsa(1, 1, 1, 1), X, Cofactor(-1, 0, 1, 0))

    def test_trivial_constant(self):
        assert verify_cofactor(hsa(2, 3, 5, 7), ONE, Cofactor())

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError):
            verify_cofactor(hsa(1, 0, 1, 1), Poly.zero(), Cofactor())

    def test_exp_factor_z(self):
        f = hsa(F(1, 2), 3, -2, F(7, 5))
        assert verify_exp_factor(f, Z, Cofactor(0, 1, 0, F(-7, 5)))

    def test_exp_factor_quadratic_sign(self):
        # X(g) computed by expansion gives 1 - y, not y - 1
        f = hsa(1, 1, 0, 0)
        g = parse_expression("-x^2/2 + y - y^2/2 - z^2/2")
        assert verify_exp_factor(f, g, Cofactor(1, 0, -1, 0))
        assert not verify_exp_factor(f, g, Cofactor(-1, 0, 1, 0))

    def test_degenerate_zero(self):
        assert verify_exp_factor(hsa(1, 1, 1, 1), Poly.zero(), Cofactor())

    def test_rational_exponent(self):
        # exp(z*x / x) = exp(z): X(zx/x) = x - lambda*z
        f = hsa(1, 0, 1, 1)
        assert verify_exp_factor_rational(f, Z * X, X, Cofactor(0, 1, 0, -1))
        assert not verify_exp_factor_rational(f, Z * X, X, Cofactor(0, 1, 0, 1))

    def test_rational_exponent_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            verify_exp_factor_rational(hsa(1, 0, 1, 1), Z, Poly.zero(), Cofactor())


class TestSearchExpFactors:
    @pytest.mark.parametrize("params", [(1, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 0), (1, 0, 0, 1)])
    @pytest.mark.parametrize("bound", [2, 4])
    def test_reproduces_expected_sets(self, params, bound):
        f = hsa(*params)
        found = search_exp_factors(f, bound)
        expected = expected_exp_certs(params)
        assert len(found) == len(expected)
        got = exp_span_canonical([(c.body, c.cofactor) for c in found], bound)
        want = exp_span_canonical(
            [(g, l) for g, l in expected], bound
        )
        assert got == want

    def test_results_verified_and_normalized(self):
        for c in search_exp_factors(hsa(1, 0, 0, 1), 3):
            assert verify_exp_factor(hsa(1, 0, 0, 1), c.body, c.cofactor)
            assert c.body.leading()[1] == 1

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            search_exp_factors(hsa(1, 1, 1, 1), 0)


class TestSearchDarbouxFixed:
    def test_cofactor_y_minus_one(self):
        basis = search_darboux_fixed(hsa(1, 0, 1, 1), Cofactor(-1, 0, 1, 0), 3)
        assert basis == [X]

    def test_no_polynomial_first_integral(self):
        assert search_darboux_fixed(hsa(1, 1, 1, 1), Cofactor(), 4) == []

    def test_doubled_cofactor_gives_square(self):
        basis = search_darboux_fixed(hsa(1, 0, 1, 1), Cofactor(-2, 0, 2, 0), 3)
        assert basis == [X * X]

    def test_zero_field_kernel_excludes_constants(self):
        zero_field = FieldDef(Poly.zero(), Poly.zero(), Poly.zero())
        basis = search_darboux_fixed(zero_field, Cofactor(), 1)
        assert basis == [X, Y, Z]


class TestSearchDarbouxPencil:
    def test_bound_one_single_certificate(self):
        template = CofactorTemplate(
            fixed=(("b1", F(0)), ("b3", F(0))),
            eigen="b0",
            enumerated=(("b2", (F(0), F(1))),),
        )
        certs, notes = search_darboux_pencil(hsa(1, 0, 1, 1), template, 1)
        assert notes == []
        assert len(certs) == 1
        assert certs[0].body == X
        assert certs[0].cofactor == Cofactor(-1, 0, 1, 0)

    def test_power_closure_and_primitive_flags(self):
        certs, _ = search_darboux_pencil(
            hsa(1, 0, 1, 1), CofactorTemplate.default(3), 3, rng=random.Random(5)
        )
        bodies = [c.body for c in certs]
        assert bodies == [X, X * X, X ** 3]
        assert [c.primitive for c in certs] == [True, False, False]
        assert [c.cofactor for c in certs] == [
            Cofactor(-n, 0, n, 0) for n in (1, 2, 3)
        ]

    def test_beta_nonzero_empty(self):
        certs, _ = search_darboux_pencil(
            hsa(1, 1, 1, 1), CofactorTemplate.default(3), 3, rng=random.Random(5)
        )
        assert certs == []

    def test_template_validation(self):
        with pytest.raises(ValueError):
            CofactorTemplate(fixed=(("b1", F(0)),), eigen="b0")  # b2, b3 unassigned
        with pytest.raises(ValueError):
            # two eigen slots is unrepresentable; a template without any is
            # rejected by the search
            search_darboux_pencil(
                hsa(1, 0, 1, 1),
                CofactorTemplate(
                    fixed=(("b0", F(0)), ("b1", F(0)), ("b2", F(0)), ("b3", F(0))),
                    eigen=None,
                ),
                2,
            )

    def test_matches_oracle_on_sample_tuples(self):
        from oracle_bilinear import oracle_cell

        for params in [(1, 0, 1, 1), (1, 1, 0, -1), (-1, 0, 0, 1)]:
            f = hsa(*params)
            certs, notes = search_darboux_pencil(
                f, CofactorTemplate.default(2), 2, rng=random.Random(2)
            )
            assert notes == []
            for b2 in range(-2, 3):
                got = {
                    (str(c.body), c.cofactor.b0)
                    for c in certs
                    if c.cofactor.b2 == b2
                }
                expected = oracle_cell(*(F(v) for v in params), F(b2), 2)
                assert expected != "parametric"
                want = {(str(h), t0) for h, t0 in expected}
                assert got == want, (params, b2)


class TestCombineCofactors:
    def test_independent_cofactors_trivial(self):
        f = hsa(1, 0, 1, 1)
        certs = [
            DarbouxCert("polynomial", X, Cofactor(-1, 0, 1, 0), 2),
            DarbouxCert("exp_factor", Z, Cofactor(0, 1, 0, -1), 2),
        ]
        combos = combine_cofactors(certs, f)
        assert len(combos) == 1
        assert combos[0].trivial
        assert set(combos[0].weights) == {F(0)}

    def test_negation_pair(self):
        certs = [
            DarbouxCert("exp_factor", Z, Cofactor(-1, 0, 1, 0), 2),
            DarbouxCert("exp_factor", Y, Cofactor(1, 0, -1, 0), 2),
        ]
        combos = combine_cofactors(certs)
        assert len(combos) == 1
        assert not combos[0].trivial
        assert combos[0].weights == (F(1), F(1))

    def test_first_integral_combination(self):
        f = hsa(1, 0, 0, 1)
        g = parse_expression("-x^2/2 + y - y^2/2")
        certs = [
            DarbouxCert("polynomial", X, Cofactor(-1, 0, 1, 0), 2),
            DarbouxCert("exp_factor", g, Cofactor(1, 0, -1, 0), 2),
            DarbouxCert("exp_factor", Z, Cofactor(0, 1, 0, -1), 2),
        ]
        combos = [c for c in combine_cofactors(certs, f) if not c.trivial]
        assert len(combos) == 1
        assert combos[0].weights == (F(1), F(1), F(0))
        numerator = lie_derivative_log_combination(
            f, combination_log_terms(certs, combos[0].weights)
        )
        assert numerator.is_zero()

    def test_unverified_certificate_rejected(self):
        f = hsa(1, 1, 1, 1)  # beta != 0, so X is not a Darboux polynomial here
        bogus = DarbouxCert("polynomial", X, Cofactor(-1, 0, 1, 0), 2)
        with pytest.raises(ValueError):
            combine_cofactors([bogus], f)

    def test_empty_certs_rejected(self):
        with pytest.raises(ValueError):
            combine_cofactors([])


class TestLogCombination:
    def test_first_integral_terms(self):
        f = hsa(1, 0, 0, 1)
        terms = [(F(1), X, "log"), (F(1), parse_expression("-x^2/2 + y - y^2/2"), "plain")]
        assert lie_derivative_log_combination(f, terms).is_zero()

    def test_single_darboux_poly_is_not_integral(self):
        f = hsa(1, 0, 1, 1)
        numerator = lie_derivative_log_combination(f, [(F(1), X, "log")])
        assert numerator == X * (Y - ONE)

    def test_log_of_constant(self):
        f = hsa(1, 0, 1, 1)
        assert lie_derivative_log_combination(f, [(F(1), ONE, "log")]).is_zero()

    def test_zero_log_base_rejected(self):
        with pytest.raises(ValueError):
            lie_derivative_log_combination(hsa(1, 0, 1, 1), [(F(1), Poly.zero(), "log")])


class TestAnalyze:
    def test_not_integrable_with_beta(self):
        v = analyze(hsa(1, 1, 1, 1), 2, rng=random.Random(0))
        assert v.conclusion == "none_up_to_bound"
        assert [str(c.body) for c in v.exp_factors] == ["z"]
        assert v.darboux_polys == []

    def test_not_integrable_beta_zero_kappa_nonzero(self):
        v = analyze(hsa(1, 0, 1, 1), 2, rng=random.Random(0))
        assert v.conclusion == "none_up_to_bound"
        assert [str(c.body) for c in v.darboux_polys] == ["x", "x^2"]

    def test_integrable_kappa_beta_zero(self):
        v = analyze(hsa(1, 0, 0, 1), 2, rng=random.Random(0))
        assert v.conclusion == "darboux_integral_found"
        nontrivial = [c for c in v.combinations if not c.trivial]
        assert len(nontrivial) == 1
        terms = combination_log_terms(v.combination_certs(), nontrivial[0].weights)
        assert lie_derivative_log_combination(v.model, terms).is_zero()

    def test_exact_residual_is_constant_and_seed_free(self):
        # sampled minors used to leave t^2 + 2 in cell b2=2 under seed 12; the
        # exact residual of every cell is constant, so no cell gets a note
        runs = [analyze(hsa(1, 0, 0, 0), 2, rng=random.Random(s)) for s in (0, 12, 217)]
        assert "nonconstant residual" not in runs[0].notes
        digests = [
            (v.conclusion, v.notes, [c.describe() for c in v.darboux_polys + v.exp_factors])
            for v in runs
        ]
        assert digests[1:] == digests[:1] * 2

    def test_zero_field_short_circuit(self):
        zero_field = FieldDef(Poly.zero(), Poly.zero(), Poly.zero())
        v = analyze(zero_field, 3)
        assert v.conclusion == "darboux_integral_found"
        assert "zero field" in v.notes

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            analyze(hsa(1, 1, 1, 1), 7)

    def test_non_hsa_field_gets_disclaimer(self):
        from darboux3.fieldspec import parse_field

        f = parse_field("dx = y\ndy = -x\ndz = 0\n")
        v = analyze(f, 2, rng=random.Random(0))
        assert "only justified" in v.notes

    def test_non_hsa_field_sweeps_negative_b2(self):
        # no top-degree relation pins b2 >= 0 here: x has cofactor -y
        from darboux3.fieldspec import parse_field

        v = analyze(parse_field("dx = -x*y\ndy = 1\ndz = 0\n"), 2)
        found = {(str(c.body), c.cofactor) for c in v.darboux_polys}
        assert ("x", Cofactor(b2=-1)) in found
        assert "b2 swept over -2..2" in v.notes

    def test_alpha_zero_dynamo_gets_no_disclaimer(self):
        # at alpha = 0 the top-degree relation forces b1 = b3 = 0 and b2 = k
        assert "only justified" not in analyze(hsa(0, 1, 1, 1), 2).notes

    def test_cubic_field_notes_truncated_cofactor_space(self):
        from darboux3.fieldspec import parse_field

        cubic = analyze(parse_field("dx = x^3\ndy = y\ndz = z\n"), 2, rng=random.Random(0))
        quadratic = analyze(parse_field("dx = x^2\ndy = y\ndz = z\n"), 2, rng=random.Random(0))
        truncated = [line for line in cubic.notes.splitlines() if "truncated" in line]
        assert len(truncated) == 1
        assert "degree <= 1" in truncated[0]
        assert "truncated" not in quadratic.notes

    def test_exp_factors_stable_between_bounds(self):
        for params in [(1, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 0), (1, 0, 0, 1)]:
            span2 = exp_span_canonical(
                [(c.body, c.cofactor) for c in search_exp_factors(hsa(*params), 2)], 4
            )
            span4 = exp_span_canonical(
                [(c.body, c.cofactor) for c in search_exp_factors(hsa(*params), 4)], 4
            )
            assert span2 == span4


class TestWiderParameterOracle:
    """Spot checks on the wider parameter pool (values up to +-2 and +-1/2)
    against the independent bilinear solver, degree bound 2."""

    def test_sampled_tuples(self):
        from oracle_bilinear import oracle_cell

        samples = [
            (F(2), F(0), F(1, 2), F(1)),
            (F(-1, 2), F(2), F(0), F(-2)),
            (F(1, 2), F(-1, 2), F(2), F(0)),
            (F(-2), F(0), F(2), F(1)),
        ]
        for params in samples:
            f = build_hsa(HsaParams(*params))
            certs, notes = search_darboux_pencil(
                f, CofactorTemplate.default(2), 2, rng=random.Random(9)
            )
            assert notes == []
            for b2 in range(-2, 3):
                got = {
                    (str(c.body), c.cofactor.b0)
                    for c in certs
                    if c.cofactor.b2 == b2
                }
                expected = oracle_cell(*params, F(b2), 2)
                assert expected != "parametric"
                assert got == {(str(h), t0) for h, t0 in expected}, (params, b2)


class TestAlternateEigenSlot:
    def test_eigen_b2_finds_x(self):
        # pin b0 = -1 and solve for the y-slope: X(x) = (-1 + t*y)x at t = 1
        template = CofactorTemplate(
            fixed=(("b0", F(-1)), ("b1", F(0)), ("b3", F(0))),
            eigen="b2",
        )
        certs, notes = search_darboux_pencil(
            hsa(1, 0, 1, 1), template, 2, rng=random.Random(1)
        )
        assert notes == []
        assert [(c.body, c.cofactor) for c in certs] == [
            (X, Cofactor(-1, 0, 1, 0))
        ]


class TestGenericParameters:
    def test_exp_factors_generic_kappa_nonzero(self):
        # kappa != 0: only e^z survives, any alpha, beta, lambda
        f = hsa(2, 3, 5, 7)
        certs = search_exp_factors(f, 3)
        assert [(str(c.body), str(c.cofactor)) for c in certs] == [("z", "x - 7*z")]


class TestFractionalParameters:
    def test_analyze_with_fraction_bindings(self):
        v = analyze(hsa(F(1, 2), 0, F(1, 3), F(2, 5)), 3, rng=random.Random(0))
        assert v.conclusion == "none_up_to_bound"
        assert [str(c.body) for c in v.darboux_polys] == ["x", "x^2", "x^3"]
        assert str(v.darboux_polys[0].cofactor) == "y - 1"


# ---------------------------------------------------------------------------
# Scaling the field: the searches clear denominators by the lcm D of the
# field's and the pinned values' denominators, which must change nothing
# ---------------------------------------------------------------------------


@st.composite
def scaled_field_case(draw):
    """A rational field of degree <= 2 with an invariant plane x = 0 (cofactor
    L) and an exponential factor e^z (X(z) linear) in some draws, a cofactor
    K, and a factor c > 0: a random rational or the lcm of the field's
    denominators, which makes c*X integral."""
    q = st.fractions(min_value=-3, max_value=3, max_denominator=6)

    def poly(degree):
        return Poly({m: draw(q) for m in monomials_up_to(degree)})

    lin = poly(1)
    fx = X * lin if draw(st.booleans()) else poly(2)
    fz = poly(1) if draw(st.booleans()) else poly(2)
    f = FieldDef(fx, poly(2), fz)
    k = Cofactor.from_poly(lin) if draw(st.booleans()) else Cofactor(*(draw(q) for _ in range(4)))
    lcm = math.lcm(*(c.denominator for p in f.components() for c in p.terms.values()))
    c = draw(st.one_of(st.just(F(lcm)), st.fractions(min_value=F(1, 8), max_value=8, max_denominator=9)))
    return f, k, c


@given(scaled_field_case())
@settings(max_examples=40, deadline=None)
def test_searches_invariant_under_field_scaling(case):
    f, k, c = case
    cf = FieldDef(*(p.scale(c) for p in f.components()))
    assert search_darboux_fixed(cf, k.scale(c), 2) == search_darboux_fixed(f, k, 2)

    exps, c_exps = search_exp_factors(f, 2), search_exp_factors(cf, 2)
    assert [e.body for e in c_exps] == [e.body for e in exps]
    assert [e.cofactor for e in c_exps] == [e.cofactor.scale(c) for e in exps]

    def template(s):
        return CofactorTemplate(
            fixed=(("b1", s * k.b1), ("b3", s * k.b3)),
            eigen="b0",
            enumerated=(("b2", (s * k.b2, s * (k.b2 + 1), 0)),),
        )

    certs, _ = search_darboux_pencil(f, template(1), 2)
    c_certs, _ = search_darboux_pencil(cf, template(c), 2)
    assert [(e.body, e.primitive) for e in c_certs] == [(e.body, e.primitive) for e in certs]
    assert [e.cofactor for e in c_certs] == [e.cofactor.scale(c) for e in certs]


# ---------------------------------------------------------------------------
# Lie-matrix assembly from the field's terms against lie_derivative
# ---------------------------------------------------------------------------


@st.composite
def lie_matrix_case(draw):
    """A rational field of degree <= 3, a degree bound 1..3 and pinned values
    whose denominators enter the scale D."""
    q = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    degree = draw(st.integers(min_value=0, max_value=3))
    components = [
        Poly({m: draw(q) for m in monomials_up_to(draw(st.integers(0, degree)))}) for _ in "xyz"
    ]
    values = draw(st.lists(q, max_size=3))
    return FieldDef(*components), draw(st.integers(min_value=1, max_value=3)), values


@given(lie_matrix_case())
@settings(max_examples=60, deadline=None)
def test_lie_matrix_columns_are_scaled_lie_derivatives(case):
    f, bound, values = case
    domain, index = _coefficient_spaces(f, bound, 0)
    mat, scale = _lie_matrix(f, domain, index, values)
    coeffs = [c for p in f.components() for c in p.terms.values()]
    assert scale == math.lcm(*(c.denominator for c in coeffs + values))
    for j, m in enumerate(domain):
        want = [0] * len(index)
        for mono, c in lie_derivative(f, Poly.term(m, 1)).terms.items():
            want[index[mono]] = c * scale
        assert mat[j :: len(domain)] == want


# ---------------------------------------------------------------------------
# The top-degree lemma behind the default template: the dynamo's quadratic
# part is x*D, so a Darboux polynomial whose top form is x^k*g (x not
# dividing g) has b2 = k and b3 = 0, and the cells b2 < 0 are empty
# ---------------------------------------------------------------------------


@st.composite
def rational_hsa_case(draw):
    """A rational dynamo tuple, alpha = 0 and negative squares and non-squares
    among the alphas, and a degree bound of 1 to 3."""
    alpha = draw(st.sampled_from([F(0), F(-1), F(-4), F(-1, 4), F(-2), F(-1, 2), F(1), F(3, 2)]))
    rest = st.sampled_from([F(0), F(1), F(-1), F(1, 2), F(-3, 2), F(2)])
    return (alpha, draw(rest), draw(rest), draw(rest)), draw(st.integers(1, 3))


@given(rational_hsa_case())
@settings(max_examples=40, deadline=None)
def test_wide_template_obeys_top_degree_lemma(case):
    params, bound = case
    f = hsa(*params)
    wide = CofactorTemplate(
        fixed=(("b1", F(0)), ("b3", F(0))),
        eigen="b0",
        enumerated=(("b2", tuple(F(v) for v in range(-bound, bound + 1))),),
    )
    certs, notes = search_darboux_pencil(f, wide, bound)
    for c in certs:
        _, top = c.body.homogeneous_parts()[-1]
        assert c.cofactor.b2 == min(m.ex for m in top.terms)
        assert c.cofactor.b3 == 0
    default = search_darboux_pencil(f, CofactorTemplate.default(bound), bound)
    assert (certs, notes) == default
