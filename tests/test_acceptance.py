"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line (visible
with `pytest -s`), and one strict xfail that pins a known gap. Tolerances and runtime budgets are pinned here and nowhere
else; the drift fixtures carry their pre-verified domain checks inline.
"""

import itertools
import random
import time
from fractions import Fraction as F

import pytest

from darboux3.darboux import (
    CofactorTemplate,
    analyze,
    combination_log_terms,
    lie_derivative_log_combination,
    search_darboux_fixed,
    search_darboux_pencil,
    search_exp_factors,
    verify_exp_factor,
)
from darboux3.exactmath import QMatrix, null_space, rref
from darboux3.fieldspec import HsaParams, build_hsa, lie_derivative, parse_expression
from darboux3.numerics import (
    IntegralSpec,
    StepMode,
    drift,
    f2_time_derivative_residual,
    integrate,
    step_halving_study,
)
from darboux3.polyring import Cofactor, Monomial, Poly, monomials_up_to

from oracle_bilinear import oracle_cell

SEED = 20260809


def hsa(*params):
    return build_hsa(HsaParams(*params))


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE CRITERION {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


def exp_span(certs, degree_bound):
    basis = monomials_up_to(degree_bound, 1)
    rows = [
        [g.coefficient(m) for m in basis] + list(l.coordinates()) for g, l in certs
    ]
    reduced, _, rank = rref(QMatrix.from_rows(rows))
    return [tuple(reduced.row(i)) for i in range(rank)]


def expected_exp_certs(params):
    alpha, beta, kappa, lam = (F(v) for v in params)
    certs = [(Poly.variable("z"), Cofactor(0, 1, 0, -lam))]
    if kappa == 0:
        g = parse_expression(f"-x^2/2 + y/({alpha}) - y^2/(2*({alpha})) - ({beta})*z^2/2")
        certs.append((g, Cofactor(1, 0, -1, 0)))
    return certs


# ---------------------------------------------------------------------------
# Criterion 1: exponential-factor reproduction
# ---------------------------------------------------------------------------


def test_criterion_1_exp_factor_reproduction():
    cases = [(1, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 0), (1, 0, 0, 1)]
    ok = True
    details = []
    for params in cases:
        start = time.monotonic()
        f = hsa(*params)
        expected = expected_exp_certs(params)
        spans = {}
        for bound in (2, 4):
            found = search_exp_factors(f, bound)
            for c in found:
                assert verify_exp_factor(f, c.body, c.cofactor)
            spans[bound] = exp_span([(c.body, c.cofactor) for c in found], 4)
        elapsed = time.monotonic() - start
        case_ok = (
            spans[2] == spans[4] == exp_span(expected, 4) and elapsed < 10.0
        )
        ok = ok and case_ok
        details.append(f"{params}: {len(expected)} factors, {elapsed:.2f}s")
    report(1, ok, "; ".join(details))
    assert ok


# ---------------------------------------------------------------------------
# Criterion 2: Darboux polynomial reproduction at bound 4
# ---------------------------------------------------------------------------


def test_criterion_2_darboux_polynomials_bound_4():
    x = Poly.variable("x")
    start = time.monotonic()
    certs, notes = search_darboux_pencil(hsa(1, 0, 1, 1), CofactorTemplate.default(4), 4)
    t_a = time.monotonic() - start
    powers_ok = [c.body for c in certs] == [x, x**2, x**3, x**4] and notes == []
    cofactors_ok = all(
        c.cofactor == Cofactor(-n, 0, n, 0) for n, c in enumerate(certs, start=1)
    )
    primitive_ok = [c.primitive for c in certs] == [True, False, False, False]

    start = time.monotonic()
    empty_certs, _ = search_darboux_pencil(hsa(1, 1, 1, 1), CofactorTemplate.default(4), 4)
    t_b = time.monotonic() - start
    empty_ok = empty_certs == []

    fixed_ok = (
        search_darboux_fixed(hsa(1, 0, 1, 1), Cofactor(), 4) == []
        and search_darboux_fixed(hsa(1, 1, 1, 1), Cofactor(), 4) == []
    )
    runtime_ok = t_a < 300 and t_b < 300
    ok = powers_ok and cofactors_ok and primitive_ok and empty_ok and fixed_ok and runtime_ok
    report(
        2,
        ok,
        f"(1,0,1,1) -> powers of x in {t_a:.1f}s; (1,1,1,1) -> empty in {t_b:.1f}s; "
        f"K=0 kernels empty",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 3: combination verdicts
# ---------------------------------------------------------------------------


def test_criterion_3_combination_verdicts():
    ok = True
    details = []
    for params in [(1, 1, 1, 1), (1, 0, 1, 1)]:
        v = analyze(hsa(*params), 4)
        case_ok = v.conclusion == "none_up_to_bound"
        ok = ok and case_ok
        details.append(f"{params}: {v.conclusion}")
    for lam in (0, 1):
        params = (1, 0, 0, lam)
        v = analyze(hsa(*params), 4)
        nontrivial = [c for c in v.combinations if not c.trivial]
        case_ok = v.conclusion == "darboux_integral_found" and len(nontrivial) == 1
        if case_ok:
            certs = v.combination_certs()
            weights = nontrivial[0].weights
            numerator = lie_derivative_log_combination(
                v.model, combination_log_terms(certs, weights)
            )
            case_ok = numerator.is_zero()
            # cross-check by exact expansion: the combination log-equals F1/alpha,
            # i.e. log x - x^2/2 - y^2/2 + y for alpha = 1 (after scaling the
            # weight on the Darboux polynomial x to 1)
            w_x = next(
                w for c, w in zip(certs, weights) if c.kind == "polynomial" and c.body == Poly.variable("x")
            )
            case_ok = case_ok and w_x != 0
            if case_ok:
                scale = 1 / w_x
                log_part = Poly.zero()
                plain_part = Poly.zero()
                for c, w in zip(certs, weights):
                    if c.kind == "polynomial":
                        log_part = log_part + c.body.scale(w * scale) if w != 0 else log_part
                    else:
                        plain_part = plain_part + c.body.scale(w * scale)
                case_ok = (
                    log_part == Poly.variable("x")
                    and plain_part == parse_expression("-x^2/2 + y - y^2/2")
                )
        ok = ok and case_ok
        details.append(f"{params}: {v.conclusion}, log-combination == F1/alpha: {case_ok}")
    report(3, ok, "; ".join(details))
    assert ok


# ---------------------------------------------------------------------------
# Criterion 4: oracle equivalence at tiny scale
# ---------------------------------------------------------------------------


def test_criterion_4_oracle_equivalence():
    start = time.monotonic()
    grid = [F(0), F(1), F(-1)]
    tuples = [
        t for t in itertools.product(grid, repeat=4) if t[0] != 0
    ]
    assert len(tuples) == 54
    mismatches = []
    for params in tuples:
        f = build_hsa(HsaParams(*params))
        for bound in (1, 2):
            certs, notes = search_darboux_pencil(f, CofactorTemplate.default(bound), bound)
            assert notes == [], (params, bound, notes)
            for b2 in range(-bound, bound + 1):
                got = {
                    (str(c.body), c.cofactor.b0)
                    for c in certs
                    if c.cofactor.b2 == b2
                }
                expected = oracle_cell(*params, F(b2), bound)
                assert expected != "parametric", (params, b2)
                want = {(str(h), t0) for h, t0 in expected}
                if got != want:
                    mismatches.append((params, bound, b2, got, want))
    elapsed = time.monotonic() - start
    ok = not mismatches and elapsed < 600
    report(
        4,
        ok,
        f"54 tuples x bounds {{1,2}} against the brute-force bilinear solver in "
        f"{elapsed:.0f}s; mismatches: {len(mismatches)}",
    )
    assert ok, mismatches[:3]


# ---------------------------------------------------------------------------
# Criterion 5: conservation drift
# ---------------------------------------------------------------------------


def test_criterion_5_conservation_drift():
    ok = True
    details = []

    # F1 fixture; pre-verified domain: x0 > 0
    p1 = HsaParams(1, 0, 0, 1)
    x0_1 = (0.5, 0.2, 0.1)
    assert x0_1[0] > 0
    f1 = build_hsa(p1)
    spec1 = IntegralSpec("F1", p1)

    # F3 fixture; pre-verified domain: T^2 > 0, -x > 0, log argument > 0.
    # The trajectory decays to the equilibrium where T -> 0, so the start is
    # chosen with y + kappa - 1 large enough that the evaluation stays
    # conditioned through t = 10.
    p3 = HsaParams(-2, 0, 2, 1)
    x0_3 = (-0.01, 6.0, 0.0)
    t2_0 = float(p3.kappa * (1 - p3.kappa)) * x0_3[0] ** 2 + (
        x0_3[1] + float(p3.kappa) - 1
    ) ** 2
    assert t2_0 > 0 and -x0_3[0] > 0
    assert 2 * (float(p3.kappa) + x0_3[1] - 1 + t2_0**0.5) / (-x0_3[0]) > 0
    f3 = build_hsa(p3)
    spec3 = IntegralSpec("F3", p3)

    # F4 fixture; pre-verified: kappa*(kappa-1) = 2 >= 0, denominator > 0
    p4 = HsaParams(-2, 0, 2, 0)
    x0_4 = (0.01, 6.0, 0.1)
    assert float(p4.kappa) * (float(p4.kappa) - 1) >= 0
    assert x0_4[1] + float(p4.kappa) - 1 + x0_4[0] * (2.0**0.5) != 0
    f4 = build_hsa(p4)
    spec4 = IntegralSpec("F4", p4)

    # step-halving studies run at coarser steps than the drift measurement so
    # the 4th-order truncation signature stays above the float round-off floor
    for name, f, x0, spec, study_h in [
        ("F1", f1, x0_1, spec1, 1e-2),
        ("F3", f3, x0_3, spec3, 5e-2),
        ("F4", f4, x0_4, spec4, 5e-2),
    ]:
        traj = integrate(f, x0, 10.0, StepMode.fixed(1e-3))
        rep = drift(traj, spec)
        study = step_halving_study(f, x0, spec, study_h, 10.0)
        case_ok = (
            rep.domain_violation is None
            and rep.relative_drift <= 1e-8
            and 8 <= study.ratio <= 32
        )
        ok = ok and case_ok
        details.append(
            f"{name}: rel drift {rep.relative_drift:.1e}, halving ratio {study.ratio:.1f}"
        )

    # negative control: plain y is not conserved and does not improve under
    # refinement
    spec_y = IntegralSpec("log_combination", p1, terms=((F(1), Poly.variable("y"), "plain"),))
    traj = integrate(f1, x0_1, 10.0, StepMode.fixed(1e-3))
    rep_y = drift(traj, spec_y)
    study_y = step_halving_study(f1, x0_1, spec_y, 1e-3, 10.0)
    control_ok = rep_y.relative_drift >= 1e-3 and study_y.ratio < 8
    ok = ok and control_ok
    details.append(
        f"negative control y: drift {rep_y.relative_drift:.1e}, ratio {study_y.ratio:.2f}"
    )
    report(5, ok, "; ".join(details))
    assert ok


# ---------------------------------------------------------------------------
# Criterion 6: F2 variant experiment
# ---------------------------------------------------------------------------


def test_criterion_6_f2_variant_experiment():
    p = HsaParams(1, 0, 0, 1)
    f = build_hsa(p)
    x0 = (0.5, 1.5, 0.1)  # y - 1 > 0 and sign-stable on the reported window
    traj = integrate(f, x0, 5.0, StepMode.fixed(1e-3))
    rp = drift(traj, IntegralSpec("F2_paper", p))
    rc = drift(traj, IntegralSpec("F2_corrected", p))
    num_paper, _ = f2_time_derivative_residual(p, "paper")
    num_corr, _ = f2_time_derivative_residual(p, "corrected")
    winner_ok = rc.relative_drift <= 1e-6
    loser_ok = rp.relative_drift > 1e-3
    margin_ok = rp.relative_drift / max(rc.relative_drift, 1e-300) >= 1e3
    oracle_ok = num_corr.is_zero() and not num_paper.is_zero()
    exactly_one = winner_ok and loser_ok
    ok = exactly_one and margin_ok and oracle_ok
    report(
        6,
        ok,
        f"conserved variant: F2_corrected (drift {rc.relative_drift:.1e}); "
        f"F2_paper drift {rp.relative_drift:.1e}; symbolic d/dt: paper -> {num_paper}, "
        f"corrected -> 0",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 7: randomized algebra property suites (>= 1000 instances each)
# ---------------------------------------------------------------------------

N_INSTANCES = 1000


def _random_poly(rng, max_terms=4, max_exp=2):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        m = Monomial(rng.randint(0, max_exp), rng.randint(0, max_exp), rng.randint(0, max_exp))
        terms[m] = F(rng.randint(-6, 6), rng.randint(1, 3))
    return Poly(terms)


def _random_matrix(rng):
    rows = rng.randint(1, 4)
    cols = rng.randint(1, 4)
    entries = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rows * cols)]
    return QMatrix(rows, cols, entries)


def _times(m, v):
    """The product of the matrix m and the column vector v, as a list."""
    col = v.column(0)
    return [sum((x * y for x, y in zip(m.row(i), col)), F(0)) for i in range(m.rows)]


def test_criterion_7_property_suites():
    rng = random.Random(SEED)
    for _ in range(N_INSTANCES):
        p, q, r = (_random_poly(rng) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    rng = random.Random(SEED + 1)
    for _ in range(N_INSTANCES):
        p = _random_poly(rng)
        total = Poly.zero()
        for d, part in p.homogeneous_parts():
            assert all(m.degree == d for m in part.terms)
            total = total + part
        assert total == p

    rng = random.Random(SEED + 2)
    param_pool = [F(0), F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 2)]
    for _ in range(N_INSTANCES):
        params = HsaParams(*(rng.choice(param_pool) for _ in range(4)))
        f = build_hsa(params)
        h1 = _random_poly(rng)
        h2 = _random_poly(rng)
        assert lie_derivative(f, h1 * h2) == h1 * lie_derivative(f, h2) + h2 * lie_derivative(f, h1)

    rng = random.Random(SEED + 3)
    for _ in range(N_INSTANCES):
        m = _random_matrix(rng)
        _, _, rank = rref(m)
        kernel = null_space(m)
        assert rank + len(kernel) == m.cols

    rng = random.Random(SEED + 4)
    for _ in range(N_INSTANCES):
        m = _random_matrix(rng)
        for v in null_space(m):
            assert _times(m, v) == [F(0)] * m.rows

    report(
        7,
        True,
        f"ring axioms, homogeneous re-sum, Leibniz, rank-nullity, null-space "
        f"exactness: {N_INSTANCES} seeded instances each",
    )


# ---------------------------------------------------------------------------
# Known gap: the resonant family alpha = -s^2, s > 0 rational
# ---------------------------------------------------------------------------


@pytest.mark.xfail(
    strict=True,
    reason="the default template pins b1 = 0, but F4's factors x -+ 3/2*y -+ 1/2 have b1 = -+2/3",
)
def test_resonant_tuple_finds_the_paper_f4():
    """HSA(-4/9, 0, 4/3, 0): kappa*(kappa - 1) = (2/3)^2, so the paper's F4 =
    h-/h+ * exp(4z/3), with h+- = x +- 3/2*y +- 1/2, is a rational Darboux
    first integral of degree 1. The default search misses h+- (b1 != 0) and
    concludes none_up_to_bound; sweeping b1 will make this pass."""
    v = analyze(hsa(F(-4, 9), 0, F(4, 3), 0), 2)
    assert v.conclusion == "darboux_integral_found"
