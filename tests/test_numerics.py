import math
from fractions import Fraction as F

import pytest

from darboux3.fieldspec import FieldDef, HsaParams, build_hsa, parse_field
from darboux3.numerics import (
    ConstraintError,
    DomainError,
    F2PathContext,
    IntegralSpec,
    StepMode,
    cumulative_path_integral,
    drift,
    eval_integral,
    f2_path_value,
    f2_time_derivative_residual,
    integrate,
    simpson_integral,
    step_halving_study,
)
from darboux3.polyring import Poly

P_F1 = HsaParams(1, 0, 0, 1)
X0_F1 = (0.5, 0.2, 0.1)


def zero_field():
    return FieldDef(Poly.zero(), Poly.zero(), Poly.zero())


class TestIntegrate:
    def test_zero_field_constant(self):
        traj = integrate(zero_field(), (1.0, -2.0, 3.0), 1.0, StepMode.fixed(0.1))
        assert all(s == (1.0, -2.0, 3.0) for s in traj.states)

    def test_linear_decay_accuracy(self):
        f = parse_field("dx = 0\ndy = 0\ndz = 0 - z\n")
        traj = integrate(f, (0.0, 0.0, 1.0), 1.0, StepMode.fixed(1e-3))
        assert traj.times[-1] == pytest.approx(1.0)
        assert abs(traj.states[-1][2] - math.exp(-1)) < 1e-10

    def test_adaptive_decay(self):
        f = parse_field("dx = 0\ndy = 0\ndz = 0 - z\n")
        traj = integrate(f, (0.0, 0.0, 1.0), 1.0, StepMode.adaptive(1e-10))
        assert traj.times[-1] == pytest.approx(1.0)
        assert abs(traj.states[-1][2] - math.exp(-1)) < 1e-7
        assert traj.step_mode.kind == "adaptive"

    def test_blow_up_truncates(self):
        f = parse_field("dx = x^2\ndy = 0\ndz = 0\n")  # finite-time blow-up at t=1
        traj = integrate(f, (1.0, 0.0, 0.0), 2.0, StepMode.fixed(1e-3))
        assert traj.truncated_at is not None
        assert traj.truncation_reason is not None
        assert traj.times[-1] < 2.0
        assert all(math.isfinite(s[0]) for s in traj.states)

    def test_partial_final_step(self):
        f = parse_field("dx = 0\ndy = 0\ndz = 1\n")
        traj = integrate(f, (0.0, 0.0, 0.0), 0.25, StepMode.fixed(0.1))
        assert traj.times[-1] == pytest.approx(0.25)
        assert traj.states[-1][2] == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            integrate(zero_field(), (0, 0, 0), -1.0, StepMode.fixed(0.1))
        with pytest.raises(ValueError):
            StepMode.fixed(0.0)
        with pytest.raises(ValueError):
            StepMode("weird", 0.1)

    def test_sample_cap(self, monkeypatch):
        from darboux3 import numerics

        # the drift fixtures of acceptance criteria 5 and 6 (t = 10, step
        # halving from h = 1e-3) stay under it
        assert int(10.0 / (1e-3 / 2)) < numerics.MAX_SAMPLES
        with pytest.raises(ValueError, match="above the cap"):
            integrate(zero_field(), (0, 0, 0), 1e9, StepMode.fixed(1e-9))
        monkeypatch.setattr(numerics, "MAX_SAMPLES", 50)
        f = parse_field("dx = 0\ndy = 0\ndz = 0 - z\n")
        with pytest.raises(ValueError, match="above the cap"):
            integrate(f, (0.0, 0.0, 1.0), 1.0, StepMode.adaptive(1e-14))


class TestEvalIntegral:
    def test_f1_direct_substitution(self):
        spec = IntegralSpec("F1", P_F1)
        assert eval_integral(spec, (1.0, 0.0, 5.0)) == pytest.approx(-0.5)

    def test_f1_domain(self):
        spec = IntegralSpec("F1", P_F1)
        with pytest.raises(DomainError) as err:
            eval_integral(spec, (-1.0, 0.0, 0.0))
        assert "x > 0" in err.value.condition

    def test_f3_hand_value(self):
        p = HsaParams(-2, 0, 2, 1)
        spec = IntegralSpec("F3", p)
        t_val = math.sqrt(1.75)
        expected = 2 * math.log(2 * (1.5 + t_val) / 0.5) - t_val
        assert eval_integral(spec, (-0.5, 0.5, 0.0)) == pytest.approx(expected, rel=1e-14)

    def test_f3_domain_conditions(self):
        spec = IntegralSpec("F3", HsaParams(-2, 0, 2, 1))
        with pytest.raises(DomainError):  # x must be negative
            eval_integral(spec, (0.5, 0.5, 0.0))
        with pytest.raises(DomainError):  # T^2 <= 0
            eval_integral(spec, (-5.0, 0.5, 0.0))

    def test_f4_collapsed(self):
        spec = IntegralSpec("F4", HsaParams(-2, 0, 2, 0))
        assert eval_integral(spec, (0.0, 0.0, 0.0)) == pytest.approx(1.0)

    def test_f4_x_zero_identity(self):
        p = HsaParams(-2, 0, 2, 0)
        spec = IntegralSpec("F4", p)
        z = 0.37
        expected = math.exp(2 * z * math.sqrt(2.0))
        assert eval_integral(spec, (0.0, 0.0, z)) == expected

    def test_log_combination(self):
        spec = IntegralSpec(
            "log_combination",
            P_F1,
            terms=((F(2), Poly.variable("x"), "log"), (F(1), Poly.variable("y"), "plain")),
        )
        assert eval_integral(spec, (math.e, 3.0, 0.0)) == pytest.approx(5.0)

    def test_constraint_validation(self):
        with pytest.raises(ConstraintError):
            IntegralSpec("F1", HsaParams(1, 1, 1, 1))
        with pytest.raises(ConstraintError):
            IntegralSpec("F3", HsaParams(1, 0, 2, 0))  # alpha != -kappa*(kappa-1)
        with pytest.raises(ConstraintError):
            IntegralSpec("F4", HsaParams(-2, 0, 2, 1))  # lambda != 0
        with pytest.raises(ConstraintError):
            IntegralSpec("F4", HsaParams(F(-1, 4), 0, F(1, 2), 0))  # kappa(kappa-1) < 0
        with pytest.raises(ConstraintError):
            IntegralSpec("nope", P_F1)
        with pytest.raises(ConstraintError):
            IntegralSpec("log_combination", P_F1)


class TestF2Path:
    def setup_method(self):
        self.f = build_hsa(P_F1)
        self.traj = integrate(self.f, (0.5, 1.5, 0.1), 5.0, StepMode.fixed(1e-3))
        self.c = eval_integral(IntegralSpec("F1", P_F1), self.traj.states[0])

    def test_start_index_equals_z0(self):
        assert f2_path_value(self.traj, 0, "corrected", self.c) == 0.1
        assert f2_path_value(self.traj, 0, "paper", self.c) == 0.1

    def test_variant_experiment(self):
        rp = drift(self.traj, IntegralSpec("F2_paper", P_F1))
        rc = drift(self.traj, IntegralSpec("F2_corrected", P_F1))
        assert rc.relative_drift <= 1e-6
        assert rp.relative_drift > 1e-3
        assert rp.relative_drift / max(rc.relative_drift, 1e-300) >= 1e3

    def test_window_cut_at_branch(self):
        rc = drift(self.traj, IntegralSpec("F2_corrected", P_F1))
        assert rc.domain_violation is not None
        assert "sign" in rc.domain_violation[1]
        assert rc.window[1] < 5.0

    def test_lambda_zero_reduced_form(self):
        p0 = HsaParams(1, 0, 0, 0)
        f0 = build_hsa(p0)
        traj = integrate(f0, (0.5, 1.5, 0.3), 5.0, StepMode.fixed(1e-3))
        for which in ("F2_paper", "F2_corrected"):
            rep = drift(traj, IntegralSpec(which, p0))
            assert rep.relative_drift < 1e-8

    def test_eval_integral_needs_context(self):
        spec = IntegralSpec("F2_corrected", P_F1)
        with pytest.raises(ValueError):
            eval_integral(spec, self.traj.states[0])
        val = eval_integral(spec, self.traj.states[0], F2PathContext(self.traj, 0, self.c))
        assert val == 0.1

    def test_bad_start_raises(self):
        traj = integrate(self.f, (0.5, 1.0, 0.1), 1.0, StepMode.fixed(1e-2))
        with pytest.raises(DomainError):
            f2_path_value(traj, 0, "corrected", 0.0)


class TestF2SymbolicOracle:
    def test_paper_variant_residual(self):
        num, den = f2_time_derivative_residual(P_F1, "paper")
        x, z = Poly.variable("x"), Poly.variable("z")
        assert num == x * x * z - z  # lambda * z * (x^2 - 1) with lambda = 1
        assert den == Poly.constant(1)

    def test_corrected_variant_conserved(self):
        num, _ = f2_time_derivative_residual(P_F1, "corrected")
        assert num.is_zero()

    def test_lambda_zero_degenerate(self):
        p0 = HsaParams(1, 0, 0, 0)
        for variant in ("paper", "corrected"):
            num, _ = f2_time_derivative_residual(p0, variant)
            assert num.is_zero()

    def test_requires_regime(self):
        with pytest.raises(ConstraintError):
            f2_time_derivative_residual(HsaParams(1, 1, 0, 0), "paper")


class TestDrift:
    def test_f1_conserved(self):
        f = build_hsa(P_F1)
        traj = integrate(f, X0_F1, 3.0, StepMode.fixed(1e-3))
        rep = drift(traj, IntegralSpec("F1", P_F1))
        assert rep.relative_drift < 1e-12
        assert rep.domain_violation is None
        assert rep.window == (0.0, 3.0)
        assert rep.relative_drift == rep.max_abs_drift / (1 + abs(rep.initial_value))

    def test_param_mismatch(self):
        other = build_hsa(HsaParams(2, 0, 0, 1))
        traj = integrate(other, X0_F1, 1.0, StepMode.fixed(1e-2))
        with pytest.raises(ConstraintError):
            drift(traj, IntegralSpec("F1", P_F1))

    def test_initial_domain_error_raises(self):
        f = build_hsa(P_F1)
        traj = integrate(f, (-0.5, 0.2, 0.1), 1.0, StepMode.fixed(1e-2))
        with pytest.raises(DomainError):
            drift(traj, IntegralSpec("F1", P_F1))

    def test_negative_control_plain_y(self):
        f = build_hsa(P_F1)
        traj = integrate(f, X0_F1, 3.0, StepMode.fixed(1e-3))
        spec = IntegralSpec(
            "log_combination", P_F1, terms=((F(1), Poly.variable("y"), "plain"),)
        )
        rep = drift(traj, spec)
        assert rep.relative_drift > 1e-3


class TestStepHalving:
    def test_zero_field_convention(self):
        spec = IntegralSpec(
            "log_combination", P_F1, terms=((F(1), Poly.variable("y"), "plain"),)
        )
        study = step_halving_study(zero_field(), (1.0, 1.0, 1.0), spec, 0.1, 1.0)
        assert study.ratio == 1.0
        assert study.drift_h == 0.0

    def test_f1_fourth_order_signature(self):
        f = build_hsa(P_F1)
        study = step_halving_study(f, X0_F1, IntegralSpec("F1", P_F1), 1e-2, 10.0)
        assert 8 <= study.ratio <= 32


class TestQuadrature:
    def test_simpson_exact_on_quadratic(self):
        xs = [i / 100 for i in range(101)]
        ys = [x * x for x in xs]
        assert simpson_integral(ys, xs) == pytest.approx(1 / 3, abs=1e-15)

    def test_cumulative_matches_total(self):
        xs = [i / 50 for i in range(51)]
        ys = [x ** 3 for x in xs]
        cumulative = cumulative_path_integral(ys, xs)
        assert cumulative[0] == 0.0
        assert cumulative[-1] == pytest.approx(simpson_integral(ys, xs), abs=1e-14)
