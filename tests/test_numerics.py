import json
import math
import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from darboux3 import numerics
from darboux3.cli import main
from darboux3.fieldspec import FieldDef, HsaParams, build_hsa, hsa_params_of, parse_field
from darboux3.numerics import (
    ConstraintError,
    DomainError,
    F2PathContext,
    IntegralSpec,
    StepMode,
    Trajectory,
    cumulative_path_integral,
    drift,
    eval_integral,
    f2_path_value,
    f2_time_derivative_residual,
    integrate,
    step_halving_study,
)
from darboux3.polyring import Monomial, Poly, monomials_up_to

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


    def test_adaptive_blow_up_truncates(self):
        # the solution 1/(1e-9 - t) leaves the floats inside the first trial
        # step h = 0.01: x**2 overflows in a stage, and the run stops there
        f = parse_field("dx = x^2\ndy = 0\ndz = 0\n")
        traj = integrate(f, (1e9, 0.0, 0.0), 1.0, StepMode.adaptive(1e-6))
        assert traj.truncated_at == 0.01
        assert traj.truncation_reason == "non-finite state (blow-up)"
        assert traj.times == [0.0, 0.01]
        assert traj.states == [(1e9, 0.0, 0.0)] * 2
        assert all(math.isfinite(v) for s in traj.states for v in s)

    def test_adaptive_stall_truncates(self):
        # near the blow-up at t = 1 the error test fails at every h, and the
        # steps of h <= 1e-12 taken anyway end up below t's resolution
        f = parse_field("dx = x^2\ndy = 0\ndz = 0\n")
        traj = integrate(f, (1.0, 0.0, 0.0), 2.0, StepMode.adaptive(1e-3))
        assert traj.truncation_reason == "step no longer advances t (stalled)"
        assert traj.truncated_at == traj.times[-1]
        assert 1.0 < traj.times[-1] < 1.0001
        assert len(traj.times) == 3254
        assert all(a < b for a, b in zip(traj.times, traj.times[1:]))


# A copy of the per-component stepping loop the generated steps replaced: the
# generated code must give the same floats, bit for bit, as this one.
REF_MAX_SAMPLES = 2_000


def _ref_compile_field(f: FieldDef):
    def comp_src(p: Poly) -> str:
        if p.is_zero():
            return "0.0"
        parts = []
        for m, c in p.sorted_terms():
            facs = [repr(float(c))]
            for name, e in zip(("x", "y", "z"), m):
                if e == 1:
                    facs.append(name)
                elif e > 1:
                    facs.append(f"{name}**{e}")
            parts.append("*".join(facs))
        return " + ".join(parts)

    src = f"lambda x, y, z: ({comp_src(f.fx)}, {comp_src(f.fy)}, {comp_src(f.fz)})"
    return eval(src)


def _ref_finite(s) -> bool:
    return all(math.isfinite(v) for v in s)


_REF_BLOWUP = (float("nan"),) * 3


def _ref_rk4_step(fn, s, h):
    try:
        k1 = fn(*s)
        k2 = fn(*(s[i] + 0.5 * h * k1[i] for i in range(3)))
        k3 = fn(*(s[i] + 0.5 * h * k2[i] for i in range(3)))
        k4 = fn(*(s[i] + h * k3[i] for i in range(3)))
        return tuple(s[i] + h / 6.0 * (k1[i] + 2 * k2[i] + 2 * k3[i] + k4[i]) for i in range(3))
    except OverflowError:
        return _REF_BLOWUP


def _ref_rkf45_step(fn, s, h):
    try:
        return _ref_rkf45_step_raw(fn, s, h)
    except OverflowError:
        return _REF_BLOWUP, 0.0


def _ref_rkf45_step_raw(fn, s, h):
    k1 = fn(*s)
    k2 = fn(*(s[i] + h * 0.25 * k1[i] for i in range(3)))
    k3 = fn(*(s[i] + h * (3 / 32 * k1[i] + 9 / 32 * k2[i]) for i in range(3)))
    k4 = fn(
        *(
            s[i] + h * (1932 / 2197 * k1[i] - 7200 / 2197 * k2[i] + 7296 / 2197 * k3[i])
            for i in range(3)
        )
    )
    k5 = fn(
        *(
            s[i] + h * (439 / 216 * k1[i] - 8 * k2[i] + 3680 / 513 * k3[i] - 845 / 4104 * k4[i])
            for i in range(3)
        )
    )
    k6 = fn(
        *(
            s[i]
            + h
            * (
                -8 / 27 * k1[i]
                + 2 * k2[i]
                - 3544 / 2565 * k3[i]
                + 1859 / 4104 * k4[i]
                - 11 / 40 * k5[i]
            )
            for i in range(3)
        )
    )
    y4 = tuple(
        s[i] + h * (25 / 216 * k1[i] + 1408 / 2565 * k3[i] + 2197 / 4104 * k4[i] - 1 / 5 * k5[i])
        for i in range(3)
    )
    y5 = tuple(
        s[i]
        + h
        * (
            16 / 135 * k1[i]
            + 6656 / 12825 * k3[i]
            + 28561 / 56430 * k4[i]
            - 9 / 50 * k5[i]
            + 2 / 55 * k6[i]
        )
        for i in range(3)
    )
    err = max(abs(a - b) for a, b in zip(y4, y5))
    return y5, err


def _ref_integrate(f: FieldDef, x0, t_end: float, mode: StepMode) -> Trajectory:
    if not 0 < t_end < math.inf:
        raise ValueError("t_end must be positive and finite")
    fn = _ref_compile_field(f)
    x0 = tuple(float(v) for v in x0)
    if len(x0) != 3:
        raise ValueError("initial state must have three components")
    params = hsa_params_of(f)
    label = params if params is not None else f.label

    times = [0.0]
    states = [x0]
    truncated_at = None
    reason = None
    if mode.kind == "fixed":
        h = mode.value
        n_full = int(t_end / h + 1e-9)
        if n_full > REF_MAX_SAMPLES:
            raise ValueError(f"t_end / h asks for {n_full} steps, above the cap of {REF_MAX_SAMPLES}")
        t = 0.0
        s = x0
        for i in range(1, n_full + 1):
            s = _ref_rk4_step(fn, s, h)
            t = i * h
            if not _ref_finite(s):
                truncated_at, reason = t, "non-finite state (blow-up)"
                break
            times.append(t)
            states.append(s)
        else:
            if t < t_end - 1e-12 * max(1.0, t_end):
                s = _ref_rk4_step(fn, s, t_end - t)
                if _ref_finite(s):
                    times.append(t_end)
                    states.append(s)
                else:
                    truncated_at, reason = t_end, "non-finite state (blow-up)"
    else:
        tol = mode.value
        t = 0.0
        s = x0
        h = min(1e-2, t_end / 10)
        while t < t_end:
            h = min(h, t_end - t)
            s_new, err = _ref_rkf45_step(fn, s, h)
            if not _ref_finite(s_new):
                truncated_at, reason = t + h, "non-finite state (blow-up)"
                break
            if err <= tol or h <= 1e-12:
                if t + h == t:  # the stall stop, not the stepping under test
                    truncated_at, reason = t, "step no longer advances t (stalled)"
                    break
                if len(times) > REF_MAX_SAMPLES:
                    raise ValueError(f"adaptive run above the cap of {REF_MAX_SAMPLES} steps")
                t += h
                s = s_new
                times.append(t)
                states.append(s)
            factor = 0.9 * (tol / err) ** 0.2 if err > 0 else 5.0
            h *= min(5.0, max(0.2, factor))
    if len(times) < 2:
        times.append(truncated_at if truncated_at is not None else t_end)
        states.append(states[0])
    return Trajectory(times, states, mode, label, truncated_at, reason)


def _outcome(run, *args):
    try:
        traj = run(*args)
    except ValueError as exc:  # the sample cap
        return ("ValueError", str(exc))
    return traj, repr(traj)  # repr tells -0.0 from 0.0


_coefficient = st.builds(
    F, st.integers(-3, 3).filter(bool), st.sampled_from([1, 2, 3, 4])
)
_component = st.dictionaries(st.sampled_from(monomials_up_to(3)), _coefficient, max_size=4)


@st.composite
def _drawn_field(draw):
    comps = [draw(_component) for _ in range(3)]
    if draw(st.booleans()):  # dx gains 4x^3: blows up from any x != 0 by t = 1/(8x^2)
        comps[0][Monomial(3, 0, 0)] = F(4)
    return FieldDef(*(Poly(c) for c in comps))


_coordinate = st.floats(-2, 2)


@given(
    f=_drawn_field(),
    # a start at 1e9 overflows inside the first step of most fields
    x0=st.tuples(_coordinate | st.sampled_from([1e3, 1e9]), _coordinate, _coordinate),
    t_end=st.floats(0.05, 2.0),
    h=st.floats(1e-3, 0.5),
    tol=st.sampled_from([1e-3, 1e-6, 1e-9]),
)
@settings(max_examples=100, deadline=None)
def test_generated_steps_match_the_per_component_loop(f, x0, t_end, h, tol):
    with mock.patch.object(numerics, "MAX_SAMPLES", REF_MAX_SAMPLES):
        for mode in (StepMode.fixed(h), StepMode.adaptive(tol)):
            assert _outcome(integrate, f, x0, t_end, mode) == _outcome(
                _ref_integrate, f, x0, t_end, mode
            )


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
    def test_exact_on_quadratic(self):
        xs = [i / 100 for i in range(101)]
        cumulative = cumulative_path_integral(xs)([x * x for x in xs])
        assert cumulative[-1] == pytest.approx(1 / 3, abs=1e-15)
        assert cumulative == pytest.approx([x ** 3 / 3 for x in xs], abs=1e-15)

    def test_zero_at_first_sample(self):
        xs = [i / 50 for i in range(51)]
        assert cumulative_path_integral(xs)([x ** 3 for x in xs])[0] == 0.0
        assert cumulative_path_integral([1.0])([7.0]) == [0.0]

    def test_two_samples_take_the_trapezoid(self):
        assert cumulative_path_integral([1.0, 1.5])([2.0, 4.0]) == [0.0, 1.5]

    def test_repeated_times_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            cumulative_path_integral([0.0, 0.1, 0.1, 0.2])
        with pytest.raises(ValueError, match="strictly increasing"):
            cumulative_path_integral([0.0, 0.2, 0.1])

    def test_matches_scipy_bit_for_bit(self):
        integrate_ = pytest.importorskip("scipy.integrate")
        np = pytest.importorskip("numpy")
        rng = random.Random(20170412)
        for n in [2, 3, 4, 5] * 10 + [rng.randint(2, 80) for _ in range(400)]:
            xs = sorted(rng.uniform(-10, 10) for _ in range(n))
            if len(set(xs)) < n:
                continue
            ys = [rng.uniform(-1, 1) * 10 ** rng.randint(-6, 6) for _ in range(n)]
            expected = integrate_.cumulative_simpson(np.array(ys), x=np.array(xs), initial=0.0)
            assert repr(cumulative_path_integral(xs)(ys)) == repr(expected.tolist()), (xs, ys)


def _f2_cli_drift(tmp_path, *flags):
    out = tmp_path / "drift.json"
    argv = ["drift", "hsa", "--alpha", "1", "--beta", "0", "--kappa", "0"]
    argv += ["--integral", "F2_corrected", "--x0", "0.5,1.5,0.1", *flags, "--out", str(out)]
    return main(argv), json.loads(out.read_text())["drift"]


def test_f2_exp_overflow_reports_nan_drift(tmp_path):
    # exp(lam * exponent) overflows to inf from the 710th sample on, inf - inf
    # gives NaN there, and a series holding a NaN has a NaN maximum
    code, report = _f2_cli_drift(tmp_path, "--lambda", "1000", "--t-end", "2")
    assert code == 0
    assert math.isnan(report["max_abs_drift"]) and math.isnan(report["relative_drift"])
    assert report["initial_value"] == 0.1
    assert report["window"] == [0.0, 1.76]
    assert report["domain_violation"] == {
        "time": 1.7610000000000001,
        "reason": "y - 1 changed sign (branch cut)",
    }


def test_f2_two_sample_window(tmp_path):
    code, report = _f2_cli_drift(tmp_path, "--lambda", "1", "--t-end", "1e-3", "--h", "1e-3")
    assert code == 0
    assert report["max_abs_drift"] == 1.2513551306270188e-10
    assert report["relative_drift"] == 1.1375955732972896e-10
    assert report["window"] == [0.0, 0.001]
    assert report["domain_violation"] is None
