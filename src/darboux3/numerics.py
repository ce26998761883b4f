"""Floating-point side of the toolkit.

Trajectory integration of a polynomial field (classical 4th-order fixed step
or an embedded adaptive pair), closed-form conserved-quantity evaluators for
the dynamo's integrable regimes, a path-integral construction for the
quadrature-defined quantity (composite Simpson along the trajectory's time
grid), and conservation-drift reports that act as the numerical witness that
a candidate really is constant along the flow.

Everything here is 64-bit binary floating point in pure Python (`math` and
lists); exact arithmetic stays on the symbolic side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .fieldspec import FieldDef, HsaParams, hsa_params_of
from .polyring import Poly


class DomainError(ValueError):
    """State left the real domain of an evaluator; carries which condition failed."""

    def __init__(self, condition: str, detail: str = "") -> None:
        super().__init__(f"domain violation: {condition}" + (f" ({detail})" if detail else ""))
        self.condition = condition


class ConstraintError(ValueError):
    """Integral used outside the parameter regime in which it is conserved."""


@dataclass(frozen=True)
class StepMode:
    kind: str  # "fixed" | "adaptive"
    value: float  # step size h, or per-step error tolerance

    def __post_init__(self):
        if self.kind not in ("fixed", "adaptive"):
            raise ValueError(f"unknown step mode {self.kind!r}")
        if not self.value > 0:
            raise ValueError("step size / tolerance must be positive")

    @classmethod
    def fixed(cls, h: float) -> "StepMode":
        return cls("fixed", float(h))

    @classmethod
    def adaptive(cls, tolerance: float) -> "StepMode":
        return cls("adaptive", float(tolerance))

    def __str__(self) -> str:
        return f"fixed(h={self.value})" if self.kind == "fixed" else f"adaptive(tol={self.value})"


@dataclass
class Trajectory:
    times: list[float]
    states: list[tuple[float, float, float]]
    step_mode: StepMode
    params: HsaParams | str
    truncated_at: float | None = None
    truncation_reason: str | None = None

    def __post_init__(self):
        if len(self.times) != len(self.states) or len(self.times) < 2:
            raise ValueError("trajectory needs matching times/states with >= 2 samples")


@dataclass(frozen=True)
class IntegralSpec:
    """Which conserved quantity to track, and the parameter values it assumes.

    which: F1 | F2_paper | F2_corrected | F3 | F4 | log_combination.
    log_combination evaluates sum(w*log p) + sum(w*q) for (w, base, form)
    terms, which also serves as the negative-control evaluator.
    """

    which: str
    params: HsaParams
    terms: tuple[tuple[Fraction, Poly, str], ...] | None = None

    def __post_init__(self):
        p = self.params
        if self.which in ("F1", "F2_paper", "F2_corrected"):
            if p.beta != 0 or p.kappa != 0:
                raise ConstraintError(f"{self.which} requires beta = kappa = 0, got {p}")
        elif self.which in ("F3", "F4"):
            if p.beta != 0 or p.kappa == 0 or not p.alpha_matches_kappa():
                raise ConstraintError(
                    f"{self.which} requires beta = 0, kappa != 0 and alpha = -kappa*(kappa-1),"
                    f" got {p}"
                )
            if self.which == "F4" and p.lam != 0:
                raise ConstraintError(f"F4 requires lambda = 0, got {p}")
            if self.which == "F4" and p.kappa * (p.kappa - 1) < 0:
                raise ConstraintError("F4 requires kappa*(kappa-1) >= 0 for real evaluation")
        elif self.which == "log_combination":
            if not self.terms:
                raise ConstraintError("log_combination spec needs terms")
        else:
            raise ConstraintError(f"unknown integral {self.which!r}")


@dataclass(frozen=True)
class F2PathContext:
    """Path information the F2 variants consume: the trajectory, the sample
    index to evaluate at, and the conserved value c of F1 at the start."""

    traj: "Trajectory"
    index: int
    c: float


@dataclass
class DriftReport:
    spec: IntegralSpec
    initial_value: float
    max_abs_drift: float
    relative_drift: float
    window: tuple[float, float]
    domain_violation: tuple[float, str] | None = None


@dataclass(frozen=True)
class StepHalvingStudy:
    drift_h: float
    drift_half: float
    ratio: float


# ---------------------------------------------------------------------------
# Integration
# ---------------------------------------------------------------------------


def _poly_src(p: Poly) -> str:
    """Float expression text of p in x, y, z."""
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


# The generated steps, as (the point each stage evaluates the field at,
# the outputs o<n>, what the step returns, what it returns on overflow) with
# component {i}, state s<i> and stage j's slope k<j>_<i>. Each expression is the
# one a per-component loop (`s[i] + 0.5 * h * k1[i]`) evaluated, in that order:
# regrouped, as in `h * (k1 / 6 + ...)`, it rounds differently, and trajectories,
# drift values and the simulate/drift reports would move in their last bits.
_RK4 = (
    ("s{i}", "s{i} + 0.5 * h * k1_{i}", "s{i} + 0.5 * h * k2_{i}", "s{i} + h * k3_{i}"),
    ("s{i} + h / 6.0 * (k1_{i} + 2 * k2_{i} + 2 * k3_{i} + k4_{i})",),
    "o0_0, o0_1, o0_2",
    "BLOWUP",
)
_RKF45 = (
    (
        "s{i}",
        "s{i} + h * 0.25 * k1_{i}",
        "s{i} + h * (3 / 32 * k1_{i} + 9 / 32 * k2_{i})",
        "s{i} + h * (1932 / 2197 * k1_{i} - 7200 / 2197 * k2_{i} + 7296 / 2197 * k3_{i})",
        "s{i} + h * (439 / 216 * k1_{i} - 8 * k2_{i} + 3680 / 513 * k3_{i} - 845 / 4104 * k4_{i})",
        "s{i} + h * (-8 / 27 * k1_{i} + 2 * k2_{i} - 3544 / 2565 * k3_{i}"
        " + 1859 / 4104 * k4_{i} - 11 / 40 * k5_{i})",
    ),
    (  # the 4th- and the 5th-order solution
        "s{i} + h * (25 / 216 * k1_{i} + 1408 / 2565 * k3_{i} + 2197 / 4104 * k4_{i}"
        " - 1 / 5 * k5_{i})",
        "s{i} + h * (16 / 135 * k1_{i} + 6656 / 12825 * k3_{i} + 28561 / 56430 * k4_{i}"
        " - 9 / 50 * k5_{i} + 2 / 55 * k6_{i})",
    ),
    "(o1_0, o1_1, o1_2), max(abs(o0_0 - o1_0), abs(o0_1 - o1_1), abs(o0_2 - o1_2))",
    "BLOWUP, 0.0",
)
_BLOWUP = (float("nan"),) * 3


def _build_step(f: FieldDef, kind: str):
    """Straight-line step (s0, s1, s2, h) of the field: RK4 for kind "fixed",
    returning the new state; RKF45 for "adaptive", returning (state, error).

    x**e on floats raises OverflowError rather than returning inf; the step
    then returns the all-NaN _BLOWUP state (error 0.0), which is not finite.
    """
    field = ", ".join(_poly_src(p) for p in (f.fx, f.fy, f.fz))
    stages, outs, ret, blowup = _RK4 if kind == "fixed" else _RKF45
    lines = []
    for j, stage in enumerate(stages, 1):
        lines.append("x, y, z = " + ", ".join(stage.format(i=i) for i in range(3)))
        lines.append(f"k{j}_0, k{j}_1, k{j}_2 = {field}")
    lines += [f"o{n}_{i} = {out.format(i=i)}" for n, out in enumerate(outs) for i in range(3)]
    body = "\n        ".join(lines)
    src = f"def step(s0, s1, s2, h):\n    try:\n        {body}\n        return {ret}\n"
    scope = {"BLOWUP": _BLOWUP}
    exec(src + f"    except OverflowError:\n        return {blowup}", scope)  # our own data
    return scope.pop("step")  # kept in its own globals, it would be a cycle only gc frees


# Most steps one trajectory keeps: a fixed-step run asking for more is refused
# before it starts, an adaptive one (no count known in advance) on reaching it.
MAX_SAMPLES = 1_000_000


def integrate(f: FieldDef, x0, t_end: float, mode: StepMode) -> Trajectory:
    """Integrate dX/dt = f(X) from x0 over [0, t_end].

    Non-finite states do not raise: the trajectory is truncated at the last
    finite sample and flagged, as is an adaptive run at an accepted step too
    small to advance t; an adaptive trial step that is non-finite is rejected
    unless h <= 1e-12. More than MAX_SAMPLES steps raise ValueError.
    """
    if not 0 < t_end < math.inf:
        raise ValueError("t_end must be positive and finite")
    step = _build_step(f, mode.kind)
    x0 = tuple(float(v) for v in x0)
    if len(x0) != 3:
        raise ValueError("initial state must have three components")
    params = hsa_params_of(f)
    label = params if params is not None else f.label
    isfinite = math.isfinite

    times = [0.0]
    states = [x0]
    truncated_at = None
    reason = None
    if mode.kind == "fixed":
        h = mode.value
        n_full = int(t_end / h + 1e-9)
        if n_full > MAX_SAMPLES:
            raise ValueError(f"t_end / h asks for {n_full} steps, above the cap of {MAX_SAMPLES}")
        t = 0.0
        s = x0
        for i in range(1, n_full + 1):
            s = step(*s, h)
            t = i * h
            if not (isfinite(s[0]) and isfinite(s[1]) and isfinite(s[2])):
                truncated_at, reason = t, "non-finite state (blow-up)"
                break
            times.append(t)
            states.append(s)
        else:
            if t < t_end - 1e-12 * max(1.0, t_end):
                s = step(*s, t_end - t)
                if isfinite(s[0]) and isfinite(s[1]) and isfinite(s[2]):
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
            s_new, err = step(*s, h)
            if not (isfinite(s_new[0]) and isfinite(s_new[1]) and isfinite(s_new[2])):
                if h <= 1e-12:  # non-finite at the forced-accept floor
                    truncated_at, reason = t + h, "non-finite state (blow-up)"
                    break
                err = math.inf  # rejected, so the error test cuts h by its floor factor 0.2
            if err <= tol or h <= 1e-12:
                if t + h == t:  # h is below t's resolution: the sample would repeat t
                    truncated_at, reason = t, "step no longer advances t (stalled)"
                    break
                if len(times) > MAX_SAMPLES:
                    raise ValueError(f"adaptive run above the cap of {MAX_SAMPLES} steps")
                t += h
                s = s_new
                times.append(t)
                states.append(s)
            factor = 0.9 * (tol / err) ** 0.2 if err > 0 else 5.0
            h *= min(5.0, max(0.2, factor))
    if len(times) < 2:
        # blew up on the very first step: keep the offending time for the record
        times.append(truncated_at if truncated_at is not None else t_end)
        states.append(states[0])
    return Trajectory(times, states, mode, label, truncated_at, reason)


# ---------------------------------------------------------------------------
# Closed-form evaluators
# ---------------------------------------------------------------------------


def _sqrt_pair(kappa: float) -> float:
    """Real value of sqrt(kappa)*sqrt(kappa - 1).

    For kappa <= 0 both square roots are imaginary and the product is
    -sqrt(kappa*(kappa-1)); for kappa >= 1 it is +sqrt(kappa*(kappa-1)).
    """
    prod = kappa * (kappa - 1)
    if prod < 0:
        raise DomainError("kappa*(kappa-1) >= 0")
    root = math.sqrt(prod)
    return -root if kappa <= 0 else root


def _evaluator(spec: IntegralSpec):
    """The closed-form quantity of spec as a function of float x, y, z, with
    its parameters converted once (not for the F2 variants)."""
    p = spec.params
    alpha, kappa = float(p.alpha), float(p.kappa)
    if spec.which == "F1":
        def value(x, y, z):
            if not x > 0:
                raise DomainError("x > 0", f"x = {x}")
            return alpha * math.log(x) - alpha * x * x / 2 - y * y / 2 + y

    elif spec.which == "F3":
        def value(x, y, z):
            # algebraically -kappa^2(x^2-1) + (y-1)^2 + kappa(x^2+2y-2); the
            # completed-square form avoids catastrophic cancellation of O(1)
            # terms near the equilibrium where T -> 0
            t2 = kappa * (1 - kappa) * x * x + (y + kappa - 1) ** 2
            if not t2 > 0:
                raise DomainError("T^2 > 0", f"T^2 = {t2}")
            if not -x > 0:
                raise DomainError("-x > 0", f"x = {x}")
            t_val = math.sqrt(t2)
            arg = 2 * (kappa + y - 1 + t_val) / (-x)
            if not arg > 0:
                raise DomainError("log argument > 0", f"argument = {arg}")
            return kappa * math.log(arg) - t_val

    elif spec.which == "F4":
        s = _sqrt_pair(kappa)
        def value(x, y, z):
            den = y + kappa - 1 + x * s
            if den == 0:
                raise DomainError("denominator y + kappa - 1 + x*sqrt(kappa)*sqrt(kappa-1) != 0")
            return (y + kappa - 1 - x * s) / den * math.exp(2 * z * s)

    elif spec.which == "log_combination":
        terms = [(float(w), base, form) for w, base, form in spec.terms]
        def value(x, y, z):
            total = 0.0
            for w, base, form in terms:
                val = base.evaluate_f((x, y, z))
                if form == "log":
                    if not val > 0:
                        raise DomainError("log base > 0", f"base {base} = {val}")
                    total += w * math.log(val)
                else:
                    total += w * val
            return total

    else:
        raise ConstraintError(f"unknown integral {spec.which!r}")
    return value


def eval_integral(spec: IntegralSpec, state, aux: F2PathContext | None = None) -> float:
    """Evaluate the conserved quantity at a state (the F2 variants need the
    path context aux)."""
    x, y, z = (float(v) for v in state)
    if spec.which in ("F2_paper", "F2_corrected"):
        if aux is None:
            raise ValueError(f"{spec.which} needs a path context")
        return f2_path_value(aux.traj, aux.index, spec.which.removeprefix("F2_"), aux.c)
    return _evaluator(spec)(x, y, z)


# ---------------------------------------------------------------------------
# F2: path-integral construction
# ---------------------------------------------------------------------------


def _require_hsa(traj: Trajectory) -> HsaParams:
    if not isinstance(traj.params, HsaParams):
        raise ConstraintError("trajectory does not carry dynamo parameters")
    return traj.params


def _f2_series(traj: Trajectory, variant: str, c: float):
    """F2 values at every sample of the longest valid prefix window.

    Returns (values, n_valid, violation) where violation is None or
    (time, reason) for the first sample excluded from the window. The branch
    of w is pinned to the sign of y - 1 at the start; the window ends where
    that sign flips, the w-bracket leaves (0, inf), or x crosses 0. Both path
    integrals take cumulative_path_integral's composite Simpson rule on the
    window's time grid, in pure Python; exp overflowing to inf gives NaN values.
    """
    if variant not in ("paper", "corrected"):
        raise ValueError(f"unknown F2 variant {variant!r}")
    p = _require_hsa(traj)
    if p.beta != 0 or p.kappa != 0:
        raise ConstraintError("F2 requires beta = kappa = 0")
    alpha, lam = float(p.alpha), float(p.lam)
    ts = traj.times
    x0, y0, _ = traj.states[0]

    sgn = math.copysign(1.0, y0 - 1.0)
    if y0 == 1.0:
        raise DomainError("sign(y - 1) defined", "y = 1 at the start")
    if not x0 > 0:
        raise DomainError("x > 0", f"x = {x0} at the start")

    n_valid, violation = len(ts), None
    for i, (x, y, _) in enumerate(traj.states):
        if x <= 0 or (y - 1.0) * sgn <= 0:
            reason = "x crossed 0" if x <= 0 else "y - 1 changed sign (branch cut)"
            n_valid, violation = i, (ts[i], reason)
            break
    if n_valid < 2:
        raise DomainError("window too short", "first sample already violates the branch")

    xs, ys, zs = zip(*traj.states[:n_valid])
    bracket = [1.0 - 2.0 * (c + alpha * x * x / 2 - alpha * math.log(x)) for x in xs]
    i = next((i for i, b in enumerate(bracket) if b <= 0), None)
    if i is not None:
        if i == 0:
            raise DomainError("w bracket > 0", "bracket <= 0 at the start")
        if i < 2:
            raise DomainError("window too short", "w bracket fails immediately")
        n_valid, violation = i, (ts[i], "w bracket reached 0")

    w = [sgn / math.sqrt(b) for b in bracket[:n_valid]]
    xdot = [x * (y - 1.0) for x, y in zip(xs, ys[:n_valid])]  # beta = 0; zip stops at n_valid
    du = [(x * wi if variant == "paper" else wi / x) * xd for x, wi, xd in zip(xs, w, xdot)]
    simpson = cumulative_path_integral(ts[:n_valid])
    v = [_exp(lam * e) for e in simpson(du)]
    inner = simpson([vi * wi * xd for vi, wi, xd in zip(v, w, xdot)])
    return [z * vi - s for z, vi, s in zip(zs, v, inner)], n_valid, violation


def _exp(a: float) -> float:  # math.exp, but inf where it overflows, as numpy's exp
    try:
        return math.exp(a)
    except OverflowError:
        return math.inf


def f2_path_value(traj: Trajectory, upto_index: int, variant: str, c: float) -> float:
    """Value of the quadrature-defined conserved quantity at a sample index.

    variant chooses the exponent integrand: x*w(x) ('paper') or w(x)/x
    ('corrected'). The antiderivatives are realized as path integrals along
    the trajectory (pure-Python composite Simpson on the time grid), which
    stays well defined across turning points of x.
    """
    values, n_valid, violation = _f2_series(traj, variant, c)
    if upto_index >= n_valid or upto_index < 0:
        reason = violation[1] if violation else "beyond the trajectory"
        raise DomainError("index inside the valid window", reason)
    return values[upto_index]


def f2_time_derivative_residual(params: HsaParams, variant: str) -> tuple[Poly, Poly]:
    """Symbolic d/dt of the F2 construction along the flow, as a rational
    function (numerator, denominator) of x, y, z divided by the positive
    factor v.

    Uses the exact relations w*(y-1) = 1, dx/dt = x(y-1) and dz/dt = x - lam*z
    (valid for beta = kappa = 0) and the chain rule through the two path
    integrals. The returned numerator is identically zero exactly when the
    variant's exponent integrand makes F2 conserved.
    """
    if variant not in ("paper", "corrected"):
        raise ValueError(f"unknown F2 variant {variant!r}")
    if params.beta != 0 or params.kappa != 0:
        raise ConstraintError("F2 requires beta = kappa = 0")
    lam = params.lam
    x, y, z = Poly.variable("x"), Poly.variable("y"), Poly.variable("z")
    one = Poly.constant(1)

    def mul(a, b):
        return (a[0] * b[0], a[1] * b[1])

    def sub(a, b):
        return (a[0] * b[1] - b[0] * a[1], a[1] * b[1])

    def cancel(a):
        num, den = a
        if num.is_zero():
            return Poly.zero(), one
        q = num.try_divide(den)
        if q is not None:
            return q, one
        return num, den

    w = (one, y - one)  # the branch sign cancels out of d/dt
    xdot = (x * (y - one), one)
    zdot = (x - z.scale(lam), one)
    u = mul((x, one), w) if variant == "paper" else mul((one, x), w)
    # dF2/dt = zdot*v + z * (lam*u*xdot) * v - v*w*xdot; divide out v
    dv_factor = mul((z.scale(lam), one), mul(u, xdot))
    total = sub(sub(zdot, mul(w, xdot)), (-dv_factor[0], dv_factor[1]))
    return cancel(total)


# ---------------------------------------------------------------------------
# Drift measurement
# ---------------------------------------------------------------------------


def _check_traj_params(traj: Trajectory, spec: IntegralSpec) -> None:
    if spec.which == "log_combination":
        return
    p = _require_hsa(traj)
    if p != spec.params:
        raise ConstraintError(
            f"trajectory parameters {p} do not match the integral's {spec.params}"
        )


def drift(traj: Trajectory, spec: IntegralSpec) -> DriftReport:
    """Max deviation of the conserved quantity from its initial value along
    the trajectory, over the samples inside the quantity's domain.

    Evaluation stops at the first domain violation, which is recorded; a
    violation at the very first sample raises instead.
    """
    _check_traj_params(traj, spec)
    if spec.which in ("F2_paper", "F2_corrected"):
        c = eval_integral(IntegralSpec("F1", spec.params), traj.states[0])
        values, n_valid, violation = _f2_series(traj, spec.which.removeprefix("F2_"), c)
        initial = values[0]
        devs = [abs(v - initial) for v in values]
        max_abs = math.nan if any(map(math.isnan, devs)) else max(devs)
        window = (traj.times[0], traj.times[n_valid - 1])
        return DriftReport(spec, initial, max_abs, max_abs / (1 + abs(initial)), window, violation)

    initial = eval_integral(spec, traj.states[0])  # raises on a bad start
    value = _evaluator(spec)
    max_abs = 0.0
    violation = None
    last_time = traj.times[0]
    for t, (x, y, z) in zip(traj.times[1:], traj.states[1:]):
        try:
            val = value(float(x), float(y), float(z))
        except DomainError as exc:
            violation = (t, exc.condition)
            break
        dev = abs(val - initial)
        if dev > max_abs:  # max(max_abs, dev), NaN included
            max_abs = dev
        last_time = t
    return DriftReport(
        spec, initial, max_abs, max_abs / (1 + abs(initial)), (traj.times[0], last_time), violation
    )


def step_halving_study(
    f: FieldDef, x0, spec: IntegralSpec, h: float, t_end: float
) -> StepHalvingStudy:
    """Drift at step h versus h/2. A genuine first integral under a 4th-order
    method shows a ratio around 16 (within [8, 32]) until round-off dominates."""
    d1 = drift(integrate(f, x0, t_end, StepMode.fixed(h)), spec).max_abs_drift
    d2 = drift(integrate(f, x0, t_end, StepMode.fixed(h / 2)), spec).max_abs_drift
    if d1 == 0 and d2 == 0:
        ratio = 1.0
    elif d2 == 0:
        ratio = math.inf
    else:
        ratio = d1 / d2
    return StepHalvingStudy(d1, d2, ratio)


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


def cumulative_path_integral(times):
    """Composite Simpson's rule on the strictly increasing grid times: a function
    from sampled values to their running integral (a list, 0.0 at the first
    sample), with the coefficients computed once.

    It gives scipy.integrate.cumulative_simpson(values, x=times, initial=0.0)
    bit for bit: each interval takes Cartwright's formula, in scipy's operation
    order, over the panel of samples 0-2, 2-4, ... it lies in (an odd last
    interval over the last three samples); two samples take the trapezoid.
    """
    dx = [b - a for a, b in zip(times, times[1:])]
    if not all(d > 0 for d in dx):
        raise ValueError("times must be strictly increasing")

    def coefficients(a, b):  # for the interval a of the panel of intervals a, b
        r = a / (a + b)  # scipy's x21_x31; q is its x21x21_x31x32
        q = r * (a / b)
        return a / 6, 3 - r, 3 + q + r, -q

    panels = [coefficients(a, b) + coefficients(b, a) for a, b in zip(dx[::2], dx[1::2])]
    tail = coefficients(dx[-1], dx[-2]) if len(dx) % 2 and len(dx) > 1 else None

    def integral(y) -> list[float]:
        terms = [dx[0] * (y[1] + y[0]) / 2.0] if len(dx) == 1 else []
        for (h, c1, c2, c3, g, d1, d2, d3), y0, y1, y2 in zip(panels, y[::2], y[1::2], y[2::2]):
            terms += h * (c1 * y0 + c2 * y1 + c3 * y2), g * (d1 * y2 + d2 * y1 + d3 * y0)
        if tail:
            h, c1, c2, c3 = tail
            terms.append(h * (c1 * y[-1] + c2 * y[-2] + c3 * y[-3]))
        return list(accumulate(terms, initial=0.0))

    return integral
