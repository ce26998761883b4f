"""Floating-point side of the toolkit.

Trajectory integration of a polynomial field (classical 4th-order fixed step
or an embedded adaptive pair), closed-form conserved-quantity evaluators for
the dynamo's integrable regimes, a path-integral construction for the
quadrature-defined quantity, and conservation-drift reports that act as the
numerical witness that a candidate really is constant along the flow.

Everything here is 64-bit binary floating point; exact arithmetic stays on
the symbolic side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fieldspec import FieldDef, HsaParams, hsa_params_of
from .polyring import Poly

# scipy.integrate is imported inside the functions that use it, so importing
# the package (and every symbolic CLI command) does not pay for it


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
        elif self.which == "F3":
            if p.beta != 0 or p.kappa == 0 or not p.alpha_matches_kappa():
                raise ConstraintError(
                    f"F3 requires beta = 0, kappa != 0 and alpha = -kappa*(kappa-1), got {p}"
                )
        elif self.which == "F4":
            if p.beta != 0 or p.kappa == 0 or not p.alpha_matches_kappa():
                raise ConstraintError(
                    f"F4 requires beta = 0, kappa != 0 and alpha = -kappa*(kappa-1), got {p}"
                )
            if p.lam != 0:
                raise ConstraintError(f"F4 requires lambda = 0, got {p}")
            if p.kappa * (p.kappa - 1) < 0:
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


def _compile_field(f: FieldDef):
    """Generate a float evaluator for the three components."""

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
    return eval(src)  # generated from our own coefficient data


def _finite(s) -> bool:
    return all(math.isfinite(v) for v in s)


# Most steps one trajectory keeps: a fixed-step run asking for more is refused
# before it starts, an adaptive one (no count known in advance) on reaching it.
MAX_SAMPLES = 1_000_000


def integrate(f: FieldDef, x0, t_end: float, mode: StepMode) -> Trajectory:
    """Integrate dX/dt = f(X) from x0 over [0, t_end].

    Non-finite states do not raise: the trajectory is truncated at the last
    finite sample and flagged. More than MAX_SAMPLES steps raise ValueError.
    """
    if not 0 < t_end < math.inf:
        raise ValueError("t_end must be positive and finite")
    fn = _compile_field(f)
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
        if n_full > MAX_SAMPLES:
            raise ValueError(f"t_end / h asks for {n_full} steps, above the cap of {MAX_SAMPLES}")
        t = 0.0
        s = x0
        for i in range(1, n_full + 1):
            s = _rk4_step(fn, s, h)
            t = i * h
            if not _finite(s):
                truncated_at, reason = t, "non-finite state (blow-up)"
                break
            times.append(t)
            states.append(s)
        else:
            if t < t_end - 1e-12 * max(1.0, t_end):
                s = _rk4_step(fn, s, t_end - t)
                if _finite(s):
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
            s_new, err = _rkf45_step(fn, s, h)
            if not _finite(s_new):
                truncated_at, reason = t + h, "non-finite state (blow-up)"
                break
            if err <= tol or h <= 1e-12:
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


_BLOWUP = (float("nan"),) * 3


def _rk4_step(fn, s, h):
    try:
        k1 = fn(*s)
        k2 = fn(*(s[i] + 0.5 * h * k1[i] for i in range(3)))
        k3 = fn(*(s[i] + 0.5 * h * k2[i] for i in range(3)))
        k4 = fn(*(s[i] + h * k3[i] for i in range(3)))
        return tuple(s[i] + h / 6.0 * (k1[i] + 2 * k2[i] + 2 * k3[i] + k4[i]) for i in range(3))
    except OverflowError:
        return _BLOWUP


def _rkf45_step(fn, s, h):
    try:
        return _rkf45_step_raw(fn, s, h)
    except OverflowError:
        return _BLOWUP, 0.0


def _rkf45_step_raw(fn, s, h):
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


def eval_integral(spec: IntegralSpec, state, aux: F2PathContext | None = None) -> float:
    """Evaluate the conserved quantity at a state (the F2 variants need the
    path context aux)."""
    x, y, z = (float(v) for v in state)
    p = spec.params
    alpha, kappa = float(p.alpha), float(p.kappa)
    if spec.which == "F1":
        if not x > 0:
            raise DomainError("x > 0", f"x = {x}")
        return alpha * math.log(x) - alpha * x * x / 2 - y * y / 2 + y
    if spec.which == "F3":
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
    if spec.which == "F4":
        s = _sqrt_pair(kappa)
        den = y + kappa - 1 + x * s
        if den == 0:
            raise DomainError("denominator y + kappa - 1 + x*sqrt(kappa)*sqrt(kappa-1) != 0")
        return (y + kappa - 1 - x * s) / den * math.exp(2 * z * s)
    if spec.which in ("F2_paper", "F2_corrected"):
        if aux is None:
            raise ValueError(f"{spec.which} needs a path context")
        variant = "paper" if spec.which == "F2_paper" else "corrected"
        return f2_path_value(aux.traj, aux.index, variant, aux.c)
    if spec.which == "log_combination":
        total = 0.0
        for w, base, form in spec.terms:
            val = base.evaluate_f((x, y, z))
            if form == "log":
                if not val > 0:
                    raise DomainError("log base > 0", f"base {base} = {val}")
                total += float(w) * math.log(val)
            else:
                total += float(w) * val
        return total
    raise ConstraintError(f"unknown integral {spec.which!r}")


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
    that sign flips, the w-bracket leaves (0, inf), or x crosses 0.
    """
    from scipy.integrate import cumulative_simpson

    if variant not in ("paper", "corrected"):
        raise ValueError(f"unknown F2 variant {variant!r}")
    p = _require_hsa(traj)
    if p.beta != 0 or p.kappa != 0:
        raise ConstraintError("F2 requires beta = kappa = 0")
    alpha, lam = float(p.alpha), float(p.lam)

    ts = np.asarray(traj.times)
    xs = np.asarray([s[0] for s in traj.states])
    ys = np.asarray([s[1] for s in traj.states])
    zs = np.asarray([s[2] for s in traj.states])

    sgn = math.copysign(1.0, ys[0] - 1.0)
    if ys[0] == 1.0:
        raise DomainError("sign(y - 1) defined", "y = 1 at the start")
    if not xs[0] > 0:
        raise DomainError("x > 0", f"x = {xs[0]} at the start")

    n_valid = len(ts)
    violation = None
    for i in range(len(ts)):
        if xs[i] <= 0:
            n_valid, violation = i, (float(ts[i]), "x crossed 0")
            break
        if (ys[i] - 1.0) * sgn <= 0:
            n_valid, violation = i, (float(ts[i]), "y - 1 changed sign (branch cut)")
            break
    if n_valid < 2:
        raise DomainError("window too short", "first sample already violates the branch")

    ts, xs, ys, zs = ts[:n_valid], xs[:n_valid], ys[:n_valid], zs[:n_valid]
    bracket = 1.0 - 2.0 * (c + alpha * xs * xs / 2 - alpha * np.log(xs))
    bad = np.nonzero(bracket <= 0)[0]
    if bad.size:
        i = int(bad[0])
        if i == 0:
            raise DomainError("w bracket > 0", "bracket <= 0 at the start")
        if violation is None or ts[i] < violation[0]:
            violation = (float(ts[i]), "w bracket reached 0")
        n_valid = i
        ts, xs, ys, zs, bracket = ts[:i], xs[:i], ys[:i], zs[:i], bracket[:i]
        if n_valid < 2:
            raise DomainError("window too short", "w bracket fails immediately")

    w = sgn / np.sqrt(bracket)
    xdot = xs * (ys - 1.0)  # beta = 0
    u = xs * w if variant == "paper" else w / xs
    exponent = cumulative_simpson(u * xdot, x=ts, initial=0.0)
    v = np.exp(lam * exponent)
    inner = cumulative_simpson(v * w * xdot, x=ts, initial=0.0)
    values = zs * v - inner
    return values, n_valid, violation


def f2_path_value(traj: Trajectory, upto_index: int, variant: str, c: float) -> float:
    """Value of the quadrature-defined conserved quantity at a sample index.

    variant chooses the exponent integrand: x*w(x) ('paper') or w(x)/x
    ('corrected'). The antiderivatives are realized as path integrals along
    the trajectory (composite Simpson on the time grid), which stays well
    defined across turning points of x.
    """
    values, n_valid, violation = _f2_series(traj, variant, c)
    if upto_index >= n_valid or upto_index < 0:
        reason = violation[1] if violation else "beyond the trajectory"
        raise DomainError("index inside the valid window", reason)
    return float(values[upto_index])


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
        f1 = IntegralSpec("F1", spec.params)
        c = eval_integral(f1, traj.states[0])
        variant = "paper" if spec.which == "F2_paper" else "corrected"
        values, n_valid, violation = _f2_series(traj, variant, c)
        initial = float(values[0])
        max_abs = float(np.max(np.abs(values - initial)))
        window = (traj.times[0], traj.times[n_valid - 1])
        return DriftReport(
            spec, initial, max_abs, max_abs / (1 + abs(initial)), window, violation
        )

    initial = eval_integral(spec, traj.states[0])  # raises on a bad start
    max_abs = 0.0
    violation = None
    last_time = traj.times[0]
    for t, s in zip(traj.times[1:], traj.states[1:]):
        try:
            val = eval_integral(spec, s)
        except DomainError as exc:
            violation = (t, exc.condition)
            break
        max_abs = max(max_abs, abs(val - initial))
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
# Quadrature helpers (exposed for tests and reports)
# ---------------------------------------------------------------------------


def simpson_integral(values, times) -> float:
    """Composite Simpson integral of sampled values over the given grid."""
    from scipy.integrate import simpson

    return float(simpson(np.asarray(values), x=np.asarray(times)))


def cumulative_path_integral(values, times) -> np.ndarray:
    """Cumulative composite-Simpson integral, 0 at the first sample."""
    from scipy.integrate import cumulative_simpson

    return cumulative_simpson(np.asarray(values), x=np.asarray(times), initial=0.0)
