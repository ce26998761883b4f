"""Command-line front end.

One command per process; every command echoes its configuration and seed into
a JSON report (or a CSV trajectory for `simulate`) so runs are reproducible
byte for byte. Rational flags accept integers and p/q literals only; floats
belong to the numeric commands.

Exit codes: 0 success, 2 validation error, 3 domain error in numeric commands.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import __version__
from .darboux import (
    HARD_DEGREE_CAP,
    PENCIL_SAMPLING_NOTE,
    CofactorTemplate,
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
from .fieldspec import (
    FieldDef,
    HsaParams,
    ParseError,
    build_hsa,
    hsa_params_of,
    parse_expression,
    parse_field,
    parse_rational_literal,
)
from .numerics import (
    ConstraintError,
    DomainError,
    IntegralSpec,
    StepMode,
    drift,
    f2_time_derivative_residual,
    integrate,
    step_halving_study,
)
from .polyring import Cofactor, Poly

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DOMAIN = 3

F2_WINNER_TOLERANCE = 1e-6
F2_LOSER_THRESHOLD = 1e-3

# flags whose value may start with "-" (an expression such as -y, a literal
# such as -1/2, a point such as -0.5,0,0); argparse reads such a value as a flag
SIGNED_VALUE_FLAGS = (
    "--cofactor", "--poly", "--exp-g", "--exp-den", "--x0",
    "--alpha", "--beta", "--kappa", "--lambda",
)


def rational_flag(text: str) -> Fraction:
    try:
        return parse_rational_literal(text)
    except ParseError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or p/q rational literal, got {text!r}"
        ) from None


def x0_flag(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected three comma-separated floats, got {text!r}")
    try:
        return tuple(float(p) for p in parts)  # type: ignore[return-value]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad x0 component: {exc}")


@dataclass
class RunConfig:
    command: str
    args: argparse.Namespace

    def echo(self) -> dict:
        # --out names where the report lands, not what it computes; keeping it
        # out of the echo lets identical runs to different paths stay
        # byte-identical
        skip = {"func", "command", "out"}
        out = {}
        for key in sorted(vars(self.args)):
            if key in skip:
                continue
            val = getattr(self.args, key)
            if val is None:
                continue
            if isinstance(val, Fraction):
                out[key] = str(val)
            elif isinstance(val, tuple):
                out[key] = list(val)
            else:
                out[key] = val
        return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="darboux3",
        description=(
            "Search for Darboux polynomials, exponential factors and Darboux first "
            "integrals of 3-D polynomial vector fields, and measure conservation "
            "drift of closed-form integrals along numerically integrated trajectories."
        ),
    )
    parser.add_argument("--version", action="version", version=f"darboux3 {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "model",
            nargs="?",
            choices=["hsa"],
            help="built-in dynamo model (alternative to --field)",
        )
        p.add_argument("--field", metavar="PATH", help="field definition file")
        p.add_argument("--alpha", type=rational_flag, default=None)
        p.add_argument("--beta", type=rational_flag, default=None)
        p.add_argument("--kappa", type=rational_flag, default=None)
        p.add_argument("--lambda", dest="lam", type=rational_flag, default=None)
        p.add_argument(
            "--param",
            action="append",
            default=None,
            metavar="NAME=VALUE",
            help="extra rational binding for field-file parsing (repeatable)",
        )
        p.add_argument("--seed", type=int, default=0, help="echoed; changes no output")
        p.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")

    p_analyze = sub.add_parser("analyze", help="full search pipeline and integrability verdict")
    add_model_args(p_analyze)
    p_analyze.add_argument("--degree", type=int, default=4)
    p_analyze.set_defaults(func=cmd_analyze)

    p_sd = sub.add_parser("search-darboux", help="Darboux polynomial search")
    add_model_args(p_sd)
    p_sd.add_argument("--degree", type=int, default=4)
    p_sd.add_argument(
        "--cofactor",
        metavar="EXPR",
        help="fully pinned cofactor (degree <= 1 expression); omit for the pencil search",
    )
    p_sd.add_argument(
        "--template-json",
        metavar="JSON",
        help=(
            'pencil template, e.g. {"fixed": {"b1": "0", "b3": "0"}, "eigen": "b0", '
            '"enumerate": {"b2": ["-2", "-1", "0", "1", "2"]}}'
        ),
    )
    p_sd.set_defaults(func=cmd_search_darboux)

    p_se = sub.add_parser("search-expfactors", help="exponential factor search")
    add_model_args(p_se)
    p_se.add_argument("--degree", type=int, default=4)
    p_se.set_defaults(func=cmd_search_expfactors)

    p_comb = sub.add_parser("combine", help="solve the cofactor combination condition")
    p_comb.add_argument("--from", dest="from_report", required=True, metavar="REPORT.json")
    p_comb.add_argument("--seed", type=int, default=0)
    p_comb.add_argument("--out", metavar="PATH")
    p_comb.set_defaults(func=cmd_combine)

    p_verify = sub.add_parser("verify", help="verify a cofactor relation exactly")
    add_model_args(p_verify)
    p_verify.add_argument("--poly", metavar="EXPR", help="Darboux polynomial candidate h")
    p_verify.add_argument("--exp-g", metavar="EXPR", help="exponential-factor exponent g")
    p_verify.add_argument(
        "--exp-den", metavar="EXPR", help="denominator h for a rational exponent g/h"
    )
    p_verify.add_argument("--cofactor", metavar="EXPR", required=True)
    p_verify.set_defaults(func=cmd_verify)

    p_sim = sub.add_parser("simulate", help="integrate a trajectory and write CSV")
    add_model_args(p_sim)
    p_sim.add_argument("--x0", type=x0_flag, required=True, metavar="X,Y,Z")
    p_sim.add_argument("--t-end", type=float, default=10.0)
    p_sim.add_argument("--h", type=float, default=None, help="fixed step size")
    p_sim.add_argument("--tolerance", type=float, default=None, help="adaptive per-step tolerance")
    p_sim.set_defaults(func=cmd_simulate)

    p_drift = sub.add_parser("drift", help="conservation drift of an integral along a trajectory")
    add_model_args(p_drift)
    p_drift.add_argument(
        "--integral",
        required=True,
        choices=["F1", "F2_paper", "F2_corrected", "F3", "F4"],
    )
    p_drift.add_argument("--x0", type=x0_flag, required=True, metavar="X,Y,Z")
    p_drift.add_argument("--t-end", type=float, default=10.0)
    p_drift.add_argument("--h", type=float, default=1e-3)
    p_drift.add_argument(
        "--study-h",
        type=float,
        default=None,
        help="also run a step-halving study at this step size",
    )
    p_drift.set_defaults(func=cmd_drift)

    p_f2 = sub.add_parser(
        "f2-experiment",
        help="decide empirically which F2 exponent variant is conserved",
    )
    add_model_args(p_f2)
    p_f2.add_argument("--x0", type=x0_flag, required=True, metavar="X,Y,Z")
    p_f2.add_argument("--t-end", type=float, default=10.0)
    p_f2.add_argument("--h", type=float, default=1e-3)
    p_f2.set_defaults(func=cmd_f2_experiment)

    return parser


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


class CliError(ValueError):
    pass


def _resolve_model(args) -> FieldDef:
    has_hsa = args.model == "hsa"
    has_file = args.field is not None
    if has_hsa == has_file:
        raise CliError("exactly one model source required: positional 'hsa' or --field PATH")
    if has_hsa:
        vals = {}
        for name in ("alpha", "beta", "kappa", "lam"):
            v = getattr(args, name)
            if v is None:
                flag = "--lambda" if name == "lam" else f"--{name}"
                raise CliError(f"builtin hsa model needs {flag}")
            vals[name] = v
        return build_hsa(HsaParams(**vals))
    bindings = {}
    for item in args.param or []:
        if "=" not in item:
            raise CliError(f"--param expects NAME=VALUE, got {item!r}")
        name, value = item.split("=", 1)
        try:
            bindings[name.strip()] = parse_rational_literal(value)
        except ParseError:
            raise CliError(f"--param {name}: expected a rational literal, got {value!r}") from None
    path = Path(args.field)
    try:
        text = path.read_text()
    except OSError as exc:
        raise CliError(f"--field: cannot read {path}: {exc}")
    return parse_field(text, bindings, label=str(path))


def _model_block(f: FieldDef) -> dict:
    return {
        "label": f.label,
        "dx": str(f.fx),
        "dy": str(f.fy),
        "dz": str(f.fz),
        "params": {k: str(v) for k, v in sorted(f.params.items())},
    }


def _poly_block(p: Poly) -> dict:
    return {"text": str(p), "coefficients": p.coefficient_map()}


def _cert_block(c: DarbouxCert) -> dict:
    return {
        "kind": c.kind,
        "body": _poly_block(c.body),
        "cofactor": _poly_block(c.cofactor.as_poly()),
        "degree": c.body.degree,
        "degree_bound_used": c.degree_bound_used,
        "primitive": c.primitive,
    }


def _base_report(command: str, cfg: RunConfig, f: FieldDef | None) -> dict:
    report = {
        "schema": 1,
        "tool": "darboux3",
        "version": __version__,
        "command": command,
        "seed": getattr(cfg.args, "seed", 0),
        "config": cfg.echo(),
    }
    if f is not None:
        report["model"] = _model_block(f)
    return report


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, report: dict) -> None:
    # strict RFC 8259 JSON: a NaN or infinite float is written as null
    report = json.loads(json.dumps(report), parse_constant=lambda _: None)
    _emit(args, json.dumps(report, indent=2, allow_nan=False) + "\n")


def _require_degree(degree: int) -> None:
    if degree < 1:
        raise CliError("--degree must be >= 1")
    if degree > HARD_DEGREE_CAP:
        raise CliError(
            f"--degree is capped at {HARD_DEGREE_CAP} (a bound on run time and memory)"
        )


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_analyze(args) -> int:
    cfg = RunConfig("analyze", args)
    f = _resolve_model(args)
    _require_degree(args.degree)
    verdict = analyze(f, args.degree)
    combo_certs = verdict.combination_certs()
    report = _base_report("analyze", cfg, f)
    report.update(
        {
            "degree_bound": verdict.degree_bound,
            "darboux_polynomials": [_cert_block(c) for c in verdict.darboux_polys],
            "exp_factors": [_cert_block(c) for c in verdict.exp_factors],
            "combinations": [
                {
                    "weights": [str(w) for w in combo.weights],
                    "trivial": combo.trivial,
                    "terms": [
                        {"kind": c.kind, "body": str(c.body), "weight": str(w)}
                        for c, w in zip(combo_certs, combo.weights)
                    ],
                }
                for combo in verdict.combinations
            ],
            "conclusion": verdict.conclusion,
            "notes": verdict.notes.split("\n") if verdict.notes else [],
        }
    )
    _emit_json(args, report)
    return EXIT_OK


def _template_from_json(text: str) -> CofactorTemplate:
    try:
        raw = json.loads(text)
        fixed, sweep = (
            [raw.get(k, {}) for k in ("fixed", "enumerate")] if isinstance(raw, dict) else [0, 0]
        )
        if not (isinstance(fixed, dict) and isinstance(sweep, dict)):
            raise ValueError('expected an object whose "fixed" and "enumerate" are objects')
        unknown = [k for k in raw if k not in ("fixed", "eigen", "enumerate")]
        if unknown:
            raise ValueError(f"unknown key {json.dumps(unknown[0])}; expected fixed, eigen, enumerate")
        if not all(isinstance(vals, list) for vals in sweep.values()):
            raise ValueError('"enumerate" must map each slot to an array')
        fixed = tuple((k, _json_rational(v)) for k, v in fixed.items())
        sweep = tuple((k, tuple(map(_json_rational, vals))) for k, vals in sweep.items())
        if not isinstance(raw.get("eigen"), str):
            raise ValueError('"eigen" must be a string naming the solved slot, one of b0..b3')
        return CofactorTemplate(fixed=fixed, eigen=raw["eigen"], enumerated=sweep)
    except (ValueError, TypeError, RecursionError) as exc:  # deep nesting: RecursionError
        raise CliError(f"--template-json: {exc}")


def _json_rational(v) -> Fraction:
    """A template value: a JSON integer, or a string holding an integer or p/q."""
    if type(v) is int or isinstance(v, str):  # bool is not an int here
        return Fraction(v) if type(v) is int else parse_rational_literal(v)
    raise ValueError(f"expected an integer or a p/q string, got {json.dumps(v):.40}")


def cmd_search_darboux(args) -> int:
    cfg = RunConfig("search-darboux", args)
    f = _resolve_model(args)
    _require_degree(args.degree)
    report = _base_report("search-darboux", cfg, f)
    if args.cofactor is not None:
        k = Cofactor.from_poly(parse_expression(args.cofactor, dict(f.params)))
        basis = search_darboux_fixed(f, k, args.degree)
        report.update(
            {
                "mode": "fixed-cofactor",
                "cofactor": _poly_block(k.as_poly()),
                "degree_bound": args.degree,
                "kernel_basis": [_poly_block(p) for p in basis],
            }
        )
    else:
        template = (
            _template_from_json(args.template_json)
            if args.template_json
            else CofactorTemplate.for_field(f, args.degree)
        )
        certs, notes = search_darboux_pencil(f, template, args.degree)
        report.update(
            {
                "mode": "pencil",
                "template": {
                    "fixed": {k: str(v) for k, v in template.fixed},
                    "eigen": template.eigen,
                    "enumerate": {k: [str(v) for v in vals] for k, vals in template.enumerated},
                },
                "degree_bound": args.degree,
                "certificates": [_cert_block(c) for c in certs],
                "notes": [PENCIL_SAMPLING_NOTE] + notes,
            }
        )
    _emit_json(args, report)
    return EXIT_OK


def cmd_search_expfactors(args) -> int:
    cfg = RunConfig("search-expfactors", args)
    f = _resolve_model(args)
    _require_degree(args.degree)
    certs = search_exp_factors(f, args.degree)
    report = _base_report("search-expfactors", cfg, f)
    report.update(
        {
            "degree_bound": args.degree,
            "certificates": [_cert_block(c) for c in certs],
        }
    )
    _emit_json(args, report)
    return EXIT_OK


def _cert_from_block(blk) -> DarbouxCert:
    try:
        kind, primitive = blk["kind"], blk["primitive"]
        body, cofactor = blk["body"]["text"], blk["cofactor"]["text"]
    except (KeyError, TypeError):
        raise CliError(
            "--from: a certificate block needs kind, body.text, cofactor.text and primitive"
        ) from None
    if kind not in ("polynomial", "exp_factor"):
        raise CliError(f"--from: unknown certificate kind {kind!r}")
    if not (isinstance(body, str) and isinstance(cofactor, str)):
        raise CliError("--from: certificate body.text and cofactor.text must be strings")
    body_poly = parse_expression(body)
    cof = Cofactor.from_poly(parse_expression(cofactor))
    return DarbouxCert(kind, body_poly, cof, blk.get("degree_bound_used", 0), primitive)


def cmd_combine(args) -> int:
    cfg = RunConfig("combine", args)
    try:
        source = json.loads(Path(args.from_report).read_text())
    except (OSError, ValueError, RecursionError) as exc:  # deep nesting: RecursionError
        raise CliError(f"--from: cannot load report: {exc}")
    if not isinstance(source, dict):
        raise CliError("--from: a report must be a JSON object")
    model = source.get("model")
    if not model:
        raise CliError("--from: report has no model block")
    if not isinstance(model, dict) or not all(
        isinstance(model.get(k), str) for k in ("dx", "dy", "dz")
    ):
        raise CliError("--from: the model block needs string dx, dy and dz")
    f = parse_field(
        f"dx = {model['dx']}\ndy = {model['dy']}\ndz = {model['dz']}\n",
        label=model.get("label", "from-report"),
    )
    cert_lists = [source.get("certificates")]
    if cert_lists[0] is None:
        cert_lists = [source.get("darboux_polynomials", []), source.get("exp_factors", [])]
    if not all(isinstance(blocks, list) for blocks in cert_lists):
        raise CliError("--from: certificate lists must be JSON arrays")
    certs = [_cert_from_block(blk) for blocks in cert_lists for blk in blocks]
    if not certs:
        raise CliError("--from: report carries no certificates")
    primitive = [c for c in certs if c.primitive]
    use = primitive if primitive else certs
    combos = combine_cofactors(use, f)
    report = _base_report("combine", cfg, f)
    report.update(
        {
            "certificates": [_cert_block(c) for c in use],
            "combinations": [
                {
                    "weights": [str(w) for w in combo.weights],
                    "trivial": combo.trivial,
                    "log_derivative_numerator": (
                        None
                        if combo.trivial
                        else str(
                            lie_derivative_log_combination(
                                f, combination_log_terms(use, combo.weights)
                            )
                        )
                    ),
                }
                for combo in combos
            ],
        }
    )
    _emit_json(args, report)
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = RunConfig("verify", args)
    f = _resolve_model(args)
    k = Cofactor.from_poly(parse_expression(args.cofactor, dict(f.params)))
    report = _base_report("verify", cfg, f)
    if (args.poly is None) == (args.exp_g is None):
        raise CliError("verify needs exactly one of --poly or --exp-g")
    if args.poly is not None:
        h = parse_expression(args.poly, dict(f.params))
        if h.is_zero():
            raise CliError("--poly: the zero polynomial is not a Darboux polynomial")
        ok = verify_cofactor(f, h, k)
        report.update({"relation": "X(h) = K*h", "h": _poly_block(h)})
    else:
        g = parse_expression(args.exp_g, dict(f.params))
        if args.exp_den is not None:
            den = parse_expression(args.exp_den, dict(f.params))
            if den.is_zero():
                raise CliError("--exp-den: denominator must be nonzero")
            ok = verify_exp_factor_rational(f, g, den, k)
            report.update(
                {
                    "relation": "X(g/h) = L",
                    "g": _poly_block(g),
                    "denominator": _poly_block(den),
                }
            )
        else:
            ok = verify_exp_factor(f, g, k)
            report.update({"relation": "X(g) = L", "g": _poly_block(g)})
    report.update({"cofactor": _poly_block(k.as_poly()), "verified": bool(ok)})
    _emit_json(args, report)
    return EXIT_OK


def _step_mode(args) -> StepMode:
    if (args.h is None) == (args.tolerance is None):
        raise CliError("simulate needs exactly one of --h or --tolerance")
    if args.h is not None:
        return StepMode.fixed(args.h)
    return StepMode.adaptive(args.tolerance)


def cmd_simulate(args) -> int:
    f = _resolve_model(args)
    mode = _step_mode(args)
    traj = integrate(f, args.x0, args.t_end, mode)
    lines = ["t,x,y,z"]
    for t, (x, y, z) in zip(traj.times, traj.states):
        lines.append(f"{t!r},{x!r},{y!r},{z!r}")
    if traj.truncated_at is not None:
        print(
            f"warning: trajectory truncated at t={traj.truncated_at}: {traj.truncation_reason}",
            file=sys.stderr,
        )
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _drift_block(report_obj) -> dict:
    return {
        "initial_value": report_obj.initial_value,
        "max_abs_drift": report_obj.max_abs_drift,
        "relative_drift": report_obj.relative_drift,
        "window": list(report_obj.window),
        "domain_violation": (
            None
            if report_obj.domain_violation is None
            else {"time": report_obj.domain_violation[0], "reason": report_obj.domain_violation[1]}
        ),
    }


def _require_hsa_model(f: FieldDef) -> HsaParams:
    p = hsa_params_of(f)
    if p is None:
        raise CliError("this command needs the built-in dynamo model (or a field equal to it)")
    return p


def cmd_drift(args) -> int:
    cfg = RunConfig("drift", args)
    f = _resolve_model(args)
    p = _require_hsa_model(f)
    spec = IntegralSpec(args.integral, p)
    traj = integrate(f, args.x0, args.t_end, StepMode.fixed(args.h))
    rep = drift(traj, spec)
    report = _base_report("drift", cfg, f)
    report.update({"integral": args.integral, "drift": _drift_block(rep)})
    if args.study_h is not None:
        study = step_halving_study(f, args.x0, spec, args.study_h, args.t_end)
        report["step_halving"] = {
            "h": args.study_h,
            "drift_h": study.drift_h,
            "drift_half": study.drift_half,
            "ratio": study.ratio,
        }
    _emit_json(args, report)
    return EXIT_OK


def cmd_f2_experiment(args) -> int:
    cfg = RunConfig("f2-experiment", args)
    f = _resolve_model(args)
    p = _require_hsa_model(f)
    traj = integrate(f, args.x0, args.t_end, StepMode.fixed(args.h))
    report = _base_report("f2-experiment", cfg, f)
    results = {}
    for which in ("F2_paper", "F2_corrected"):
        spec = IntegralSpec(which, p)
        rep = drift(traj, spec)
        num, den = f2_time_derivative_residual(p, "paper" if which == "F2_paper" else "corrected")
        results[which] = {
            "drift": _drift_block(rep),
            "symbolic_ddt_numerator": str(num),
            "symbolic_ddt_denominator": str(den),
            "symbolically_conserved": num.is_zero(),
        }
    rp = results["F2_paper"]["drift"]["relative_drift"]
    rc = results["F2_corrected"]["drift"]["relative_drift"]
    winner = None
    if rc <= F2_WINNER_TOLERANCE and rp > F2_LOSER_THRESHOLD:
        winner = "F2_corrected"
    elif rp <= F2_WINNER_TOLERANCE and rc > F2_LOSER_THRESHOLD:
        winner = "F2_paper"
    report.update(
        {
            "variants": results,
            "winner_tolerance": F2_WINNER_TOLERANCE,
            "loser_threshold": F2_LOSER_THRESHOLD,
            "conserved_variant": winner if winner else "inconclusive",
        }
    )
    _emit_json(args, report)
    return EXIT_OK


def _joined_signed_values(argv: list[str], parser: argparse.ArgumentParser) -> list[str]:
    """argv with each SIGNED_VALUE_FLAGS flag (or, as argparse reads it, a unique
    prefix of one among the subcommand's long options) joined to a following token
    that starts with a single "-", as --flag=value; --flag --other stays as is."""
    commands = parser._subparsers._group_actions[0].choices
    sub = next((commands[tok] for tok in argv if tok in commands), parser)
    options = [o for o in sub._option_string_actions if o[:2] == "--"]

    def signed(flag: str) -> bool:
        hits = [flag] if flag in options else [o for o in options if o.startswith(flag)]
        return len(hits) == 1 and hits[0] in SIGNED_VALUE_FLAGS

    out: list[str] = []
    for tok in argv:
        if out and tok[:1] == "-" and tok[:2] != "--" and signed(out[-1]):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(_joined_signed_values(argv, parser))
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (CliError, ParseError, ConstraintError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
