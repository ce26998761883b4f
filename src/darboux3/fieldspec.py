"""Vector-field definitions for the searches and simulations.

Provides the built-in Hide-Skeldon-Acheson dynamo construction, a text parser
for general 3-D polynomial fields with named rational parameters, and the Lie
derivative of a polynomial along a field.

Field file grammar (UTF-8 text, '#' starts a comment):

    param <name> = <rational>     # optional, any number of lines
    dx = <expr>
    dy = <expr>
    dz = <expr>

Expressions admit +, -, *, / (by a nonzero constant only), ^ with integer
exponents from 0 to MAX_EXPONENT, products and powers of degree up to
MAX_DEGREE and coefficients of up to about MAX_COEFFICIENT_BITS bits,
parentheses, integer literals, fractions such as 3/2, the variables x, y, z,
and bound parameter names. Juxtaposition is not multiplication.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .polyring import Poly

__all__ = [
    "HsaParams",
    "FieldDef",
    "ParseError",
    "UnknownIdentifierError",
    "NonPolynomialError",
    "build_hsa",
    "parse_expression",
    "parse_field",
    "parse_rational_literal",
    "field_to_text",
    "lie_derivative",
    "hsa_params_of",
]


class ParseError(ValueError):
    """Syntax error; carries the character position the parser stopped at."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (position {position})")
        self.message = message
        self.position = position


class UnknownIdentifierError(ParseError):
    pass


class NonPolynomialError(ParseError):
    pass


@dataclass(frozen=True)
class HsaParams:
    """The four dynamo parameters; lam is the motor friction coefficient."""

    alpha: Fraction
    beta: Fraction
    kappa: Fraction
    lam: Fraction

    def __post_init__(self):
        for slot in ("alpha", "beta", "kappa", "lam"):
            object.__setattr__(self, slot, Fraction(getattr(self, slot)))

    def alpha_nonzero(self) -> bool:
        return self.alpha != 0

    def alpha_matches_kappa(self) -> bool:
        """alpha == -kappa*(kappa - 1), the resonance regime."""
        return self.alpha == -self.kappa * (self.kappa - 1)

    def as_dict(self) -> dict[str, Fraction]:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "kappa": self.kappa,
            "lambda": self.lam,
        }


@dataclass
class FieldDef:
    """A 3-D polynomial vector field (dx/dt, dy/dt, dz/dt)."""

    fx: Poly
    fy: Poly
    fz: Poly
    params: dict[str, Fraction] = field(default_factory=dict)
    label: str = "field"

    def components(self) -> tuple[Poly, Poly, Poly]:
        return (self.fx, self.fy, self.fz)

    def is_zero(self) -> bool:
        return self.fx.is_zero() and self.fy.is_zero() and self.fz.is_zero()

    def max_degree(self) -> int:
        return max(self.fx.degree, self.fy.degree, self.fz.degree)

    def evaluate_f(self, state) -> tuple[float, float, float]:
        return (
            self.fx.evaluate_f(state),
            self.fy.evaluate_f(state),
            self.fz.evaluate_f(state),
        )


def build_hsa(p: HsaParams) -> FieldDef:
    """The dynamo field: dx = x(y-1) - beta*z, dy = alpha(1-x^2) - kappa*y,
    dz = x - lambda*z."""
    x, y, z = Poly.variable("x"), Poly.variable("y"), Poly.variable("z")
    fx = x * (y - Poly.constant(1)) - z.scale(p.beta)
    fy = (Poly.constant(1) - x * x).scale(p.alpha) - y.scale(p.kappa)
    fz = x - z.scale(p.lam)
    label = f"hsa(alpha={p.alpha}, beta={p.beta}, kappa={p.kappa}, lambda={p.lam})"
    return FieldDef(fx, fy, fz, dict(p.as_dict()), label)


def hsa_params_of(f: FieldDef) -> HsaParams | None:
    """Recover dynamo parameters when the field has exactly the dynamo shape."""
    keys = ("alpha", "beta", "kappa", "lambda")
    if not all(k in f.params for k in keys):
        return None
    p = HsaParams(f.params["alpha"], f.params["beta"], f.params["kappa"], f.params["lambda"])
    rebuilt = build_hsa(p)
    if (f.fx, f.fy, f.fz) == (rebuilt.fx, rebuilt.fy, rebuilt.fz):
        return p
    return None


def lie_derivative(f: FieldDef, h: Poly) -> Poly:
    """fx*dh/dx + fy*dh/dy + fz*dh/dz, the time derivative of h along the flow."""
    return (
        f.fx * h.partial_derivative("x")
        + f.fy * h.partial_derivative("y")
        + f.fz * h.partial_derivative("z")
    )


# ---------------------------------------------------------------------------
# Expression parsing
# ---------------------------------------------------------------------------

# Largest exponent '^' accepts: repeated multiplication is quadratic in it.
MAX_EXPONENT = 32
# Largest degree and coefficient size in bits of a parsed product or power,
# both checked before multiplying (the size as the sum of the factors' largest
# |numerator|*denominator sizes), so that nested powers such as
# ((x+y+z+1)^8)^8 and ((2^32)^32)^32 are refused, not expanded.
MAX_DEGREE = 32
MAX_COEFFICIENT_BITS = 4096


def _bits(p: Poly) -> int:
    return max((abs(c.numerator) * c.denominator for c in p.terms.values()), default=0).bit_length()


def _check_size(degree: int, bits: int, pos: int) -> None:
    if degree > MAX_DEGREE:
        raise NonPolynomialError(f"degree {degree} above {MAX_DEGREE}", pos)
    if bits > MAX_COEFFICIENT_BITS:
        raise NonPolynomialError(f"coefficients of {bits} bits above {MAX_COEFFICIENT_BITS}", pos)


_TOKEN_RE = re.compile(r"(?P<num>\d+)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()])")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", n))
    return tokens


class _ExprParser:
    def __init__(self, text: str, bindings: dict[str, Fraction]) -> None:
        self.tokens = _tokenize(text)
        self.i = 0
        self.bindings = bindings

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, found {val or 'end of input'!r}", pos)
        return self.take()

    def parse(self) -> Poly:
        p = self.expr()
        kind, val, pos = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected token {val!r}", pos)
        return p

    def expr(self) -> Poly:
        p = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                p = p + rhs if val == "+" else p - rhs
            else:
                return p

    def term(self) -> Poly:
        p = self.unary()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs = self.unary()
                if val == "*":
                    _check_size(p.degree + rhs.degree, _bits(p) + _bits(rhs), pos)
                    p = p * rhs
                else:
                    if rhs.degree > 0:
                        raise NonPolynomialError("division by a non-constant expression", pos)
                    c = rhs.evaluate((0, 0, 0))
                    if c == 0:
                        raise ParseError("division by zero", pos)
                    p = p.scale(Fraction(1) / c)
            else:
                return p

    def unary(self) -> Poly:
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.take()
            p = self.unary()
            return p if val == "+" else -p
        return self.power()

    def power(self) -> Poly:
        p = self.atom()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "^":
                self.take()
                _, _, epos = self.peek()
                e = self.unary()
                if e.degree > 0:
                    raise NonPolynomialError("exponent must be a constant", epos)
                c = e.evaluate((0, 0, 0))
                if c.denominator != 1:
                    raise NonPolynomialError("fractional exponent", epos)
                if c < 0:
                    raise NonPolynomialError("negative exponent", epos)
                if c > MAX_EXPONENT:
                    raise NonPolynomialError(f"exponent above {MAX_EXPONENT}", epos)
                _check_size(p.degree * int(c), _bits(p) * int(c), epos)
                p = p ** int(c)
            else:
                return p

    def atom(self) -> Poly:
        kind, val, pos = self.take()
        if kind == "num":
            return Poly.constant(int(val))
        if kind == "ident":
            if val in ("x", "y", "z"):
                return Poly.variable(val)
            if val in self.bindings:
                return Poly.constant(self.bindings[val])
            raise UnknownIdentifierError(f"unknown identifier {val!r}", pos)
        if kind == "op" and val == "(":
            p = self.expr()
            self.expect_op(")")
            return p
        raise ParseError(f"unexpected token {val or 'end of input'!r}", pos)


def parse_expression(text: str, bindings: dict[str, Fraction] | None = None) -> Poly:
    """Parse one polynomial expression; identifiers other than x, y, z must
    appear in bindings."""
    return _ExprParser(text, dict(bindings or {})).parse()


_RATIONAL_LITERAL_RE = re.compile(r"^[+-]?\d+(?:\s*/\s*[1-9]\d*)?$")


def parse_rational_literal(text: str, pos_hint: int = 0) -> Fraction:
    """An integer or p/q literal, with optional spaces around '/'."""
    text = text.strip()
    if not _RATIONAL_LITERAL_RE.match(text):
        raise ParseError(
            f"bad rational literal {text!r}: expected an integer or p/q", pos_hint
        )
    return Fraction("".join(text.split()))


def parse_field(
    text: str,
    bindings: dict[str, Fraction] | None = None,
    label: str = "field",
) -> FieldDef:
    """Parse a field definition (dx/dy/dz lines plus optional param lines)."""
    params: dict[str, Fraction] = dict(bindings or {})
    component_lines: dict[str, tuple[str, int]] = {}
    offset = 0
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            if line.startswith("param"):
                body = line[len("param") :].strip()
                if "=" not in body:
                    raise ParseError("param line must look like 'param name = value'", offset)
                name, value = body.split("=", 1)
                name = name.strip()
                if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", name):
                    raise ParseError(f"bad parameter name {name!r}", offset)
                if name in ("x", "y", "z"):
                    raise ParseError(f"parameter name {name!r} shadows a variable", offset)
                params[name] = parse_rational_literal(value, offset)
            elif "=" in line:
                head, expr = line.split("=", 1)
                head = head.strip()
                if head not in ("dx", "dy", "dz"):
                    raise ParseError(f"unknown definition {head!r}", offset)
                if head in component_lines:
                    raise ParseError(f"duplicate definition of {head}", offset)
                component_lines[head] = (expr, offset)
            else:
                raise ParseError(f"cannot interpret line {line!r}", offset)
        offset += len(raw) + 1
    missing = [k for k in ("dx", "dy", "dz") if k not in component_lines]
    if missing:
        raise ParseError(f"missing definition of {', '.join(missing)}", offset)
    comps = {}
    for key in ("dx", "dy", "dz"):
        expr, line_off = component_lines[key]
        try:
            comps[key] = parse_expression(expr, params)
        except ParseError as exc:
            raise type(exc)(f"in {key}: {exc.message}", line_off + exc.position) from None
    return FieldDef(comps["dx"], comps["dy"], comps["dz"], params, label)


def field_to_text(f: FieldDef) -> str:
    """Canonical field-file rendering of the components (parameters already
    substituted)."""
    return f"dx = {f.fx}\ndy = {f.fy}\ndz = {f.fz}\n"
