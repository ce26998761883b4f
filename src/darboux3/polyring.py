"""Multivariate polynomials in the fixed variables x, y, z over exact rationals.

Terms are kept in a map from exponent triples to nonzero coefficients; the
canonical ordering everywhere (printing, matrix indexing, normalization) is
graded lexicographic with x > y > z, highest term first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Iterable, NamedTuple

VARS = ("x", "y", "z")


class Monomial(NamedTuple):
    """Exponent triple x^ex * y^ey * z^ez."""

    ex: int
    ey: int
    ez: int

    @property
    def degree(self) -> int:
        return self.ex + self.ey + self.ez

    def key(self) -> tuple[int, int, int, int]:
        """Graded-lex comparison key with x > y > z."""
        return (self.degree, self.ex, self.ey, self.ez)

    def __str__(self) -> str:
        parts = []
        for name, e in zip(VARS, self):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"


MONOMIAL_ONE = Monomial(0, 0, 0)


def monomials_up_to(degree: int, min_degree: int = 0) -> list[Monomial]:
    """All monomials with min_degree <= total degree <= degree, in ascending
    total degree with x-power then y-power descending inside each degree
    (the deterministic basis indexing used by all search matrices)."""
    out = []
    for d in range(min_degree, degree + 1):
        layer = []
        for ex in range(d, -1, -1):
            for ey in range(d - ex, -1, -1):
                layer.append(Monomial(ex, ey, d - ex - ey))
        out.extend(layer)
    return out


class Poly:
    """Polynomial in x, y, z with Fraction coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Monomial, Fraction] | None = None) -> None:
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for m, c in terms.items():
                c = Fraction(c)
                if c != 0:
                    clean[Monomial(*m)] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def constant(cls, c) -> "Poly":
        return cls({MONOMIAL_ONE: Fraction(c)})

    @classmethod
    def variable(cls, name: str) -> "Poly":
        if name not in VARS:
            raise ValueError(f"unknown variable {name!r}")
        e = [0, 0, 0]
        e[VARS.index(name)] = 1
        return cls({Monomial(*e): Fraction(1)})

    @classmethod
    def term(cls, m: Monomial, c) -> "Poly":
        return cls({m: Fraction(c)})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        """Total degree; -1 stands in for the zero polynomial."""
        return max((m.degree for m in self.terms), default=-1)

    def coefficient(self, m: Monomial) -> Fraction:
        return self.terms.get(Monomial(*m), Fraction(0))

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(self.terms.items(), key=lambda t: t[0].key(), reverse=True)

    def leading(self) -> tuple[Monomial, Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms, key=Monomial.key)
        return m, self.terms[m]

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "Poly":
        other = _coerce(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, Fraction(0)) + c
            if s == 0:
                out.pop(m, None)
            else:
                out[m] = s
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "Poly":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "Poly":
        other = _coerce(other)
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = Monomial(m1.ex + m2.ex, m1.ey + m2.ey, m1.ez + m2.ez)
                s = out.get(m, Fraction(0)) + c1 * c2
                if s == 0:
                    out.pop(m, None)
                else:
                    out[m] = s
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        acc = Poly.constant(1)
        for _ in range(n):
            acc = acc * self
        return acc

    def scale(self, k) -> "Poly":
        k = Fraction(k)
        if k == 0:
            return Poly()
        return Poly({m: c * k for m, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == Poly.constant(other).terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- calculus and structure --------------------------------------------

    def partial_derivative(self, var: str) -> "Poly":
        if var not in VARS:
            raise ValueError(f"unknown variable {var!r}")
        i = VARS.index(var)
        out: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            e = m[i]
            if e == 0:
                continue
            lowered = list(m)
            lowered[i] = e - 1
            out[Monomial(*lowered)] = c * e
        return Poly(out)

    def homogeneous_parts(self) -> list[tuple[int, "Poly"]]:
        """Split into homogeneous components, degrees strictly increasing."""
        buckets: dict[int, dict[Monomial, Fraction]] = {}
        for m, c in self.terms.items():
            buckets.setdefault(m.degree, {})[m] = c
        return [(d, Poly(buckets[d])) for d in sorted(buckets)]

    def try_divide(self, d: "Poly") -> "Poly | None":
        """Exact quotient self / d, or None when the division is not exact."""
        if d.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return Poly()
        dm, dc = d.leading()
        rem = self
        q: dict[Monomial, Fraction] = {}
        while not rem.is_zero():
            rm, rc = rem.leading()
            e = (rm.ex - dm.ex, rm.ey - dm.ey, rm.ez - dm.ez)
            if min(e) < 0:
                return None
            qm = Monomial(*e)
            qc = rc / dc
            q[qm] = q.get(qm, Fraction(0)) + qc
            rem = rem - Poly.term(qm, qc) * d
        return Poly(q)

    def evaluate(self, at) -> Fraction:
        ax, ay, az = (Fraction(v) for v in at)
        total = Fraction(0)
        for m, c in self.terms.items():
            total += c * ax**m.ex * ay**m.ey * az**m.ez
        return total

    def evaluate_f(self, at) -> float:
        ax, ay, az = (float(v) for v in at)
        total = 0.0
        for m, c in self.terms.items():
            total += float(c) * ax**m.ex * ay**m.ey * az**m.ez
        return total

    def normalized(self) -> "Poly":
        """Scale so the leading (graded-lex) coefficient is 1."""
        if self.is_zero():
            return self
        _, lc = self.leading()
        return self.scale(1 / lc)

    # -- rendering ----------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            mono = str(m)
            if mono == "1":
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append((" + " if c > 0 else " - ") + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self})"

    def coefficient_map(self) -> dict[str, str]:
        """Monomial-string to coefficient-string map (canonical order)."""
        return {str(m): str(c) for m, c in self.sorted_terms()}


def _coerce(v) -> Poly:
    if isinstance(v, Poly):
        return v
    if isinstance(v, (int, Fraction)):
        return Poly.constant(v)
    raise TypeError(f"cannot coerce {type(v).__name__} to Poly")


@dataclass(frozen=True)
class Cofactor:
    """Degree <= 1 polynomial b0 + b1*x + b2*y + b3*z."""

    # the monomial each coordinate multiplies, in coordinate order
    SLOT_MONOMIAL: ClassVar[dict[str, Monomial]] = {
        "b0": MONOMIAL_ONE,
        "b1": Monomial(1, 0, 0),
        "b2": Monomial(0, 1, 0),
        "b3": Monomial(0, 0, 1),
    }

    b0: Fraction = Fraction(0)
    b1: Fraction = Fraction(0)
    b2: Fraction = Fraction(0)
    b3: Fraction = Fraction(0)

    def __post_init__(self):
        for slot in self.SLOT_MONOMIAL:
            object.__setattr__(self, slot, Fraction(getattr(self, slot)))

    @classmethod
    def from_poly(cls, p: Poly) -> "Cofactor":
        if p.degree > 1:
            raise ValueError(f"cofactor must have degree <= 1, got {p}")
        return cls(**{s: p.coefficient(m) for s, m in cls.SLOT_MONOMIAL.items()})

    def as_poly(self) -> Poly:
        return Poly({m: getattr(self, s) for s, m in self.SLOT_MONOMIAL.items()})

    def coordinates(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.b0, self.b1, self.b2, self.b3)

    def is_zero(self) -> bool:
        return not any(self.coordinates())

    def scale(self, k) -> "Cofactor":
        k = Fraction(k)
        return Cofactor(self.b0 * k, self.b1 * k, self.b2 * k, self.b3 * k)

    def __str__(self) -> str:
        return str(self.as_poly())


def poly_from_coeff_vector(coeffs: Iterable, basis: list[Monomial]) -> Poly:
    """Assemble a Poly from a coefficient vector aligned with a monomial basis."""
    return Poly({m: Fraction(c) for m, c in zip(basis, coeffs)})
