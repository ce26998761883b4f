"""Search engine for invariant algebraic surfaces and Darboux-type first
integrals of 3-D polynomial fields.

All searches reduce to exact linear algebra over the rationals on
degree-bounded coefficient spaces, and none is randomized: the rng
arguments are accepted, and the CLI echoes its seed, but they change no
output. A found object is always re-verified against its defining relation
before it is reported.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction

from .exactmath import PencilMatrix, QMatrix, null_space, pencil_rank_drop
from .fieldspec import FieldDef, hsa_params_of, lie_derivative
from .polyring import Cofactor, Monomial, Poly, monomials_up_to, poly_from_coeff_vector

DARBOUX_INTEGRAL_FOUND = "darboux_integral_found"
NONE_UP_TO_BOUND = "none_up_to_bound"

DEFAULT_DEGREE_BOUND = 4
HARD_DEGREE_CAP = 6

# audit line recorded in every pencil-search report; the benchmark goldens pin
# these bytes, so it changes with the next benchmark update
PENCIL_SAMPLING_NOTE = (
    "pencil minor sampling: per cell, the gcd of randomly chosen maximal minors is "
    "accumulated until it is constant or unchanged for 3 consecutive "
    "fresh minors; all rational candidates are re-verified exactly"
)

@dataclass(frozen=True)
class DarbouxCert:
    """A Darboux polynomial (kind 'polynomial', body h with X(h) = K*h) or an
    exponential factor e^g (kind 'exp_factor', body g with X(g) = L)."""

    kind: str
    body: Poly
    cofactor: Cofactor
    degree_bound_used: int
    primitive: bool = True

    def describe(self) -> str:
        if self.kind == "polynomial":
            return f"h = {self.body}  with cofactor  {self.cofactor}"
        return f"exp(g), g = {self.body}  with cofactor  {self.cofactor}"


@dataclass(frozen=True)
class CofactorTemplate:
    """How the four cofactor coordinates are handled by the pencil search:
    pinned to a value, swept over a finite list, or solved as the pencil
    eigen-unknown. Every slot must appear in exactly one role."""

    fixed: tuple[tuple[str, Fraction], ...] = ()
    eigen: str | None = None
    enumerated: tuple[tuple[str, tuple[Fraction, ...]], ...] = ()

    def __post_init__(self):
        fixed = tuple((s, Fraction(v)) for s, v in dict(self.fixed).items())
        enumerated = tuple(
            (s, tuple(Fraction(v) for v in vals)) for s, vals in dict(self.enumerated).items()
        )
        object.__setattr__(self, "fixed", fixed)
        object.__setattr__(self, "enumerated", enumerated)
        seen: list[str] = [s for s, _ in fixed] + [s for s, _ in enumerated]
        if self.eigen is not None:
            seen.append(self.eigen)
        if sorted(seen) != sorted(Cofactor.SLOT_MONOMIAL):
            raise ValueError(
                "template must assign each of b0..b3 to exactly one of "
                f"fixed/eigen/enumerated, got {sorted(seen)}"
            )

    @classmethod
    def default(cls, degree_bound: int) -> "CofactorTemplate":
        """b1 = b3 = 0, b2 swept over the integers 0..n, b0 eigen-solved.

        The top-degree relation of the dynamo fixes b2 and b3: its quadratic
        part is x*D with D = y*d/dx - alpha*x*d/dy, and if h's top form is
        x^k*g with x not dividing g, then x*D(x^k*g) = x^k*(k*y*g + x*D(g))
        must equal (b1*x + b2*y + b3*z)*x^k*g. At x = 0 this gives b2 = k
        and b3 = 0, over C and for every alpha. What remains is D(g) = b1*g,
        which forces b1 = 0 when alpha = 0 (D is then nilpotent); for
        alpha != 0, b1 = 0 is taken from the paper."""
        sweep = tuple(Fraction(v) for v in range(degree_bound + 1))
        return cls(
            fixed=(("b1", Fraction(0)), ("b3", Fraction(0))),
            eigen="b0",
            enumerated=(("b2", sweep),),
        )

    @classmethod
    def for_field(cls, f: FieldDef, degree_bound: int) -> "CofactorTemplate":
        """The default template for the dynamo; for any other field, where no
        top-degree relation fixes b2, the same with b2 swept over -n..n."""
        if hsa_params_of(f) is not None:
            return cls.default(degree_bound)
        sweep = tuple(Fraction(v) for v in range(-degree_bound, degree_bound + 1))
        return replace(cls.default(degree_bound), enumerated=(("b2", sweep),))


@dataclass(frozen=True)
class CombinationSolution:
    """Weights making the cofactors of a certificate list cancel linearly."""

    weights: tuple[Fraction, ...]
    trivial: bool


@dataclass
class Verdict:
    model: FieldDef
    degree_bound: int
    darboux_polys: list[DarbouxCert]
    exp_factors: list[DarbouxCert]
    combinations: list[CombinationSolution]
    conclusion: str
    notes: str

    def combination_certs(self) -> list[DarbouxCert]:
        """Certificates the combination weights refer to, in weight order."""
        return [c for c in self.darboux_polys if c.primitive] + [
            c for c in self.exp_factors if c.primitive
        ]


# ---------------------------------------------------------------------------
# Verification of the defining relations
# ---------------------------------------------------------------------------


def verify_cofactor(f: FieldDef, h: Poly, k: Cofactor) -> bool:
    """X(h) == K*h, exactly."""
    if h.is_zero():
        raise ValueError("Darboux polynomial must be nonzero")
    return (lie_derivative(f, h) - k.as_poly() * h).is_zero()


def verify_exp_factor(f: FieldDef, g: Poly, l: Cofactor) -> bool:
    """X(g) == L, the defining identity for an exponential factor e^g."""
    return lie_derivative(f, g) == l.as_poly()


def verify_exp_factor_rational(f: FieldDef, g: Poly, h: Poly, l: Cofactor) -> bool:
    """X(g/h) == L as rational functions: X(g)*h - g*X(h) == L*h^2.

    Denominators are handled by verification only; the search itself covers
    the polynomial-exponent shape.
    """
    if h.is_zero():
        raise ZeroDivisionError("denominator polynomial must be nonzero")
    lhs = lie_derivative(f, g) * h - g * lie_derivative(f, h)
    return lhs == l.as_poly() * h * h


# ---------------------------------------------------------------------------
# Linear-map matrices on degree-bounded coefficient spaces
# ---------------------------------------------------------------------------


def _coefficient_spaces(
    f: FieldDef, degree_bound: int, min_degree: int
) -> tuple[list[Monomial], dict[Monomial, int]]:
    """The domain monomials (degree min_degree..bound) and the row index of
    the codomain monomials, which span X(h) and K*h for every domain h."""
    if degree_bound < 1:
        raise ValueError("degree bound must be >= 1")
    top = max(degree_bound + 1, degree_bound - 1 + max(f.max_degree(), 0), 1)
    index = {m: i for i, m in enumerate(monomials_up_to(top))}
    return monomials_up_to(degree_bound, min_degree), index


def _lie_matrix(
    f: FieldDef, domain: list[Monomial], index: dict[Monomial, int], values=()
) -> tuple[list[int], int]:
    """Row-major integer matrix of h -> D*X(h), from the domain monomials to
    the codomain rows named by index, and D: the lcm of the denominators of
    the field's coefficients and of values. Column m adds m[i]*D*c at the
    row of (m/x_i)*mono, for each term c*mono of component i."""
    coeffs = [c for p in f.components() for c in p.terms.values()]
    scale = math.lcm(*(c.denominator for c in [*coeffs, *values]))
    terms = [[(mono, int(c * scale)) for mono, c in p.terms.items()] for p in f.components()]
    cols = len(domain)
    mat = [0] * (len(index) * cols)
    for j, m in enumerate(domain):
        for i, component in enumerate(terms):
            if m[i]:
                low = [e - (v == i) for v, e in enumerate(m)]
                for mono, c in component:
                    mat[index[Monomial(*(a + b for a, b in zip(low, mono)))] * cols + j] += m[i] * c
    return mat, scale


def _slot_rows(domain: list[Monomial], index: dict[Monomial, int]) -> dict[str, list[int]]:
    """For each cofactor slot, the codomain row of (slot monomial)*m for
    every domain monomial m: the matrix of h -> (slot monomial)*h."""
    return {
        slot: [index[Monomial(*(a + b for a, b in zip(mono, m)))] for m in domain]
        for slot, mono in Cofactor.SLOT_MONOMIAL.items()
    }


def _minus_cofactor(
    mat: list[int], cols: int, slot_rows: dict[str, list[int]], coords: dict, scale: int
) -> list[int]:
    """A copy of the row-major integer matrix mat minus scale times the matrix
    of h -> sum(coords[slot] * slot monomial) * h, whose denominators scale
    clears."""
    out = list(mat)
    for slot, v in coords.items():
        if v:
            v = int(v * scale)
            for j, i in enumerate(slot_rows[slot]):
                out[i * cols + j] -= v
    return out


def search_darboux_fixed(f: FieldDef, k: Cofactor, degree_bound: int) -> list[Poly]:
    """Basis of {h : deg h <= bound, X(h) = K*h} for a fully pinned cofactor.

    With K = 0 this is the polynomial first integral search; constants are
    quotiented out in that case (they satisfy the relation trivially).
    """
    domain, index = _coefficient_spaces(f, degree_bound, 1 if k.is_zero() else 0)
    coords = dict(zip(Cofactor.SLOT_MONOMIAL, k.coordinates()))
    lie, scale = _lie_matrix(f, domain, index, coords.values())
    entries = _minus_cofactor(lie, len(domain), _slot_rows(domain, index), coords, scale)
    out = []
    for v in null_space(QMatrix.from_parts(len(index), len(domain), entries)):
        p = poly_from_coeff_vector(v.column(0), domain).normalized()
        out.append(p)
    out.sort(key=lambda p: p.degree)  # stable: discovery order within a degree
    return out


def search_exp_factors(f: FieldDef, degree_bound: int) -> list[DarbouxCert]:
    """All exponential factors e^g with deg g <= bound and a degree <= 1
    cofactor, modulo constants, from one exact null-space computation on the
    joint linear system in (coefficients of g, b0..b3), scaled to integers."""
    domain, index = _coefficient_spaces(f, degree_bound, 1)  # g modulo constants
    ng = len(domain)
    lie, scale = _lie_matrix(f, domain, index)
    entries = []
    for m, i in index.items():
        entries += lie[i * ng : (i + 1) * ng]
        entries += [-scale if m == mono else 0 for mono in Cofactor.SLOT_MONOMIAL.values()]
    certs = []
    for v in null_space(QMatrix.from_parts(len(index), ng + 4, entries)):
        vec = v.column(0)
        g = poly_from_coeff_vector(vec[:ng], domain)
        l = Cofactor(*vec[ng:])
        if g.is_zero():
            continue  # only the (0, 0) pair, excluded by definition
        _, lead = g.leading()
        g = g.scale(1 / lead)
        l = l.scale(1 / lead)
        if not verify_exp_factor(f, g, l):
            raise RuntimeError(f"internal error: candidate g = {g} failed re-verification")
        certs.append(DarbouxCert("exp_factor", g, l, degree_bound, primitive=True))
    certs.sort(key=lambda c: c.body.degree)  # stable: discovery order within a degree
    return certs


def search_darboux_pencil(
    f: FieldDef,
    template: CofactorTemplate,
    degree_bound: int,
    rng: random.Random | None = None,
) -> tuple[list[DarbouxCert], list[str]]:
    """Darboux polynomials whose cofactor matches the template, one linear
    pencil per swept cofactor cell.

    For each assignment of the enumerated slots, the relation X(h) = K*h with
    the eigen slot as unknown t becomes the pencil A - t*B, where A maps h to
    X(h) - (pinned part of K)*h and B multiplies h by the eigen slot's
    monomial. The Lie matrix and the slot multiplications are assembled once,
    as integers scaled by the lcm D of the field's and the pinned values'
    denominators; each cell only subtracts its pinned slots, and its pencil
    D*A - t*D*B has the same rank drops, at the same t. Rational rank-drop
    values of t and their kernels are found by pencil_rank_drop and each
    kernel vector is re-verified. B is injective, so no cell is parametric;
    a cell whose eigen values include irrational or complex ones gets a note.
    For the dynamo, a cell with b2 < 0 or b3 != 0 has no rank drop at any
    complex t (CofactorTemplate.default), so the default sweeps b2 over 0..n.
    """
    domain, index = _coefficient_spaces(f, degree_bound, 0)
    if template.eigen is None:
        raise ValueError("template must have exactly one eigen slot")

    rows, cols = len(index), len(domain)
    swept = [v for _, vals in template.enumerated for v in vals]
    lie, scale = _lie_matrix(f, domain, index, [v for _, v in template.fixed] + swept)
    slot_rows = _slot_rows(domain, index)
    minus_b = _minus_cofactor([0] * (rows * cols), cols, slot_rows, {template.eigen: 1}, scale)

    notes: list[str] = []
    certs: list[DarbouxCert] = []
    seen: set[tuple] = set()
    sweep_slots = [s for s, _ in template.enumerated]
    sweep_values = [vals for _, vals in template.enumerated]
    for assignment in itertools.product(*sweep_values):
        pinned = dict(template.fixed)
        pinned.update(zip(sweep_slots, assignment))
        cell_name = ", ".join(f"{s}={v}" for s, v in sorted(pinned.items()))
        a = _minus_cofactor(lie, cols, slot_rows, pinned, scale)
        pencil = PencilMatrix.from_parts(rows, cols, a, minus_b)
        result = pencil_rank_drop(pencil)  # B multiplies by a monomial: never parametric
        if result.residual.degree > 0:
            notes.append(
                f"cell ({cell_name}): nonconstant residual {result.residual}; "
                "its irrational or complex eigen values are not searched"
            )
        for t0, kernel in zip(result.candidates, result.kernels):
            k_full = Cofactor(**pinned, **{template.eigen: t0})
            for v in kernel:
                h = poly_from_coeff_vector(v.column(0), domain)
                if h.degree < 1:
                    continue  # constants are not Darboux polynomials
                h = h.normalized()
                if not verify_cofactor(f, h, k_full):
                    raise RuntimeError(
                        f"internal error: candidate h = {h} at {cell_name}, t={t0} "
                        "failed re-verification"
                    )
                key = (tuple(sorted(h.terms.items())), k_full.coordinates())
                if key in seen:
                    continue
                seen.add(key)
                certs.append(DarbouxCert("polynomial", h, k_full, degree_bound, primitive=True))
    certs.sort(key=lambda c: c.body.degree)  # stable: discovery order within a degree
    certs = _mark_primitive(certs)
    return certs, notes


def _mark_primitive(certs: list[DarbouxCert]) -> list[DarbouxCert]:
    """Flag certificates whose body is an exact product of earlier bodies."""
    bodies: list[Poly] = []
    out = []
    for c in certs:
        primitive = not _is_product_of(c.body, bodies)
        bodies.append(c.body)
        out.append(DarbouxCert(c.kind, c.body, c.cofactor, c.degree_bound_used, primitive))
    return out


def _is_product_of(p: Poly, bodies: list[Poly]) -> bool:
    if p.degree == 0:
        return True
    for b in bodies:
        if b.degree < 1:
            continue
        q = p.try_divide(b)
        if q is not None and _is_product_of(q, bodies):
            return True
    return False


# ---------------------------------------------------------------------------
# Cofactor combinations and the integrability verdict
# ---------------------------------------------------------------------------


def combine_cofactors(
    certs: list[DarbouxCert], f: FieldDef | None = None
) -> list[CombinationSolution]:
    """Basis of weight vectors with sum(w_i * cofactor_i) = 0 as a polynomial.

    When a field is supplied each certificate is re-checked against its
    defining relation first. Returns a single trivial-flagged solution when
    only the zero combination exists.
    """
    if not certs:
        raise ValueError("need at least one certificate")
    if f is not None:
        for c in certs:
            ok = (
                verify_cofactor(f, c.body, c.cofactor)
                if c.kind == "polynomial"
                else verify_exp_factor(f, c.body, c.cofactor)
            )
            if not ok:
                raise ValueError(f"unverified certificate: {c.describe()}")
    rows = []
    for pick in range(4):
        rows.append([c.cofactor.coordinates()[pick] for c in certs])
    mat = QMatrix.from_rows(rows)
    basis = null_space(mat)
    if not basis:
        return [CombinationSolution(tuple(Fraction(0) for _ in certs), trivial=True)]
    return [CombinationSolution(tuple(v.column(0)), trivial=False) for v in basis]


def lie_derivative_log_combination(
    f: FieldDef, terms: list[tuple[Fraction, Poly, str]]
) -> Poly:
    """Numerator of d/dt sum(w_i * log p_i or w_i * q_i) along the flow.

    The common denominator is the product of the log-form bases; the returned
    numerator is identically zero exactly when the combination is a first
    integral wherever it is defined.
    """
    log_bases = [p for _, p, form in terms if form == "log"]
    for p in log_bases:
        if p.is_zero():
            raise ValueError("log term with zero base")
    total = Poly.zero()
    for w, p, form in terms:
        w = Fraction(w)
        if form == "log":
            contrib = lie_derivative(f, p).scale(w)
            for q in log_bases:
                if q is not p:
                    contrib = contrib * q
        elif form == "plain":
            contrib = lie_derivative(f, p).scale(w)
            for q in log_bases:
                contrib = contrib * q
        else:
            raise ValueError(f"unknown term form {form!r}")
        total = total + contrib
    return total


def combination_log_terms(
    certs: list[DarbouxCert], weights: tuple[Fraction, ...]
) -> list[tuple[Fraction, Poly, str]]:
    """log/plain term list for G = prod h_i^w_i * prod exp(g_k)^w_k."""
    return [
        (w, c.body, "log" if c.kind == "polynomial" else "plain")
        for c, w in zip(certs, weights)
    ]


def analyze(
    f: FieldDef,
    degree_bound: int = DEFAULT_DEGREE_BOUND,
    template: CofactorTemplate | None = None,
    rng: random.Random | None = None,
) -> Verdict:
    """Run the full pipeline: pencil search for Darboux polynomials, the
    exponential-factor search, and the cofactor combination solve."""
    if degree_bound < 1:
        raise ValueError("degree bound must be >= 1")
    if degree_bound > HARD_DEGREE_CAP:
        raise ValueError(
            f"degree bound {degree_bound} above the hard cap {HARD_DEGREE_CAP}, "
            "a bound on run time and memory"
        )
    notes: list[str] = []
    if degree_bound > DEFAULT_DEGREE_BOUND:
        notes.append(
            f"degree bound {degree_bound} is expensive: the degree-<= {degree_bound} "
            f"coefficient space has dimension {len(monomials_up_to(degree_bound))}"
        )
    if f.max_degree() > 2:
        notes.append(
            f"field degree {f.max_degree()} > 2: cofactors may have degree up to "
            f"{f.max_degree() - 1}, but the cofactor space was truncated to degree <= 1; "
            "certificates with higher-degree cofactors were not searched"
        )

    if f.is_zero():
        x = Poly.variable("x")
        cert = DarbouxCert("polynomial", x, Cofactor(), degree_bound, primitive=True)
        return Verdict(
            model=f,
            degree_bound=degree_bound,
            darboux_polys=[cert],
            exp_factors=[],
            combinations=[CombinationSolution((Fraction(1),), trivial=False)],
            conclusion=DARBOUX_INTEGRAL_FOUND,
            notes=(
                "zero field: every polynomial is a first integral; "
                "reporting x as a representative and skipping the searches"
            ),
        )

    if template is None:
        template = CofactorTemplate.for_field(f, degree_bound)
        b2 = dict(template.enumerated)["b2"]
        if b2[0] < 0:  # not the dynamo, whose top-degree relation fixes b2, b3
            notes.append(
                f"default cofactor template (b1 = b3 = 0, b2 swept over {b2[0]}..{b2[-1]}, "
                "b0 eigen) is only justified for the built-in dynamo form; for this "
                "model the search may be incomplete outside the template family"
            )
    else:
        notes.append(
            "user-supplied cofactor template: completeness is only relative to the "
            "template family"
        )
    notes.append(PENCIL_SAMPLING_NOTE)

    polys, pencil_notes = search_darboux_pencil(f, template, degree_bound)
    notes.extend(pencil_notes)
    exps = search_exp_factors(f, degree_bound)

    primitive = [c for c in polys if c.primitive] + [c for c in exps if c.primitive]
    combos: list[CombinationSolution] = []
    if primitive:
        combos = combine_cofactors(primitive, f)
        for combo in combos:
            if combo.trivial:
                continue
            residue = lie_derivative_log_combination(
                f, combination_log_terms(primitive, combo.weights)
            )
            if not residue.is_zero():
                raise RuntimeError(
                    "internal error: combination passed the cofactor solve but its "
                    f"log-derivative numerator is {residue}"
                )
    else:
        notes.append("no certificates found up to the bound; nothing to combine")

    nontrivial = any(not c.trivial for c in combos)
    if not nontrivial:
        notes.append(
            f"no Darboux first integral up to degree bound {degree_bound} "
            "(this is a bounded search, not a proof)"
        )
    return Verdict(
        model=f,
        degree_bound=degree_bound,
        darboux_polys=polys,
        exp_factors=exps,
        combinations=combos,
        conclusion=DARBOUX_INTEGRAL_FOUND if nontrivial else NONE_UP_TO_BOUND,
        notes="\n".join(notes),
    )
