"""Independent brute-force solver for the bilinear Darboux relation at tiny
scale.

For a pinned linear-in-y cofactor slope b2 (with b1 = b3 = 0) and unknown
constant slot t, this solves X(h) = (t + b2*y)*h over all polynomials h of
degree <= bound by a route disjoint from the production pencil machinery:
sympy builds the coefficient matrix symbolically, candidate t values come
from the rational roots of the Gram determinant det(M^T M) (rank(M) =
rank(M^T M) over the reals), computed by sympy's DomainMatrix over the
polynomial ring QQ[t], and kernels come from sympy's nullspace. Used as the
comparison oracle in tests.
"""

from fractions import Fraction

import sympy as sp
from sympy.polys.matrices import DomainMatrix

from darboux3.polyring import Monomial, Poly

_x, _y, _z, _t = sp.symbols("x y z t")


def _to_sympy_rat(v: Fraction):
    return sp.Rational(v.numerator, v.denominator)


def sympy_to_poly(expr) -> Poly:
    expr = sp.expand(expr)
    if expr == 0:
        return Poly.zero()
    p = sp.Poly(expr, _x, _y, _z)
    terms = {}
    for (i, j, k), c in p.terms():
        cr = sp.Rational(c)
        terms[Monomial(i, j, k)] = Fraction(int(cr.p), int(cr.q))
    return Poly(terms)


def oracle_cell(alpha, beta, kappa, lam, b2, bound: int):
    """All (h.normalized(), t0) with X(h) = (t0 + b2*y)*h and 1 <= deg h <=
    bound, or the string 'parametric' when a kernel exists for every t0."""
    a, b, k, l, b2s = (
        _to_sympy_rat(Fraction(v)) for v in (alpha, beta, kappa, lam, b2)
    )
    fx = _x * (_y - 1) - b * _z
    fy = a * (1 - _x**2) - k * _y
    fz = _x - l * _z
    monos = [
        _x**i * _y**j * _z**(d - i - j)
        for d in range(bound + 1)
        for i in range(d + 1)
        for j in range(d - i + 1)
    ]
    cs = sp.symbols(f"c0:{len(monos)}")
    h = sum(c * m for c, m in zip(cs, monos))
    rel = sp.expand(
        fx * sp.diff(h, _x) + fy * sp.diff(h, _y) + fz * sp.diff(h, _z) - (_t + b2s * _y) * h
    )
    rows = []
    for coeff in sp.Poly(rel, _x, _y, _z).coeffs():
        rows.append([sp.expand(sp.diff(coeff, c)) for c in cs])
    m = sp.Matrix(rows)
    dm = DomainMatrix.from_Matrix(m).convert_to(sp.QQ[_t])
    det = (dm.transpose() * dm).det().as_expr()
    if det == 0:
        return "parametric"
    out = []
    for root in sp.roots(sp.Poly(det, _t), filter="Q"):
        sub = m.subs(_t, root)
        for v in sub.nullspace():
            hh = sympy_to_poly(sum(vi * mono for vi, mono in zip(v, monos)))
            if hh.degree < 1:
                continue
            rr = sp.Rational(root)
            out.append((hh.normalized(), Fraction(int(rr.p), int(rr.q))))
    return out
