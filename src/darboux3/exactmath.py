"""Exact rational linear algebra.

Dense matrices over Q, reduced row echelon form and null spaces, univariate
polynomials in a single indeterminate t, rational root extraction, and the
rank-drop analysis of the integer selection pencils A - t*B that power the
eigen-cofactor search.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

# Divisor-pair budget for rational root candidates before switching to a
# full factorization of the polynomial.
_ROOT_CANDIDATE_CAP = 20_000


class MalformedPencilError(ValueError):
    """Pencil unusable for rank-drop analysis: fewer rows than columns, an
    entry count other than rows*cols, a non-int entry, or a B that is not one
    value times a selection of one row per column."""


class QMatrix:
    """Dense rational matrix, entries stored row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries) -> None:
        entries = [Fraction(e) for e in entries]
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, row_lists) -> "QMatrix":
        row_lists = [list(r) for r in row_lists]
        rows = len(row_lists)
        cols = len(row_lists[0]) if rows else 0
        if any(len(r) != cols for r in row_lists):
            raise ValueError("ragged rows")
        return cls(rows, cols, [e for r in row_lists for e in r])

    @classmethod
    def from_parts(cls, rows: int, cols: int, entries: list) -> "QMatrix":
        """Build from a row-major list of ints or Fractions, kept, not copied."""
        m = cls.__new__(cls)
        m.rows, m.cols, m.entries = rows, cols, entries
        return m

    def row(self, i: int) -> list[Fraction]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> list[Fraction]:
        return [self.entries[i * self.cols + j] for i in range(self.rows)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(e) for e in self.row(i)) for i in range(self.rows))
        return f"QMatrix({self.rows}x{self.cols}: {body})"


def rref(m: QMatrix) -> tuple[QMatrix, tuple[int, ...], int]:
    """Gauss-Jordan reduction; returns (reduced matrix, pivot columns, rank).
    Each row is cleared of denominators, which leaves the rref unchanged, and
    reduced over Z by _int_rref; its pivot value is divided out once."""
    red, pivots = _int_rref(_int_rows(m))
    d = red[0][pivots[0]] if pivots else 1
    entries = [Fraction(x, d) for row in red for x in row]
    entries += [Fraction(0)] * ((m.rows - len(red)) * m.cols)
    return QMatrix.from_parts(m.rows, m.cols, entries), tuple(pivots), len(pivots)


def null_space(m: QMatrix) -> list[QMatrix]:
    """Basis of the right kernel {v : m.v = 0}, each vector scaled so its
    first nonzero entry is 1. Empty list for a trivial kernel."""
    return [_lead_one(v) for v in _int_kernel(_int_rows(m), m.cols)[0]]


def _int_rows(m: QMatrix) -> list[list[int]]:
    """m's rows as integer rows; an all-int matrix needs no clearing."""
    rows = [m.row(i) for i in range(m.rows)]
    return rows if {int}.issuperset(map(type, m.entries)) else _cleared(rows)


def _lead_one(v: list[int]) -> QMatrix:
    """A nonzero integer vector as a column scaled to a leading 1."""
    lead = next(x for x in v if x)
    return QMatrix.from_parts(len(v), 1, [Fraction(x, lead) for x in v])


class UniPoly:
    """Univariate polynomial; coefficient at index i multiplies t**i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()) -> None:
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        out = [0] * (len(self.coeffs) + len(other.coeffs))  # UniPoly drops the top zeros
        for i, x in enumerate(self.coeffs):
            for j, y in enumerate(other.coeffs):
                out[i + j] += x * y
        return UniPoly(out)

    def __repr__(self) -> str:
        return f"UniPoly({list(self.coeffs)})"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            mono = "" if i == 0 else ("t" if i == 1 else f"t^{i}")
            mag = abs(c)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{mag}*{mono}"
            else:
                body = str(mag)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append((" + " if c > 0 else " - ") + body)
        return "".join(parts)


class PencilMatrix:
    """Linear pencil A + t*B: A and B are row-major lists of ints, the constant
    and t coefficients of each entry. pencil_rank_drop takes only a B that is
    one value times a selection of one row per column, as every search builds."""

    __slots__ = ("rows", "cols", "a", "b")

    @classmethod
    def from_parts(cls, rows: int, cols: int, a: list, b: list) -> "PencilMatrix":
        """Build from two row-major coefficient lists of rows*cols entries,
        which are kept, not copied."""
        p = cls.__new__(cls)
        p.rows, p.cols, p.a, p.b = rows, cols, a, b
        return p


@dataclass(frozen=True)
class PencilRankDrop:
    """Result of the pencil rank analysis.

    candidates holds every rational t0 at which the pencil loses column rank,
    and kernels the null space of the pencil at each candidate, in the same
    order. residual is the part of the gcd of all maximal minors that has no
    rational roots; a nonconstant residual means rank drops at irrational or
    complex t. stop_reason is "W = 0" or "exact dim W = k" for the dimension
    k of the unobservable subspace that carries the rank drops, or "empty
    pencil". A selection pencil has full column rank over Q(t), so parametric
    is always False and minors_sampled, left from the retired minor sampling,
    always 0; both remain because the benchmark's per-layer counters read them.
    """

    candidates: tuple[Fraction, ...]
    residual: UniPoly
    parametric: bool
    minors_sampled: int
    stop_reason: str
    kernels: tuple[list[QMatrix], ...] = ()


# ---------------------------------------------------------------------------
# Integer polynomial helpers (coefficient lists, little-endian). The exact
# core works over Z: rref and null_space clear denominators once,
# pencil_rank_drop takes integer pencils only; all reduce with _reduce_rows
# and divide only in what they return.
# ---------------------------------------------------------------------------


def _zp_primitive(p: list[int]) -> list[int]:
    if not p:
        return []
    g = math.gcd(*p)
    p = [c // g for c in p]
    if p[-1] < 0:
        p = [-c for c in p]
    return p


def _zp_divide_root(p: list[int], num: int, den: int) -> list[int]:
    """p / (den*t - num) in Z[t], for a root num/den of p in lowest terms."""
    out, carry = [], 0
    for c in reversed(p[1:]):
        carry = (c + num * carry) // den
        out.append(carry)
    return out[::-1]


def _zp_is_root(p: list[int], num: int, den: int) -> bool:
    """Test p(num/den) == 0 exactly (den > 0, gcd(num, den) = 1)."""
    acc, qq = p[-1], 1
    for c in reversed(p[:-1]):
        qq *= den
        acc = acc * num + c * qq
    return acc == 0


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small = [i for i in range(1, math.isqrt(n) + 1) if n % i == 0]
    return small + [n // i for i in reversed(small) if i * i != n]


def _divisor_count(n: int, cap: int) -> int:
    """Number of divisors of |n|, or cap+1 once counting becomes hopeless."""
    n = abs(n)
    count = 1
    d = 2
    while d * d <= n and count <= cap:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            count *= e + 1
        d += 1 if d == 2 else 2
        if d > 100_000 and n > 1:
            return cap + 1
    if n > 1:
        count *= 2
    return count


def _zp_rational_roots(p: list[int]) -> list[Fraction]:
    """All rational roots of a nonzero integer polynomial, sorted ascending."""
    if not any(p):
        raise ValueError("zero polynomial: every value is a root")
    roots: set[Fraction] = set()
    k = 0
    while k < len(p) and p[k] == 0:
        k += 1
    if k:
        roots.add(Fraction(0))
        p = p[k:]
    p = _zp_primitive(p)
    if len(p) <= 1:
        return sorted(roots)
    a0, an = p[0], p[-1]
    if _divisor_count(a0, _ROOT_CANDIDATE_CAP) * _divisor_count(an, 400) <= _ROOT_CANDIDATE_CAP:
        for q in _divisors(an):
            for r in _divisors(a0):
                if math.gcd(r, q) != 1:
                    continue
                if _zp_is_root(p, r, q):
                    roots.add(Fraction(r, q))
                if _zp_is_root(p, -r, q):
                    roots.add(Fraction(-r, q))
    else:
        # coefficients too composite to enumerate divisors; factor instead
        import sympy

        t = sympy.Symbol("t")
        expr = sympy.Poly([int(c) for c in reversed(p)], t)
        for factor, _mult in expr.factor_list()[1]:
            if factor.degree() == 1:
                c1, c0 = factor.all_coeffs()
                roots.add(Fraction(-int(c0), int(c1)))
    return sorted(roots)


# ---------------------------------------------------------------------------
# Pencil rank-drop machinery
# ---------------------------------------------------------------------------

def _reduce_rows(basis: list[tuple[int, list[int]]], rows) -> list[tuple[int, list[int]]]:
    """basis plus each nonzero row reduced against the (pivot column, row) pairs
    before it, its content removed after each step. By pivot they are in echelon
    form, each the primitive form of a vector of minors, so Hadamard-bounded."""
    for red in rows:
        for j, b in basis:
            f = red[j]
            if f:
                red = [b[j] * x - f * y for x, y in zip(red, b)]
                g = math.gcd(*red) or 1  # 0 once red depends on the basis
                red = [x // g for x in red]
        if any(red):
            basis.append((next(j for j, x in enumerate(red) if x), red))
    return basis


def _int_kernel(mat: list[list[int]], ncols: int, kept=None) -> tuple[list, int, list, list]:
    """ker(mat) over Z as (basis, d, free, pivots), one basis vector per free
    column, d there and 0 at the other free columns: mat's rows join kept,
    _reduce_rows's pairs, and are solved back in descending pivot order."""
    basis = sorted(_reduce_rows(kept or [], mat), reverse=True)  # pivots are distinct
    pivots = sorted(j for j, _ in basis)
    free = sorted(set(range(ncols)) - set(pivots))
    vectors = []
    for f in free:
        v = [int(j == f) for j in range(ncols)]
        for p, row in basis:  # in descending pivot order
            s = sum(map(operator.mul, row, v)) if p < f else 0
            if s:  # v times row[p]/g solves row*v = 0 at p
                g = math.gcd(row[p], s)
                v = [x * (row[p] // g) for x in v]
                v[p] = -s // g
        vectors.append(v)
    d = math.lcm(*(v[f] for v, f in zip(vectors, free)))
    return [[x * (d // v[f]) for x in v] for v, f in zip(vectors, free)], d, free, pivots


def _int_rref(mat) -> tuple[list[list[int]], list[int]]:
    """The rref over Z as (rows, pivots), rows / d the rref for their common
    pivot value d > 0: _reduce_rows's echelon rows by pivot, each cleared above
    its pivot bottom up, content removed after each step (the rref is unique)."""
    basis = sorted(_reduce_rows([], mat))  # pivots are distinct
    rows, pivots = [row for _, row in basis], [j for j, _ in basis]
    for i in range(len(rows) - 1, 0, -1):
        p, r = pivots[i], rows[i]
        for h in range(i):
            f = rows[h][p]
            if f:
                red = [r[p] * x - f * y for x, y in zip(rows[h], r)]
                g = math.gcd(*red)
                rows[h] = [x // g for x in red]
    d = math.lcm(*(row[p] for row, p in zip(rows, pivots)))
    return [[x * (d // row[p]) for x in row] for row, p in zip(rows, pivots)], pivots


def _cleared(rows) -> list[list[int]]:
    """Rows of ints or Fractions as integer rows, each times the lcm of its
    own denominators."""
    rows = [(row, math.lcm(*{x.denominator for x in row})) for row in rows]
    return [[x.numerator * (s // x.denominator) for x in row] for row, s in rows]


def _sparse(vectors) -> list[list[tuple[int, int]]]:
    """Each vector as the (index, entry) pairs of its nonzero entries."""
    return [[(i, x) for i, x in enumerate(v) if x] for v in vectors]


def _row_times(row: list[int], rows, width: int) -> list[int]:
    """row times the width-column matrix of the given _sparse rows, row by row."""
    out = [0] * width
    for x, r in zip(row, rows):
        if x:
            for j, y in r:
                out[j] += x * y
    return out


def _charpoly(k: list[list[int]]) -> list[int]:
    """det(x*I - k) of a square integer matrix, little-endian, by the
    Faddeev-LeVerrier recurrence, whose divisions are exact over Z."""
    d = len(k)
    coeffs = [1]
    acc = [[0] * d for _ in range(d)]
    for i in range(1, d + 1):
        shifted = [[x + coeffs[-1] * (r == s) for s, x in enumerate(w)] for r, w in enumerate(acc)]
        rows = _sparse(shifted)
        acc = [_row_times(row, rows, d) for row in k]
        coeffs.append(-sum(acc[r][r] for r in range(d)) // i)
    return coeffs[::-1]


def _krylov_rows(m: list[list[int]], c: list[list[int]]) -> list[tuple[int, list[int]]]:
    """The row space of [C; C*M; ...] as _reduce_rows's pairs. Each round
    multiplies by M the rows the last one kept: their span contains C and, once
    a round keeps nothing, is M-invariant, so it is the whole Krylov space."""
    rows, n = _sparse(m), len(m)
    basis, frontier = [], c
    while frontier and len(basis) < n:
        kept = len(basis)
        frontier = [_row_times(row, rows, n) for _, row in _reduce_rows(basis, frontier)[kept:]]
    return basis


def _unobservable(m: list[list[int]], c: list[list[int]]):
    """The unobservable subspace W of (C, M), the largest M-invariant subspace
    of ker C, solved back from the reduced Krylov rows, as (basis, d, k,
    stop reason): each basis vector d times a unit vector on the rows' free
    columns, and k the integer matrix with M*basis = basis*k/d. The exact
    checks C*W = 0 and M*W in W guard the kernel."""
    rows = _krylov_rows(m, c)
    if len(rows) == len(m):
        return [], 1, [], "W = 0"
    basis, d, free, _ = _int_kernel([], len(m), rows)
    mt, sparse_basis = _sparse(zip(*m)), _sparse(basis)
    mv = [_row_times(v, mt, len(m)) for v in basis]  # M*v, one per basis vector
    in_ker_c = not any(sum(map(operator.mul, row, v)) for row in c for v in basis)
    if not in_ker_c or [_row_times([w[f] for f in free], sparse_basis, len(m)) for w in mv] != [
        [d * x for x in w] for w in mv
    ]:
        raise RuntimeError("internal error: the Krylov kernel is not the unobservable subspace")
    return basis, d, [[w[f] for w in mv] for f in free], f"exact dim W = {len(basis)}"


def _split(a: list[list[int]], b: list[list[int]]):
    """The rows of the pencil a + t*b permuted to [a1 + beta*t*I; a2], as
    (a1, beta, a2). b must be beta times a selection of one row per column,
    as a search pencil's is; any other b raises MalformedPencilError.
    """
    n = len(a[0]) if a else 0
    hits = sorted((j, i, x) for i, row in enumerate(b) for j, x in enumerate(row) if x)
    sel = [i for _, i, _ in hits]
    selected = set(sel)
    one_value = len({x for *_, x in hits}) <= 1
    if [j for j, _, _ in hits] == list(range(n)) and len(selected) == n and one_value:
        rest = [row for i, row in enumerate(a) if i not in selected]
        return [a[i] for i in sel], hits[0][2] if hits else 1, rest
    raise MalformedPencilError("b is not one value times a selection of one row per column")


def _canonical_basis(vectors: list[list[int]]) -> list[QMatrix]:
    """null_space's basis of the span of independent vectors. Its vectors
    are 1 at their last nonzero entry and 0 at the others' (the free
    columns), before each is scaled to a leading 1: the rref of the span
    with the columns reversed."""
    red = _int_rref([v[::-1] for v in vectors])[0]
    return [_lead_one(row[::-1]) for row in reversed(red)]


def pencil_rank_drop(p: PencilMatrix) -> PencilRankDrop:
    """Find the rational values of t at which the pencil loses column rank,
    exactly and without randomness. The pencil must hold rows*cols ints in
    each of a and b, with rows >= cols, and b must be beta times a selection
    of one row per column; any other pencil raises MalformedPencilError.

    Such a pencil's rows are a permutation of [a1 + beta*t*I; a2] (_split):
    the rank drops where a1 has an eigenvector in ker a2, that is at the
    eigenvalues of a1 on the unobservable subspace W of (a2, a1), the
    largest a1-invariant subspace of ker a2. The gcd of the maximal minors
    is the characteristic polynomial of a1 on W, in t; its rational roots
    are the candidates and its rational-root-free part the residual.

    W is the kernel of the Krylov rows a2*a1^k (_unobservable): their full
    rank proves W = 0 (stop_reason "W = 0"), and otherwise stop_reason is
    "exact dim W = k". The kernel at a candidate is W's basis times the
    eigenvectors of a1 on W, in null_space's canonical basis. If no nonzero
    entry joins two blocks of rows and columns, the merge of the blocks'
    results is the pencil's: the union of the candidates, at each the kernel
    vectors embedded and ordered by last nonzero coordinate (null_space's
    basis of a direct sum), and the product of the residuals.
    """
    if p.rows < p.cols:
        raise MalformedPencilError(f"pencil is {p.rows}x{p.cols}; need rows >= cols")
    if len(p.a) != p.rows * p.cols or len(p.b) != p.rows * p.cols:
        raise MalformedPencilError(f"expected {p.rows * p.cols} entries in each of a and b")
    if not {int}.issuperset(map(type, p.a + p.b)):
        raise MalformedPencilError("pencil entries must be ints")
    if p.cols == 0:
        return PencilRankDrop((), UniPoly([1]), False, 0, "empty pencil")
    a, b = ([v[lo : lo + p.cols] for lo in range(0, p.rows * p.cols, p.cols)] for v in (p.a, p.b))
    m, beta, a2 = _split(a, b)  # (m + beta*t*I)*v = 0 exactly when m*v = -beta*t*v
    basis, d, k, how = _unobservable(m, [row for row in a2 if any(row)])
    # m acts on W as k/d, so t = -lam/(d*beta) for each eigenvalue lam of k
    charpoly = _zp_primitive([x * (-d * beta) ** i for i, x in enumerate(_charpoly(k))])
    candidates = _zp_rational_roots(charpoly)
    residual, kernels, sparse_basis = charpoly, [], _sparse(basis)
    for t0 in candidates:
        lam = -d * beta * t0
        shifted = [
            [x * lam.denominator - lam.numerator * (i == j) for j, x in enumerate(row)]
            for i, row in enumerate(k)
        ]
        ys = _int_kernel(shifted, len(k))[0]
        kernels.append(_canonical_basis([_row_times(y, sparse_basis, len(m)) for y in ys]))
        while _zp_is_root(residual, t0.numerator, t0.denominator):
            residual = _zp_divide_root(residual, t0.numerator, t0.denominator)
    residual = UniPoly(_zp_primitive(residual))
    return PencilRankDrop(tuple(candidates), residual, False, 0, how, tuple(kernels))
