"""Exact rational linear algebra.

Dense matrices over Q, reduced row echelon form and null spaces, univariate
polynomials in a single indeterminate t, rational root extraction, and the
rank-drop analysis of linear matrix pencils A - t*B that powers the
eigen-cofactor search.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

# Divisor-pair budget for rational root candidates before switching to a
# full factorization of the polynomial.
_ROOT_CANDIDATE_CAP = 20_000


class MalformedPencilError(ValueError):
    """Pencil shape unusable for rank-drop analysis (fewer rows than columns)."""


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
    def identity(cls, n: int) -> "QMatrix":
        return cls(n, n, [Fraction(int(i == j)) for i in range(n) for j in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "QMatrix":
        return cls(rows, cols, [Fraction(0)] * (rows * cols))

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> list[Fraction]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> list[Fraction]:
        return [self.entries[i * self.cols + j] for i in range(self.rows)]

    def mul_vec(self, v: "QMatrix") -> "QMatrix":
        if v.cols != 1 or v.rows != self.cols:
            raise ValueError("shape mismatch")
        out = []
        for i in range(self.rows):
            out.append(sum((self.at(i, k) * v.at(k, 0) for k in range(self.cols)), Fraction(0)))
        return QMatrix(self.rows, 1, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(self.entries)))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(e) for e in self.row(i)) for i in range(self.rows))
        return f"QMatrix({self.rows}x{self.cols}: {body})"


def rref(m: QMatrix) -> tuple[QMatrix, tuple[int, ...], int]:
    """Gauss-Jordan reduction; returns (reduced matrix, pivot columns, rank)."""
    work = [m.row(i) for i in range(m.rows)]
    pivots: list[int] = []
    r = 0
    for c in range(m.cols):
        pivot_row = None
        for i in range(r, m.rows):
            if work[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = 1 / work[r][c]
        work[r] = [e * inv for e in work[r]]
        for i in range(m.rows):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    return QMatrix.from_rows(work), tuple(pivots), len(pivots)


def null_space(m: QMatrix) -> list[QMatrix]:
    """Basis of the right kernel {v : m.v = 0}, each vector scaled so its
    first nonzero entry is 1. Empty list for a trivial kernel."""
    reduced, pivots, _ = rref(m)
    return _kernel_basis(reduced, pivots)


def _kernel_basis(reduced: QMatrix, pivots: tuple[int, ...]) -> list[QMatrix]:
    """null_space read off an rref result."""
    pivot_set = set(pivots)
    free_cols = [c for c in range(reduced.cols) if c not in pivot_set]
    basis = []
    for f in free_cols:
        v = [Fraction(0)] * reduced.cols
        v[f] = Fraction(1)
        for r_i, p_c in enumerate(pivots):
            v[p_c] = -reduced.at(r_i, f)
        lead = next(e for e in v if e != 0)
        if lead != 1:
            v = [e / lead for e in v]
        basis.append(QMatrix(reduced.cols, 1, v))
    return basis


class UniPoly:
    """Univariate polynomial; coefficient at index i multiplies t**i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()) -> None:
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def constant(cls, c) -> "UniPoly":
        return cls([Fraction(c)])

    @classmethod
    def linear(cls, a0, a1) -> "UniPoly":
        """a0 + a1*t."""
        return cls([Fraction(a0), Fraction(a1)])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, t0) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t0 + c
        return acc

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if self.is_zero() or other.is_zero():
            return UniPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

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
    """Linear pencil A + t*B: A and B are row-major lists of Fractions, the
    constant and t coefficients of each entry."""

    __slots__ = ("rows", "cols", "a", "b")

    def __init__(self, rows: int, cols: int, entries) -> None:
        """Build from entries that are UniPoly of degree <= 1 or constants."""
        entries = [e if isinstance(e, UniPoly) else UniPoly.constant(e) for e in entries]
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        if any(e.degree > 1 for e in entries):
            raise ValueError("pencil entries must have degree <= 1 in t")
        coeffs = [e.coeffs + (Fraction(0),) * (2 - len(e.coeffs)) for e in entries]
        self.rows = rows
        self.cols = cols
        self.a = [c[0] for c in coeffs]
        self.b = [c[1] for c in coeffs]

    @classmethod
    def from_parts(cls, rows: int, cols: int, a: list, b: list) -> "PencilMatrix":
        """Build from two row-major coefficient lists of rows*cols entries,
        which are kept, not copied."""
        p = cls.__new__(cls)
        p.rows, p.cols, p.a, p.b = rows, cols, a, b
        return p

    def substitute(self, t0) -> QMatrix:
        t0 = Fraction(t0)
        return QMatrix(self.rows, self.cols, [x + t0 * y for x, y in zip(self.a, self.b)])


@dataclass(frozen=True)
class PencilRankDrop:
    """Result of the pencil rank analysis.

    candidates holds every rational t0 at which the pencil loses column rank,
    verified by exact substitution, and kernels the null space of the pencil
    at each candidate, in the same order. residual is the part of the sampled
    minor gcd that has no rational roots; a nonconstant residual flags possible
    irrational or complex rank-drop values that were not resolved.
    """

    generic_rank: int
    candidates: tuple[Fraction, ...]
    residual: UniPoly
    parametric: bool
    minors_sampled: int
    stop_reason: str
    kernels: tuple[list[QMatrix], ...] = ()


# ---------------------------------------------------------------------------
# Integer polynomial helpers (coefficient lists, little-endian). The pencil
# machinery clears denominators once and stays in Z[t] for speed.
# ---------------------------------------------------------------------------


def _zp_trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _zp_mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _zp_trim(out)


def _zp_divexact(a: list[int], b: list[int]) -> list[int]:
    """Exact division in Z[t]; raises if the division does not come out even."""
    if not a:
        return []
    a = list(a)
    out = [0] * (len(a) - len(b) + 1)
    for i in range(len(out) - 1, -1, -1):
        q, r = divmod(a[i + len(b) - 1], b[-1])
        if r:
            raise ArithmeticError("non-exact polynomial division")
        out[i] = q
        if q:
            for j, y in enumerate(b):
                a[i + j] -= q * y
    if any(a):
        raise ArithmeticError("non-exact polynomial division")
    return _zp_trim(out)


def _zp_primitive(p: list[int]) -> list[int]:
    if not p:
        return []
    g = math.gcd(*p)
    p = [c // g for c in p]
    if p[-1] < 0:
        p = [-c for c in p]
    return p


def _zp_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd in Z[t] via pseudo-remainders, primitive at each step."""
    a, b = _zp_primitive(list(a)), _zp_primitive(list(b))
    if not a:
        return b
    if not b:
        return a
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = list(a)
        lb = b[-1]
        while r and len(r) >= len(b):
            shift = len(r) - len(b)
            lr = r[-1]
            r = [c * lb for c in r]
            for j, y in enumerate(b):
                r[shift + j] -= lr * y
            r = _zp_trim(r)
        a, b = b, _zp_primitive(r)
    return _zp_primitive(a)


def _zp_is_root(p: list[int], num: int, den: int) -> bool:
    """Test p(num/den) == 0 exactly (den > 0, gcd(num, den) = 1)."""
    n = len(p) - 1
    acc = p[-1]
    qq = 1
    for i in range(n - 1, -1, -1):
        qq *= den
        acc = acc * num + p[i] * qq
    return acc == 0


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
        i += 1
    return small + large[::-1]


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
    """All rational roots of a nonzero integer polynomial."""
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


def rational_roots(p: UniPoly) -> list[Fraction]:
    """Exactly the rational roots of p, sorted ascending, duplicates removed."""
    if p.is_zero():
        raise ValueError("zero polynomial: every value is a root")
    den_lcm = math.lcm(*(c.denominator for c in p.coeffs))
    zp = [int(c * den_lcm) for c in p.coeffs]
    return _zp_rational_roots(zp)


# ---------------------------------------------------------------------------
# Pencil rank-drop machinery
# ---------------------------------------------------------------------------

# Minor sampling stops once the gcd is unchanged for MINOR_STABLE_AFTER
# consecutive fresh minors, and after MINOR_SAMPLE_CAP minors at most.
MINOR_STABLE_AFTER = 3
MINOR_SAMPLE_CAP = 24


def _pencil_to_int_rows(p: PencilMatrix) -> list[list[tuple[int, int]]]:
    """Clear denominators row by row; each entry becomes (a, b) for a + b*t.

    Row scaling by a positive integer leaves ranks and minor root sets
    unchanged, so downstream analysis is unaffected.
    """
    out = []
    for lo in range(0, p.rows * p.cols, p.cols):
        row_a, row_b = p.a[lo : lo + p.cols], p.b[lo : lo + p.cols]
        den = math.lcm(*(c.denominator for c in row_a + row_b))
        out.append([(int(x * den), int(y * den)) for x, y in zip(row_a, row_b)])
    return out


def _evaluate(zrows: list[list[tuple[int, int]]], tau: int) -> list[list[int]]:
    """The integer pencil rows at t = tau."""
    return [[a + b * tau for (a, b) in row] for row in zrows]


def _small_points(n: int) -> list[int]:
    """n distinct small integers: 0, 1, -1, 2, -2, ..."""
    return [(-1) ** (k + 1) * ((k + 1) // 2) for k in range(n)]


def _int_elim_pivot_rows(
    mat: list[list[int]], order: list[int] | range, ncols: int, prev: int = 1, stop_at_gap=False
) -> tuple[list[int], int]:
    """Fraction-free (Bareiss) elimination following a row preference order.

    Returns (pivot_row_indices, det). The indices name the original matrix
    rows in the order they were chosen as pivots. det is the determinant of
    the rows, taken in `order`, on the pivot columns when every row is a
    pivot row, and 0 otherwise; for a square matrix and order range(n) it is
    det(mat). prev continues the recurrence from the last pivot of earlier
    steps (_eliminate_constant_rows), making det that of the whole matrix.
    stop_at_gap returns at the first column without a pivot, with the pivot
    rows so far and det 0: enough to ask for det or for full column rank.
    """
    work = [list(mat[i]) for i in order]
    labels = list(order)
    nrows = len(work)
    sign = 1
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if work[i][c] != 0:
                piv = i
                break
        if piv is None:
            if stop_at_gap:
                return labels[:r], 0
            continue
        if piv != r:
            work[r], work[piv] = work[piv], work[r]
            labels[r], labels[piv] = labels[piv], labels[r]
            sign = -sign
        pv = work[r][c]
        wr = work[r]
        # column c is never read again, so it is left uncleared
        for i in range(r + 1, nrows):
            wi = work[i]
            f = wi[c]
            for j in range(c + 1, ncols):
                wi[j] = (pv * wi[j] - f * wr[j]) // prev
        prev = pv
        r += 1
        if r == nrows:
            return labels, sign * prev
    return labels[:r], sign * prev if r == nrows else 0


def _eliminate_constant_rows(sub: list[list[tuple[int, int]]]) -> tuple[list, int, int]:
    """One Bareiss step per t-free row of a square integer pencil block,
    pivoting on the first column left with a nonzero entry.

    Returns (block, prev, sign): the t-carrying rows on the columns left
    without a pivot, as (a, b) pairs, the last pivot, and the sign of moving
    the t-free rows and pivot columns first, so that det(sub) is sign times
    det(block) continued from prev; ([], 0, 1) if the t-free rows are
    dependent. An update is linear in the row it updates, so a and b parts
    update apart, and exactly: each entry is a (k+1)-minor after k steps.
    """
    moving = [any(b for _, b in row) for row in sub]
    const = [[a for a, _ in row] for row, t in zip(sub, moving) if not t]
    parts = [list(ab) for row, t in zip(sub, moving) if t for ab in zip(*row)]
    flips = sum(sum(moving[:i]) for i, t in enumerate(moving) if not t)
    free = list(range(len(sub)))
    prev = 1
    for k, wr in enumerate(const):
        idx = next((i for i, j in enumerate(free) if wr[j]), None)
        if idx is None:
            return [], 0, 1
        flips += idx
        c = free.pop(idx)
        pv = wr[c]
        for w in itertools.chain(const[k + 1 :], parts):
            f = w[c]
            for j in free:
                w[j] = (pv * w[j] - f * wr[j]) // prev
        prev = pv
    block = [[(a[j], b[j]) for j in free] for a, b in zip(parts[::2], parts[1::2])]
    return block, prev, (-1) ** flips


def _interp_minor(zrows: list[list[tuple[int, int]]], row_subset: list[int]) -> list[int]:
    """det of the square pencil submatrix on row_subset, as an integer
    polynomial. The t-free rows are eliminated once; the determinant then has
    degree <= m in t, m the number of t-carrying rows, so the remaining m x m
    block is evaluated at m + 1 small integers, each by continuing the
    Bareiss recurrence from the last constant pivot, and the values are
    interpolated by Newton divided differences, which stay integers for a
    polynomial with integer coefficients."""
    block, prev, sign = _eliminate_constant_rows([zrows[i] for i in row_subset])
    m = len(block)
    xs = _small_points(m + 1)
    dd = [
        sign * _int_elim_pivot_rows(_evaluate(block, x), range(m), m, prev, stop_at_gap=True)[1]
        for x in xs
    ]
    for k in range(1, m + 1):
        for i in range(m, k - 1, -1):
            dd[i], rem = divmod(dd[i] - dd[i - 1], xs[i] - xs[i - k])
            if rem:
                raise ArithmeticError("minor interpolation produced a non-integer")
    # Horner's scheme on the Newton form
    poly: list[int] = []
    for x, c in zip(reversed(xs), reversed(dd)):
        poly = _zp_mul(poly, [-x, 1]) or [0]
        poly[0] += c
    return _zp_trim(poly)


def pencil_rank_drop(p: PencilMatrix, rng: random.Random | None = None) -> PencilRankDrop:
    """Find the rational values of t at which the pencil loses column rank.

    The generic rank is certified by exact evaluation: at a random integer
    when the pencil has full column rank there (up to three tries), else as
    the largest rank at cols + 1 distinct integers, which is exact because an
    r x r minor has degree <= r in t and so vanishes at r of them at most.
    When the pencil generically has full column rank, maximal minors are
    sampled through fraction-free elimination under random row permutations;
    their gcd is accumulated until it is constant, unchanged for
    MINOR_STABLE_AFTER consecutive fresh minors, or MINOR_SAMPLE_CAP minors
    have been drawn, and every rational root of the gcd is re-verified by
    exact substitution before being reported as a candidate. The sampling
    stop reason is recorded for audit.
    """
    if p.rows < p.cols:
        raise MalformedPencilError(f"pencil is {p.rows}x{p.cols}; need rows >= cols")
    if p.cols == 0:
        return PencilRankDrop(0, (), UniPoly.constant(1), False, 0, "empty pencil")
    rng = rng if rng is not None else random.Random(0)

    zrows = _pencil_to_int_rows(p)
    # identically-zero rows belong to no nonzero minor and carry no rank
    keep = [i for i, row in enumerate(zrows) if any(a or b for (a, b) in row)]
    if not keep:
        return PencilRankDrop(0, (), UniPoly(), True, 0, "zero pencil")
    zrows = [zrows[i] for i in keep]
    nrows = len(zrows)

    # the random points are drawn lazily, so rng advances only up to the
    # first point of full column rank
    randoms = (rng.randrange(100_003, 1_000_003) for _ in range(3 if nrows >= p.cols else 0))
    generic_rank, mat_tau = 0, None
    for tau in itertools.chain(randoms, _small_points(p.cols + 1)):
        mat = _evaluate(zrows, tau)
        rank = len(_int_elim_pivot_rows(mat, range(nrows), p.cols)[0])
        generic_rank = max(generic_rank, rank)
        if rank == p.cols:
            mat_tau = mat
            break
    if mat_tau is None:
        return PencilRankDrop(
            generic_rank, (), UniPoly(), True, 0, "generic rank below column count"
        )

    gcd_acc: list[int] | None = None
    stable = 0
    sampled = 0
    stop_reason = "minor sample cap reached"
    while sampled < MINOR_SAMPLE_CAP:
        order = list(range(nrows))
        rng.shuffle(order)
        pivot_rows, _ = _int_elim_pivot_rows(mat_tau, order, p.cols)
        minor = _zp_primitive(_interp_minor(zrows, pivot_rows))
        sampled += 1
        new = minor if gcd_acc is None else _zp_gcd(gcd_acc, minor)
        stable = stable + 1 if new == gcd_acc else 0
        gcd_acc = new
        if len(gcd_acc) == 1:
            stop_reason = "minor gcd became constant"
            break
        if stable >= MINOR_STABLE_AFTER:
            stop_reason = f"minor gcd unchanged for {MINOR_STABLE_AFTER} consecutive fresh minors"
            break

    assert gcd_acc is not None
    roots = _zp_rational_roots(gcd_acc) if len(gcd_acc) > 1 else []
    candidates, kernels = [], []
    for r in roots:
        # rank over Z at t = num/den first; rref only where it drops, for the kernel
        mat = [[r.denominator * a + r.numerator * b for a, b in row] for row in zrows]
        if len(_int_elim_pivot_rows(mat, range(nrows), p.cols, stop_at_gap=True)[0]) < p.cols:
            reduced, pivots, _ = rref(p.substitute(r))
            candidates.append(r)
            kernels.append(_kernel_basis(reduced, pivots))
    residual = list(gcd_acc)
    for r in roots:
        lin = [-r.numerator, r.denominator]
        while len(residual) > 1 and _zp_is_root(residual, r.numerator, r.denominator):
            residual = _zp_divexact(residual, lin)
    residual = _zp_primitive(residual)
    return PencilRankDrop(
        generic_rank,
        tuple(candidates),
        UniPoly(residual),
        False,
        sampled,
        stop_reason,
        tuple(kernels),
    )
