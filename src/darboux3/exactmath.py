"""Exact rational linear algebra.

Dense matrices over Q, reduced row echelon form and null spaces, univariate
polynomials in a single indeterminate t, rational root extraction, and the
rank-drop analysis of linear matrix pencils A - t*B that powers the
eigen-cofactor search.
"""

from __future__ import annotations

import math
import operator
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
    and kernels the null space of the pencil at each candidate, in the same
    order. residual is the part of the gcd of all maximal minors that has no
    rational roots (zero for a parametric pencil); a nonconstant residual
    means rank drops at irrational or complex t. minors_sampled is always 0
    and stop_reason names the path pencil_rank_drop took.
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
    n = len(p) - 1
    acc = p[-1]
    qq = 1
    for i in range(n - 1, -1, -1):
        qq *= den
        acc = acc * num + p[i] * qq
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

# The one prime of the modular screen of the unobservable subspace.
SCREEN_PRIME = 2**61 - 1


def _int_rref(mat: list[list[int]], ncols: int) -> tuple[list, list[int], list[int], int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss), exact because every
    entry stays a minor of mat. Returns (rows, pivots, labels, det): the
    pivot rows, all holding one value d at their pivot and 0 at the other
    pivots (rows / d is the rref), the pivot columns, the input index of each
    pivot row, and det(mat) for a square mat (0 if singular)."""
    work = [list(r) for r in mat]
    labels = list(range(len(work)))
    pivots: list[int] = []
    sign, prev = 1, 1
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            work[r], work[piv] = work[piv], work[r]
            labels[r], labels[piv] = labels[piv], labels[r]
            sign = -sign
        wr = work[r]
        pv = wr[c]
        for i, wi in enumerate(work):
            if i != r:
                f = wi[c]
                work[i] = [(pv * x - f * y) // prev for x, y in zip(wi, wr)]
        prev = pv
        pivots.append(c)
        if len(pivots) == len(work):
            break
    r = len(pivots)
    return work[:r], pivots, labels[:r], sign * prev if r == len(work) == ncols else 0


def _row_times(row: list[int], cols, prime: int | None = None) -> list[int]:
    """row times the matrix with the given columns, mod prime unless None."""
    out = [sum(map(operator.mul, row, col)) for col in cols]
    return [x % prime for x in out] if prime else out


def _charpoly(k: list[list[int]]) -> list[int]:
    """det(x*I - k) of a square integer matrix, little-endian, by the
    Faddeev-LeVerrier recurrence, whose divisions are exact over Z."""
    d = len(k)
    coeffs = [1]
    acc = [[0] * d for _ in range(d)]
    for i in range(1, d + 1):
        cols = list(zip(*(
            [x + coeffs[-1] * (r == s) for s, x in enumerate(row)] for r, row in enumerate(acc)
        )))
        acc = [_row_times(row, cols) for row in k]
        coeffs.append(-sum(acc[r][r] for r in range(d)) // i)
    return coeffs[::-1]


def _int_rows(rows: list[list[Fraction]], den: int = 1) -> tuple[list[list[int]], int]:
    """The rows scaled by the lcm of den and their denominators, and that lcm."""
    den = math.lcm(den, *(x.denominator for row in rows for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


def _krylov_rows(m: list[list[int]], c: list[list[int]], prime: int | None) -> tuple[list, list]:
    """A greedy basis of the row space of [C; C*M; C*M^2; ...] mod prime (over
    Q for None), multiplying by M only the rows each power adds. Returns the
    kept rows as the unreduced products C_i*M^k, and the parent of each:
    ("C", i), or ("M", j) for kept row j times M."""
    mt = list(zip(*m))
    basis: list[tuple[int, list[int]]] = []  # (pivot column, reduced row)
    kept: list[list[int]] = []
    parents: list[tuple[str, int]] = []
    frontier = [(row, ("C", i)) for i, row in enumerate(c)]
    while frontier and len(basis) < len(m):
        fresh = []
        for raw, parent in frontier:
            red = raw
            for j, b in basis:
                f = red[j]
                if f and prime:
                    red = [(x - f * y) % prime for x, y in zip(red, b)]
                elif f:
                    red = [b[j] * x - f * y for x, y in zip(red, b)]
                    g = math.gcd(*red) or 1  # 0 once red depends on the basis
                    red = [x // g for x in red]
            piv = next((j for j, x in enumerate(red) if x), None)
            if piv is None:
                continue
            if prime:
                inv = pow(red[piv], -1, prime)
                red = [x * inv % prime for x in red]
            basis.append((piv, red))
            kept.append(raw)
            parents.append(parent)
            fresh.append(len(kept) - 1)
        frontier = [(_row_times(kept[j], mt, prime), ("M", j)) for j in fresh]
    return kept, parents


def _invariant_kernel(m: list[list[int]], c: list[list[int]], rows: list[list[int]]):
    """(basis, d, k) for V = ker(rows) when C*V = 0 and M*V lies in V, else
    None. Each basis vector is d times a unit vector on the free columns of
    rows, and k is the integer matrix with M*basis = basis*k/d."""
    n = len(m)
    red, pivots, _, _ = _int_rref(rows, n)
    d = red[0][pivots[0]] if pivots else 1
    free = [j for j in range(n) if j not in set(pivots)]
    basis = []
    for f in free:
        v = [0] * n
        v[f] = d
        for row, piv in zip(red, pivots):
            v[piv] = -row[f]
        basis.append(v)
    mv = [_row_times(v, m) for v in basis]  # M*v, one per basis vector
    in_ker_c = not any(sum(map(operator.mul, row, v)) for row in c for v in basis)
    if not in_ker_c or [_row_times([w[f] for f in free], list(zip(*basis))) for w in mv] != [
        [d * x for x in w] for w in mv
    ]:
        return None
    return basis, d, [[w[f] for w in mv] for f in free]


def _unobservable(m: list[list[int]], c: list[list[int]]):
    """The unobservable subspace W of (C, M), the largest M-invariant
    subspace of ker C, as _invariant_kernel's (basis, d, k) and the path.

    A rank can only fall modulo a prime, so full rank of the Krylov rows
    C*M^k modulo SCREEN_PRIME proves W = 0. Otherwise the exact rows that
    were independent mod p have a kernel V containing W, and C*V = 0 with
    M*V in V proves V = W; failing that, an exact iteration finds W.
    """
    n = len(m)
    p = SCREEN_PRIME
    screen = [[x % p for x in r] for r in m]
    kept, parents = _krylov_rows(screen, [[x % p for x in r] for r in c], p)
    if len(kept) == n:
        return [], 1, [], "W = 0 mod p"
    mt = list(zip(*m))
    rows: list[list[int]] = []
    for kind, i in parents:
        rows.append(c[i] if kind == "C" else _row_times(rows[i], mt))
    found = _invariant_kernel(m, c, rows)
    how = "exact dim W = {}"
    if found is None:
        rows, how = _krylov_rows(m, c, None)[0], "exact dim W = {} after exact iteration"
        found = _invariant_kernel(m, c, rows)
    return (*found, how.format(len(found[0])))


def _split(a: list[list[Fraction]], b: list[list[Fraction]]):
    """Rows equivalent to the pencil a + t*b, as (a1, beta, a2) for
    [a1 + beta*t*I; a2], or None when b lacks full column rank.

    A search pencil's b is beta times a selection of one row per column, so
    a row permutation suffices; otherwise b's rows are reduced to [I; 0].
    """
    n = len(a[0]) if a else 0
    hits = sorted((j, i, x) for i, row in enumerate(b) for j, x in enumerate(row) if x)
    sel = [i for _, i, _ in hits]
    one_value = len({x for *_, x in hits}) <= 1
    if [j for j, _, _ in hits] == list(range(n)) and len(set(sel)) == n and one_value:
        rest = [row for i, row in enumerate(a) if i not in set(sel)]
        return [a[i] for i in sel], hits[0][2] if hits else Fraction(1), rest
    reduced, pivots, _ = rref(QMatrix.from_rows([rb + ra for rb, ra in zip(b, a)]))
    if pivots[:n] != tuple(range(n)):
        return None
    rows = [reduced.row(i)[n:] for i in range(reduced.rows)]
    return rows[:n], Fraction(1), rows[n:]


def _deflate(a: list[list[Fraction]], b: list[list[Fraction]]):
    """One staircase step (Van Dooren 1979) on a pencil a + t*b of full column
    rank over Q(t) with a singular b. On a basis N of ker b the pencil is the
    constant a*N, of full column rank, so row reduction turns it into
    [[X(t), I], [a' + t*b', 0]]: (a', b') on b's pivot columns has the same
    rank drops."""
    reduced, pivots, rank = rref(QMatrix.from_rows(b))
    null = [v.column(0) for v in _kernel_basis(reduced, pivots)]
    aug = [
        [sum(map(operator.mul, ra, v)) for v in null] + [r[j] for r in (ra, rb) for j in pivots]
        for ra, rb in zip(a, b)
    ]
    red, _, _ = rref(QMatrix.from_rows(aug))
    rows = [red.row(i)[len(null) :] for i in range(len(null), red.rows)]
    return [r[:rank] for r in rows], [r[rank:] for r in rows]


def _canonical_basis(vectors: list[list[Fraction]]) -> list[QMatrix]:
    """null_space's basis of the span of independent vectors. Its vectors
    are 1 at their last nonzero entry and 0 at the others' (the free
    columns), before each is scaled to a leading 1: the rref of the span
    with the columns reversed."""
    reduced, pivots, _ = rref(QMatrix.from_rows([v[::-1] for v in vectors]))
    rows = [reduced.row(i)[::-1] for i in reversed(range(len(pivots)))]
    return [QMatrix(len(v), 1, [e / next(x for x in v if x) for e in v]) for v in rows]


def pencil_rank_drop(p: PencilMatrix, rng: random.Random | None = None) -> PencilRankDrop:
    """Find the rational values of t at which the pencil loses column rank,
    exactly and without randomness; rng is accepted and left untouched.

    A b of full column rank makes the rows equivalent to [a1 + beta*t*I; a2]
    (_split): the rank drops where a1 has an eigenvector in ker a2, that is
    at the eigenvalues of a1 on the unobservable subspace W of (a2, a1), the
    largest a1-invariant subspace of ker a2. The gcd of the maximal minors
    is the characteristic polynomial of a1 on W, in t; its rational roots
    are the candidates and its rational-root-free part the residual.

    Certificate (_unobservable): full rank of the Krylov rows a2*a1^k
    modulo SCREEN_PRIME proves W = 0. Otherwise one exact kernel V of the
    rows independent mod p contains W, and the exact checks a2*V = 0 and
    a1*V in V prove V = W, with an exact iteration as the fallback. The
    kernel at a candidate is V times the eigenvectors of a1 on W, in
    null_space's canonical basis.

    For a singular b the generic rank is the largest rank at t = 0..cols,
    exact since an r x r minor vanishes at r of them at most; below cols the
    pencil is parametric. Otherwise staircase steps (_deflate) shrink it until
    b has full column rank; kernels then come from the substituted pencil.
    """
    if p.rows < p.cols:
        raise MalformedPencilError(f"pencil is {p.rows}x{p.cols}; need rows >= cols")
    if p.cols == 0:
        return PencilRankDrop(0, (), UniPoly.constant(1), False, 0, "empty pencil")
    starts = range(0, p.rows * p.cols, p.cols)
    a = [p.a[lo : lo + p.cols] for lo in starts]
    b = [p.b[lo : lo + p.cols] for lo in starts]
    split = _split(a, b)
    deflated = split is None
    if deflated:
        generic_rank = max(rref(p.substitute(tau))[2] for tau in range(p.cols + 1))
        if generic_rank < p.cols:
            return PencilRankDrop(
                generic_rank, (), UniPoly(), True, 0, "generic rank below column count"
            )
        while split is None:
            a, b = _deflate(a, b)
            split = _split(a, b)
    a1, beta, a2 = split
    m, den = _int_rows(a1, beta.denominator)
    q = -int(beta * den)  # (a1 + beta*t*I)*v = 0 exactly when m*v = q*t*v
    c, _ = _int_rows([row for row in a2 if any(row)])
    basis, d, k, how = _unobservable(m, c)
    # m acts on W as k/d, so t = lam/(d*q) for each eigenvalue lam of k
    charpoly = _zp_primitive([x * (d * q) ** i for i, x in enumerate(_charpoly(k))])
    candidates = _zp_rational_roots(charpoly)
    residual, kernels = charpoly, []
    for t0 in candidates:
        if deflated:  # read off the pencil itself: W lives in deflated coordinates
            kernels.append(null_space(p.substitute(t0)))
        else:
            lam = d * q * t0
            shifted = [x - lam * (i == j) for i, row in enumerate(k) for j, x in enumerate(row)]
            ys = [y.entries for y in null_space(QMatrix(len(k), len(k), shifted))]
            vs = [[sum(map(operator.mul, y, col)) for col in zip(*basis)] for y in ys]
            kernels.append(_canonical_basis(vs))
        while _zp_is_root(residual, t0.numerator, t0.denominator):
            residual = _zp_divide_root(residual, t0.numerator, t0.denominator)
    residual = UniPoly(_zp_primitive(residual))
    return PencilRankDrop(p.cols, tuple(candidates), residual, False, 0, how, tuple(kernels))
