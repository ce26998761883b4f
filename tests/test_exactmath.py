import itertools
import operator
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from darboux3 import exactmath
from darboux3.exactmath import (
    MalformedPencilError,
    PencilMatrix,
    QMatrix,
    UniPoly,
    null_space,
    pencil_rank_drop,
    rref,
)


def pencil(cols, entries):
    """An integer pencil from row-major entries, each an int c (the constant
    c) or a pair (a0, a1) for a0 + a1*t."""
    pairs = [e if isinstance(e, tuple) else (e, 0) for e in entries]
    a, b = [x for x, _ in pairs], [y for _, y in pairs]
    return PencilMatrix.from_parts(len(pairs) // cols, cols, a, b)


def substituted(p, t0):
    """The pencil p at t = t0."""
    return QMatrix(p.rows, p.cols, [x + t0 * y for x, y in zip(p.a, p.b)])


def identity(n):
    return QMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)])


def times(m, v):
    """The product of the matrix m and the column vector v, as a list."""
    col = v.column(0)
    return [sum((x * y for x, y in zip(m.row(i), col)), F(0)) for i in range(m.rows)]


class TestRref:
    def test_identity(self):
        m = identity(2)
        reduced, pivots, rank = rref(m)
        assert reduced == m
        assert pivots == (0, 1)
        assert rank == 2

    def test_dependent_rows(self):
        reduced, _, rank = rref(QMatrix.from_rows([[1, 2], [2, 4]]))
        assert reduced == QMatrix.from_rows([[1, 2], [0, 0]])
        assert rank == 1

    def test_permutation(self):
        reduced, _, rank = rref(QMatrix.from_rows([[0, 1], [1, 0]]))
        assert reduced == identity(2)
        assert rank == 2


class TestNullSpace:
    def test_identity_trivial(self):
        assert null_space(identity(3)) == []

    def test_one_by_two(self):
        basis = null_space(QMatrix.from_rows([[1, -1]]))
        assert len(basis) == 1
        assert basis[0].column(0) == [F(1), F(1)]

    def test_zero_matrix(self):
        basis = null_space(QMatrix.from_rows([[0, 0], [0, 0]]))
        assert [v.column(0) for v in basis] == [[F(1), F(0)], [F(0), F(1)]]

    def test_no_rows(self):
        # a 0 x 2 matrix keeps its shape, and its kernel is all of Q^2
        assert rref(QMatrix(0, 2, []))[0] == QMatrix(0, 2, [])
        assert [v.column(0) for v in null_space(QMatrix(0, 2, []))] == [[1, 0], [0, 1]]

    def test_first_nonzero_entry_is_one(self):
        basis = null_space(QMatrix.from_rows([[2, 4, 6], [1, 2, 3]]))
        for v in basis:
            lead = next(e for e in v.column(0) if e != 0)
            assert lead == 1


class TestRationalRoots:
    """_zp_rational_roots on integer coefficient lists, little-endian."""

    def test_linear(self):
        assert exactmath._zp_rational_roots([1, 1]) == [F(-1)]

    def test_irrational(self):
        assert exactmath._zp_rational_roots([-2, 0, 1]) == []

    def test_factorable(self):
        # 2t^2 - 3t + 1 = (2t - 1)(t - 1)
        assert exactmath._zp_rational_roots([1, -3, 2]) == [F(1, 2), F(1)]

    def test_zero_polynomial_rejected(self):
        for zero in ([], [0, 0]):
            with pytest.raises(ValueError):
                exactmath._zp_rational_roots(zero)

    def test_root_at_zero(self):
        assert exactmath._zp_rational_roots([0, 0, 1]) == [F(0)]

    def test_fraction_coefficients(self):
        # (t - 1/3)(t + 2) scaled by 1/5, cleared to integers by 15
        assert exactmath._zp_rational_roots([-2, 5, 3]) == [F(-2), F(1, 3)]

    def test_duplicates_removed(self):
        assert exactmath._zp_rational_roots([1, 2, 1]) == [F(-1)]  # (t+1)^2


class TestPencilRankDrop:
    def test_diagonal(self):
        res = pencil_rank_drop(pencil(2, [(-1, 1), 0, 0, (-2, 1)]))
        assert res.candidates == (F(1), F(2))
        assert res.residual.degree == 0
        assert not res.parametric
        assert res.stop_reason == "exact dim W = 2"

    def test_single_column(self):
        # [t; 0] drops rank at 0; [0; 2t - 1], b selecting its second row, at 1/2
        assert pencil_rank_drop(pencil(1, [(0, 1), 0])).candidates == (F(0),)
        assert pencil_rank_drop(pencil(1, [0, (-1, 2)])).candidates == (F(1, 2),)

    def test_irrational_residual(self):
        # det = t^2 + 2: no rational rank-drop points, residual keeps the factor
        res = pencil_rank_drop(pencil(2, [(0, 1), -2, 1, (0, 1)]))
        assert res.candidates == ()
        assert res.residual == UniPoly([2, 0, 1])

    def test_malformed(self):
        with pytest.raises(MalformedPencilError):
            pencil_rank_drop(pencil(2, [(0, 1), 1]))

    def test_parametric(self):
        # both columns proportional over Q(t): a kernel for every t. No b of a
        # selection pencil allows that, so such a pencil is refused, and an
        # accepted one is never parametric
        with pytest.raises(MalformedPencilError):
            pencil_rank_drop(pencil(2, [(0, 1), (0, 2), 1, 2]))
        assert not pencil_rank_drop(pencil(2, [(0, 1), 0, 0, (0, 1)])).parametric

    @pytest.mark.parametrize(
        "p",
        [
            pencil(2, [(0, 1), (0, 1), 1, (0, 1)]),
            pencil(2, [(0, 1), 0, 0, (0, 2)]),
            pencil(2, [(-1, 1), 1, 0, 3, (2, -2), 6]),
            PencilMatrix.from_parts(2, 1, [F(1, 2), 0], [1, 0]),
            PencilMatrix.from_parts(2, 1, [0], [1, 0]),
        ],
        ids=["non-selection b", "two values", "singular b", "fraction entry", "entry count"],
    )
    def test_refuses_pencils_off_the_search_path(self, p):
        # rows < cols is test_malformed
        with pytest.raises(MalformedPencilError):
            pencil_rank_drop(p)

    def test_repeated_root_and_irreducible_residual(self):
        """-C + 2t*I, C the companion matrix of (t - 1)^2 * (t^2 + 2), with
        its rows reversed and a zero row: one candidate 1/2 of multiplicity
        two, with a one-dimensional kernel, and the residual 2t^2 + 1."""
        comp = _companion(_poly_mul([1, -2, 1], [2, 0, 1]))
        rows = [[(-x, 2 * (i == j)) for j, x in enumerate(r)] for i, r in enumerate(comp)]
        p = pencil(4, [e for r in rows[::-1] + [[0] * 4] for e in r])
        res = pencil_rank_drop(p)
        assert res.candidates == (F(1, 2),)
        assert len(res.kernels[0]) == 1
        assert res.residual == UniPoly([1, 0, 2])
        _check_against_sympy(p, res)

    def test_candidates_verified_by_substitution(self):
        p = pencil(2, [(-2, 2), (0, 0), (0, 0), (-6, 2), (0, 0), (0, 0)])
        res = pencil_rank_drop(p)
        assert len(res.kernels) == len(res.candidates)
        for t0, kernel in zip(res.candidates, res.kernels):
            assert null_space(substituted(p, t0))
            assert kernel == null_space(substituted(p, t0))

    def test_exact_iteration_when_a_row_is_even(self):
        # rows t - 2 and 2: C = [2] is even but has full rank over Q, so W = 0
        res = pencil_rank_drop(pencil(1, [(-2, 1), 2]))
        assert res.stop_reason == "W = 0"
        assert res.candidates == ()
        assert res.residual == UniPoly([1])

    @pytest.mark.parametrize(
        "rows, cols, candidates, how",
        [
            # W = 0, and the second row of C = [2; 2] depends on the first
            ([(0, 1), 2, 2], 1, (), "W = 0"),
            # W = 0, reached by the basis before the round's third row
            ([(0, 1), 0, 0, (-1, 1), 2, 0, 0, 2, 2, 2], 2, (), "W = 0"),
            # W = span e2, where the Krylov round of C = [2 0; 2 0] ends at zero
            ([(-2, 1), 0, 0, (-1, 1), 2, 0, 2, 0], 2, (F(1),), "exact dim W = 1"),
        ],
        ids=["W=0, dependent C row", "W=0, basis full mid-round", "dim W=1"],
    )
    def test_exact_iteration_skips_dependent_rows(self, rows, cols, candidates, how):
        p = pencil(cols, rows)
        res = pencil_rank_drop(p)
        assert res.stop_reason == how
        assert res.candidates == candidates
        assert res.kernels == tuple(null_space(substituted(p, t0)) for t0 in candidates)
        assert res.residual == UniPoly([1])

    def test_deterministic_for_fixed_seed(self):
        # no seed is taken at all: repeated calls agree, and nothing is sampled
        p = pencil(3, [(0, 1), 0, 0, 0, (-1, 1), 0, 0, 0, (1, 1)])
        res = pencil_rank_drop(p)
        assert res == pencil_rank_drop(p)
        assert res.candidates == (F(-1), F(0), F(1))
        assert res.minors_sampled == 0


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

small_fraction = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)


@st.composite
def small_matrix(draw):
    rows = draw(st.integers(min_value=1, max_value=4))
    cols = draw(st.integers(min_value=1, max_value=4))
    entries = draw(
        st.lists(small_fraction, min_size=rows * cols, max_size=rows * cols)
    )
    return QMatrix(rows, cols, entries)


@given(small_matrix())
@settings(max_examples=200, deadline=None)
def test_null_space_exactness(m):
    for v in null_space(m):
        assert times(m, v) == [F(0)] * m.rows


int_rows = st.integers(1, 5).flatmap(
    lambda cols: st.lists(st.lists(st.integers(-9, 9), min_size=cols, max_size=cols), max_size=5)
).filter(bool)


@given(int_rows, st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool))
@settings(max_examples=150, deadline=None)
def test_null_space_same_for_ints_fractions_and_rational_multiples(rows, c):
    """null_space takes an all-int matrix as it is and clears the others; the
    kernel must not depend on which, nor on a nonzero rational scale."""
    n_rows, cols = len(rows), len(rows[0])
    ints = [x for r in rows for x in r]
    kernels = [
        [v.column(0) for v in null_space(QMatrix.from_parts(n_rows, cols, entries))]
        for entries in (ints, [F(x) for x in ints], [c * x for x in ints])
    ]
    assert kernels[1:] == kernels[:1] * 2
    assert all(type(x) is F for v in kernels[0] for x in v)


@given(small_matrix())
@settings(max_examples=200, deadline=None)
def test_rank_nullity(m):
    _, _, rank = rref(m)
    assert rank + len(null_space(m)) == m.cols


@given(small_matrix())
@settings(max_examples=100, deadline=None)
def test_rref_row_space_preserved(m):
    reduced, pivots, rank = rref(m)
    # the reduced rows must be reachable from the original rows and vice versa:
    # both matrices have equal rank and stacking them changes nothing
    stacked = QMatrix.from_rows(
        [m.row(i) for i in range(m.rows)] + [reduced.row(i) for i in range(reduced.rows)]
    )
    _, _, stacked_rank = rref(stacked)
    assert stacked_rank == rank


@st.composite
def rational_matrix(draw):
    """Wide, tall and square matrices up to 6 x 6 with mixed denominators,
    where rows may be zero, copies of earlier rows or combinations of them."""
    rows = draw(st.integers(min_value=1, max_value=6))
    cols = draw(st.integers(min_value=1, max_value=6))
    entry = st.fractions(min_value=-6, max_value=6, max_denominator=12)
    mat = []
    for _ in range(rows):
        kind = draw(st.sampled_from(["fresh", "fresh", "zero", "copy", "combination"]))
        if kind == "zero":
            mat.append([F(0)] * cols)
        elif kind == "copy" and mat:
            mat.append(list(draw(st.sampled_from(mat))))
        elif kind == "combination" and mat:
            a, b = draw(entry), draw(entry)
            r1, r2 = draw(st.sampled_from(mat)), draw(st.sampled_from(mat))
            mat.append([a * x + b * y for x, y in zip(r1, r2)])
        else:
            mat.append([draw(entry) for _ in range(cols)])
    return mat


@given(rational_matrix())
@settings(max_examples=150, deadline=None)
def test_rref_and_null_space_match_sympy(rows):
    """rref against sympy's Matrix.rref: the same reduced entries, pivots and
    rank, exactly; null_space against sympy's nullspace, leading entries 1."""
    import sympy

    m = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in rows])
    want, want_pivots = m.rref()
    reduced, pivots, rank = rref(QMatrix.from_rows(rows))
    assert pivots == tuple(want_pivots)
    assert rank == len(want_pivots)
    assert (reduced.rows, reduced.cols) == m.shape
    assert reduced.entries == [F(int(e.p), int(e.q)) for e in want]
    assert all(type(e) is F for e in reduced.entries)
    assert [v.column(0) for v in null_space(QMatrix.from_rows(rows))] == [
        _first_entry_one([F(int(e.p), int(e.q)) for e in v]) for v in m.nullspace()
    ]


def _poly_mul(p, q):
    """The product of two integer coefficient lists, little-endian."""
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def _companion(poly):
    """The companion matrix of a monic integer coefficient list: its
    characteristic polynomial is poly, and its last coordinate observes it."""
    n = len(poly) - 1
    return [[int(i == j + 1) - (j == n - 1) * poly[i] for j in range(n)] for i in range(n)]


def _block_diagonal(blocks):
    n = sum(len(blk) for blk in blocks)
    out, lo = [[0] * n for _ in range(n)], 0
    for blk in blocks:
        for i, row in enumerate(blk):
            out[lo + i][lo : lo + len(row)] = row
        lo += len(blk)
    return out


def _mat_mul(x, y):
    return [[sum(map(operator.mul, row, col)) for col in zip(*y)] for row in x]


def _unit_upper_inverse(u):
    """The inverse of a unit upper triangular integer matrix, by back
    substitution: an integer matrix."""
    inv = [[int(i == j) for j in range(len(u))] for i in range(len(u))]
    for i in range(len(u) - 1, -1, -1):
        for j in range(i + 1, len(u)):
            inv[i] = [x - u[i][j] * y for x, y in zip(inv[i], inv[j])]
    return inv


def _selection_from_rows(a_rows, b_rows):
    """A PencilMatrix from rows of a and of b."""
    cols = len(a_rows[0])
    return PencilMatrix.from_parts(
        len(a_rows), cols, [x for r in a_rows for x in r], [x for r in b_rows for x in r]
    )


small_roots = st.lists(st.integers(min_value=-2, max_value=2), max_size=3)


@st.composite
def selection_pencil(draw):
    """An integer pencil a + t*b whose b is beta times a selection of one row
    per column, as every search pencil's is, its rows in a drawn order. Either
    a is drawn entry by entry (zero and copied rows included) with up to two
    rows more than columns, or the pencil is [beta*t*I - U*C*U^-1; R*U^-1]:
    C is block diagonal of the companion matrices of p and q (repeated
    rational roots, an irreducible t^2 + 2), U unit upper triangular, and
    the t-free rows R observe q's block and, in one draw of two, a drawn
    row too. Then p's roots over beta are candidates, unless that row sees
    them."""
    beta = draw(st.sampled_from([1, -1, 2, -3]))
    ints = st.integers(min_value=-3, max_value=3)
    if draw(st.booleans()):
        cols = draw(st.integers(min_value=1, max_value=3))
        a_rows = []
        for _ in range(draw(st.integers(min_value=cols, max_value=cols + 2))):
            kind = draw(st.sampled_from(["fresh", "fresh", "zero", "copy"]))
            if kind == "zero":
                a_rows.append([0] * cols)
            elif kind == "copy" and a_rows:
                a_rows.append(list(draw(st.sampled_from(a_rows))))
            else:
                a_rows.append([draw(ints) for _ in range(cols)])
        order = draw(st.permutations(range(len(a_rows))))
        b_rows = [[beta * (order[j] == i) for j in range(cols)] for i in range(len(a_rows))]
        return _selection_from_rows(a_rows, b_rows)
    p = [1]
    for r in draw(small_roots):
        p = _poly_mul(p, [-r, 1])
    if len(p) == 1 or draw(st.booleans()):
        p = _poly_mul(p, [2, 0, 1])
    q = [1]
    for r in draw(st.lists(st.integers(min_value=-2, max_value=2), max_size=max(0, 5 - len(p)))):
        q = _poly_mul(q, [-r, 1])
    blocks = [_companion(p)] + ([_companion(q)] if len(q) > 1 else [])
    n = sum(map(len, blocks))
    u = [[int(i == j) if i >= j else draw(st.integers(-1, 1)) for j in range(n)] for i in range(n)]
    u_inv = _unit_upper_inverse(u)
    a1 = _mat_mul(_mat_mul(u, _block_diagonal(blocks)), u_inv)
    extra = [[int(j == n - 1) for j in range(n)]] if len(blocks) > 1 else []
    if draw(st.booleans()):
        extra.append([draw(ints) for _ in range(n)])
    a_rows = [[-x for x in row] for row in a1] + (_mat_mul(extra, u_inv) if extra else [])
    b_rows = [[beta * (i == j) for j in range(n)] for i in range(len(a_rows))]
    order = draw(st.permutations(range(len(a_rows))))
    return _selection_from_rows([a_rows[i] for i in order], [b_rows[i] for i in order])


@given(selection_pencil())
@settings(max_examples=100, deadline=None)
def test_pencil_candidates_yield_kernels(p):
    res = pencil_rank_drop(p)
    assert not res.parametric
    assert len(res.kernels) == len(res.candidates)
    for t0, kernel in zip(res.candidates, res.kernels):
        vectors = null_space(substituted(p, t0))
        assert vectors, f"candidate {t0} has no kernel"
        assert kernel == vectors


def _is_selection(p):
    """Whether p's b is one value times a selection of one row per column."""
    hits = [(i % p.cols, i // p.cols, x) for i, x in enumerate(p.b) if x]
    return (
        sorted(j for j, _, _ in hits) == list(range(p.cols))
        and len({i for _, i, _ in hits}) == p.cols
        and len({x for *_, x in hits}) == 1
    )


@st.composite
def maybe_deficient_pencil(draw):
    """A selection pencil whose last column is, in two draws of three, a
    constant or a t multiple of its first, so that it has no full column rank
    over Q(t) or its b is no longer a selection."""
    p = draw(selection_pencil())
    if p.cols > 1:
        mode = draw(st.sampled_from(["as drawn", "constant multiple", "t multiple"]))
        k = draw(st.integers(min_value=-2, max_value=2))
        for lo in range(0, p.rows * p.cols, p.cols):
            first, last = lo, lo + p.cols - 1
            if mode == "constant multiple":
                p.a[last], p.b[last] = k * p.a[first], k * p.b[first]
            elif mode == "t multiple":
                p.b[first] = 0
                p.a[last], p.b[last] = 0, k * p.a[first]
    return p


@given(maybe_deficient_pencil())
@settings(max_examples=150, deadline=None)
def test_generic_rank_matches_rank_over_rational_functions(p):
    """pencil_rank_drop takes exactly the pencils whose b is one value times
    a selection; their rank over Q(t), by sympy, is the column count, so
    none is parametric. A pencil of lower rank is always refused."""
    import sympy
    from sympy.polys.matrices import DomainMatrix

    t = sympy.Symbol("t")
    field = sympy.QQ.frac_field(t)
    rows = [
        [field.from_sympy(sympy.Integer(p.a[i]) + sympy.Integer(p.b[i]) * t) for i in range(lo, lo + p.cols)]
        for lo in range(0, p.rows * p.cols, p.cols)
    ]
    expected = DomainMatrix(rows, (p.rows, p.cols), field).rank()
    if not _is_selection(p):
        with pytest.raises(MalformedPencilError):
            pencil_rank_drop(p)
        return
    assert expected == p.cols
    assert not pencil_rank_drop(p).parametric


def _first_entry_one(vector):
    lead = next(e for e in vector if e != 0)
    return [e / lead for e in vector]


def _check_against_minor_gcd(res, gcd, t):
    """res against a nonzero minor gcd from sympy: its rational roots are the
    candidates, and the product of its other factors is the residual."""
    import sympy

    roots, residual = [], sympy.Integer(1)
    for factor, mult in sympy.Poly(gcd, t, domain="QQ").factor_list()[1]:
        if factor.degree() == 1:
            c1, c0 = factor.all_coeffs()
            roots.append(F(str(-c0 / c1)))
        else:
            residual *= factor.as_expr() ** mult
    assert res.candidates == tuple(sorted(roots))
    expected = [F(str(c)) for c in reversed(sympy.Poly(residual, t).monic().all_coeffs())]
    assert [c / res.residual.coeffs[-1] for c in res.residual.coeffs] == expected


def _check_against_sympy(p, res):
    """res against the gcd of all maximal minors of p and the nullspace at
    each candidate, both computed by sympy."""
    import sympy

    t = sympy.Symbol("t")
    m = sympy.Matrix(p.rows, p.cols, [x + y * t for x, y in zip(p.a, p.b)])
    gcd = sympy.Integer(0)
    for rows in itertools.combinations(range(p.rows), p.cols):
        gcd = sympy.gcd(gcd, m.extract(list(rows), list(range(p.cols))).det())
    assert gcd != 0 and not res.parametric
    _check_against_minor_gcd(res, gcd, t)
    for t0, kernel in zip(res.candidates, res.kernels, strict=True):
        vectors = m.subs(t, sympy.Rational(t0.numerator, t0.denominator)).nullspace()
        assert [v.column(0) for v in kernel] == [
            _first_entry_one([F(str(e)) for e in v]) for v in vectors
        ]


@given(selection_pencil())
@settings(max_examples=200, deadline=None)
def test_pencil_rank_drop_matches_minor_gcd(p):
    """candidates, residual and kernels against the gcd of all maximal minors
    and the nullspace, both computed by sympy."""
    _check_against_sympy(p, pencil_rank_drop(p))


@given(selection_pencil(), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_row_order_changes_no_result(p, rnd):
    # shuffling the rows reorders the Krylov rows the greedy iteration keeps
    order = list(range(p.rows))
    rnd.shuffle(order)
    rows = [(p.a[i * p.cols : (i + 1) * p.cols], p.b[i * p.cols : (i + 1) * p.cols]) for i in order]
    shuffled = _selection_from_rows([a for a, _ in rows], [b for _, b in rows])
    expected, res = pencil_rank_drop(p), pencil_rank_drop(shuffled)
    assert (res.candidates, res.residual, res.parametric, res.kernels) == (
        expected.candidates, expected.residual, expected.parametric, expected.kernels,
    )


@given(
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=1, max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_rational_roots_complete_and_sound(roots):
    # build a polynomial with known rational roots times a rootless factor
    p = [1]
    for r in roots:
        p = _poly_mul(p, [-r.numerator, r.denominator])
    p = _poly_mul(p, [1, 0, 1])  # t^2 + 1 has no real roots at all
    found = exactmath._zp_rational_roots(p)
    assert found == sorted(set(roots))
    for r in found:
        assert exactmath._zp_is_root(p, r.numerator, r.denominator)


# ---------------------------------------------------------------------------
# Internal fraction-free helpers against independent references
# ---------------------------------------------------------------------------


@st.composite
def integer_matrix(draw):
    """Tall, wide and square integer matrices up to 6 x 6 whose rows may be
    zero, copies or combinations of earlier rows, or lead with a negative
    entry."""
    rows = draw(st.integers(min_value=1, max_value=6))
    cols = draw(st.integers(min_value=1, max_value=6))
    entry = st.integers(min_value=-9, max_value=9)
    mat = []
    for _ in range(rows):
        kind = draw(st.sampled_from(["fresh", "zero", "copy", "combination", "negative leading"]))
        if kind == "zero":
            mat.append([0] * cols)
        elif kind == "copy" and mat:
            mat.append(list(draw(st.sampled_from(mat))))
        elif kind == "combination" and mat:
            a, b = draw(entry), draw(entry)
            r1, r2 = draw(st.sampled_from(mat)), draw(st.sampled_from(mat))
            mat.append([a * x + b * y for x, y in zip(r1, r2)])
        else:
            row = [draw(entry) for _ in range(cols)]
            lead = draw(st.integers(min_value=0, max_value=cols - 1))
            if kind == "negative leading":
                row[:lead] = [0] * lead
                row[lead] = -draw(st.integers(min_value=1, max_value=9))
            mat.append(row)
    return mat


def _sympy_rref(mat):
    import sympy

    red, pivots = sympy.Matrix(mat).rref()
    return red, list(pivots)


@given(integer_matrix())
@settings(max_examples=300, deadline=None)
def test_int_elimination_rank_matches_rref(mat):
    """_int_rref's rows are d times sympy's nonzero rref rows for one d > 0,
    with the same pivots and rank."""
    rows, pivots = exactmath._int_rref(mat)
    red, ref_pivots = _sympy_rref(mat)
    assert pivots == ref_pivots
    assert len(rows) == len(ref_pivots)
    d = rows[0][pivots[0]] if rows else 1
    assert d > 0
    assert rows == [[d * x for x in red.row(i)] for i in range(len(rows))]


@given(integer_matrix())
@settings(max_examples=300, deadline=None)
def test_int_kernel_against_rref(mat):
    """The back-substituted kernel: mat*v = 0, v is d at its own free column
    and 0 at the others, the free columns are rref's non-pivots and there
    are ncols - rank vectors, with sympy's rref as the reference."""
    cols = len(mat[0])
    basis, d, free, pivots = exactmath._int_kernel(mat, cols)
    _, ref_pivots = _sympy_rref(mat)
    rank = len(ref_pivots)
    assert pivots == ref_pivots
    assert free == [j for j in range(cols) if j not in ref_pivots]
    assert len(basis) == cols - rank
    for v, f in zip(basis, free):
        assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in mat)
        assert [v[g] for g in free] == [d * (g == f) for g in free]


_mostly_zero = st.just(0) | st.integers(min_value=-50, max_value=50)


@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6), st.data())
@settings(max_examples=200, deadline=None)
def test_row_times_is_the_dense_product(n, width, data):
    """_row_times over the _sparse rows of an n x width integer matrix is the
    dense row times matrix."""
    row_of_width = st.lists(_mostly_zero, min_size=width, max_size=width)
    mat = data.draw(st.lists(row_of_width, min_size=n, max_size=n))
    row = data.draw(st.lists(_mostly_zero, min_size=n, max_size=n))
    dense = [sum(row[i] * mat[i][j] for i in range(n)) for j in range(width)]
    assert exactmath._row_times(row, exactmath._sparse(mat), width) == dense


def _krylov_matrix(m, c):
    """[C; C*M; ...; C*M^(n-1)] as raw products, not reduced."""
    out, block = [], [[F(x) for x in row] for row in c]
    for _ in range(len(m)):
        out += block
        block = [[sum(x * y for x, y in zip(r, col)) for col in zip(*m)] for r in block]
    return out


@given(
    selection_pencil(),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=5, max_size=5),
    st.integers(min_value=-2, max_value=2),
)
@settings(max_examples=200, deadline=None)
def test_unobservable_spans_kernel_of_krylov_rows(p, v, lam):
    """W, solved back from the rows _krylov_rows reduced, spans the null_space
    of the raw Krylov rows C*M^k. M is the split pencil's a1, changed to have
    the drawn v as an eigenvector, and C is its a2 projected orthogonally to
    v plus one more row orthogonal to v: W then contains v, and the Krylov
    rows are not all zero."""
    if p.cols < 2:  # 1-D: covered by the minor-gcd property
        return
    a, b = ([w[lo : lo + p.cols] for lo in range(0, len(w), p.cols)] for w in (p.a, p.b))
    a1, _, a2 = exactmath._split(a, b)
    n = len(a1)
    v = v[: n - 1] + [v[n - 1] or 1]
    a1v = [sum(x * y for x, y in zip(row, v)) for row in a1]
    m = [  # v[-1]*a1 with its last column changed so that m*v = lam*v[-1]*v
        [v[-1] * x + (lam * v[i] - a1v[i]) * (j == n - 1) for j, x in enumerate(row)]
        for i, row in enumerate(a1)
    ]
    vv = sum(x * x for x in v)
    c = [[vv * x - sum(map(operator.mul, r, v)) * y for x, y in zip(r, v)] for r in a2]
    c.append([v[-1]] + [0] * (n - 2) + [-v[0]])
    basis, _, _, _ = exactmath._unobservable(m, c)
    krylov = _krylov_matrix(m, c)
    kernel = null_space(QMatrix.from_rows(krylov))
    assert len(basis) == len(kernel) >= 1
    stacked = [[F(x) for x in w] for w in basis + [v]] + [w.entries for w in kernel]
    assert rref(QMatrix.from_rows(stacked))[2] == len(kernel)
    for w in basis:
        assert all(sum(x * y for x, y in zip(row, w)) == 0 for row in krylov)


@given(selection_pencil(), st.integers(min_value=-5, max_value=5).filter(bool))
@settings(max_examples=150, deadline=None)
def test_int_fraction_and_scaled_pencils_agree(p, scale):
    """The same pencil scaled by a nonzero integer gives the same
    PencilRankDrop, every field included; its copy with Fraction entries is
    refused, since no search builds one."""
    scaled = PencilMatrix.from_parts(p.rows, p.cols, *([scale * x for x in v] for v in (p.a, p.b)))
    assert pencil_rank_drop(scaled) == pencil_rank_drop(p)
    fractions = PencilMatrix.from_parts(p.rows, p.cols, *([F(x) for x in v] for v in (p.a, p.b)))
    with pytest.raises(MalformedPencilError):
        pencil_rank_drop(fractions)


@st.composite
def square_selection_pencil(draw):
    """A square integer pencil a + beta*t*P, P a permutation matrix, whose
    rows of a are, by draw, zero, drawn or copies of earlier ones, as (a, b)
    pairs for a + b*t."""
    n = draw(st.integers(min_value=1, max_value=5))
    beta = draw(st.sampled_from([1, -1, 2, -3]))
    ints = st.integers(min_value=-3, max_value=3)
    a_rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(["zero", "fresh", "fresh", "copy"]))
        if kind == "zero":
            a_rows.append([0] * n)
        elif kind == "copy" and a_rows:
            a_rows.append(list(draw(st.sampled_from(a_rows))))
        else:
            a_rows.append([draw(ints) for _ in range(n)])
    order = draw(st.permutations(range(n)))
    return [[(x, beta * (order[j] == i)) for j, x in enumerate(row)] for i, row in enumerate(a_rows)]


@given(square_selection_pencil())
@settings(max_examples=300, deadline=None)
def test_interp_minor_matches_symbolic_determinant(rows):
    """A square pencil's one maximal minor is its determinant, here of degree
    n in t with leading coefficient det(beta*P) != 0, so it is never zero.
    The rank drop must match sympy's determinant: the candidates and the
    residual's degree sum to at most n."""
    import sympy

    t = sympy.Symbol("t")
    n = len(rows)
    det = sympy.expand(sympy.Matrix([[a + b * t for a, b in row] for row in rows]).det())
    p = pencil(n, [e for row in rows for e in row])
    res = pencil_rank_drop(p)
    assert det != 0 and not res.parametric
    _check_against_minor_gcd(res, det, t)
    assert len(res.candidates) + res.residual.degree <= n


small_monic = st.lists(st.integers(min_value=-3, max_value=3), max_size=3).map(lambda cs: cs + [1])


@given(small_monic, small_monic, small_monic.filter(lambda g: len(g) >= 2))
@settings(max_examples=200, deadline=None)
def test_zp_gcd_divides_common_multiples(a, b, g):
    """The pencil [diag(C(a*g), C(b*g)) - t*I; c] of two companion matrices,
    with c the sum of their last coordinates, has the gcd of a*g and b*g as
    the gcd of its maximal minors: a common divisor that g divides."""
    import sympy

    blocks = [_companion(_poly_mul(a, g)), _companion(_poly_mul(b, g))]
    a1 = _block_diagonal(blocks)
    n = len(a1)
    c = [0] * n
    c[len(blocks[0]) - 1] = c[n - 1] = 1
    minus_i = [[-int(i == j) for j in range(n)] for i in range(n)]
    res = pencil_rank_drop(_selection_from_rows(a1 + [c], minus_i + [[0] * n]))
    assert not res.parametric

    t = sympy.Symbol("t")

    def expr(poly):
        return sum(sympy.Rational(x) * t**i for i, x in enumerate(poly))

    _check_against_minor_gcd(res, sympy.gcd(expr(_poly_mul(a, g)), expr(_poly_mul(b, g))), t)
    # g divides the minor gcd: its rational roots are candidates, and what
    # is left of g once they are divided out divides the residual
    g_rest = list(g)
    for r in exactmath._zp_rational_roots(g):
        assert r in res.candidates
        while exactmath._zp_is_root(g_rest, r.numerator, r.denominator):
            g_rest = exactmath._zp_divide_root(g_rest, r.numerator, r.denominator)
    g_rest_expr = sum(c * t**i for i, c in enumerate(g_rest))
    assert sympy.rem(expr(res.residual.coeffs), g_rest_expr, t) == 0
