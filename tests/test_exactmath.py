import itertools
import math
import operator
import random
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
    rational_roots,
    rref,
)


def lin(a0, a1):
    return UniPoly.linear(a0, a1)


class TestRref:
    def test_identity(self):
        m = QMatrix.identity(2)
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
        assert reduced == QMatrix.identity(2)
        assert rank == 2


class TestNullSpace:
    def test_identity_trivial(self):
        assert null_space(QMatrix.identity(3)) == []

    def test_one_by_two(self):
        basis = null_space(QMatrix.from_rows([[1, -1]]))
        assert len(basis) == 1
        assert basis[0].column(0) == [F(1), F(1)]

    def test_zero_matrix(self):
        basis = null_space(QMatrix.zero(2, 2))
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
    def test_linear(self):
        assert rational_roots(UniPoly([1, 1])) == [F(-1)]

    def test_irrational(self):
        assert rational_roots(UniPoly([-2, 0, 1])) == []

    def test_factorable(self):
        # 2t^2 - 3t + 1 = (2t - 1)(t - 1)
        assert rational_roots(UniPoly([1, -3, 2])) == [F(1, 2), F(1)]

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            rational_roots(UniPoly())

    def test_root_at_zero(self):
        assert rational_roots(UniPoly([0, 0, 1])) == [F(0)]

    def test_fraction_coefficients(self):
        # (t - 1/3)(t + 2) scaled by 1/5
        p = UniPoly([F(-2, 15), F(1, 3), F(1, 5)])
        assert rational_roots(p) == [F(-2), F(1, 3)]

    def test_duplicates_removed(self):
        p = UniPoly([1, 2, 1])  # (t+1)^2
        assert rational_roots(p) == [F(-1)]


class TestPencilRankDrop:
    def test_diagonal(self):
        p = PencilMatrix(2, 2, [lin(-1, 1), 0, 0, lin(-2, 1)])
        res = pencil_rank_drop(p, rng=random.Random(7))
        assert res.generic_rank == 2
        assert res.candidates == (F(1), F(2))
        assert res.residual.degree == 0
        assert not res.parametric

    def test_single_column(self):
        p = PencilMatrix(2, 1, [lin(0, 1), lin(0, 1)])
        res = pencil_rank_drop(p, rng=random.Random(7))
        assert res.generic_rank == 1
        assert res.candidates == (F(0),)

    def test_irrational_residual(self):
        # det = t^2 + 2: no rational rank-drop points, residual keeps the factor
        p = PencilMatrix(2, 2, [lin(0, 1), lin(-2, 0), lin(1, 0), lin(0, 1)])
        res = pencil_rank_drop(p, rng=random.Random(7))
        assert res.candidates == ()
        assert res.residual == UniPoly([2, 0, 1])

    def test_malformed(self):
        with pytest.raises(MalformedPencilError):
            pencil_rank_drop(PencilMatrix(1, 2, [lin(0, 1), lin(1, 0)]))

    def test_parametric(self):
        # both columns proportional over Q(t): kernel for every t
        p = PencilMatrix(2, 2, [lin(0, 1), lin(0, 2), lin(1, 0), lin(2, 0)])
        res = pencil_rank_drop(p, rng=random.Random(7))
        assert res.parametric
        assert res.generic_rank == 1
        assert res.candidates == ()

    def test_candidates_verified_by_substitution(self):
        p = PencilMatrix(
            3, 2, [lin(-1, 1), lin(0, 0), lin(0, 0), lin(-6, 2), lin(0, 0), lin(0, 0)]
        )
        res = pencil_rank_drop(p, rng=random.Random(7))
        assert len(res.kernels) == len(res.candidates)
        for t0, kernel in zip(res.candidates, res.kernels):
            assert null_space(p.substitute(t0))
            assert kernel == null_space(p.substitute(t0))

    def test_rng_state_untouched(self):
        p = PencilMatrix(3, 3, [lin(0, 1), 0, 0, 0, lin(-1, 1), 0, 0, 0, lin(1, 1)])
        rng = random.Random(7)
        state = rng.getstate()
        res = pencil_rank_drop(p, rng=rng)
        assert rng.getstate() == state
        assert res.candidates == (F(-1), F(0), F(1))
        assert res.minors_sampled == 0

    def test_exact_iteration_when_a_row_is_even(self):
        # rows t - 2 and 2: C = [2] is even but has full rank over Q, so W = 0
        res = pencil_rank_drop(PencilMatrix(2, 1, [lin(-2, 1), lin(2, 0)]))
        assert res.stop_reason == "W = 0"
        assert res.candidates == ()
        assert res.residual == UniPoly([1])

    @pytest.mark.parametrize(
        "rows, cols, candidates, how",
        [
            # W = 0, and the second row of C = [2; 2] depends on the first
            ([lin(0, 1), 2, 2], 1, (), "W = 0"),
            # W = 0, reached by the basis before the round's third row
            ([lin(0, 1), 0, 0, lin(-1, 1), 2, 0, 0, 2, 2, 2], 2, (), "W = 0"),
            # W = span e2, where the Krylov round of C = [2 0; 2 0] ends at zero
            ([lin(-2, 1), 0, 0, lin(-1, 1), 2, 0, 2, 0], 2, (F(1),), "exact dim W = 1"),
        ],
        ids=["W=0, dependent C row", "W=0, basis full mid-round", "dim W=1"],
    )
    def test_exact_iteration_skips_dependent_rows(self, rows, cols, candidates, how):
        p = PencilMatrix(len(rows) // cols, cols, rows)
        res = pencil_rank_drop(p)
        assert res.stop_reason == how
        assert res.candidates == candidates
        assert res.kernels == tuple(null_space(p.substitute(t0)) for t0 in candidates)
        assert res.residual == UniPoly([1])

    def test_singular_b_is_deflated(self):
        # column 2 carries no t, and every maximal minor is a multiple of t - 1
        p = PencilMatrix(3, 2, [lin(-1, 1), 1, 0, 3, lin(2, -2), 6])
        res = pencil_rank_drop(p)
        assert not res.parametric
        assert res.candidates == (F(1),)
        assert res.kernels == (null_space(p.substitute(1)),)

    def test_deterministic_for_fixed_seed(self):
        p = PencilMatrix(2, 2, [lin(-1, 1), 0, 0, lin(-2, 1)])
        a = pencil_rank_drop(p, rng=random.Random(3))
        b = pencil_rank_drop(p, rng=random.Random(3))
        assert a == b


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
        assert m.mul_vec(v).entries == [F(0)] * m.rows


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


@st.composite
def small_pencil(draw):
    cols = draw(st.integers(min_value=1, max_value=3))
    rows = draw(st.integers(min_value=cols, max_value=4))
    ints = st.integers(min_value=-3, max_value=3)
    entries = [
        UniPoly.linear(draw(ints), draw(ints)) for _ in range(rows * cols)
    ]
    return PencilMatrix(rows, cols, entries)


@given(small_pencil())
@settings(max_examples=100, deadline=None)
def test_pencil_candidates_yield_kernels(p):
    res = pencil_rank_drop(p, rng=random.Random(11))
    if res.parametric:
        assert res.generic_rank < p.cols
        return
    assert len(res.kernels) == len(res.candidates)
    for t0, kernel in zip(res.candidates, res.kernels):
        vectors = null_space(p.substitute(t0))
        assert vectors, f"candidate {t0} has no kernel"
        assert kernel == vectors


@st.composite
def maybe_deficient_pencil(draw):
    """A small pencil whose last column is, in two draws of three, a constant
    or a t multiple of its first, so that it has no full column rank over Q(t)."""
    p = draw(small_pencil())
    if p.cols > 1:
        mode = draw(st.sampled_from(["as drawn", "constant multiple", "t multiple"]))
        k = draw(st.integers(min_value=-2, max_value=2))
        for lo in range(0, p.rows * p.cols, p.cols):
            first, last = lo, lo + p.cols - 1
            if mode == "constant multiple":
                p.a[last], p.b[last] = k * p.a[first], k * p.b[first]
            elif mode == "t multiple":
                p.b[first] = F(0)
                p.a[last], p.b[last] = F(0), k * p.a[first]
    return p


@given(maybe_deficient_pencil())
@settings(max_examples=150, deadline=None)
def test_generic_rank_matches_rank_over_rational_functions(p):
    import sympy
    from sympy.polys.matrices import DomainMatrix

    t = sympy.Symbol("t")
    field = sympy.QQ.frac_field(t)
    rows = [
        [
            field.from_sympy(sympy.Rational(p.a[i]) + sympy.Rational(p.b[i]) * t)
            for i in range(lo, lo + p.cols)
        ]
        for lo in range(0, p.rows * p.cols, p.cols)
    ]
    expected = DomainMatrix(rows, (p.rows, p.cols), field).rank()
    res = pencil_rank_drop(p, rng=random.Random(5))
    assert res.generic_rank == expected
    assert res.parametric == (expected < p.cols)


@st.composite
def reference_pencil(draw):
    """A small pencil of one of the shapes pencil_rank_drop must handle: as
    drawn, with a singular b, without full column rank over Q(t), or a
    companion pencil t*I - C of a chosen determinant (repeated rational roots,
    an irreducible t^2 + 2), mixed by constant row and column operations and
    given one extra row, a constant combination of the others."""
    mode = draw(st.sampled_from(["as drawn", "singular b", "deficient", "companion"]))
    if mode == "deficient":
        return draw(maybe_deficient_pencil())
    if mode != "companion":
        p = draw(small_pencil())
        if mode == "singular b" and p.cols > 1:
            k = draw(st.integers(min_value=-1, max_value=1))
            for lo in range(0, p.rows * p.cols, p.cols):
                p.b[lo + p.cols - 1] = k * p.b[lo]
        return p
    det = UniPoly([1])
    for r in draw(st.lists(st.integers(min_value=-2, max_value=2), max_size=3)):
        det = det * UniPoly([-r, 1])
    if det.degree < 1 or draw(st.booleans()):
        det = det * UniPoly([2, 0, 1])
    n = det.degree
    comp = [[F(int(i == j + 1)) for j in range(n)] for i in range(n)]
    for i in range(n):
        comp[i][n - 1] = -det.coeffs[i]
    unit = st.integers(min_value=-1, max_value=1)
    mix_r = [[F(int(i == j)) if i <= j else F(draw(unit)) for j in range(n)] for i in range(n)]
    mix_c = [[F(int(i == j)) if i >= j else F(draw(unit)) for j in range(n)] for i in range(n)]
    extra = [F(draw(unit)) for _ in range(n)]

    def mixed(mat):
        rows = [[sum(x * y for x, y in zip(r, c)) for c in zip(*mat)] for r in mix_r]
        rows = [[sum(x * y for x, y in zip(r, c)) for c in zip(*mix_c)] for r in rows]
        rows.append([sum(e * x for e, x in zip(extra, c)) for c in zip(*rows)])
        return [x for row in rows for x in row]

    ident = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    return PencilMatrix.from_parts(n + 1, n, mixed([[-x for x in r] for r in comp]), mixed(ident))


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


@given(reference_pencil())
@settings(max_examples=200, deadline=None)
def test_pencil_rank_drop_matches_minor_gcd(p):
    """candidates, residual, parametric and kernels against the gcd of all
    maximal minors and the nullspace, both computed by sympy."""
    import sympy

    t = sympy.Symbol("t")
    m = sympy.Matrix(
        p.rows, p.cols, [sympy.Rational(x) + sympy.Rational(y) * t for x, y in zip(p.a, p.b)]
    )
    gcd = sympy.Integer(0)
    for rows in itertools.combinations(range(p.rows), p.cols):
        gcd = sympy.gcd(gcd, m.extract(list(rows), list(range(p.cols))).det())
    res = pencil_rank_drop(p)
    assert res.parametric == (gcd == 0)
    if res.parametric:
        assert res.residual.is_zero() and res.candidates == ()
        return
    _check_against_minor_gcd(res, gcd, t)
    for t0, kernel in zip(res.candidates, res.kernels, strict=True):
        vectors = m.subs(t, sympy.Rational(t0.numerator, t0.denominator)).nullspace()
        assert [v.column(0) for v in kernel] == [
            _first_entry_one([F(str(e)) for e in v]) for v in vectors
        ]


@given(reference_pencil(), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_row_order_changes_no_result(p, rnd):
    # shuffling the rows reorders the Krylov rows the greedy iteration keeps
    order = list(range(p.rows))
    rnd.shuffle(order)
    rows = [(p.a[i * p.cols : (i + 1) * p.cols], p.b[i * p.cols : (i + 1) * p.cols]) for i in order]
    shuffled = PencilMatrix.from_parts(
        p.rows, p.cols, [x for a, _ in rows for x in a], [x for _, b in rows for x in b]
    )
    expected, res = pencil_rank_drop(p), pencil_rank_drop(shuffled)
    assert (res.candidates, res.residual, res.parametric, res.generic_rank, res.kernels) == (
        expected.candidates, expected.residual, expected.parametric, expected.generic_rank,
        expected.kernels,
    )


@given(
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=1, max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_rational_roots_complete_and_sound(roots):
    # build a polynomial with known rational roots times a rootless factor
    p = UniPoly([1])
    for r in roots:
        p = p * UniPoly([-r, 1])
    p = p * UniPoly([1, 0, 1])  # t^2 + 1 has no real roots at all
    found = rational_roots(p)
    assert set(found) == set(roots)
    for r in found:
        assert p(r) == 0


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


def _krylov_matrix(m, c):
    """[C; C*M; ...; C*M^(n-1)] as raw products, not reduced."""
    out, block = [], [[F(x) for x in row] for row in c]
    for _ in range(len(m)):
        out += block
        block = [[sum(x * y for x, y in zip(r, col)) for col in zip(*m)] for r in block]
    return out


@given(
    reference_pencil(),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=5, max_size=5),
    st.integers(min_value=-2, max_value=2),
)
@settings(max_examples=200, deadline=None)
def test_unobservable_spans_kernel_of_krylov_rows(p, v, lam):
    """W, back-substituted from the rows _krylov_rows reduced, spans the
    null_space of the raw Krylov rows C*M^k. M is the split pencil's a1,
    changed to have the drawn v as an eigenvector, and C is its a2 projected
    orthogonally to v plus one more row orthogonal to v: W then contains v,
    and the Krylov rows are not all zero."""
    den = math.lcm(*(x.denominator for x in p.a + p.b))
    a, b = (
        [[int(x * den) for x in w[lo : lo + p.cols]] for lo in range(0, len(w), p.cols)]
        for w in (p.a, p.b)
    )
    split = exactmath._split(a, b)
    if split is None or p.cols < 2:  # deflated or 1-D: covered by the minor-gcd property
        return
    a1, _, a2 = split
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


@given(reference_pencil(), st.fractions(min_value=-5, max_value=5, max_denominator=7))
@settings(max_examples=150, deadline=None)
def test_int_fraction_and_scaled_pencils_agree(p, scale):
    """The same pencil as ints (no denominator pass), as Fractions and scaled
    by a rational gives the same PencilRankDrop, every field included."""
    den = math.lcm(*(x.denominator for x in p.a + p.b))
    ints = [[int(x * den) for x in v] for v in (p.a, p.b)]
    assert all(type(x) is int for v in ints for x in v)
    scale = scale or F(1, 3)
    variants = [
        PencilMatrix.from_parts(p.rows, p.cols, *ints),
        PencilMatrix.from_parts(p.rows, p.cols, *([F(x) for x in v] for v in ints)),
        PencilMatrix.from_parts(p.rows, p.cols, *([scale * x for x in v] for v in (p.a, p.b))),
    ]
    expected = pencil_rank_drop(p)
    for q in variants:
        assert pencil_rank_drop(q) == expected


@st.composite
def mixed_minor(draw):
    """A square integer pencil whose rows are, by draw, zero, t-free or
    linear in t, as (a, b) pairs for a + b*t."""
    n = draw(st.integers(min_value=1, max_value=5))
    ints = st.integers(min_value=-3, max_value=3)
    rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(["zero", "t-free", "linear"]))
        if kind == "zero":
            rows.append([(0, 0)] * n)
        elif kind == "t-free":
            rows.append([(draw(ints), 0) for _ in range(n)])
        else:
            rows.append([(draw(ints), draw(ints)) for _ in range(n)])
    return rows


@given(mixed_minor())
@settings(max_examples=300, deadline=None)
def test_interp_minor_matches_symbolic_determinant(rows):
    """A square pencil's one maximal minor is its determinant. Zero rows make
    it parametric; t-free rows make b singular, so the pencil goes through
    the staircase deflation. The rank drop must match sympy's determinant,
    whose degree is at most the number of rows that carry t."""
    import sympy

    t = sympy.Symbol("t")
    n = len(rows)
    det = sympy.expand(sympy.Matrix([[a + b * t for a, b in row] for row in rows]).det())
    p = PencilMatrix.from_parts(
        n, n, [F(a) for row in rows for a, _ in row], [F(b) for row in rows for _, b in row]
    )
    res = pencil_rank_drop(p)
    assert res.parametric == (det == 0)
    if res.parametric:
        assert res.residual.is_zero() and res.candidates == ()
        return
    _check_against_minor_gcd(res, det, t)
    t_rows = sum(any(b for _, b in row) for row in rows)
    assert len(res.candidates) + res.residual.degree <= t_rows


def _companion(poly):
    """The companion matrix of a monic UniPoly: its characteristic polynomial
    is poly, and its last coordinate observes it."""
    n = poly.degree
    return [[F(int(i == j + 1)) - (j == n - 1) * poly.coeffs[i] for j in range(n)] for i in range(n)]


small_monic = st.lists(st.integers(min_value=-3, max_value=3), max_size=3).map(
    lambda cs: UniPoly(cs + [1])
)


@given(small_monic, small_monic, small_monic.filter(lambda g: g.degree >= 1))
@settings(max_examples=200, deadline=None)
def test_zp_gcd_divides_common_multiples(a, b, g):
    """The pencil [diag(C(a*g), C(b*g)) - t*I; c] of two companion matrices,
    with c the sum of their last coordinates, has the gcd of a*g and b*g as
    the gcd of its maximal minors: a common divisor that g divides."""
    import sympy

    blocks = [_companion(a * g), _companion(b * g)]
    n = sum(len(blk) for blk in blocks)
    a1 = [[F(0)] * n for _ in range(n)]
    lo = 0
    for blk in blocks:
        for i, row in enumerate(blk):
            a1[lo + i][lo : lo + len(row)] = row
        lo += len(blk)
    c = [F(0)] * n
    c[len(blocks[0]) - 1] = c[n - 1] = F(1)
    minus_i = [F(-int(i == j)) for i in range(n) for j in range(n)]
    p = PencilMatrix.from_parts(
        n + 1, n, [x for row in a1 for x in row] + c, minus_i + [F(0)] * n
    )
    res = pencil_rank_drop(p)
    assert not res.parametric

    t = sympy.Symbol("t")

    def expr(poly):
        return sum(sympy.Rational(x.numerator, x.denominator) * t**i for i, x in enumerate(poly.coeffs))

    _check_against_minor_gcd(res, sympy.gcd(expr(a * g), expr(b * g)), t)
    # g divides the minor gcd: its rational roots are candidates, and what
    # is left of g once they are divided out divides the residual
    g_rest = [int(x) for x in g.coeffs]
    for r in rational_roots(g):
        assert r in res.candidates
        while exactmath._zp_is_root(g_rest, r.numerator, r.denominator):
            g_rest = exactmath._zp_divide_root(g_rest, r.numerator, r.denominator)
    g_rest_expr = sum(c * t**i for i, c in enumerate(g_rest))
    assert sympy.rem(expr(res.residual), g_rest_expr, t) == 0
