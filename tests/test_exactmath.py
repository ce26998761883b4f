import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

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

    def test_unlucky_random_points_fall_back_to_small_points(self):
        # det = t (t - 1) (t + 1): the random points (all 0 here) and the first
        # three small points 0, 1, -1 are rank drops; only the fourth, 2, is not
        class ZeroRng(random.Random):
            def randrange(self, *args):
                return 0

        p = PencilMatrix(3, 3, [lin(0, 1), 0, 0, 0, lin(-1, 1), 0, 0, 0, lin(1, 1)])
        res = pencil_rank_drop(p, rng=ZeroRng(7))
        assert res.generic_rank == 3
        assert not res.parametric
        assert res.candidates == (F(-1), F(0), F(1))

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

from darboux3.exactmath import (  # noqa: E402
    _int_elim_pivot_rows,
    _zp_gcd,
    _zp_mul,
)


def _det_cofactor(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det_cofactor(minor)
    return total


@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-5, max_value=5), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_int_det_matches_cofactor_expansion(m):
    assert _int_elim_pivot_rows(m, range(len(m)), len(m))[1] == _det_cofactor(m)


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_int_elimination_rank_matches_rref(rows, cols, data):
    mat = [
        [data.draw(st.integers(min_value=-4, max_value=4)) for _ in range(cols)]
        for _ in range(rows)
    ]
    pivot_rows, _ = _int_elim_pivot_rows(mat, list(range(rows)), cols)
    _, _, rank_frac = rref(QMatrix.from_rows(mat))
    assert len(pivot_rows) == rank_frac
    assert len(set(pivot_rows)) == len(pivot_rows)


@st.composite
def mixed_minor(draw):
    """A square integer pencil block whose rows are, by draw, zero, t-free or
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


@given(mixed_minor(), st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_interp_minor_matches_symbolic_determinant(rows, rnd):
    import sympy

    from darboux3.exactmath import _interp_minor

    t = sympy.Symbol("t")
    subset = list(range(len(rows)))
    rnd.shuffle(subset)
    det = sympy.Matrix([[a + b * t for a, b in rows[i]] for i in subset]).det()
    poly = _interp_minor(rows, subset)
    expected = sympy.Poly(sympy.expand(det), t).all_coeffs()[::-1]
    assert poly == ([] if expected == [0] else [int(c) for c in expected])
    assert len(poly) - 1 <= sum(any(b for _, b in row) for row in rows)


small_zpoly = st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=4)


@given(small_zpoly, small_zpoly, small_zpoly)
@settings(max_examples=200, deadline=None)
def test_zp_gcd_divides_common_multiples(a, b, g):
    # coefficient lists carry no trailing zeros inside the module
    from darboux3.exactmath import _zp_divexact, _zp_primitive, _zp_trim

    a, b, g = _zp_trim(list(a)), _zp_trim(list(b)), _zp_trim(list(g))
    if not (a and b and g):
        return
    d = _zp_gcd(_zp_mul(a, g), _zp_mul(b, g))
    # d must be a multiple of the primitive part of g: exact division succeeds
    gp = _zp_primitive(g)
    quotient = _zp_divexact(list(d), gp) if len(d) >= len(gp) else None
    assert quotient is not None
