"""Exact solvers, polynomials, interpolation, roots of unity."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ybe_forge import exact
from ybe_forge.exact import (
    InconsistentSystemError,
    InterpolationError,
    LinearAlgebraError,
    LinSystem,
    MatrixPoly,
    SingularSystemError,
    cyclo_rational,
    cyclotomic_poly,
    det,
    eval_matrix_poly,
    interpolate,
    kernel,
    matrix_poly_from_coeffs,
    poly_add,
    poly_eval,
    poly_mul,
    rank,
    rat,
    root_complex,
    root_table,
    solve,
    solve_multi,
)

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)


class TestSolve:
    def test_identity_system(self):
        b = (F(3), F(-1, 2), F(7))
        A = tuple(tuple(F(int(i == j)) for j in range(3)) for i in range(3))
        assert solve(LinSystem(A, b)) == b

    def test_two_by_two(self):
        A = ((F(1), F(1)), (F(1), F(-1)))
        assert solve(LinSystem(A, (F(2), F(0)))) == (F(1), F(1))

    def test_cartan_gram_n4(self):
        # Gram system of the simple coroot pairing for n = 4, re-verified
        from ybe_forge.lie import basis_matrix, trace_form

        hs = [basis_matrix(("cartan", l), 4) for l in range(1, 4)]
        gram = [[trace_form(a, b) for b in hs] for a in hs]
        for l in range(3):
            rhs = [F(int(m == l)) for m in range(3)]
            x = solve(LinSystem(tuple(map(tuple, gram)), tuple(rhs)))
            for m in range(3):
                got = sum(x[k] * gram[m][k] for k in range(3))
                assert got == rhs[m]

    def test_singular_reported(self):
        A = ((F(1), F(1)), (F(2), F(2)))
        with pytest.raises(SingularSystemError):
            solve(LinSystem(A, (F(0), F(0))))

    def test_inconsistent_reported(self):
        A = ((F(1), F(1)), (F(1), F(1)))
        with pytest.raises(InconsistentSystemError):
            solve(LinSystem(A, (F(0), F(1))))

    def test_overdetermined_consistent(self):
        A = ((F(1), F(0)), (F(0), F(1)), (F(1), F(1)))
        assert solve(LinSystem(A, (F(2), F(3), F(5)))) == (F(2), F(3))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=3, max_size=3),
           st.lists(rationals, min_size=3, max_size=3))
    def test_random_systems_resubstitute(self, rows, b):
        A = tuple(tuple(r) for r in rows)
        try:
            x = solve(LinSystem(A, tuple(b)))
        except (SingularSystemError, InconsistentSystemError):
            return
        for row, bi in zip(A, b):
            assert sum(a * v for a, v in zip(row, x)) == bi


class TestKernel:
    def test_zero_matrix(self):
        vecs = kernel([[F(0)] * 4 for _ in range(4)])
        assert len(vecs) == 4

    def test_full_rank_square(self):
        A = ((F(2), F(1)), (F(1), F(1)))
        assert kernel(A) == []

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.lists(rationals, min_size=4, max_size=4), min_size=2, max_size=3))
    def test_kernel_members_annihilate(self, rows):
        vecs = kernel(rows)
        assert len(vecs) == 4 - rank(rows)
        for v in vecs:
            for row in rows:
                assert sum(a * b for a, b in zip(row, v)) == 0


class TestDet:
    def test_known(self):
        assert det(((F(0), F(2)), (F(-2), F(0)))) == 4
        assert det(((F(1), F(2)), (F(2), F(4)))) == 0

    def test_scaled_rows(self):
        assert det(((F(1, 2), F(0)), (F(0), F(1, 3)))) == F(1, 6)


def _gauss_jordan(rows, ncols):
    """Reference: plain Fraction Gauss-Jordan to reduced row echelon form.
    Returns (reduced rows, pivot columns, determinant factor of the steps)."""
    m = [list(r) for r in rows]
    piv, factor, r = [], F(1), 0
    for c in range(ncols):
        p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
            factor = -factor
        lead = m[r][c]
        factor *= lead
        m[r] = [v / lead for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        piv.append(c)
        r += 1
    return m, piv, factor


def _ref_kernel(rows):
    n = len(rows[0])
    m, piv, _ = _gauss_jordan(rows, n)
    basis = []
    for f in (c for c in range(n) if c not in piv):
        v = [F(0)] * n
        v[f] = F(1)
        for r, c in enumerate(piv):
            v[c] = -m[r][f]
        basis.append(tuple(v))
    return basis


def _ref_solve_multi(rows, rhs_cols):
    ncols = len(rows[0])
    aug = [list(row) + [b[i] for b in rhs_cols] for i, row in enumerate(rows)]
    m, piv, _ = _gauss_jordan(aug, len(aug[0]))
    if any(c >= ncols for c in piv):
        raise InconsistentSystemError
    if len(piv) < ncols:
        raise SingularSystemError
    return [tuple(m[r][ncols + k] for r in range(ncols)) for k in range(len(rhs_cols))]


def _outcome(f, *args):
    try:
        return f(*args)
    except LinearAlgebraError as exc:
        return type(exc)


small_rats = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def rational_matrices(draw, min_rows=1):
    """Small matrices; about half are products B C with a short inner size,
    so rank deficiency is common."""
    ncols = draw(st.integers(1, 5))
    nrows = draw(st.integers(max(min_rows, 1), 5))
    if draw(st.booleans()):
        return [draw(st.lists(small_rats, min_size=ncols, max_size=ncols))
                for _ in range(nrows)]
    k = draw(st.integers(0, min(nrows, ncols)))
    B = [draw(st.lists(small_rats, min_size=k, max_size=k)) for _ in range(nrows)]
    C = [draw(st.lists(small_rats, min_size=ncols, max_size=ncols)) for _ in range(k)]
    return [[sum((B[i][t] * C[t][j] for t in range(k)), F(0)) for j in range(ncols)]
            for i in range(nrows)]


class TestIntegerCore:
    """kernel, solve_multi, rank and det against a plain Fraction reference."""

    @settings(max_examples=150, deadline=None)
    @given(rational_matrices())
    def test_kernel_rank_det_match_reference(self, rows):
        assert kernel(rows) == _ref_kernel(rows)
        _, piv, factor = _gauss_jordan(rows, len(rows[0]))
        assert rank(rows) == len(piv)
        if len(rows) == len(rows[0]):
            expected = factor if len(piv) == len(rows) else F(0)
            got = det(rows)
            assert got == expected and isinstance(got, F)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_solve_multi_matches_reference(self, data):
        rows = data.draw(rational_matrices())
        nrows, ncols = len(rows), len(rows[0])
        if nrows < ncols:
            rows = rows + [[F(0)] * ncols for _ in range(ncols - nrows)]
            nrows = ncols
        rhs_cols = []
        for _ in range(data.draw(st.integers(1, 3))):
            if data.draw(st.booleans()):  # consistent: b = A x
                x = data.draw(st.lists(small_rats, min_size=ncols, max_size=ncols))
                rhs_cols.append([sum((a * v for a, v in zip(row, x)), F(0)) for row in rows])
            else:
                rhs_cols.append(data.draw(st.lists(small_rats, min_size=nrows, max_size=nrows)))
        expected = _outcome(_ref_solve_multi, rows, rhs_cols)
        got = _outcome(solve_multi, rows, rhs_cols)
        assert got == expected
        if isinstance(got, list):
            assert all(isinstance(v, F) for sol in got for v in sol)

    def test_integer_recheck_is_live(self, monkeypatch):
        real = exact._back_substitute

        def off_by_one(*args):
            vecs = real(*args)
            vecs[0][0] += 1  # column 0 is a pivot column in both systems below
            return vecs

        monkeypatch.setattr(exact, "_back_substitute", off_by_one)
        A = [[F(1), F(1, 2), F(0)], [F(0), F(1), F(-1, 3)]]
        with pytest.raises(LinearAlgebraError, match="kernel verification failed"):
            kernel(A)
        B = [[F(2), F(1)], [F(1), F(3)], [F(3), F(4)]]
        with pytest.raises(LinearAlgebraError, match="solve verification failed"):
            solve_multi(B, [[F(1), F(2), F(3)]])

    def test_solve_dec_makes_one_batched_solve(self, monkeypatch):
        """A cold solve_dec runs one batched split and no determinant: the
        split itself decides degeneracy."""
        from ybe_forge import stolin

        calls, dets = [], []

        def counting(rows, rhs_cols):
            calls.append(len(rhs_cols))
            return exact.solve_multi(rows, rhs_cols)

        def counting_det(rows):
            dets.append(len(rows))
            return exact.det(rows)

        monkeypatch.setattr(stolin, "solve_multi", counting)
        monkeypatch.setattr(stolin, "det", counting_det)
        stolin.solve_dec.cache_clear()
        try:
            stolin.solve_dec(1, 3, stolin.neg_j_matrix(1, 3))
        finally:
            stolin.solve_dec.cache_clear()
        assert calls == [4 * 4 - 1]
        assert dets == []


class TestPoly:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(rationals, max_size=5), st.lists(rationals, max_size=5),
           st.lists(rationals, max_size=5))
    def test_ring_laws(self, a, b, c):
        a, b, c = (tuple(x) for x in (a, b, c))
        from ybe_forge.exact import poly_trim

        a, b, c = poly_trim(a), poly_trim(b), poly_trim(c)
        assert poly_mul(a, poly_mul(b, c)) == poly_mul(poly_mul(a, b), c)
        assert poly_mul(a, poly_add(b, c)) == poly_add(poly_mul(a, b), poly_mul(a, c))

    def test_eval(self):
        p = (F(1), F(0), F(2))  # 1 + 2 z^2
        assert poly_eval(p, F(3)) == 19


class TestInterpolate:
    def test_constant(self):
        pts = [(F(k), F(5)) for k in range(4)]
        assert interpolate(pts, 0) == (F(5),)

    def test_square(self):
        pts = [(F(k), F(k * k)) for k in range(4)]
        assert interpolate(pts, 2) == (F(0), F(0), F(1))

    def test_spare_point_rejects(self):
        pts = [(F(0), F(0)), (F(1), F(1)), (F(2), F(4)), (F(3), F(10))]
        with pytest.raises(InterpolationError):
            interpolate(pts, 2)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(rationals, min_size=1, max_size=4))
    def test_roundtrip(self, coeffs):
        from ybe_forge.exact import poly_trim

        p = poly_trim(coeffs)
        bound = max(len(p) - 1, 0)
        pts = [(F(k), poly_eval(p, F(k))) for k in range(bound + 3)]
        assert interpolate(pts, bound) == p


class TestMatrixPoly:
    def test_eval_constant(self):
        m = ((F(1), F(2)), (F(3), F(4)))
        F0 = matrix_poly_from_coeffs([m])
        assert eval_matrix_poly(F0, F(17)) == m

    def test_eval_quadratic_unit(self):
        z2 = ((F(0), F(0)), (F(1), F(0)))
        Fq = matrix_poly_from_coeffs([((F(0),) * 2,) * 2, ((F(0),) * 2,) * 2, z2])
        val = eval_matrix_poly(Fq, F(3))
        assert val[1][0] == 9 and val[0][1] == 0

    def test_bad_split_rejected(self):
        with pytest.raises(ValueError):
            MatrixPoly(2, ((( ), ( )), (( ), ( ))), block_split=(2, 2))


class TestCyclo:
    def test_cyclotomic_polys(self):
        assert cyclotomic_poly(1) == (-1, 1)
        assert cyclotomic_poly(2) == (1, 1)
        assert cyclotomic_poly(4) == (1, 0, 1)
        assert cyclotomic_poly(6) == (1, -1, 1)

    def test_primitive_root_relations(self):
        phi = list(cyclotomic_poly(5))
        table = root_table(5)
        # row e is x**e mod Phi_5, so x**e - row is divisible by Phi_5; the
        # row of x**0 also reduces x**5, i.e. zeta^5 = 1
        for e, row in enumerate(table + (table[0],)):
            num = [-c for c in row] + [0] * (e + 1 - len(row))
            num[e] += 1
            exact._int_poly_divexact(num, phi)  # raises unless exact
        assert table[0] == (1, 0, 0, 0)
        assert cyclo_rational([1] * 5, 5) == 0  # full sum of 5th roots

    def test_rationality_detection(self):
        assert cyclo_rational([0, 1, 1], 3) == -1  # zeta_3 + zeta_3^2
        assert cyclo_rational([0, 1, 0], 3) is None  # zeta_3

    def test_to_complex(self):
        import cmath

        assert abs(root_complex(root_table(8)[1], 8) - cmath.exp(2j * cmath.pi / 8)) < 1e-12
        for m in range(1, 13):
            for e, row in enumerate(root_table(m)):
                want = cmath.exp(2j * cmath.pi * e / m) / m
                assert abs(root_complex(row, m, den=m) - want) < 1e-12

    def test_rat_guard(self):
        with pytest.raises(TypeError):
            rat(0.5)

    def test_rat_exponent_bounded(self):
        assert rat("2.5e3") == 2500
        assert rat("1e-1000") == F(1, 10**1000)
        for text in ("1e1001", "1e999999999", "3/4e-999999999"):
            with pytest.raises(ValueError, match="exponent"):
                rat(text)
