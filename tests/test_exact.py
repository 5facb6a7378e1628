"""Exact solvers, polynomials, interpolation, roots of unity."""

import contextlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ybe_forge import exact, heis
from ybe_forge.exact import (
    InconsistentSystemError,
    InterpolationError,
    LinearAlgebraError,
    SingularSystemError,
    det,
    eval_matrix_poly,
    interpolate,
    kernel,
    poly_add,
    poly_eval,
    poly_mul,
    poly_trim,
    rat,
    solve_multi,
)
from ybe_forge.heis import cyclotomic_poly, root_complex, root_table
from ybe_forge.jmat import build_j
from ybe_forge.verify import cyclo_rational

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)


# Dense reference forms, which the package no longer builds: an n x n
# matrix as nested tuples, and a matrix polynomial as a `MatrixPoly`.

def freeze(rows) -> tuple:
    return tuple(map(tuple, rows))


def j_matrix_rat(e, d) -> tuple:
    """J_(e,d) with Fraction entries, the form a K matrix file gives."""
    return tuple(tuple(F(v) for v in row) for row in build_j(e, d))


def mat_zero(n):
    return tuple(tuple(F(0) for _ in range(n)) for _ in range(n))


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_unit(n: int, i: int, j: int) -> tuple:
    """Matrix unit e_{i,j}, 1-based."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("unit index out of range: (%d, %d) for n=%d" % (i, j, n))
    return mat_from_entries(n, {(i, j): F(1)})


def mat_is_zero(a) -> bool:
    return not any(any(row) for row in a)


def mat_from_entries(n: int, entries: dict) -> tuple:
    """The n x n matrix of a {(i, j): value} dict with 1-based keys."""
    rows = [[F(0)] * n for _ in range(n)]
    for (i, j), v in entries.items():
        rows[i - 1][j - 1] = v
    return tuple(map(tuple, rows))


def mat_terms(m) -> dict:
    """A dense matrix as the package's {(i, j): nonzero entry}, 1-based."""
    return {(i, j): v for i, row in enumerate(m, 1) for j, v in enumerate(row, 1) if v}


@dataclass(frozen=True)
class MatrixPoly:
    """n x n matrix with polynomial entries in z, as a dense grid."""

    n: int
    entries: tuple  # n x n nested tuple of polynomials, ascending


def matrix_poly_from_entries(n: int, entries: dict) -> MatrixPoly:
    """The dense form of a {(i, j): polynomial} dict with 1-based keys, the
    package's form of a matrix polynomial."""
    rows = [[()] * n for _ in range(n)]
    for (i, j), p in entries.items():
        rows[i - 1][j - 1] = p
    return MatrixPoly(n, tuple(map(tuple, rows)))


def poly_terms(Fm: MatrixPoly) -> dict:
    """A dense matrix polynomial as {(i, j): nonzero polynomial}."""
    return {(i, j): p for i, row in enumerate(Fm.entries, 1) for j, p in enumerate(row, 1) if p}


def eval_dense(Fm: MatrixPoly, x) -> tuple:
    """Entry-wise evaluation of a dense matrix polynomial at z = x."""
    return tuple(tuple(poly_eval(p, x) if p else F(0) for p in row) for row in Fm.entries)


def matrix_poly_from_coeffs(coeff_mats):
    """The matrix polynomial with the constant matrices `coeff_mats` as its
    coefficients, index = power of z."""
    n = len(coeff_mats[0])
    return MatrixPoly(n, tuple(
        tuple(poly_trim([m[i][j] for m in coeff_mats]) for j in range(n)) for i in range(n)))


def rank(rows, ncols):
    """Rank of the matrix with {column: entry} rows `rows` and `ncols`
    columns: the pivot count of the solvers' elimination."""
    return len(exact._bareiss_echelon(exact._integer_rows(rows, ncols)[0], ncols)[1])


def _sparse(rows):
    """Dense rows as the {column: entry} rows the solvers take.  Every
    other row keeps its zeros as stored entries, so the solvers see both
    forms."""
    return [{c: v for c, v in enumerate(row) if v or i % 2} for i, row in enumerate(rows)]


def _rhs(b):
    """A dense right-hand side as a {row: entry} dict."""
    return {i: v for i, v in enumerate(b) if v}


def _dense(vecs, ncols):
    """The solvers' ({column: numerator}, den) solutions as dense tuples of
    Fractions, after checking their form: integer numerators, none zero,
    every column below `ncols`, den > 0, and lowest terms."""
    out = []
    for v, den in vecs:
        assert type(den) is int and den > 0
        assert all(type(a) is int and a and 0 <= c < ncols for c, a in v.items())
        assert math.gcd(den, *v.values()) == 1
        out.append(tuple(F(v.get(c, 0), den) for c in range(ncols)))
    return out


def _kernel(rows, ncols):
    """kernel, densified."""
    return _dense(kernel(rows, ncols), ncols)


def _solve_sparse(rows, rhs_cols, ncols):
    """solve_multi on {column: entry} rows, densified."""
    return _dense(solve_multi(rows, rhs_cols, ncols), ncols)


def _solve(rows, rhs_cols):
    """solve_multi on dense rows and right-hand sides, densified."""
    return _solve_sparse(_sparse(rows), [_rhs(b) for b in rhs_cols], len(rows[0]))


class TestSolve:
    def test_identity_system(self):
        b = (F(3), F(-1, 2), F(7))
        A = tuple(tuple(F(int(i == j)) for j in range(3)) for i in range(3))
        assert _solve(A, [b])[0] == b

    def test_two_by_two(self):
        A = ((F(1), F(1)), (F(1), F(-1)))
        assert _solve(A, [(F(2), F(0))])[0] == (F(1), F(1))

    def test_cartan_gram_n4(self):
        # Gram system of the simple coroot pairing for n = 4, re-verified
        from test_lie import basis_matrix, trace_form

        hs = [basis_matrix(("cartan", l), 4) for l in range(1, 4)]
        gram = [[trace_form(a, b) for b in hs] for a in hs]
        for l in range(3):
            rhs = [F(int(m == l)) for m in range(3)]
            x = _solve(gram, [rhs])[0]
            for m in range(3):
                got = sum(x[k] * gram[m][k] for k in range(3))
                assert got == rhs[m]

    def test_singular_reported(self):
        A = ((F(1), F(1)), (F(2), F(2)))
        with pytest.raises(SingularSystemError):
            _solve(A, [(F(0), F(0))])

    def test_inconsistent_reported(self):
        A = ((F(1), F(1)), (F(1), F(1)))
        with pytest.raises(InconsistentSystemError):
            _solve(A, [(F(0), F(1))])

    def test_overdetermined_consistent(self):
        A = ((F(1), F(0)), (F(0), F(1)), (F(1), F(1)))
        assert _solve(A, [(F(2), F(3), F(5))])[0] == (F(2), F(3))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=3, max_size=3),
           st.lists(rationals, min_size=3, max_size=3))
    def test_random_systems_resubstitute(self, rows, b):
        A = tuple(tuple(r) for r in rows)
        try:
            x = _solve(A, [b])[0]
        except (SingularSystemError, InconsistentSystemError):
            return
        for row, bi in zip(A, b):
            assert sum(a * v for a, v in zip(row, x)) == bi

    @pytest.mark.parametrize("column", [2, -1], ids=["past-end", "negative"])
    @pytest.mark.parametrize("solver", [
        kernel, rank, det, lambda rows, ncols: solve_multi(rows, [{0: F(1)}], ncols),
    ], ids=["kernel", "rank", "det", "solve_multi"])
    def test_column_outside_ncols_rejected(self, solver, column):
        """A column at or past `ncols` would be read as a right-hand side
        (or index past the column table), and a negative one would be read
        from the end."""
        rows = [{0: F(1), 1: F(2)}, {column: F(3)}]
        with pytest.raises(ValueError, match="column index outside"):
            solver(rows, 2)

    def test_rhs_row_outside_rows_rejected(self):
        rows = [{0: F(1)}, {1: F(1)}]
        for i in (2, -1):
            with pytest.raises(ValueError, match="right-hand side row"):
                solve_multi(rows, [{i: F(1)}], 2)


class TestKernel:
    def test_zero_matrix(self):
        vecs = kernel([{} for _ in range(4)], 4)
        assert len(vecs) == 4

    def test_full_rank_square(self):
        A = ((F(2), F(1)), (F(1), F(1)))
        assert kernel(_sparse(A), 2) == []

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.lists(rationals, min_size=4, max_size=4), min_size=2, max_size=3))
    def test_kernel_members_annihilate(self, rows):
        vecs = _kernel(_sparse(rows), 4)
        assert len(vecs) == 4 - rank(_sparse(rows), 4)
        for v in vecs:
            for row in rows:
                assert sum(a * b for a, b in zip(row, v)) == 0


class TestDet:
    def test_known(self):
        assert det(_sparse(((F(0), F(2)), (F(-2), F(0)))), 2) == 4
        assert det(_sparse(((F(1), F(2)), (F(2), F(4)))), 2) == 0

    def test_scaled_rows(self):
        assert det(_sparse(((F(1, 2), F(0)), (F(0), F(1, 3)))), 2) == F(1, 6)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="non-square"):
            det([{0: F(1)}], 2)


class TestSparseRows:
    """Edge cases of the {column: entry} row form, against the dense
    reference."""

    def test_empty_row(self):
        dense = [[F(1), F(2), F(0)], [F(0)] * 3, [F(0), F(1), F(1)]]
        rows = [{0: F(1), 1: F(2)}, {}, {1: F(1), 2: F(1)}]
        assert _kernel(rows, 3) == _ref_kernel(dense)
        assert rank(rows, 3) == 2
        assert det(rows, 3) == 0
        b = [F(3), F(0), F(2)]
        assert _outcome(_solve_sparse, rows, [_rhs(b)], 3) == _outcome(_ref_solve_multi, dense, [b])
        assert _outcome(solve_multi, rows, [{1: F(1)}], 3) is InconsistentSystemError

    def test_trailing_zero_columns(self):
        """`ncols` past the largest stored column: the trailing columns are
        zero and free."""
        rows = [{0: F(2), 1: F(1)}, {1: F(3)}]
        dense = [[F(2), F(1), F(0), F(0)], [F(0), F(3), F(0), F(0)]]
        assert _kernel(rows, 4) == _ref_kernel(dense)
        assert len(kernel(rows, 4)) == 2
        assert rank(rows, 4) == 2
        assert _outcome(solve_multi, rows, [{0: F(1)}], 4) is SingularSystemError

    def test_stored_zero(self):
        """A stored zero is not a nonzero: it neither adds a pivot nor
        changes the result."""
        rows = [{0: F(1), 1: F(0)}, {0: F(0), 1: F(0), 2: F(5, 3)}]
        dense = [[F(1), F(0), F(0)], [F(0), F(0), F(5, 3)]]
        assert _kernel(rows, 3) == _ref_kernel(dense) == [(F(0), F(1), F(0))]
        assert kernel(rows, 3) == [({1: 1}, 1)]
        assert rank(rows, 3) == 2
        assert det([{0: F(0), 1: F(2)}, {0: F(-2), 1: F(0)}], 2) == 4
        square = [{0: F(2), 1: F(0)}, {0: F(0), 1: F(4)}]
        assert _solve_sparse(square, [{0: F(1), 1: F(0)}], 2) == [(F(1, 2), F(0))]
        assert solve_multi(square, [{0: F(1), 1: F(0)}], 2) == [({0: 1}, 2)]

    def test_empty_matrix(self):
        assert _kernel([], 2) == [(F(1), F(0)), (F(0), F(1))]
        assert kernel([], 2) == [({0: 1}, 1), ({1: 1}, 1)]
        assert rank([], 3) == 0
        assert det([], 0) == 1


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
    """kernel, solve_multi, rank and det on {column: entry} rows against a
    plain Fraction reference on the dense rows."""

    @settings(max_examples=150, deadline=None)
    @given(rational_matrices())
    def test_kernel_rank_det_match_reference(self, rows):
        ncols = len(rows[0])
        assert _kernel(_sparse(rows), ncols) == _ref_kernel(rows)
        _, piv, factor = _gauss_jordan(rows, ncols)
        assert rank(_sparse(rows), ncols) == len(piv)
        if len(rows) == ncols:
            expected = factor if len(piv) == len(rows) else F(0)
            got = det(_sparse(rows), ncols)
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
        got = _outcome(_solve, rows, rhs_cols)
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
        A = [{0: F(1), 1: F(1, 2)}, {1: F(1), 2: F(-1, 3)}]
        with pytest.raises(LinearAlgebraError, match="kernel verification failed"):
            kernel(A, 3)
        B = [{0: F(2), 1: F(1)}, {0: F(1), 1: F(3)}, {0: F(3), 1: F(4)}]
        with pytest.raises(LinearAlgebraError, match="solve verification failed"):
            solve_multi(B, [{0: F(1), 1: F(2), 2: F(3)}], 2)

    @staticmethod
    @contextlib.contextmanager
    def _corrupted(monkeypatch, which, column):
        """A context in which `_back_substitute` adds one to entry `column`
        of its `which`-th vector alone."""
        real = exact._back_substitute

        def corrupt(*args):
            vecs = real(*args)
            vecs[which][column] = vecs[which].get(column, 0) + 1
            return vecs

        with monkeypatch.context() as m:
            m.setattr(exact, "_back_substitute", corrupt)
            yield

    @pytest.mark.parametrize("column", [0, 1])
    def test_recheck_reads_the_last_right_hand_side(self, monkeypatch, column):
        """Only the last of three solutions is off: every right-hand side is
        re-checked, not only the first."""
        B = [{0: F(2), 1: F(1)}, {0: F(1), 1: F(3)}, {0: F(3), 1: F(4)}]
        rhs = [{0: F(1), 1: F(2), 2: F(3)}, {0: F(2), 1: F(4), 2: F(6)},
               {0: F(1), 1: F(-2), 2: F(-1)}]
        A = [{0: F(1), 1: F(1, 2), 3: F(2)}, {1: F(1), 2: F(-1, 3), 4: F(1)}]
        assert len(solve_multi(B, rhs, 2)) == 3 and len(kernel(A, 5)) == 3
        with self._corrupted(monkeypatch, -1, column):
            with pytest.raises(LinearAlgebraError, match="solve verification failed"):
                solve_multi(B, rhs, 2)
            with pytest.raises(LinearAlgebraError, match="kernel verification failed"):
                kernel(A, 5)

    def test_recheck_reads_a_column_that_meets_one_row(self, monkeypatch):
        """One entry of the last solution is off, in a column that meets a
        single row: that row alone shows the error, and it is read."""
        C = [{0: F(1), 1: F(2)}, {0: F(3), 1: F(1)}, {1: F(1), 2: F(5)}]
        rhs = [{0: F(1)}, {1: F(1), 2: F(2)}]
        A = [{0: F(1), 1: F(2)}, {1: F(1), 2: F(-1), 3: F(3)}]
        assert [2 in row for row in C] == [False, False, True]
        assert [0 in row for row in A] == [True, False]
        assert len(solve_multi(C, rhs, 3)) == 2 and len(kernel(A, 4)) == 2
        with self._corrupted(monkeypatch, -1, 2):
            with pytest.raises(LinearAlgebraError, match="solve verification failed"):
                solve_multi(C, rhs, 3)
        with self._corrupted(monkeypatch, -1, 0):
            with pytest.raises(LinearAlgebraError, match="kernel verification failed"):
                kernel(A, 4)

    def test_solve_dec_makes_one_batched_solve(self, monkeypatch):
        """A cold solve_dec runs one batched split and no determinant: the
        split itself decides degeneracy."""
        from ybe_forge import stolin

        calls, dets = [], []

        def counting(rows, rhs_cols, ncols):
            calls.append(len(rhs_cols))
            return exact.solve_multi(rows, rhs_cols, ncols)

        def counting_det(rows, ncols):
            dets.append(len(rows))
            return exact.det(rows, ncols)

        monkeypatch.setattr(stolin, "solve_multi", counting)
        monkeypatch.setattr(stolin, "det", counting_det)
        stolin.solve_dec.cache_clear()
        try:
            stolin.solve_dec(1, 3, stolin.neg_j_matrix(1, 3))
        finally:
            stolin.solve_dec.cache_clear()
        assert calls == [4 * 4 - 1]
        assert dets == []


def _sparse_and_clean(rows) -> bool:
    """Every row a dict with no stored zero."""
    return all(type(row) is dict and all(row.values()) for row in rows)


class TestBuilderRows:
    """The builders hand the solvers {column: entry} rows with no stored
    zeros, and build them without dense grids."""

    @staticmethod
    def _recording(monkeypatch, module, name, seen):
        original = getattr(exact, name)

        def recording(*args):
            seen.append(args)
            return original(*args)

        monkeypatch.setattr(module, name, recording)

    @pytest.mark.parametrize("x", [F(0), F(1), F(-3, 7)])
    def test_sol_space_rows(self, x, monkeypatch):
        """The family's batched solve and the per-point reference
        elimination at x."""
        from ybe_forge import cuspidal

        solves, kernels = [], []
        self._recording(monkeypatch, cuspidal, "solve_multi", solves)
        self._recording(monkeypatch, cuspidal, "kernel", kernels)
        cuspidal.sol_family.cache_clear()
        try:
            for e, d in ((1, 1), (3, 2), (2, 5)):
                cuspidal.sol_space(e, d, x)
                cuspidal.point_sol_space(e, d, x)
        finally:
            cuspidal.sol_family.cache_clear()
        assert len(solves) == 3 and len(kernels) == 3
        for rows, rhs_cols, _ in solves:
            assert _sparse_and_clean(rows) and _sparse_and_clean(rhs_cols)
        assert all(_sparse_and_clean(rows) for rows, _ in kernels)

    def test_frobenius_rows(self, monkeypatch):
        from ybe_forge import stolin

        dets, solves = [], []
        self._recording(monkeypatch, stolin, "det", dets)
        self._recording(monkeypatch, stolin, "solve_multi", solves)
        # diagonal entries make [K^t, h_l] cancel inside its bracket terms
        K = ((F(1), F(1), F(0), F(0)), (F(0), F(2), F(1, 2), F(0)),
             (F(-1), F(0), F(1), F(1)), (F(0), F(0), F(0), F(1)))
        for e in (1, 2, 3):
            form = stolin.frobenius_gram(K, e)
            assert (form.determinant != 0) == (e != 2)
            if form.determinant:
                stolin.frobenius_splits([{(1, 2): F(1)}, {(1, 1): F(1), (4, 4): F(-1)}], K, e)
        stolin.solve_dec.cache_clear()
        try:
            stolin.solve_dec(1, 3, stolin.neg_j_matrix(1, 3))
        finally:
            stolin.solve_dec.cache_clear()
        assert len(dets) == 3 and len(solves) == 3
        assert all(_sparse_and_clean(rows) for rows, _ in dets)
        for rows, rhs_cols, _ in solves:
            assert _sparse_and_clean(rows) and _sparse_and_clean(rhs_cols)

    def test_solve_dec_without_dense_grids(self, monkeypatch):
        """A cold solve_dec builds its targets from `basis_terms` and the
        nonzeros of K, and its elements from the nonzero split coordinates:
        the only dense matrix on its way is K, and every basis matrix it
        reads holds one or two entries."""
        from ybe_forge import lie, stolin

        units = []
        monkeypatch.setattr(stolin, "basis_terms", lambda *a, _f=stolin.basis_terms:
                            units.append(_f(*a)) or units[-1])
        solves = []
        self._recording(monkeypatch, stolin, "solve_multi", solves)
        K = stolin.neg_j_matrix(2, 3)
        stolin.solve_dec.cache_clear()
        try:
            w = stolin.solve_dec(2, 3, K)
        finally:
            stolin.solve_dec.cache_clear()
        assert units and all(type(u) is dict and 1 <= len(u) <= 2 for u in units)
        [(rows, rhs_cols, _)] = solves
        assert _sparse_and_clean(rows) and _sparse_and_clean(rhs_cols)
        # one element per target, 5 * 5 - 1 of them, but for the two zero
        # targets -[K^t, e_{j,i}] of region I
        assert w.parts.keys() <= {(lbl, k) for lbl in lie.sl_basis(5) for k in (0, 1)}
        assert len(w.parts) == 5 * 5 - 3

    def test_series_rows_without_dense_grids(self, monkeypatch):
        """The order's elements are {degree: {(i, j): entry}} dicts with no
        zero and no empty degree, and series_r stores exactly their entries
        of negative degree in its rows: no dense grid is scanned."""
        from ybe_forge import stolin

        order = stolin.build_order(j_matrix_rat(2, 1), 2, 1)  # degrees -4 .. 1
        assert all(w and all(m and all(m.values()) for m in w.values())
                   for w in order.elements)
        solves = []
        self._recording(monkeypatch, stolin, "solve_multi", solves)
        stolin.series_r(order, F(1, 3), F(2))
        [(rows, rhs_cols, ncols)] = solves
        assert ncols == len(order.elements)
        assert _sparse_and_clean(rows) and _sparse_and_clean(rhs_cols)
        assert sum(map(len, rows)) == sum(
            len(m) for w in order.elements for deg, m in w.items() if deg < 0)


def _entry(rng):
    return F(rng.randint(-9, 9) or 1, rng.randint(1, 6))


def _random_matrix(rng, nrows, ncols, density):
    return [[_entry(rng) if rng.random() < density else F(0) for _ in range(ncols)]
            for _ in range(nrows)]


def _low_rank(rng, nrows, ncols, k, density):
    B = _random_matrix(rng, nrows, k, density)
    C = _random_matrix(rng, k, ncols, density)
    return [[sum((B[i][t] * C[t][j] for t in range(k)), F(0)) for j in range(ncols)]
            for i in range(nrows)]


def _block_arrow(rng, sizes, coupling):
    """Block-diagonal dense blocks plus `coupling` dense last columns and
    last rows, rows shuffled.  The rows of a later block stay untouched
    while the earlier blocks are eliminated, and every row is touched
    again in the coupling columns, so rows are rescaled lazily across many
    pivot steps."""
    n = sum(sizes) + coupling
    rows = [[F(0)] * n for _ in range(n)]
    start = 0
    for size in sizes:
        for i in range(start, start + size):
            for j in range(start, start + size):
                rows[i][j] = _entry(rng)
        start += size
    for i in range(n):
        for j in range(start, n):
            rows[i][j] = _entry(rng)
            rows[j][i] = _entry(rng)
    rng.shuffle(rows)
    return rows


def _perm_sign(perm):
    inversions = sum(perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm)))
    return -1 if inversions % 2 else 1


def _check_against_oracle(rows):
    ncols = len(rows[0])
    assert _kernel(_sparse(rows), ncols) == _ref_kernel(rows)
    _, piv, factor = _gauss_jordan(rows, ncols)
    assert rank(_sparse(rows), ncols) == len(piv)
    if len(rows) == ncols:
        assert det(_sparse(rows), ncols) == (factor if len(piv) == len(rows) else F(0))


class TestSolverContract:
    """`kernel` and `solve_multi` return each solution as
    ({column: numerator}, den): integer numerators, none zero, over an
    integer den > 0, in lowest terms.  A kernel vector holds den at its
    free column and nothing at the other free columns; a solution of
    `solve_multi` holds no column at or past `ncols`."""

    @staticmethod
    def _assert_lowest_terms(v, den):
        assert type(den) is int and den > 0
        assert all(type(a) is int and a != 0 for a in v.values())
        assert math.gcd(den, *v.values()) == 1

    @settings(max_examples=150, deadline=None)
    @given(rational_matrices())
    def test_kernel(self, rows):
        ncols = len(rows[0])
        _, piv, _ = _gauss_jordan(rows, ncols)
        free = [c for c in range(ncols) if c not in piv]
        vecs = kernel(_sparse(rows), ncols)
        assert len(vecs) == len(free)
        for f, (v, den) in zip(free, vecs):
            self._assert_lowest_terms(v, den)
            assert v[f] == den
            assert set(v).isdisjoint(set(free) - {f})
            assert all(0 <= c < ncols for c in v)

    @pytest.mark.parametrize("shape", [(4, 4), (7, 7), (9, 5), (12, 6)])
    def test_solve_multi(self, shape):
        rng = random.Random(shape[0] * 17 + shape[1])
        nrows, ncols = shape
        solved = 0
        for density in (1.0, 0.4, 0.15):
            for _ in range(4):
                rows = _sparse(_random_matrix(rng, nrows, ncols, density))
                xs = [{c: _entry(rng) for c in range(ncols) if rng.random() < 0.6} for _ in range(3)]
                rhs = [{} for _ in xs]  # b = A x, and b = 0
                for b, x in zip(rhs, xs):
                    for i, row in enumerate(rows):
                        if v := sum((a * x[c] for c, a in row.items() if c in x), F(0)):
                            b[i] = v
                try:
                    sols = solve_multi(rows, rhs + [{}], ncols)
                except SingularSystemError:
                    continue
                solved += 1
                for v, den in sols:
                    self._assert_lowest_terms(v, den)
                    assert all(0 <= c < ncols for c in v)
                assert [{c: F(a, den) for c, a in v.items()} for v, den in sols] == xs + [{}]
                assert sols[-1] == ({}, 1)
        assert solved >= 4


class TestSeededOracle:
    """det, rank, kernel and solve_multi on {column: entry} rows against the
    Fraction Gauss-Jordan oracle on the dense rows of seeded random rational
    matrices: dense and sparse; square, wide and tall; full rank,
    rank-deficient, singular and inconsistent."""

    SHAPES = [(6, 6), (9, 9), (4, 9), (3, 12), (9, 4), (12, 5)]

    @pytest.mark.parametrize("density", [1.0, 0.35, 0.12])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_random(self, shape, density):
        rng = random.Random(1000 * shape[0] + 10 * shape[1] + int(100 * density))
        for _ in range(6):
            _check_against_oracle(_random_matrix(rng, *shape, density))

    @pytest.mark.parametrize("density", [1.0, 0.4])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_rank_deficient(self, shape, density):
        rng = random.Random(sum(shape) * 31 + int(10 * density))
        for k in range(min(shape)):
            _check_against_oracle(_low_rank(rng, *shape, k, density))

    def test_lazy_rescale_block_arrow(self):
        rng = random.Random(7)
        for sizes, coupling in [((3, 4, 2, 5), 2), ((1, 1, 1, 1, 1, 1), 1), ((4, 4, 4), 3),
                                ((2, 6), 0), ((5, 1, 3), 4)]:
            rows = _block_arrow(rng, sizes, coupling)
            _check_against_oracle(rows)
            _check_against_oracle(_low_rank(rng, len(rows), len(rows), len(rows) - 2, 0.3))
            b = [_entry(rng) for _ in rows]
            assert _solve(rows, [b]) == _ref_solve_multi(rows, [b])

    def test_row_permutation_sign(self):
        rng = random.Random(11)
        for n in (2, 3, 5, 8, 11):
            for density in (1.0, 0.3):
                rows = _random_matrix(rng, n, n, density)
                for _ in range(4):
                    perm = list(range(n))
                    rng.shuffle(perm)
                    permuted = [rows[p] for p in perm]
                    assert det(_sparse(permuted), n) == _perm_sign(perm) * det(_sparse(rows), n)
                    _check_against_oracle(permuted)

    @pytest.mark.parametrize("shape", [(5, 5), (8, 8), (9, 5), (12, 6)])
    def test_solve_multi(self, shape):
        rng = random.Random(shape[0] * 100 + shape[1])
        nrows, ncols = shape
        for density in (1.0, 0.3):
            for k in (ncols, ncols - 1, ncols - 3):  # full rank, singular
                rows = _low_rank(rng, nrows, ncols, k, density)
                x = [_entry(rng) for _ in range(ncols)]
                consistent = [sum((a * v for a, v in zip(row, x)), F(0)) for row in rows]
                arbitrary = [_entry(rng) for _ in range(nrows)]  # mostly inconsistent
                for rhs in ([consistent], [arbitrary], [consistent, arbitrary], [consistent] * 3):
                    assert _outcome(_solve, rows, rhs) == _outcome(_ref_solve_multi, rows, rhs)


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
        m = {(1, 1): F(1), (1, 2): F(2), (2, 1): F(3), (2, 2): F(4)}
        assert eval_matrix_poly({ij: (v,) for ij, v in m.items()}, F(17)) == m

    def test_eval_quadratic_unit(self):
        assert eval_matrix_poly({(2, 1): (F(0), F(0), F(1))}, F(3)) == {(2, 1): 9}

    def test_eval_drops_zero_values(self):
        """An entry that vanishes at x is not stored: z - 2 at z = 2."""
        assert eval_matrix_poly({(1, 2): (F(-2), F(1)), (2, 1): (F(5),)}, F(2)) == {(2, 1): 5}

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.dictionaries(st.tuples(st.integers(1, 3), st.integers(1, 3)),
                           st.lists(rationals, min_size=1, max_size=3).map(poly_trim)
                           .filter(bool), max_size=6), rationals)
    def test_eval_is_the_dense_scan(self, entries, x):
        dense = eval_dense(matrix_poly_from_entries(3, entries), x)
        assert mat_from_entries(3, eval_matrix_poly(entries, x)) == dense


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
            heis._int_poly_divexact(num, phi)  # raises unless exact
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
        assert rat("1e1_000") == 10**1000  # Fraction reads "_" between digits
        for text in ("1e1001", "1e999999999", "3/4e-999999999", "1e2_000", "1e-2_000",
                     "1E+1_0_0_1 "):
            with pytest.raises(ValueError, match="exponent"):
                rat(text)
