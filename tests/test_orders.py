"""Loop-algebra pairing, Lagrangian subalgebra bases, dual-basis series."""

from fractions import Fraction as F

import pytest

from conftest import quadrant
from test_exact import j_matrix_rat, mat_from_entries, mat_terms, rank
from test_lie import basis_matrix, dual_matrix, trace_form
from test_stolin import w_of
from ybe_forge import stolin
from ybe_forge.exact import ONE, ZERO
from ybe_forge.jmat import build_j
from ybe_forge.lie import casimir, sl_basis
from ybe_forge.stolin import (
    OrderBasis,
    TruncationError,
    assemble_stolin_r,
    build_order,
    series_r,
    solve_dec,
)
from ybe_forge.verify import geometric_pole_partial, yang_order

# A Laurent polynomial with gl(n) coefficients is {degree: {(i, j): entry}},
# the form of `OrderBasis.elements`.


def kac_pairing(a, b, n):
    """Residue at z = 0 of tr(a b) for two Laurent polynomials: the degree
    -1 coefficient of the product, through dense matrices."""
    total = ZERO
    for p, mp in a.items():
        mq = b.get(-1 - p)
        if mq is not None:
            total += trace_form(mat_from_entries(n, mp), mat_from_entries(n, mq))
    return total


def laurent(mats: dict) -> dict:
    """The Laurent polynomial with the dense coefficients {degree: matrix}."""
    return {k: mat_terms(m) for k, m in mats.items()}


class TestKacPairing:
    def test_unit_residue(self):
        a = laurent({-1: basis_matrix(("unit", 1, 2), 2)})
        b = laurent({0: basis_matrix(("unit", 2, 1), 2)})
        assert kac_pairing(a, b, 2) == 1
        assert kac_pairing(b, a, 2) == 1

    def test_polynomials_pair_to_zero(self):
        a = laurent({0: basis_matrix(("unit", 1, 2), 2), 1: basis_matrix(("cartan", 1), 2)})
        b = laurent({0: basis_matrix(("unit", 2, 1), 2)})
        assert kac_pairing(a, b, 2) == 0

    def test_yang_duality_table(self):
        for k in range(3):
            for kp in range(3):
                for l1 in sl_basis(2):
                    for l2 in sl_basis(2):
                        a = laurent({k: basis_matrix(l1, 2)})
                        b = laurent({-kp - 1: dual_matrix(l2, 2)})
                        want = ONE if (k == kp and l1 == l2) else ZERO
                        assert kac_pairing(a, b, 2) == want


def _window_span_rank(ob, n):
    lo, hi = -(ob.k_max + 3), 1
    rows = []
    for w in ob.elements:
        rows.append(
            [w.get(k, {}).get((i, j), ZERO)
             for k in range(lo, hi + 1) for i in range(1, n + 1) for j in range(1, n + 1)]
        )
    for k in range(0, hi + 1):
        for lbl in sl_basis(n):
            m = basis_matrix(lbl, n)
            rows.append(
                [(m[i][j] if kk == k else ZERO)
                 for kk in range(lo, hi + 1) for i in range(n) for j in range(n)]
            )
    sparse = [{c: v for c, v in enumerate(row) if v} for row in rows]
    return rank(sparse, len(rows[0])), (hi - lo + 1) * (n * n - 1)


class TestBuildOrder:
    def test_window_too_small(self):
        """The window is read off k_max, so only a negative k_max can make
        it too small, and it is refused."""
        with pytest.raises(ValueError, match=r"^need k_max >= 0, got -1$"):
            build_order(j_matrix_rat(1, 1), 1, -1)

    def test_size_comes_from_k(self):
        """A 3 x 3 K builds the order of sl(3), with no n given beside it."""
        ob = build_order(build_j(1, 2), 1, 0)
        assert (ob.n, ob.k_max, len(ob.elements)) == (3, 0, 24)
        assert _window_span_rank(ob, 3) == (40, 40)  # 5 degrees of sl(3)

    @pytest.mark.parametrize("e,d", [(1, 1), (2, 1), (1, 2)])
    def test_sandwich(self, e, d):
        n = e + d
        ob = build_order(j_matrix_rat(e, d), e, 1)
        for w in ob.elements:
            assert w and all(m and all(m.values()) for m in w.values())
            for deg, m in w.items():
                assert -4 <= deg <= 1
                for (i, j) in m:
                    reg = quadrant(i, j, e)
                    cap = 1 if reg == "I" else -1 if reg == "III" else 0
                    assert deg <= cap

    @pytest.mark.parametrize("e,d", [(1, 1), (2, 1), (1, 2)])
    def test_isotropy(self, e, d):
        n = e + d
        ob = build_order(j_matrix_rat(e, d), e, 1)
        for u in ob.elements:
            for v in ob.elements:
                assert kac_pairing(u, v, n) == 0

    @pytest.mark.parametrize("e,d", [(1, 1), (2, 1), (1, 2)])
    def test_complementarity(self, e, d):
        n = e + d
        ob = build_order(j_matrix_rat(e, d), e, 1)
        got, want = _window_span_rank(ob, n)
        assert got == want


class TestSeries:
    @pytest.mark.parametrize("n", [2, 3])
    def test_yang_series_is_pure_pole(self, n):
        x, y = F(1, 3), F(2)
        sr = series_r(yang_order(n, 6), x, y)
        assert sr.tensor == geometric_pole_partial(n, 6, x, y)
        assert sr.parts.keys() == {(lbl, k) for lbl in sl_basis(n) for k in range(7)}
        assert all(parts == {} for parts in sr.parts.values())

    @pytest.mark.parametrize("e,d", [(1, 1), (2, 1), (1, 2)])
    def test_series_matches_dec_assembly(self, e, d):
        n = e + d
        k_max = 6
        K = j_matrix_rat(e, d)
        x, y = F(1, 3), F(2)
        sr = series_r(build_order(K, e, k_max), x, y)
        ws = solve_dec(e, d, K)
        series = stolin.WElementSet(n, sr.parts)
        for lbl in sl_basis(n):
            for k in range(k_max + 1):
                got = sr.parts[lbl, k]
                if k <= 1:
                    assert w_of(series, lbl, k) == w_of(ws, lbl, k)
                    assert got == ws.parts.get((lbl, k), {})
                else:
                    assert got == {}
        expected = (
            assemble_stolin_r(e, d, K, x, y)
            .sub(casimir(n).scale(ONE / (y - x)))
            .add(geometric_pole_partial(n, k_max, x, y))
        )
        assert sr.tensor == expected

    def test_unsolvable_dual_is_a_truncation_error(self):
        """An order missing an element leaves a dual element without a
        solution: the solver's failure is reported as TruncationError."""
        ob = yang_order(2, 1)
        with pytest.raises(TruncationError, match="not solvable"):
            series_r(OrderBasis(ob.n, ob.k_max, ob.elements[1:]), F(1, 3), F(2))

    def test_other_errors_propagate(self, monkeypatch):
        """Only a solver failure becomes TruncationError; any other error
        reaches the caller as it was raised."""
        def broken(*args):
            raise RuntimeError("injected")

        monkeypatch.setattr(stolin, "solve_multi", broken)
        with pytest.raises(RuntimeError, match="injected") as caught:
            series_r(yang_order(2, 1), F(1, 3), F(2))
        assert caught.type is RuntimeError

    def test_pole_point_rejected(self):
        with pytest.raises(ValueError):
            series_r(yang_order(2, 1), F(1, 3), F(0))
