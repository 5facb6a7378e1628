"""Parabolic pipeline: Frobenius structure, dec solves, assembly, the closed
d=1 formula, and the cross-pipeline comparison."""

import hashlib
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_bit_for_bit import POINTS, entries_text
from test_cuspidal import (
    TABLE_PAIRS,
    bumped,
    coeff_matrix,
    spy_tensor_products,
    table_mismatches,
)
from conftest import quadrant
from test_exact import (
    MatrixPoly,
    eval_dense,
    freeze,
    j_matrix_rat,
    mat_add,
    mat_from_entries,
    mat_is_zero,
    mat_terms,
    mat_unit,
    mat_zero,
    matrix_poly_from_coeffs,
    matrix_poly_from_entries,
    poly_terms,
)
from test_lie import basis_matrix, cartan_dual, dense_tensor_from_pairs
from ybe_forge import stolin
from ybe_forge.cuspidal import assemble_r
from ybe_forge.exact import ONE, ZERO
from ybe_forge.jmat import G_ELEMENTS_CACHE_MAX, build_j
from ybe_forge.lie import (
    apply_gauge,
    cybe_residual_two_variable,
    is_unitary_pair,
    transpose_negate_map,
)
from ybe_forge.stolin import (
    DegenerateFormError,
    assemble_stolin_r,
    compare_pipelines,
    frobenius_gram,
    frobenius_split,
    frobenius_splits,
    neg_j_matrix,
    parabolic_labels,
    solve_dec,
)
from ybe_forge.table import POLE, casimir, dual_terms, sl_basis, tensor_table
from ybe_forge.proofs import closed_form_d1, flip_transpose_gauge
from ybe_forge.verify import _coprime_pairs, scale


def mat_bracket(a, b):
    """[a, b] of two dense matrices."""
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] - b[i][k] * a[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def omega_pairing(K, a, b):
    """omega_K(a, b) = tr(K^t [a, b]), the form `frobenius_gram` tabulates."""
    br = mat_bracket(a, b)
    n = len(K)
    return sum(K[i][j] * br[i][j] for i in range(n) for j in range(n))


def dense_gram(rows) -> tuple:
    """The sparse Gram rows of `frobenius_gram` as a dense nested tuple."""
    cols = range(len(rows))
    return tuple(tuple(row.get(c, ZERO) for c in cols) for row in rows)


def _dense_bracket_kt(K, lbl, n) -> dict:
    """[K^t, B] as {(i, j): nonzero entry}, 1-based, from a scan of the
    dense matrix of B and of a whole row and column of K per unit of B:
    the reference of `stolin._bracket_kt_terms`."""
    out: dict = {}
    B = basis_matrix(lbl, n)
    units = [(i, j, B[i - 1][j - 1]) for i in range(1, n + 1) for j in range(1, n + 1)
             if B[i - 1][j - 1]]
    for i, j, sign in units:
        for r in range(1, n + 1):
            if K[i - 1][r - 1]:
                v = K[i - 1][r - 1] if sign > 0 else -K[i - 1][r - 1]
                out[r, j] = out[r, j] + v if (r, j) in out else v
        for c in range(1, n + 1):
            if K[c - 1][j - 1]:
                v = -K[c - 1][j - 1] if sign > 0 else K[c - 1][j - 1]
                out[i, c] = out[i, c] + v if (i, c) in out else v
    return {key: v for key, v in out.items() if v}


def w_of(ws, label, k) -> MatrixPoly:
    """w_(label;k) of `solve_dec` as a matrix polynomial, from its parts; a
    key with no parts is the zero element."""
    parts = ws.parts.get((label, k), {})
    return matrix_poly_from_coeffs([mat_from_entries(ws.n, parts.get(m, {})) for m in (0, 1)])


def w_elements(ws) -> dict:
    """Every w_(label;k), k = 0, 1, the zero elements included."""
    return {(label, k): w_of(ws, label, k) for label in sl_basis(ws.n) for k in (0, 1)}


def coeff_terms(w) -> dict:
    """{m: {(i, j): nonzero z^m coefficient}}, 1-based, from a scan of all
    n^2 entries of the matrix polynomial w."""
    out: dict = {}
    for i, row in enumerate(w.entries, 1):
        for j, p in enumerate(row, 1):
            for m, c in enumerate(p):
                if c:
                    out.setdefault(m, {})[i, j] = c
    return out


def reference_elements(e, d, K) -> dict:
    """The elements of the dec solves through dense brackets and matrix
    polynomials: targets from `_dense_bracket_kt`, one batched split, and
    each w assembled as P with its upper-right block replaced by -N, plus z
    times that block of P; the zero elements included.  The reference of
    `solve_dec`."""
    n = e + d
    zero = matrix_poly_from_entries(n, {})
    out = {(label, k): zero for label in sl_basis(n) for k in (0, 1)}
    targets = {}
    for label in sl_basis(n):
        if label[0] == "cartan":
            targets[label, 0] = mat_terms(basis_matrix(label, n))
            continue
        _, i, j = label
        reg = quadrant(i, j, e)
        if reg == "I":
            targets[label, 0] = {key: -v for key, v in _dense_bracket_kt(K, ("unit", j, i), n).items()}
            targets[label, 1] = {(j, i): ONE}
        elif reg != "III":
            targets[label, 0] = {(j, i): ONE}
    for key, (P, N) in zip(targets, frobenius_splits(list(targets.values()), K, e)):
        Pm, Nm = mat_from_entries(n, P), mat_from_entries(n, N)
        const = [[-Nm[r][c] if quadrant(r + 1, c + 1, e) == "I" else Pm[r][c]
                  for c in range(n)] for r in range(n)]
        lin = [[Pm[r][c] if quadrant(r + 1, c + 1, e) == "I" else ZERO
                for c in range(n)] for r in range(n)]
        out[key] = matrix_poly_from_coeffs([freeze(const), freeze(lin)])
    return out


def reference_table(n, elements):
    """The table of r(x, y) read off matrix-polynomial elements through
    `coeff_terms`: the reference of `WElementSet.table`."""
    pairs = []
    for (label, k), w in elements.items():
        first = {label[1:]: ONE} if label[0] == "unit" else dual_terms(label, n)
        pairs += [(first, second, (0, k, m)) for m, second in coeff_terms(w).items()]
    return tensor_table(n, pairs)


def test_bracket_kt_terms_is_the_dense_scan():
    """From K's nonzeros read once, every bracket equals the dense scan,
    entries and order, for every coprime pair with e + d <= 12 at J, -J
    and a sparse random K."""
    rng = random.Random(12)
    for (e, d) in _coprime_pairs(12):
        n = e + d
        sparse = tuple(tuple(F(rng.randint(-5, 5), rng.randint(1, 3)) if rng.random() < 0.3
                             else ZERO for _ in range(n)) for _ in range(n))
        for K in (j_matrix_rat(e, d), neg_j_matrix(e, d), sparse):
            kn = stolin._k_nonzeros(K)
            for lbl in sl_basis(n):
                assert list(stolin._bracket_kt_terms(kn, lbl).items()) == list(
                    _dense_bracket_kt(K, lbl, n).items())


class TestFrobeniusGram:
    def test_n2_golden(self):
        rows, det = frobenius_gram(j_matrix_rat(1, 1), 1)
        assert parabolic_labels(1, 2) == (("cartan", 1), ("unit", 1, 2))
        assert rows == ({1: F(2)}, {0: F(-2)})
        assert det == 4

    def test_gram_is_the_pairing(self, rng):
        """Each Gram entry is omega_K of its two basis elements, for random
        dense K, including zeros on the diagonal."""
        for e, n in [(1, 2), (2, 3), (1, 4), (3, 5)]:
            K = tuple(tuple(F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n))
                      for _ in range(n))
            basis = [basis_matrix(lbl, n) for lbl in parabolic_labels(e, n)]
            want = tuple(tuple(omega_pairing(K, a, b) for b in basis) for a in basis)
            rows, _ = frobenius_gram(K, e)
            assert dense_gram(rows) == want

    @pytest.mark.parametrize("e,d", [(1, 1), (2, 3), (5, 2), (1, 6)])
    def test_j_sources_hold_integers(self, e, d):
        """+J and -J reach `solve_dec` as J's own integers, with no
        Fraction built from them."""
        for K in (build_j(e, d), neg_j_matrix(e, d)):
            assert len(K) == e + d and all(type(row) is tuple for row in K)
            assert all(type(v) is int for row in K for v in row)
        assert neg_j_matrix(e, d) == tuple(tuple(-v for v in row) for row in build_j(e, d))

    @pytest.mark.parametrize("e,d", [(1, 1), (1, 2), (2, 3), (5, 2), (1, 6)])
    def test_integer_j_gives_integer_rows(self, e, d):
        """J's 0/1 integers give integer Gram rows (what `verify`'s goldens
        eliminate); the Fraction form of J gives Fraction rows, equal to
        them, with the same determinant, that of the form on sl(n) for
        n = len(K): 9 at J(1, 2)."""
        ints, int_det = frobenius_gram(build_j(e, d), e)
        assert len(ints) == len(parabolic_labels(e, e + d))
        fracs, frac_det = frobenius_gram(j_matrix_rat(e, d), e)
        assert all(type(v) is int for row in ints for v in row.values())
        assert all(type(v) is F for row in fracs for v in row.values())
        assert ints == fracs
        assert int_det == frac_det == (e + d) ** 2

    def test_zero_matrix_degenerate(self):
        _, det = frobenius_gram(tuple((ZERO,) * 2 for _ in range(2)), 1)
        assert det == 0

    def test_ragged_k_rejected(self):
        """Every reader of K's entries refuses a K that is not square with
        one line, instead of reading it as the sl(len(K)) it is not."""
        K = ((0, 1), (0, 0, 0))
        for read in (lambda: frobenius_gram(K, 1), lambda: stolin.build_order(K, 1, 0),
                     lambda: frobenius_splits([], K, 1)):
            with pytest.raises(ValueError, match=r"^K must be square, got rows of lengths "
                                                 r"\[2, 3\]$"):
                read()

    def test_parabolic_dimension(self):
        for (e, n) in [(1, 2), (2, 3), (1, 3), (3, 5), (2, 5)]:
            d = n - e
            want = n * n - e * d - 1
            assert len(parabolic_labels(e, n)) == want
            for m in (basis_matrix(lbl, n) for lbl in parabolic_labels(e, n)):
                assert sum(m[i][i] for i in range(n)) == 0
                for i in range(e, n):
                    for j in range(e):
                        assert m[i][j] == 0

    def test_cocycle_identity(self, rng):
        # coboundaries are cocycles; asserted on random parabolic triples
        e, n = 2, 3
        basis = [basis_matrix(lbl, n) for lbl in parabolic_labels(e, n)]
        K = j_matrix_rat(2, 1)

        def rand_p():
            m = mat_zero(n)
            for b in basis:
                c = F(rng.randint(-3, 3))
                m = mat_add(m, tuple(tuple(c * v for v in row) for row in b))
            return m

        for _ in range(200):
            a, b, c = rand_p(), rand_p(), rand_p()
            total = (
                omega_pairing(K, mat_bracket(a, b), c)
                + omega_pairing(K, mat_bracket(b, c), a)
                + omega_pairing(K, mat_bracket(c, a), b)
            )
            assert total == 0


def dense_split(G, K, e):
    """`frobenius_split` of the dense G, with P and N dense."""
    P, N = frobenius_split(mat_terms(G), K, e)
    return mat_from_entries(len(K), P), mat_from_entries(len(K), N)


class TestFrobeniusSplit:
    def test_nilpotent_input_maps_to_itself(self):
        assert frobenius_split({(1, 2): ONE}, j_matrix_rat(1, 1), 1) == ({}, {(1, 2): ONE})

    def test_reconstruction_random(self, rng):
        for (e, d) in [(1, 1), (2, 1), (2, 3), (4, 1)]:
            n = e + d
            K = j_matrix_rat(e, d)
            Kt = tuple(zip(*K))
            for _ in range(5):
                G = [[F(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
                tr = sum(G[i][i] for i in range(n))
                G[0][0] -= tr
                G = freeze(G)
                P, N = dense_split(G, K, e)
                assert mat_add(mat_bracket(Kt, P), N) == G
                # P parabolic, N strictly upper-right block
                for i in range(e, n):
                    for j in range(e):
                        assert P[i][j] == 0
                for i in range(n):
                    for j in range(n):
                        if quadrant(i + 1, j + 1, e) != "I":
                            assert N[i][j] == 0

    def test_n2_unit_case(self):
        G = mat_unit(2, 2, 1)
        P, N = dense_split(G, j_matrix_rat(1, 1), 1)
        Kt = ((F(0), F(0)), (F(1), F(0)))
        assert mat_add(mat_bracket(Kt, P), N) == G

    def test_degenerate_form_raises(self):
        with pytest.raises(DegenerateFormError):
            frobenius_split({(1, 2): ONE}, tuple((ZERO,) * 2 for _ in range(2)), 1)


def _w_blocks(w, e, n):
    """(A|B / 0|D) from the constant part and the z-part upper block of w."""
    const = coeff_matrix(w, 0)
    lin = coeff_matrix(w, 1)
    P_blocks = [[const[i][j] if quadrant(i + 1, j + 1, e) != "I" else ZERO
                 for j in range(n)] for i in range(n)]
    B = [[const[i][j] if quadrant(i + 1, j + 1, e) == "I" else ZERO
          for j in range(n)] for i in range(n)]
    Btilde = [[lin[i][j] for j in range(n)] for i in range(n)]
    return freeze(P_blocks), freeze(B), freeze(Btilde)


def _assert_block_equations(e, d, K):
    """Each quadruple solve_dec(e, d, K) solves satisfies its decomposition
    equation written out in explicit block form."""
    n = e + d
    Kt = tuple(zip(*K))
    ws = solve_dec(e, d, K)
    for label in sl_basis(n):
        if label[0] == "unit":
            _, i, j = label
            reg = quadrant(i, j, e)
            target = mat_unit(n, j, i)
        else:
            reg = "cartan"
            target = basis_matrix(label, n)
        if label[0] == "unit" and reg == "III":
            continue
        w0 = w_of(ws, label, 0)
        P0, B0, Bt0 = _w_blocks(w0, e, n)
        mixed0 = mat_add(P0, Bt0)  # (A | Btilde / 0 | D)
        if label[0] == "cartan" or reg in ("II", "IV"):
            # target - [K^t, (A|Btilde/0|D)] + (0|B/0|0) = 0
            resid = mat_add(mat_sub(target, mat_bracket(Kt, mixed0)), B0)
            assert mat_is_zero(resid), (label, 0)
            assert (label, 1) not in ws.parts
        else:  # region I carries two equations, order 0 and order 1
            lhs = mat_bracket(Kt, mat_add(target, mixed0))
            assert lhs == B0, (label, 0)
            w1 = w_of(ws, label, 1)
            P1, B1, Bt1 = _w_blocks(w1, e, n)
            mixed1 = mat_add(P1, Bt1)
            resid = mat_add(mat_sub(target, mat_bracket(Kt, mixed1)), B1)
            assert mat_is_zero(resid), (label, 1)


def _dense_k(e, d):
    """A seeded cocycle matrix with no zero entry."""
    rng = random.Random(31 * e + d)
    n = e + d
    return freeze([[F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
                    for _ in range(n)] for _ in range(n)])


def _assert_reference_route(e, d, K):
    """solve_dec(e, d, K) stores no empty part and no zero coefficient, and
    its elements and table are those of the matrix-polynomial route."""
    ws = solve_dec(e, d, K)
    assert all(parts and all(terms and all(terms.values()) for terms in parts.values())
               for parts in ws.parts.values())
    ref = reference_elements(e, d, K)
    assert w_elements(ws) == ref
    assert ws.table == reference_table(e + d, ref)


class TestSolveDec:
    def test_region_three_vanishes(self):
        ws = solve_dec(2, 1, j_matrix_rat(2, 1))
        for (i, j) in [(3, 1), (3, 2)]:
            assert (("unit", i, j), 0) not in ws.parts
            assert (("unit", i, j), 1) not in ws.parts

    def test_n2_explicit_solution(self):
        ws = solve_dec(1, 1, j_matrix_rat(1, 1))
        # order-0 dual-Cartan correction: -z e_{1,2}
        w = w_of(ws, ("cartan", 1), 0)
        assert coeff_matrix(w, 0) == mat_zero(2)
        assert coeff_matrix(w, 1) == mat_from_entries(2, {(1, 2): -ONE})
        # order-1 upper-unit correction: h/2
        w1 = w_of(ws, ("unit", 1, 2), 1)
        assert coeff_matrix(w1, 0) == mat_from_entries(2, {(1, 1): F(1, 2), (2, 2): F(-1, 2)})
        assert coeff_matrix(w1, 1) == mat_zero(2)

    @pytest.mark.parametrize("e,d", [(1, 1), (2, 1), (1, 2), (3, 2), (2, 3)])
    def test_equations_resubstitute_in_block_form(self, e, d):
        """Each solved quadruple satisfies its decomposition equation written
        out in explicit block form."""
        _assert_block_equations(e, d, j_matrix_rat(e, d))

    @pytest.mark.parametrize("e,d", [(2, 1), (1, 2), (3, 2), (2, 3), (1, 4)])
    def test_equations_resubstitute_at_a_dense_k(self, e, d):
        """The same at a K with no zero entry, where the split coordinates
        of a region I element are nonzero both in N and in P's upper-right
        block (at K = +-J, for every pair with n <= 9, they never are)."""
        K = _dense_k(e, d)
        assert frobenius_gram(K, e)[1] != 0
        _assert_block_equations(e, d, K)

    @pytest.mark.parametrize("e,d", TABLE_PAIRS)
    def test_parts_and_table_are_the_reference_route(self, e, d):
        _assert_reference_route(e, d, j_matrix_rat(e, d))
        _assert_reference_route(e, d, neg_j_matrix(e, d))

    @pytest.mark.parametrize("e,d", [(2, 1), (1, 2), (3, 2), (2, 3), (1, 4)])
    def test_parts_and_table_are_the_reference_route_at_a_dense_k(self, e, d):
        _assert_reference_route(e, d, _dense_k(e, d))

    @pytest.mark.parametrize("e,d", [(2, 1), (3, 2), (1, 3)])
    def test_w_elements_live_in_p_plus_zn(self, e, d):
        n = e + d
        ws = solve_dec(e, d, j_matrix_rat(e, d))
        for label in sl_basis(n):
            for k in (0, 1):
                w = w_of(ws, label, k)
                const = coeff_matrix(w, 0)
                lin = coeff_matrix(w, 1)
                for i in range(n):
                    for j in range(n):
                        if quadrant(i + 1, j + 1, e) == "III":
                            assert const[i][j] == 0
                        if quadrant(i + 1, j + 1, e) != "I":
                            assert lin[i][j] == 0
                if label[0] == "unit" and k == 1:
                    _, i, j = label
                    if quadrant(i, j, e) != "I":
                        assert (label, k) not in ws.parts

    @pytest.mark.parametrize("e,d,K", [(1, 1, build_j(1, 2)), (1, 2, build_j(1, 1)),
                                       (1, 1, ((0, 1), (0, 0, 0)))])
    def test_k_of_the_wrong_size_rejected(self, e, d, K):
        """A K that is not (e + d) x (e + d) is refused with one line."""
        with pytest.raises(ValueError, match=r"^K must be %d x %d for \(e, d\) = \(%d, %d\)$"
                           % (e + d, e + d, e, d)):
            solve_dec(e, d, K)
        with pytest.raises(ValueError, match=r"^K must be"):
            assemble_stolin_r(e, d, K, F(1, 2), F(3))

    def test_degenerate_k_rejected(self):
        with pytest.raises(DegenerateFormError):
            solve_dec(1, 1, freeze([[ZERO, ZERO], [ZERO, ZERO]]))

    def test_cache_is_bounded(self):
        """A process that sees more cocycle matrices than the cache holds
        keeps only the most recent ones; the bound is the one of
        `g_elements`."""
        solve_dec.cache_clear()
        try:
            for k in range(1, G_ELEMENTS_CACHE_MAX + 2):
                solve_dec(1, 1, freeze([[ZERO, F(k)], [ZERO, ZERO]]))
            info = solve_dec.cache_info()
        finally:
            solve_dec.cache_clear()
        assert info.misses == G_ELEMENTS_CACHE_MAX + 1
        assert info.currsize <= info.maxsize == G_ELEMENTS_CACHE_MAX

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.sampled_from([(1, 1), (1, 2), (2, 1), (1, 3), (3, 1)]).flatmap(
        lambda ed: st.tuples(st.just(ed), st.lists(
            st.sampled_from((0, 1, -1)), min_size=sum(ed) ** 2, max_size=sum(ed) ** 2))))
    @example(((1, 3), [0] * 16))
    @example(((2, 1), [0] * 9))
    def test_split_fails_exactly_when_gram_degenerate(self, case):
        """solve_dec and build_order decide degeneracy by the split alone;
        the Bareiss determinant of the Gram matrix must agree on every K."""
        (e, d), cells = case
        n = e + d
        K = freeze([[F(v) for v in cells[r * n:(r + 1) * n]] for r in range(n)])
        if frobenius_gram(K, e)[1] != 0:
            solve_dec(e, d, K)
            stolin.build_order(K, e, 0)
        else:
            for build in (lambda: solve_dec(e, d, K), lambda: stolin.build_order(K, e, 0)):
                with pytest.raises(DegenerateFormError,
                                   match=r"^omega_K is degenerate on p_%d$" % e):
                    build()

    def test_build_order_computes_no_determinant(self, monkeypatch):
        """build_order tests degeneracy with the split elimination, not with
        a Gram determinant."""
        def no_det(*args):
            raise AssertionError("det called")

        monkeypatch.setattr(stolin, "det", no_det)
        stolin.build_order(j_matrix_rat(2, 1), 2, 0)
        with pytest.raises(DegenerateFormError, match=r"^omega_K is degenerate on p_1$"):
            stolin.build_order(freeze([[ZERO, ZERO], [ZERO, ZERO]]), 1, 0)

    @pytest.mark.parametrize("e,d,sign,digest", [
        (1, 3, 1, "e0d02a4705109288a6f61afa39867d266604c6f2f27e9bf8f704af6b3005c3d0"),
        (1, 3, -1, "56d3dd424d43ec782947176fb9f66016ba9161ed51d19b5fcec7d933151f3c4d"),
        (3, 2, 1, "04ff653a11a6ea01da85ca16a7a3847756ed7567c530f1e8abff32e1bddfa333"),
        (3, 2, -1, "fa7488fd5923ad1fb9abeac0bb90b2192994385416e05f7d6945afae1422dcc9"),
        # every other coprime pair with n <= 7 at K = -J, recorded while
        # solve_dec still built dense target and element grids
        (1, 1, -1, "e222970888a3c3e4b9cabaac7e75a7de9650badc79041987d0480b91093451d6"),
        (1, 2, -1, "a8ee7a7603f18a97a1716d92b4f42aa6ca590a1bd009ad5ee5fb076a817aa8d8"),
        (2, 1, -1, "b7aae55bebe070c3f36b76c619411008745c186bddb216905588d2cf173c2633"),
        (3, 1, -1, "4112f9313ba0b41186d034ba8af1787f39a87103e7d9336067d5cb3fb050d395"),
        (1, 4, -1, "59b3c765704373de0ecfb4289d6aeaf0973115f60cfc6b88d92b2b1bdf084e69"),
        (2, 3, -1, "48244d392d61cb98dc47f1097389c7e800e453d1bdf51dd6c3d99b990bc96504"),
        (4, 1, -1, "1a0e4bd7b710996d9e473f9263116d99637411f8b5907dd2f7fbaaab6bd5fff6"),
        (1, 5, -1, "e728320174af805daef2d1beea3e3d60942083e5c53aaf775c48e243dacbffe6"),
        (5, 1, -1, "0990e963dc8eb837dbf5c977e65eec1edde553a2656700161b9e1a53ab2f6e6a"),
        (1, 6, -1, "4328ceccab04894fa7bdfbcadaa6ca039c3c0b3f508375600dd2dd02ece37c3b"),
        (2, 5, -1, "1059e2d615682b89ea17fc647d905267e26cb120a4fcef1135da0692e0f4801a"),
        (3, 4, -1, "170aa55c8090bdafff04804c7738f70b48092c5c182033f0bdf9f915a8e1f4c6"),
        (4, 3, -1, "1d670be471831c42c2200b2495889743dec750b01fde719e0726873742b36014"),
        (5, 2, -1, "7ea3a9830d37710611a7742b4d6387c519fe3c60259afe4a31978d57e231e4f8"),
        (6, 1, -1, "a33722abba2971f37b2482ced7d408d3cd609ccf7ffea61976dc48a0925f9004"),
    ])
    def test_elements_golden(self, e, d, sign, digest):
        """sha256 of the entries of every w at K = sign * J, first taken
        while each w was still assembled through intermediate block
        matrices (as the repr of each w); the entries-only digests were
        re-recorded on that code and are unchanged since."""
        K = j_matrix_rat(e, d) if sign > 0 else neg_j_matrix(e, d)
        text = entries_text(((key, poly_terms(w)) for key, w in w_elements(solve_dec(e, d, K)).items()),
                            e + d)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestAssembly:
    def test_n2_reference_formula(self):
        # c/(y-x) + (x/2) e12 (x) h - (y/2) h (x) e12; the variant ending in
        # e21 sometimes quoted for this solution is not unitary, so only the
        # e12 reading can be correct
        x, y = F(3, 7), F(-2)
        got = assemble_stolin_r(1, 1, j_matrix_rat(1, 1), x, y)
        h = basis_matrix(("cartan", 1), 2)
        want = scale(casimir(2), ONE / (y - x)).add(
            dense_tensor_from_pairs(
                2,
                [
                    (mat_unit(2, 1, 2), h, x / 2),
                    (h, mat_unit(2, 1, 2), -y / 2),
                ],
            )
        )
        assert got == want

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_closed_form_d1(self, n, rng):
        # the reference d=1 closed form is the assembly whose block split puts
        # the unit column first: (e, d) = (1, n-1), same superdiagonal K
        for _ in range(3):
            x = F(rng.randint(-9, 9), rng.randint(1, 9))
            y = x + F(rng.randint(1, 9), rng.randint(1, 9))
            assert closed_form_d1(n).at(x, y) == assemble_stolin_r(
                1, n - 1, j_matrix_rat(1, n - 1), x, y
            )

    def test_closed_form_pole_part(self):
        x, y = F(0), F(1)
        tail = closed_form_d1(3).at(x, y).add(scale(casimir(3), -ONE / (y - x)))
        # no 1/(y-x) singularity remains in the tail: evaluate at nearby pair
        x2, y2 = F(1, 1000), F(1)
        tail2 = closed_form_d1(3).at(x2, y2).add(scale(casimir(3), -ONE / (y2 - x2)))
        assert max(abs(v) for v in tail2.terms.values()) < 10

    def test_closed_form_unitary(self, rng):
        for n in (2, 3, 4):
            x, y = F(1, 3), F(5, 2)
            assert is_unitary_pair(closed_form_d1(n).at(x, y), closed_form_d1(n).at(y, x))

    @pytest.mark.parametrize("e,d", [(1, 1), (2, 1), (1, 2), (3, 2), (2, 3)])
    def test_cybe_and_unitarity(self, e, d, rng):
        K = j_matrix_rat(e, d)
        pts = []
        while len(pts) < 3:
            v = F(rng.randint(-9, 9), rng.randint(1, 9))
            if v not in pts:
                pts.append(v)
        res = cybe_residual_two_variable(
            lambda a, b: assemble_stolin_r(e, d, K, a, b), pts
        )
        assert not res.terms
        assert is_unitary_pair(
            assemble_stolin_r(e, d, K, pts[0], pts[1]),
            assemble_stolin_r(e, d, K, pts[1], pts[0]),
        )

    def test_two_splits_gauge_equivalent(self):
        # the (n-1,1)-split assembly maps onto the (1,n-1)-split one under
        # the conjugated flip-transpose gauge
        n = 4
        x, y = F(1, 3), F(2)
        phi = transpose_negate_map(n)
        g = flip_transpose_gauge(n - 1, 1)
        # phi g phi, applied one map at a time
        lhs = assemble_stolin_r(n - 1, 1, neg_j_matrix(n - 1, 1), x, y)
        for gauge in (phi, g, phi):
            lhs = apply_gauge(gauge, gauge, lhs)
        assert lhs == assemble_stolin_r(1, n - 1, neg_j_matrix(1, n - 1), x, y)


def _per_point_stolin_r(ws, x, y):
    """The per-point formula: Casimir/(y - x) plus the tensor products of
    the first slots with w_(b;0)(y) and with x w_(b;1)(y)."""
    n = ws.n
    pairs = []
    for label in sl_basis(n):
        first = basis_matrix(label, n) if label[0] == "unit" else cartan_dual(label[1], n)
        pairs.append((first, eval_dense(w_of(ws, label, 0), y), ONE))
        pairs.append((first, eval_dense(w_of(ws, label, 1), y), x))
    return scale(casimir(n), ONE / (y - x)).add(dense_tensor_from_pairs(n, pairs))


class TestTable:
    """`assemble_stolin_r` reads r(x, y) off the table of `solve_dec`.  On
    both sides r - c/(y - x) has degree <= 1 in x and in y, so agreeing at
    four y for each of the four x of `POINTS` proves the table right at
    every (x, y)."""

    @pytest.mark.parametrize("e,d", TABLE_PAIRS)
    def test_table_is_the_per_point_formula(self, e, d):
        K = neg_j_matrix(e, d)
        ws = solve_dec(e, d, K)
        assert table_mismatches(ws.table, lambda x, y: _per_point_stolin_r(ws, x, y), POINTS) == []
        assert assemble_stolin_r(e, d, K, POINTS[2], F(5, 2)) == ws.table.at(POINTS[2], F(5, 2))

    @pytest.mark.parametrize("e,d", [(1, 1), (2, 3), (3, 4)])
    def test_bumped_entry_is_caught(self, e, d):
        """Negative control: one numerator raised by 1 fails the comparison."""
        rng = random.Random(100 * e + d)
        ws = solve_dec(e, d, neg_j_matrix(e, d))
        for _ in range(4):
            table = bumped(ws.table, rng)
            assert table_mismatches(table, lambda x, y: _per_point_stolin_r(ws, x, y), POINTS)

    def test_table_integer_only(self):
        table = solve_dec(3, 4, neg_j_matrix(3, 4)).table
        # c/(y - x) + A + y B + x C + x y D, with the parts that occur
        assert POLE in table.monomials
        assert set(table.monomials) <= {(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), POLE}
        assert type(table.den) is int
        assert all(type(v) is int and v for row in table.terms.values() for _, v in row)
        assert all(table.terms.values())

    def test_warm_assembly_forms_no_tensor_product(self, monkeypatch):
        """After the first assembly, another (x, y) evaluates the cached
        table; a table goes with its `solve_dec` entry."""
        e, d = 2, 3
        K = neg_j_matrix(e, d)
        solve_dec.cache_clear()
        try:
            assemble_stolin_r(e, d, K, F(1, 3), F(5, 2))
            table = solve_dec(e, d, K).table
            calls = spy_tensor_products(monkeypatch)
            builds = []
            monkeypatch.setattr(stolin, "tensor_table",
                                lambda *a, _f=stolin.tensor_table: builds.append(1) or _f(*a))
            assemble_stolin_r(e, d, K, F(-3, 7), F(-11, 4))
            assert calls == [] and builds == []
            solve_dec.cache_clear()
            assemble_stolin_r(e, d, K, F(-3, 7), F(-11, 4))
            assert calls == [] and builds == [1]
            assert solve_dec(e, d, K).table is not table
        finally:
            solve_dec.cache_clear()


    def test_assembly_takes_k_as_given(self):
        """A K reused, an equal K in a new tuple and the Fraction form of the
        same -J key one `solve_dec` entry: only the first assembly solves,
        and every assembly is, repr for repr, the table of that entry."""
        pts = [(F(1, 3), F(2)), (F(-7, 2), F(5, 9)), (F(0), F(1))]
        K = neg_j_matrix(2, 3)
        fresh = neg_j_matrix(2, 3)
        fracs = tuple(tuple(F(v) for v in row) for row in K)
        assert fresh is not K and all(type(v) is F for row in fracs for v in row)
        solve_dec.cache_clear()
        try:
            for k in (K, K, fresh, fracs):
                for x, y in pts:
                    got = assemble_stolin_r(2, 3, k, x, y)
                    assert repr(got) == repr(solve_dec(2, 3, K).table.at(x, y))
            assert solve_dec.cache_info().misses == 1
        finally:
            solve_dec.cache_clear()


class TestComparison:
    @pytest.mark.parametrize("e,d", [(1, 1), (2, 1), (1, 2), (3, 2), (2, 3),
                                     (4, 1), (1, 4), (3, 4), (4, 3)])
    def test_exact_match(self, e, d, rng):
        for _ in range(2):
            x = F(rng.randint(-9, 9), rng.randint(1, 9))
            y = x + F(rng.randint(1, 9), rng.randint(1, 9))
            assert compare_pipelines(e, d, x, y)

    def test_wrong_sign_control(self):
        # with the cocycle matrix +J the equality must generally fail
        x, y = F(0), F(1)
        n = 3
        phi = transpose_negate_map(n)
        lhs = apply_gauge(phi, phi, assemble_r(2, 1, x, y))
        assert lhs != assemble_stolin_r(2, 1, j_matrix_rat(2, 1), x, y)
