"""Parabolic pipeline: Frobenius structure, dec solves, assembly, the closed
d=1 formula, and the cross-pipeline comparison."""

import hashlib
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ybe_forge.cuspidal import assemble_r, build_j, flip_transpose_gauge, region
from ybe_forge.exact import (
    ONE,
    ZERO,
    eval_matrix_poly,
    freeze,
    mat_add,
    mat_bracket,
    mat_is_zero,
    mat_neg,
    mat_scale,
    mat_sub,
    mat_unit,
    mat_zero,
)
from ybe_forge.lie import (
    apply_gauge,
    basis_matrix,
    casimir,
    cybe_residual_two_variable,
    is_unitary_pair,
    sl_basis,
    tensor_from_pairs,
    transpose_negate_map,
)
from ybe_forge.stolin import (
    DegenerateFormError,
    assemble_stolin_r,
    closed_form_d1,
    compare_pipelines,
    frobenius_gram,
    frobenius_split,
    j_matrix_rat,
    neg_j_matrix,
    omega_pairing,
    parabolic_basis,
    parabolic_labels,
    solve_dec,
)


class TestFrobeniusGram:
    def test_n2_golden(self):
        form = frobenius_gram(j_matrix_rat(1, 1), 1, 2)
        assert form.labels == (("cartan", 1), ("unit", 1, 2))
        assert form.gram == ((F(0), F(2)), (F(-2), F(0)))
        assert form.determinant == 4

    def test_zero_matrix_degenerate(self):
        form = frobenius_gram(tuple((ZERO,) * 2 for _ in range(2)), 1, 2)
        assert form.determinant == 0 and not form.nondegenerate

    @pytest.mark.parametrize("n", range(2, 13))
    def test_j_nondegenerate_all_pairs(self, n):
        for e in range(1, n):
            d = n - e
            if gcd(e, d) != 1:
                continue
            form = frobenius_gram(j_matrix_rat(e, d), e, n)
            assert form.nondegenerate, (e, d)

    def test_parabolic_dimension(self):
        for (e, n) in [(1, 2), (2, 3), (1, 3), (3, 5), (2, 5)]:
            d = n - e
            want = n * n - e * d - 1
            assert len(parabolic_labels(e, n)) == want
            for m in parabolic_basis(e, n):
                assert sum(m[i][i] for i in range(n)) == 0
                for i in range(e, n):
                    for j in range(e):
                        assert m[i][j] == 0

    def test_cocycle_identity(self, rng):
        # coboundaries are cocycles; asserted on random parabolic triples
        e, n = 2, 3
        basis = parabolic_basis(e, n)
        K = j_matrix_rat(2, 1)

        def rand_p():
            m = mat_zero(n)
            for b in basis:
                m = mat_add(m, mat_scale(F(rng.randint(-3, 3)), b))
            return m

        for _ in range(200):
            a, b, c = rand_p(), rand_p(), rand_p()
            total = (
                omega_pairing(K, mat_bracket(a, b), c)
                + omega_pairing(K, mat_bracket(b, c), a)
                + omega_pairing(K, mat_bracket(c, a), b)
            )
            assert total == 0


class TestFrobeniusSplit:
    def test_nilpotent_input_maps_to_itself(self):
        G = mat_unit(2, 1, 2)
        P, N = frobenius_split(G, j_matrix_rat(1, 1), 1)
        assert mat_is_zero(P) and N == G

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
                P, N = frobenius_split(G, K, e)
                assert mat_add(mat_bracket(Kt, P), N) == G
                # P parabolic, N strictly upper-right block
                for i in range(e, n):
                    for j in range(e):
                        assert P[i][j] == 0
                for i in range(n):
                    for j in range(n):
                        if region(i + 1, j + 1, e, n) != "I":
                            assert N[i][j] == 0

    def test_n2_unit_case(self):
        G = mat_unit(2, 2, 1)
        P, N = frobenius_split(G, j_matrix_rat(1, 1), 1)
        Kt = ((F(0), F(0)), (F(1), F(0)))
        assert mat_add(mat_bracket(Kt, P), N) == G

    def test_degenerate_form_raises(self):
        with pytest.raises(DegenerateFormError):
            frobenius_split(mat_unit(2, 1, 2), tuple((ZERO,) * 2 for _ in range(2)), 1)


def _w_blocks(w, e, n):
    """(A|B / 0|D) from the constant part and the z-part upper block of w."""
    const = w.coeff_matrix(0)
    lin = w.coeff_matrix(1)
    P_blocks = [[const[i][j] if region(i + 1, j + 1, e, n) != "I" else ZERO
                 for j in range(n)] for i in range(n)]
    B = [[const[i][j] if region(i + 1, j + 1, e, n) == "I" else ZERO
          for j in range(n)] for i in range(n)]
    Btilde = [[lin[i][j] for j in range(n)] for i in range(n)]
    return freeze(P_blocks), freeze(B), freeze(Btilde)


class TestSolveDec:
    def test_region_three_vanishes(self):
        ws = solve_dec(2, 1, j_matrix_rat(2, 1))
        for (i, j) in [(3, 1), (3, 2)]:
            assert ws.w(("unit", i, j), 0).is_zero()
            assert ws.w(("unit", i, j), 1).is_zero()

    def test_n2_explicit_solution(self):
        ws = solve_dec(1, 1, j_matrix_rat(1, 1))
        # order-0 dual-Cartan correction: -z e_{1,2}
        w = ws.w(("cartan", 1), 0)
        assert w.coeff_matrix(0) == mat_zero(2)
        assert w.coeff_matrix(1) == mat_neg(mat_unit(2, 1, 2))
        # order-1 upper-unit correction: h/2
        w1 = ws.w(("unit", 1, 2), 1)
        assert w1.coeff_matrix(0) == mat_scale(F(1, 2), basis_matrix(("cartan", 1), 2))
        assert w1.coeff_matrix(1) == mat_zero(2)

    @pytest.mark.parametrize("e,d", [(1, 1), (2, 1), (1, 2), (3, 2), (2, 3)])
    def test_equations_resubstitute_in_block_form(self, e, d):
        """Each solved quadruple satisfies its decomposition equation written
        out in explicit block form."""
        n = e + d
        K = j_matrix_rat(e, d)
        Kt = tuple(zip(*K))
        ws = solve_dec(e, d, K)
        for label in sl_basis(n):
            if label[0] == "unit":
                _, i, j = label
                reg = region(i, j, e, n)
                target = mat_unit(n, j, i)
            else:
                reg = "cartan"
                target = basis_matrix(label, n)
            if label[0] == "unit" and reg == "III":
                continue
            w0 = ws.w(label, 0)
            P0, B0, Bt0 = _w_blocks(w0, e, n)
            mixed0 = mat_add(P0, Bt0)  # (A | Btilde / 0 | D)
            if label[0] == "cartan" or reg in ("II", "IV"):
                # target - [K^t, (A|Btilde/0|D)] + (0|B/0|0) = 0
                resid = mat_add(mat_sub(target, mat_bracket(Kt, mixed0)), B0)
                assert mat_is_zero(resid), (label, 0)
                assert ws.w(label, 1).is_zero()
            else:  # region I carries two equations, order 0 and order 1
                lhs = mat_bracket(Kt, mat_add(target, mixed0))
                assert lhs == B0, (label, 0)
                w1 = ws.w(label, 1)
                P1, B1, Bt1 = _w_blocks(w1, e, n)
                mixed1 = mat_add(P1, Bt1)
                resid = mat_add(mat_sub(target, mat_bracket(Kt, mixed1)), B1)
                assert mat_is_zero(resid), (label, 1)

    @pytest.mark.parametrize("e,d", [(2, 1), (3, 2), (1, 3)])
    def test_w_elements_live_in_p_plus_zn(self, e, d):
        n = e + d
        ws = solve_dec(e, d, j_matrix_rat(e, d))
        for label in sl_basis(n):
            for k in (0, 1):
                w = ws.w(label, k)
                const = w.coeff_matrix(0)
                lin = w.coeff_matrix(1)
                for i in range(n):
                    for j in range(n):
                        if region(i + 1, j + 1, e, n) == "III":
                            assert const[i][j] == 0
                        if region(i + 1, j + 1, e, n) != "I":
                            assert lin[i][j] == 0
                if label[0] == "unit" and k == 1:
                    _, i, j = label
                    if region(i, j, e, n) != "I":
                        assert w.is_zero()

    def test_degenerate_k_rejected(self):
        with pytest.raises(DegenerateFormError):
            solve_dec(1, 1, freeze([[ZERO, ZERO], [ZERO, ZERO]]))

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.sampled_from([(1, 1), (1, 2), (2, 1), (1, 3), (3, 1)]).flatmap(
        lambda ed: st.tuples(st.just(ed), st.lists(
            st.sampled_from((0, 1, -1)), min_size=sum(ed) ** 2, max_size=sum(ed) ** 2))))
    @example(((1, 3), [0] * 16))
    @example(((2, 1), [0] * 9))
    def test_split_fails_exactly_when_gram_degenerate(self, case):
        """solve_dec decides degeneracy by its split alone; the Bareiss
        determinant of the Gram matrix must agree on every K."""
        (e, d), cells = case
        n = e + d
        K = freeze([[F(v) for v in cells[r * n:(r + 1) * n]] for r in range(n)])
        if frobenius_gram(K, e, n).nondegenerate:
            solve_dec(e, d, K)
        else:
            with pytest.raises(DegenerateFormError, match=r"^omega_K is degenerate on p_%d$" % e):
                solve_dec(e, d, K)

    @pytest.mark.parametrize("e,d,sign,digest", [
        (1, 3, 1, "bc6d4f6d8067720867040fba45adf559d618ced73d5bf81102e0c8395628d274"),
        (1, 3, -1, "86e7343dc419f7e9d9dc09abc60941ec9e8083590a9d4de28851edafd5162dd4"),
        (3, 2, 1, "b6e24ca9802ae0e83f6a0f5af7dcde5902f4022901573425ede737bd7cc306db"),
        (3, 2, -1, "1d50bc701dd444725572c50aefe3d7ff812625ecc1025f09f467b10262c0183b"),
    ])
    def test_elements_golden(self, e, d, sign, digest):
        """sha256 of the repr of every w at K = sign * J, taken while each w
        was still assembled through intermediate block matrices."""
        K = j_matrix_rat(e, d) if sign > 0 else neg_j_matrix(e, d)
        text = repr(sorted(solve_dec(e, d, K).elements.items()))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestAssembly:
    def test_n2_reference_formula(self):
        # c/(y-x) + (x/2) e12 (x) h - (y/2) h (x) e12; the variant ending in
        # e21 sometimes quoted for this solution is not unitary, so only the
        # e12 reading can be correct
        x, y = F(3, 7), F(-2)
        got = assemble_stolin_r(1, 1, j_matrix_rat(1, 1), x, y)
        h = basis_matrix(("cartan", 1), 2)
        want = casimir(2).scale(ONE / (y - x)).add(
            tensor_from_pairs(
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
            assert closed_form_d1(n, x, y) == assemble_stolin_r(
                1, n - 1, j_matrix_rat(1, n - 1), x, y
            )

    def test_closed_form_pole_part(self):
        x, y = F(0), F(1)
        tail = closed_form_d1(3, x, y).sub(casimir(3).scale(ONE / (y - x)))
        # no 1/(y-x) singularity remains in the tail: evaluate at nearby pair
        x2, y2 = F(1, 1000), F(1)
        tail2 = closed_form_d1(3, x2, y2).sub(casimir(3).scale(ONE / (y2 - x2)))
        assert max(abs(v) for v in tail2.terms.values()) < 10

    def test_closed_form_unitary(self, rng):
        for n in (2, 3, 4):
            x, y = F(1, 3), F(5, 2)
            assert is_unitary_pair(closed_form_d1(n, x, y), closed_form_d1(n, y, x))

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
        assert res.is_zero()
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
        gamma = phi.compose(g).compose(phi)
        lhs = apply_gauge(
            gamma, gamma, assemble_stolin_r(n - 1, 1, neg_j_matrix(n - 1, 1), x, y)
        )
        assert lhs == assemble_stolin_r(1, n - 1, neg_j_matrix(1, n - 1), x, y)


class TestTriple:
    def test_general_subalgebra_rejected(self):
        from ybe_forge.stolin import StolinTriple

        with pytest.raises(NotImplementedError):
            StolinTriple(3, 2, j_matrix_rat(2, 1), subalgebra="abelian")

    def test_non_coprime_rejected(self):
        from ybe_forge.cuspidal import NonCoprimeError
        from ybe_forge.stolin import StolinTriple

        with pytest.raises(NonCoprimeError):
            StolinTriple(4, 2, j_matrix_rat(2, 1))

    def test_solution_delegates(self):
        from ybe_forge.stolin import StolinTriple

        t = StolinTriple(3, 2, j_matrix_rat(2, 1))
        assert t.form().nondegenerate
        assert t.solution(F(0), F(1)) == assemble_stolin_r(
            2, 1, j_matrix_rat(2, 1), F(0), F(1)
        )


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
