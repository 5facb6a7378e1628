"""Tensor algebra on gl(n)/sl(n): trace pairing, Casimir, CYBE machinery,
gauges, and the clock-and-shift eigenbasis."""

import cmath
import random
from fractions import Fraction as F
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_exact import mat_from_entries, mat_terms, mat_unit, rank
from ybe_forge import cuspidal, lie, stolin
from ybe_forge.cli import N_MAX
from ybe_forge.exact import ZERO, root_table
from ybe_forge.lie import (
    COMPLEX,
    GlTensor2,
    HeisenbergBasis,
    Monomial,
    RATIONAL,
    apply_gauge,
    basis_terms,
    casimir,
    cybe_lhs,
    cybe_residual_two_variable,
    dual_terms,
    flip_map,
    heisenberg,
    heisenberg_entries,
    is_unitary_pair,
    signed_permutation_map,
    sl_basis,
    swap_tensor,
    tensor_from_pairs,
    transpose_negate_map,
    _dual_sum,
    _root_values,
    _validate_heisenberg,
)


# reference forms of the trace pairing and of properties of a tensor, which
# the tests check the package's results with


def basis_matrix(label, n: int) -> tuple:
    """The dense matrix of a basis label: e_{i,j}, or h_l = e_{l,l} -
    e_{l+1,l+1}.  The reference of `lie.basis_terms`."""
    if label[0] == "unit":
        return mat_unit(n, label[1], label[2])
    _, l = label
    if not 1 <= l <= n - 1:
        raise ValueError("cartan index out of range: %d" % l)
    return mat_from_entries(n, {(l, l): F(1), (l + 1, l + 1): F(-1)})


def cartan_dual(l: int, n: int) -> tuple:
    """The dual-Cartan element of h_l from `lie.dual_terms`, dense."""
    return mat_from_entries(n, dual_terms(("cartan", l), n))


def dual_matrix(label, n: int) -> tuple:
    """Trace-form dual of a basis element, dense: e_{i,j} -> e_{j,i}, h_l ->
    its dual-Cartan element."""
    if label[0] == "unit":
        return mat_unit(n, label[2], label[1])
    return cartan_dual(label[1], n)


def dense_tensor_from_pairs(n: int, pairs, ring: str = RATIONAL) -> GlTensor2:
    """Sum of coeff * (A (x) B) over (A, B, coeff) triples of dense
    matrices, each read as its nonzero entries in row-major order and each
    key summing its products in the order of the triples: the reference of
    `lie.tensor_from_pairs`."""
    out: dict = {}
    for a, b, c in pairs:
        if c == 0:
            continue
        a_entries = [(i + 1, j + 1, v) for i, row in enumerate(a) for j, v in enumerate(row) if v != 0]
        b_entries = [(i + 1, j + 1, v) for i, row in enumerate(b) for j, v in enumerate(row) if v != 0]
        for i, j, aij in a_entries:
            ca = c * aij
            for k, l, bkl in b_entries:
                key = (i, j, k, l)
                acc = out[key] + ca * bkl if key in out else ca * bkl
                if acc == 0:
                    out.pop(key, None)
                else:
                    out[key] = acc
    return GlTensor2(n, ring, out)


def trace_form(a, b) -> F:
    """tr(a b); the invariant symmetric pairing everything here is dual to."""
    if len(a) != len(b):
        raise ValueError("trace form needs equal sizes")
    n = len(a)
    return sum(a[i][j] * b[j][i] for i in range(n) for j in range(n))


def contract_first(r: GlTensor2, a) -> tuple:
    """Image of `a` under the endomorphism induced by r through the trace
    pairing in the first slot: a |-> sum tr(e_{i,j} a) coeff e_{k,l}."""
    n = r.n
    acc = [[0 if r.ring == COMPLEX else ZERO] * n for _ in range(n)]
    for (i, j, k, l), c in r.terms.items():
        v = a[j - 1][i - 1]
        if v:
            acc[k - 1][l - 1] += c * v
    return tuple(tuple(row) for row in acc)


def partial_traces_vanish(r: GlTensor2) -> bool:
    """sl-membership: both partial traces of the tensor are zero."""
    first: dict = {}
    second: dict = {}
    for (i, j, k, l), c in r.terms.items():
        if i == j:
            first[k, l] = first.get((k, l), 0) + c
        if k == l:
            second[i, j] = second.get((i, j), 0) + c
    return not any(first.values()) and not any(second.values())


def induced_endomorphism_rank(r: GlTensor2) -> int:
    """Rank of the induced map gl(n) -> gl(n) in unit-basis coordinates;
    numerical, at tolerance 1e-9, for a complex tensor."""
    n = r.n
    rows: list = [{} for _ in range(n * n)]
    for (i, j, k, l), c in r.terms.items():
        # output coord (k,l) from input coord (j,i); each pair has one term
        rows[(k - 1) * n + (l - 1)][(j - 1) * n + (i - 1)] = c
    if r.ring == COMPLEX:
        dense = [[row.get(q, 0) for q in range(n * n)] for row in rows]
        return int(np.linalg.matrix_rank(np.array(dense, dtype=complex), tol=1e-9))
    return rank(rows, n * n)


def nondegenerate(r: GlTensor2) -> bool:
    """True iff the induced map sl(n) -> sl(n) is invertible."""
    return induced_endomorphism_rank(r) >= r.n * r.n - 1


def z_matrices(hb, k: int, l: int) -> tuple:
    """Z^dual_{k,l} and Z_{k,l} as dense n x n tuples of complex entries,
    read off their `Monomial`s: the reference the sparse
    `heisenberg_entries` is checked against."""
    n = hb.n

    def dense(m):
        values = _root_values(n, m.den)
        rows = [[0j] * n for _ in range(n)]
        for i, e in enumerate(m.exps):
            rows[i][(i + m.shift) % n] = values[hb.d * e % n]
        return tuple(tuple(row) for row in rows)

    return dense(hb.Z_dual[(k, l)]), dense(hb.Z[(k, l)])


class TestTraceForm:
    def test_unit_contraction(self):
        assert trace_form(mat_unit(2, 1, 2), mat_unit(2, 2, 1)) == 1

    def test_cartan_square(self):
        h = basis_matrix(("cartan", 1), 2)
        assert trace_form(h, h) == 2

    def test_nilpotent_square(self):
        e = mat_unit(2, 1, 2)
        assert trace_form(e, e) == 0

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            trace_form(mat_unit(2, 1, 1), mat_unit(3, 1, 1))


class TestCartanDual:
    def test_n2_is_half_h(self):
        want = tuple(
            tuple(F(v, 2) for v in row) for row in basis_matrix(("cartan", 1), 2)
        )
        assert cartan_dual(1, 2) == want

    def test_n3_biorthogonality(self):
        d1 = cartan_dual(1, 3)
        assert trace_form(d1, basis_matrix(("cartan", 1), 3)) == 1
        assert trace_form(d1, basis_matrix(("cartan", 2), 3)) == 0

    def test_dual_kernel_symmetric(self):
        # the dual-Cartan kernel is invariant under transpose of both slots
        for n in (2, 3, 4):
            kernel = tensor_from_pairs(
                n,
                [
                    (dual_terms(("cartan", l), n).items(), basis_terms(("cartan", l), n).items(), F(1))
                    for l in range(1, n)
                ],
            )
            transposed = dense_tensor_from_pairs(
                n,
                [
                    (
                        tuple(zip(*cartan_dual(l, n))),
                        tuple(zip(*basis_matrix(("cartan", l), n))),
                        F(1),
                    )
                    for l in range(1, n)
                ],
            )
            assert swap_tensor(kernel) == transposed == kernel

    @pytest.mark.parametrize("n", range(2, 13))
    def test_biorthogonal_and_traceless(self, n):
        for l in range(1, n):
            dual = cartan_dual(l, n)
            assert sum(dual[a][a] for a in range(n)) == 0
            for m in range(1, n):
                assert trace_form(dual, basis_matrix(("cartan", m), n)) == (l == m)

    def test_out_of_range(self):
        for label in (("cartan", 3), ("cartan", 0)):
            with pytest.raises(ValueError):
                dual_terms(label, 3)
            with pytest.raises(ValueError):
                basis_terms(label, 3)


class TestBasisTerms:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_basis_and_dual_terms_are_the_dense_nonzeros(self, n):
        """`basis_terms` and `dual_terms` hold the nonzero entries of the
        dense basis matrix and of its trace dual, in row-major order."""
        for label in sl_basis(n):
            for got, want in ((basis_terms(label, n), basis_matrix(label, n)),
                              (dual_terms(label, n), dual_matrix(label, n))):
                assert list(got.items()) == list(mat_terms(want).items())
            assert all(type(v) is int for v in basis_terms(label, n).values())


def _random_terms(rng, n, value) -> dict:
    """A random sparse {(i, j): entry} in row-major order, some of its
    entries equal."""
    return {(i, j): value(rng) for i in range(1, n + 1) for j in range(1, n + 1)
            if rng.random() < 0.3}


class TestTensorFromPairs:
    """`tensor_from_pairs` against the dense route it replaced: each
    matrix scanned in row-major order for its nonzeros."""

    @staticmethod
    def _triples(rng, n, value, count):
        out = []
        for _ in range(count):
            a, b = _random_terms(rng, n, value), _random_terms(rng, n, value)
            # a zero coefficient, and a triple that cancels an earlier one
            c = 0 if rng.random() < 0.1 else value(rng)
            out.append((a, b, c))
            if rng.random() < 0.2:
                a0, b0, c0 = rng.choice(out)
                out.append((a0, b0, -c0))
        return out

    def _compare(self, n, triples, ring):
        got = tensor_from_pairs(n, [(a.items(), b.items(), c) for a, b, c in triples], ring)
        want = dense_tensor_from_pairs(
            n, [(mat_from_entries(n, a), mat_from_entries(n, b), c) for a, b, c in triples], ring)
        return got, want

    @pytest.mark.parametrize("seed", range(6))
    def test_rational_exactly_equal(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 5)
        got, want = self._compare(n, self._triples(rng, n, lambda r: F(r.randint(-3, 3), r.randint(1, 4)), 8),
                                  RATIONAL)
        assert got == want and got.ring == RATIONAL
        assert all(got.terms.values())

    @pytest.mark.parametrize("seed", range(6))
    def test_complex_repr_identical(self, seed):
        """Complex sums depend on their order: the same values, the same
        keys in the same order, bit for bit."""
        rng = random.Random(100 + seed)
        n = rng.randint(2, 5)

        def value(r):
            return complex(r.choice((-1, 1)) * r.random(), r.choice((-0.0, 0.0, r.random())))

        triples = self._triples(rng, n, value, 8)
        # mat_from_entries pads with Fraction zeros, which the dense scan skips
        got, want = self._compare(n, triples, COMPLEX)
        assert repr(got.terms) == repr(want.terms) and got.ring == COMPLEX

    def test_pair_tuples_and_dict_items_agree(self):
        rng = random.Random(7)
        triples = self._triples(rng, 4, lambda r: F(r.randint(-3, 3), r.randint(1, 4)), 5)
        items = tensor_from_pairs(4, [(a.items(), b.items(), c) for a, b, c in triples])
        tuples = tensor_from_pairs(4, [(tuple(a.items()), tuple(b.items()), c) for a, b, c in triples])
        assert repr(items.terms) == repr(tuples.terms)


class TestCasimir:
    def test_n2_golden(self):
        h = basis_matrix(("cartan", 1), 2)
        want = dense_tensor_from_pairs(
            2,
            [
                (h, h, F(1, 2)),
                (mat_unit(2, 1, 2), mat_unit(2, 2, 1), F(1)),
                (mat_unit(2, 2, 1), mat_unit(2, 1, 2), F(1)),
            ],
        )
        assert casimir(2) == want

    def test_swap_invariant(self):
        for n in (2, 3, 4):
            assert swap_tensor(casimir(n)) == casimir(n)

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 12])
    def test_reproducing_kernel(self, n, rng):
        for label in sl_basis(n):
            a = basis_matrix(label, n)
            assert contract_first(casimir(n), a) == a
        a = [[F(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
        tr = sum(a[i][i] for i in range(n))
        a[0][0] -= tr
        a = tuple(map(tuple, a))
        assert contract_first(casimir(n), a) == a

    def test_sl_membership(self):
        assert partial_traces_vanish(casimir(3))
        bad = GlTensor2(2, RATIONAL, {(1, 1, 1, 2): F(1)})
        assert not partial_traces_vanish(bad)


def _naive_cybe(r12, r13, r23) -> dict:
    """[r12, r13] + [r13, r23] + [r12, r23] formed from every pair of terms,
    with [e_ij, e_kl] = delta_jk e_il - delta_li e_kj."""
    out: dict = {}

    def bracket(i, j, k, l):
        return ([(i, l, 1)] if j == k else []) + ([(k, j, -1)] if l == i else [])

    for (i, j, k, l), c in r12.terms.items():
        for (p, q, r, s), c2 in r13.terms.items():
            for a, b, sign in bracket(i, j, p, q):
                key = (a, b, k, l, r, s)
                out[key] = out.get(key, 0) + sign * c * c2
    for (i, j, k, l), c in r13.terms.items():
        for (p, q, r, s), c2 in r23.terms.items():
            for a, b, sign in bracket(k, l, r, s):
                key = (i, j, p, q, a, b)
                out[key] = out.get(key, 0) + sign * c * c2
    for (i, j, k, l), c in r12.terms.items():
        for (p, q, r, s), c2 in r23.terms.items():
            for a, b, sign in bracket(k, l, p, q):
                key = (i, j, a, b, r, s)
                out[key] = out.get(key, 0) + sign * c * c2
    return {k: v for k, v in out.items() if v != 0}


COEFFS = {
    RATIONAL: st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 9)),
    COMPLEX: st.builds(complex, st.floats(-1, 1), st.floats(-1, 1)).filter(bool),
}


@st.composite
def cybe_inputs(draw, ring):
    """Three random sparse tensors of one size n <= 4 over `ring`."""
    n = draw(st.integers(2, 4))
    keys = st.tuples(*[st.integers(1, n)] * 4)
    return [GlTensor2(n, ring, draw(st.dictionaries(keys, COEFFS[ring], max_size=12)))
            for _ in range(3)]


def identity_part(n: int, u: tuple, c, first: bool) -> GlTensor2:
    """c I (x) e_u (first=True) or c e_u (x) I, I = sum_a e_aa."""
    k, l = u
    keys = [(a, a, k, l) if first else (k, l, a, a) for a in range(1, n + 1)]
    return GlTensor2(n, RATIONAL, {key: F(c) for key in keys})


@st.composite
def central_inputs(draw):
    """Three rational tensors of one size n <= 4 with dense diagonal
    blocks: sparse terms plus a multiple of the Casimir and multiples of
    I (x) u and u (x) I for a few matrix units u."""
    n = draw(st.integers(2, 4))
    idx = st.integers(1, n)
    units = st.dictionaries(st.tuples(idx, idx), COEFFS[RATIONAL], max_size=3)
    out = []
    for _ in range(3):
        t = GlTensor2(n, RATIONAL, draw(st.dictionaries(
            st.tuples(idx, idx, idx, idx), COEFFS[RATIONAL], max_size=8)))
        t = t.add(casimir(n).scale(draw(COEFFS[RATIONAL] | st.just(F(0)))))
        for first in (True, False):
            for u, c in draw(units).items():
                t = t.add(identity_part(n, u, c, first))
        out.append(t)
    return out


def join_products(monkeypatch) -> list:
    """Spy on `lie._join`: the returned one-element list counts the
    products the joins form, the sum over shared indices of the sizes of
    the two groups."""
    count = [0]
    join = lie._join

    def spy(total, xs, ys, sign):
        count[0] += sum(len(g) * len(ys.get(idx, ())) for idx, g in xs.items())
        join(total, xs, ys, sign)

    monkeypatch.setattr(lie, "_join", spy)
    return count


def stolin_1_6_triple() -> tuple:
    """The Stolin (1,6) solution at K = J, evaluated at (0, 1), (0, 2) and
    (1, 2)."""
    K = stolin.j_matrix_rat(1, 6)

    def r(a, b):
        return stolin.assemble_stolin_r(1, 6, K, a, b)

    return r(F(0), F(1)), r(F(0), F(2)), r(F(1), F(2))


class TestCybe:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(cybe_inputs(RATIONAL))
    def test_rational_matches_naive_brackets(self, tensors):
        assert cybe_lhs(*tensors).terms == _naive_cybe(*tensors)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(cybe_inputs(COMPLEX))
    def test_complex_matches_naive_brackets(self, tensors):
        got = cybe_lhs(*tensors).terms
        want = _naive_cybe(*tensors)
        assert all(abs(got.get(k, 0) - want.get(k, 0)) < 1e-12 for k in set(got) | set(want))

    def test_negated_r12_control(self):
        """The Stolin (1,6) solution has a zero residual; negating r12 must
        leave a nonzero one (7135 terms at (0, 1, 2))."""
        r12, r13, r23 = stolin_1_6_triple()
        assert cybe_lhs(r12, r13, r23).is_zero()
        wrong = cybe_lhs(r12.scale(-1), r13, r23)
        assert len(wrong.terms) == 7135
        assert wrong.terms == _naive_cybe(r12.scale(-1), r13, r23)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(central_inputs())
    def test_dense_diagonals_match_naive_brackets(self, tensors):
        assert cybe_lhs(*tensors).terms == _naive_cybe(*tensors)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(central_inputs(), st.data())
    def test_central_parts_change_nothing(self, tensors, data):
        """A multiple of I in the shared slot of a commutator does not
        change it: each commutator alone, and the whole sum with I (x) I
        added to every input, give the same terms in the same order."""
        r12, r13, r23 = tensors
        n = r12.n
        zero = GlTensor2(n, RATIONAL, {})
        idx = st.integers(1, n)

        def plus(t, first):
            u, c = data.draw(st.tuples(idx, idx)), data.draw(COEFFS[RATIONAL])
            return t.add(identity_part(n, u, c, first))

        def same(got, want):
            assert list(got.terms.items()) == list(want.terms.items())

        # [r12, r13] shares slot 1, [r13, r23] slot 3, [r12, r23] slot 2
        same(cybe_lhs(plus(r12, True), plus(r13, True), zero), cybe_lhs(r12, r13, zero))
        same(cybe_lhs(zero, plus(r13, False), plus(r23, False)), cybe_lhs(zero, r13, r23))
        same(cybe_lhs(plus(r12, False), zero, plus(r23, True)), cybe_lhs(r12, zero, r23))
        eye = GlTensor2(n, RATIONAL, {(a, a, b, b): F(1) for a in range(1, n + 1)
                                      for b in range(1, n + 1)})
        shifted = [t.add(eye.scale(data.draw(COEFFS[RATIONAL]))) for t in tensors]
        same(cybe_lhs(*shifted), cybe_lhs(*tensors))

    def test_drop_in_the_other_slot_is_caught(self, monkeypatch):
        """Negative control: dropping I from the second factor, which the
        commutator does not act on, changes the result."""
        drop = lie._drop_central

        def drop_second(terms, n):
            flipped = lie._swapped(terms)
            drop(flipped, n)
            terms.clear()
            terms.update(lie._swapped(flipped))

        monkeypatch.setattr(lie, "_drop_central", drop_second)
        r12 = GlTensor2(2, RATIONAL, {(2, 1, 1, 1): F(1)})
        r13 = identity_part(2, (1, 2), 1, first=False)
        zero = GlTensor2(2, RATIONAL, {})
        assert _naive_cybe(r12, r13, zero) != {}
        assert cybe_lhs(r12, r13, zero).terms != _naive_cybe(r12, r13, zero)
        assert not cybe_lhs(*stolin_1_6_triple()).is_zero()

    def test_join_products_at_stolin_1_6(self, monkeypatch):
        """Deterministic work guard: at the Stolin (1,6) solution the joins
        form at most 30,000 products (56,294 without the central drop)."""
        tensors = stolin_1_6_triple()
        count = join_products(monkeypatch)
        assert cybe_lhs(*tensors).is_zero()
        assert count[0] <= 30_000
        # the count sees the saving: without the drop it is back
        count[0] = 0
        monkeypatch.setattr(lie, "_drop_central", lambda terms, n: None)
        assert cybe_lhs(*tensors).is_zero()
        assert count[0] == 56_294

    def test_zero_inputs(self):
        z = GlTensor2(2, RATIONAL, {})
        assert cybe_lhs(z, z, z).is_zero()

    def test_yang_solution(self):
        def yang(x, y):
            return casimir(2).scale(F(1) / (y - x))

        res = cybe_residual_two_variable(yang, (F(0), F(1), F(2)))
        assert res.is_zero()

    def test_ring_mismatch(self):
        with pytest.raises(ValueError):
            z = GlTensor2(2, RATIONAL, {})
            cybe_lhs(z, z, GlTensor2(2, COMPLEX, {}))

    def test_casimir_alone_fails(self):
        # the Casimir without the pole factor is not a solution: nonzero lhs
        # [C12, C13] + [C13, C23] + [C12, C23] for the sl(2) Casimir C
        want = {
            (1, 1, 1, 2, 2, 1): -1, (1, 1, 2, 1, 1, 2): 1, (1, 2, 1, 1, 2, 1): 1,
            (1, 2, 2, 1, 1, 1): -1, (1, 2, 2, 1, 2, 2): 1, (1, 2, 2, 2, 2, 1): -1,
            (2, 1, 1, 1, 1, 2): -1, (2, 1, 1, 2, 1, 1): 1, (2, 1, 1, 2, 2, 2): -1,
            (2, 1, 2, 2, 1, 2): 1, (2, 2, 1, 2, 2, 1): 1, (2, 2, 2, 1, 1, 2): -1,
        }
        c = casimir(2)
        got = cybe_lhs(c, c, c)
        assert got.ring == RATIONAL and got.terms == want
        assert all(isinstance(v, F) for v in got.terms.values())


class TestSwap:
    def test_simple(self):
        t = GlTensor2(2, RATIONAL, {(1, 2, 2, 1): F(1)})
        assert swap_tensor(t).terms == {(2, 1, 1, 2): F(1)}

    def test_involution(self, rng):
        terms = {
            (rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)):
            F(rng.randint(1, 9))
            for _ in range(8)
        }
        t = GlTensor2(3, RATIONAL, terms)
        assert swap_tensor(swap_tensor(t)) == t


@st.composite
def unitarity_pairs(draw):
    """(r_xy, r_yx) over the rationals: r_yx is -swap(r_xy), that with one
    term bumped, dropped or added, or an unrelated tensor."""
    n = draw(st.integers(2, 3))
    idx = st.integers(1, n)
    keys = st.tuples(idx, idx, idx, idx)
    r = GlTensor2(n, RATIONAL, draw(st.dictionaries(keys, COEFFS[RATIONAL], max_size=10)))
    terms = dict(swap_tensor(r).scale(-1).terms)
    how = draw(st.sampled_from(["unitary", "bump", "drop", "add", "other"]))
    if how == "other":
        terms = draw(st.dictionaries(keys, COEFFS[RATIONAL], max_size=10))
    elif how == "add":
        terms[draw(keys)] = draw(COEFFS[RATIONAL])
    elif how != "unitary" and terms:
        key = draw(st.sampled_from(sorted(terms)))
        if how == "bump":
            terms[key] += 1
        else:
            del terms[key]
    return r, GlTensor2(n, RATIONAL, terms)


class TestUnitary:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(unitarity_pairs())
    def test_matches_negated_swap(self, pair):
        r_xy, r_yx = pair
        assert is_unitary_pair(r_xy, r_yx) == (r_yx == swap_tensor(r_xy).scale(-1))

    @pytest.mark.parametrize("route", ["cuspidal", "stolin"])
    @pytest.mark.parametrize("e,d", [(1, 2), (2, 3), (1, 6)])
    def test_assembled_pairs(self, route, e, d):
        """Assembled solutions are unitary; one numerator bumped is not."""
        if route == "cuspidal":
            def r(a, b):
                return cuspidal.assemble_r(e, d, a, b)
        else:
            K = stolin.j_matrix_rat(e, d)

            def r(a, b):
                return stolin.assemble_stolin_r(e, d, K, a, b)

        x, y = F(1, 3), F(-5, 2)
        r_xy, r_yx = r(x, y), r(y, x)
        assert is_unitary_pair(r_xy, r_yx)
        assert r_yx == swap_tensor(r_xy).scale(-1)
        key, v = next(iter(r_yx.terms.items()))
        bumped = GlTensor2(r_yx.n, RATIONAL, {**r_yx.terms, key: v + F(1, v.denominator)})
        assert not is_unitary_pair(r_xy, bumped)
        assert bumped != swap_tensor(r_xy).scale(-1)

    def test_size_and_ring_must_match(self):
        z2, z3 = GlTensor2(2, RATIONAL, {}), GlTensor2(3, RATIONAL, {})
        assert is_unitary_pair(z2, z2)
        assert not is_unitary_pair(z2, z3)
        assert not is_unitary_pair(z2, GlTensor2(2, COMPLEX, {}))


class TestGauges:
    def test_identity(self):
        c = casimir(3)
        identity = signed_permutation_map(3, lambda i, j: (i, j, 1))
        assert apply_gauge(identity, identity, c) == c

    def test_transpose_negate_fixes_casimir(self):
        p = transpose_negate_map(3)
        assert apply_gauge(p, p, casimir(3)) == casimir(3)

    def test_flip_example_n3(self):
        psi = flip_map(3)
        t = tensor_from_pairs(
            3, [(basis_terms(("unit", 1, 2), 3).items(), basis_terms(("cartan", 1), 3).items(), F(1))]
        )
        want = dense_tensor_from_pairs(
            3, [(mat_unit(3, 3, 2), basis_matrix(("cartan", 2), 3), F(-1))]
        )
        assert apply_gauge(psi, psi, t) == want

    def test_involutions(self):
        for n in (2, 3, 4):
            p = transpose_negate_map(n)
            q = flip_map(n)
            identity = signed_permutation_map(n, lambda i, j: (i, j, 1))
            assert p.compose(p) == identity
            assert q.compose(q) == identity

    def test_gauges_are_signed_unit_permutations(self):
        from ybe_forge.cuspidal import flip_transpose_gauge

        for n in range(2, 8):
            units = {(i, j) for i in range(1, n + 1) for j in range(1, n + 1)}
            gauges = [signed_permutation_map(n, lambda i, j: (i, j, 1)),
                      transpose_negate_map(n), flip_map(n)]
            gauges += [flip_transpose_gauge(e, n - e) for e in range(1, n) if gcd(e, n) == 1]
            for g in gauges:
                assert set(g.images) == units
                assert {(a, b) for a, b, _ in g.images.values()} == units
                assert {s for _, _, s in g.images.values()} <= {1, -1}

    def test_gauges_are_automorphisms(self):
        """g([A, B]) = [g(A), g(B)] on all pairs of matrix units."""
        from ybe_forge.cuspidal import flip_transpose_gauge

        def bracket(a, b):
            # [e_ij, e_kl] = delta_jk e_il - delta_li e_kj, as {unit: coeff}
            (i, j), (k, l) = a, b
            out = {}
            if j == k:
                out[(i, l)] = out.get((i, l), 0) + 1
            if l == i:
                out[(k, j)] = out.get((k, j), 0) - 1
            return {u: c for u, c in out.items() if c}

        for n in range(2, 6):
            gauges = [transpose_negate_map(n), flip_map(n)]
            gauges += [flip_transpose_gauge(e, n - e) for e in range(1, n) if gcd(e, n) == 1]
            for g in gauges:
                for a in g.images:
                    for b in g.images:
                        (pa, qa, sa), (pb, qb, sb) = g.images[a], g.images[b]
                        lhs = {g.images[u][:2]: c * g.images[u][2]
                               for u, c in bracket(a, b).items()}
                        rhs = {u: c * sa * sb for u, c in bracket((pa, qa), (pb, qb)).items()}
                        assert lhs == rhs

    def test_compose_applies_right_factor_first(self, rng):
        # a row shift does not commute with the transpose
        p = transpose_negate_map(3)
        g = signed_permutation_map(3, lambda i, j: (i % 3 + 1, j, 1 if i < 3 else -1))
        t = GlTensor2(3, RATIONAL, {
            tuple(rng.randint(1, 3) for _ in range(4)): F(rng.randint(1, 9)) for _ in range(12)
        })
        pg = p.compose(g)
        assert apply_gauge(pg, pg, t) == apply_gauge(p, p, apply_gauge(g, g, t))
        assert pg != g.compose(p)

    def test_gauge_preserves_solution_property(self):
        # constant invertible gauge keeps CYBE residual zero and unitarity
        from ybe_forge.elliptic import zoo_stolin_rat

        psi = flip_map(2)

        def gauged(z):
            return apply_gauge(psi, psi, zoo_stolin_rat(z))

        from ybe_forge.lie import cybe_residual_difference

        assert cybe_residual_difference(gauged, F(1, 3), F(1, 5)).is_zero()
        assert is_unitary_pair(
            apply_gauge(psi, psi, zoo_stolin_rat(F(2, 7))),
            apply_gauge(psi, psi, zoo_stolin_rat(F(-2, 7))),
        )


class TestNondegenerate:
    def test_casimir(self):
        assert nondegenerate(casimir(2)) and nondegenerate(casimir(3))

    def test_zero(self):
        assert not nondegenerate(GlTensor2(2, RATIONAL, {}))

    def test_rank_one(self):
        t = GlTensor2(2, RATIONAL, {(1, 2, 2, 1): F(1)})
        assert not nondegenerate(t)


class TestHeisenberg:
    def test_n2_goldens(self):
        hb = heisenberg(2, 1)
        # Phi_2 has degree 1, so each root-table row is the rational value
        table = root_table(2)

        def dense(m):
            rows = [[0, 0], [0, 0]]
            for i, e in enumerate(m.exps):
                rows[i][(i + m.shift) % 2] = table[hb.d * e % 2][0]
            return rows

        assert dense(hb.X) == [[1, 0], [0, -1]]
        assert dense(hb.Y) == [[0, 1], [1, 0]]

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            heisenberg(4, 2)

    @pytest.mark.parametrize(
        "n,d", [(n, d) for n in range(2, N_MAX + 1) for d in range(1, n) if gcd(n, d) == 1]
    )
    def test_dual_family_reproduces_casimir(self, n, d):
        # every basis a CLI command can ask for is built, and so validated
        assert _dual_sum(heisenberg(n, d)) == casimir(n)

    def test_eigenrelations_validated_at_construction(self):
        # constructor raises on violation; reaching here means they hold
        heisenberg(3, 1)
        heisenberg(5, 3)

    @pytest.mark.parametrize(
        "family,what,check",
        [
            ("X", "exponent", "clock"),
            ("Y", "shift", "shift conjugation"),
            ("Z", "exponent", "shift conjugation"),
            ("Z", "shift", "clock"),
            ("Z_dual", "exponent", "duality"),
            ("Z_dual", "den", "duality"),
        ],
    )
    def test_corrupted_basis_fails_validation(self, family, what, check):
        hb = heisenberg(3, 1)
        _validate_heisenberg(hb)

        def corrupt(m):
            if what == "shift":
                return Monomial((m.shift + 1) % 3, m.exps, m.den)
            if what == "den":
                return Monomial(m.shift, m.exps, m.den + 1)
            return Monomial(m.shift, ((m.exps[0] + 1) % 3,) + m.exps[1:], m.den)

        fields = {"X": hb.X, "Y": hb.Y, "Z": hb.Z, "Z_dual": hb.Z_dual}
        old = fields[family]
        fields[family] = (corrupt(old) if family in ("X", "Y")
                          else {**old, (1, 2): corrupt(old[(1, 2)])})
        with pytest.raises(AssertionError, match=check):
            _validate_heisenberg(HeisenbergBasis(hb.n, hb.d, index_set=hb.index_set, **fields))

    @pytest.mark.parametrize("n,d", [(3, 2), (4, 1), (5, 3)])
    def test_complex_values_match_clock_and_shift(self, n, d):
        hb = heisenberg(n, d)
        eps = cmath.exp(2j * cmath.pi * d / n)
        X = np.diag([eps**i for i in range(n)])
        Y = np.roll(np.eye(n), 1, axis=1)
        for (k, l) in hb.index_set:
            z = np.linalg.matrix_power(Y, k) @ np.linalg.matrix_power(np.linalg.inv(X), l)
            dense_dual, dense = z_matrices(hb, k, l)
            assert np.allclose(np.array(dense), z, atol=1e-12)
            assert np.allclose(np.array(dense_dual), np.linalg.inv(z) / n, atol=1e-12)

    @pytest.mark.parametrize("n,d", [(2, 1), (3, 2), (4, 1), (5, 3), (12, 5)])
    def test_entries_are_the_dense_nonzeros(self, n, d):
        """`heisenberg_entries` lists the nonzero entries of the dense
        matrices, values bit for bit, in the order of a row-major scan."""
        hb = heisenberg(n, d)
        entries = heisenberg_entries(n, d)
        assert len(entries) == len(hb.index_set)
        for kl, pair in zip(hb.index_set, entries):
            for got, m in zip(pair, z_matrices(hb, *kl)):
                want = [((i + 1, j + 1), m[i][j]) for i in range(n) for j in range(n) if m[i][j]]
                assert repr(list(got)) == repr(want)
