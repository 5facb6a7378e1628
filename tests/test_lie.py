"""Tensor algebra on gl(n)/sl(n): trace pairing, Casimir, CYBE machinery,
gauges, and the clock-and-shift eigenbasis."""

import cmath
import random
from fractions import Fraction as F
from functools import lru_cache
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_exact import j_matrix_rat, mat_from_entries, mat_terms, mat_unit, rank
from ybe_forge import cuspidal, cybe, lie, residuals, stolin
from ybe_forge.exact import ZERO
from ybe_forge.heis import _root_values
from ybe_forge.lie import (
    COMPLEX,
    GlTensor2,
    RATIONAL,
    apply_gauge,
    cybe_lhs,
    cybe_residual_two_variable,
    heisenberg,
    is_unitary_pair,
    signed_permutation_map,
    swap_tensor,
    tensor_from_pairs,
    transpose_negate_map,
)
from ybe_forge.request import N_MAX
from ybe_forge.table import POLE, TensorTable, basis_terms, casimir, dual_terms, sl_basis
from ybe_forge.proofs import flip_map
from ybe_forge.verify import scale


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


# Reference of the clock-and-shift basis `lie.heisenberg`, built by dense
# matrix products and not from the closed form of `heis`.  A matrix is a
# tuple of rows of entries in the group ring Q[C_n]: an entry is a dict
# {e: coefficient} for the sum of coefficient * eps^e, e mod n, and {} is 0.
# eps = exp(2 pi i d / n) is a primitive n-th root of unity for every d
# coprime to n, so the exact matrices are the same for every d; only their
# values depend on d.

COPRIME_N_MAX = [(n, d) for n in range(2, N_MAX + 1) for d in range(1, n) if gcd(n, d) == 1]


def index_set(n: int) -> list:
    """The indices (k, l) != (0, 0) of the basis, k and l mod n, row-major."""
    return [(k, l) for k in range(n) for l in range(n) if (k, l) != (0, 0)]


def gr_product(a, b, n: int) -> tuple:
    """The dense product a b over Q[C_n]."""
    out = [[{} for _ in a] for _ in a]
    for i, row in enumerate(a):
        for m, x in enumerate(row):
            if not x:
                continue
            for j, y in enumerate(b[m]):
                acc = out[i][j]
                for e, c in x.items():
                    for f, g in y.items():
                        v = acc.get((e + f) % n, 0) + c * g
                        if v:
                            acc[(e + f) % n] = v
                        else:
                            acc.pop((e + f) % n)
    return tuple(tuple(row) for row in out)


def gr_scaled(m, c, e: int, n: int) -> tuple:
    """c eps^e m."""
    return tuple(tuple({(f + e) % n: c * v for f, v in x.items()} for x in row) for row in m)


@lru_cache(maxsize=None)
def clock_and_shift(n: int) -> tuple:
    """(X, Y, X^-1, Y^-1): the clock diag(eps^i) and the shift, row i
    holding 1 in column i + 1, with their inverses."""
    def monomial(column, exponent):
        return tuple(tuple({exponent(i): 1} if j == column(i) else {} for j in range(n))
                     for i in range(n))

    return (monomial(lambda i: i, lambda i: i), monomial(lambda i: (i + 1) % n, lambda i: 0),
            monomial(lambda i: i, lambda i: -i % n), monomial(lambda i: (i - 1) % n, lambda i: 0))


@lru_cache(maxsize=None)
def reference_basis(n: int) -> dict:
    """{(k, l): (Zdual, Z)}: Z = Y^k X^-l and Zdual = Z^-1 / n = X^l Y^-k / n,
    each by dense products."""
    def powers(m):
        out = [tuple(tuple({0: 1} if i == j else {} for j in range(n)) for i in range(n))]
        for _ in range(n - 1):
            out.append(gr_product(out[-1], m, n))
        return out

    xs, ys, xs_inv, ys_inv = (powers(m) for m in clock_and_shift(n))
    return {(k, l): (gr_scaled(gr_product(xs[l], ys_inv[k], n), F(1, n), 0, n),
                     gr_product(ys[k], xs_inv[l], n))
            for k, l in index_set(n)}


def gr_entries(m, n: int, d: int) -> tuple:
    """The nonzero entries of m, ((row, column), value) pairs, 1-based in
    row-major order, each entry c eps^e with c = 1/den valued as the float
    of zeta_n^(d e) / den that `heis._root_values` gives."""
    out = []
    for i, row in enumerate(m):
        for j, x in enumerate(row):
            if x:
                (e, c), = x.items()
                assert c.numerator == 1 if isinstance(c, F) else c == 1
                out.append(((i + 1, j + 1), _root_values(n, F(c).denominator)[d * e % n]))
    return tuple(out)


def reference_matrices(n: int, d: int, a) -> tuple:
    """Zdual_a and Z_a of the reference as dense n x n tuples of complex
    values."""
    out = []
    for m in reference_basis(n)[a]:
        rows = [[0j] * n for _ in range(n)]
        for (i, j), v in gr_entries(m, n, d):
            rows[i - 1][j - 1] = v
        out.append(tuple(tuple(row) for row in rows))
    return tuple(out)


def check_basis(n: int, d: int, X, Y, basis: dict) -> None:
    """Raise AssertionError on the first relation the basis {a: (Zdual,
    Z)} breaks, for the clock X and the shift Y:

    - X^-1 Z_(k,l) X = eps^k Z_(k,l) and Y^-1 Z_(k,l) Y = eps^l Z_(k,l),
      with the true inverses, so that a changed X or Y breaks them too;
    - sum Zdual (x) Z = casimir(n) at eps = zeta_n^d, exactly: this is the
      full duality table tr(Zdual_a Z_b) = delta_ab (see `residuals._dual_sum`)."""
    _, _, X_inv, Y_inv = clock_and_shift(n)
    for (k, l), (_, z) in basis.items():
        if gr_product(gr_product(X_inv, z, n), X, n) != gr_scaled(z, 1, k, n):
            raise AssertionError("clock conjugation relation failed at %r" % ((k, l),))
        if gr_product(gr_product(Y_inv, z, n), Y, n) != gr_scaled(z, 1, l, n):
            raise AssertionError("shift conjugation relation failed at %r" % ((k, l),))
    counts: dict = {}
    for z_dual, z in basis.values():
        scaled = [(i, j, e, c * n) for i, row in enumerate(z_dual) for j, x in enumerate(row)
                  for e, c in x.items()]
        if any(F(c).denominator != 1 for *_, c in scaled):
            raise AssertionError("duality failed: a dual is not in (1/n) Z[eps]")
        entries = [(p, q, f, g) for p, row in enumerate(z) for q, y in enumerate(row)
                   for f, g in y.items()]
        for i, j, e, c in scaled:
            for p, q, f, g in entries:
                counts.setdefault((i + 1, j + 1, p + 1, q + 1), [0] * n)[d * (e + f) % n] += int(c) * g
    values = {key: residuals.cyclo_rational(c, n) for key, c in counts.items()}
    terms = {key: v for key, v in values.items() if v}
    if None in values.values() or GlTensor2.over(n, terms, n) != casimir(n):
        raise AssertionError("duality failed: sum of Zdual (x) Z is not the Casimir")


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
        t = t.add(scale(casimir(n), draw(COEFFS[RATIONAL] | st.just(F(0)))))
        for first in (True, False):
            for u, c in draw(units).items():
                t = t.add(identity_part(n, u, c, first))
        out.append(t)
    return out


def join_products(monkeypatch) -> list:
    """Spy on `cybe._join`: the returned one-element list counts the
    products the joins form, the sum over shared indices of the sizes of
    the two groups."""
    count = [0]
    join = cybe._join

    def spy(total, xs, ys, sign):
        count[0] += sum(len(g) * len(ys.get(idx, ())) for idx, g in xs.items())
        join(total, xs, ys, sign)

    monkeypatch.setattr(cybe, "_join", spy)
    return count


def stolin_1_6_triple() -> tuple:
    """The Stolin (1,6) solution at K = J, evaluated at (0, 1), (0, 2) and
    (1, 2)."""
    K = j_matrix_rat(1, 6)

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
        assert not cybe_lhs(r12, r13, r23).terms
        wrong = cybe_lhs(scale(r12, -1), r13, r23)
        assert len(wrong.terms) == 7135
        assert wrong.terms == _naive_cybe(scale(r12, -1), r13, r23)

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
        shifted = [t.add(scale(eye, data.draw(COEFFS[RATIONAL]))) for t in tensors]
        same(cybe_lhs(*shifted), cybe_lhs(*tensors))

    def test_drop_in_the_other_slot_is_caught(self, monkeypatch):
        """Negative control: dropping I from the second factor, which the
        commutator does not act on, changes the result."""
        drop = cybe._drop_central

        def drop_second(terms, n):
            flipped = lie._swapped(terms)
            drop(flipped, n)
            terms.clear()
            terms.update(lie._swapped(flipped))

        monkeypatch.setattr(cybe, "_drop_central", drop_second)
        r12 = GlTensor2(2, RATIONAL, {(2, 1, 1, 1): F(1)})
        r13 = identity_part(2, (1, 2), 1, first=False)
        zero = GlTensor2(2, RATIONAL, {})
        assert _naive_cybe(r12, r13, zero) != {}
        assert cybe_lhs(r12, r13, zero).terms != _naive_cybe(r12, r13, zero)
        assert cybe_lhs(*stolin_1_6_triple()).terms

    def test_join_products_at_stolin_1_6(self, monkeypatch):
        """Deterministic work guard: at the Stolin (1,6) solution the joins
        form at most 30,000 products (56,294 without the central drop)."""
        tensors = stolin_1_6_triple()
        count = join_products(monkeypatch)
        assert not cybe_lhs(*tensors).terms
        assert count[0] <= 30_000
        # the count sees the saving: without the drop it is back
        count[0] = 0
        monkeypatch.setattr(cybe, "_drop_central", lambda terms, n: None)
        assert not cybe_lhs(*tensors).terms
        assert count[0] == 56_294

    def test_setup_per_call_at_n3(self, monkeypatch):
        """Deterministic set-up guard: a call at the cuspidal (2,1) solution
        at (0, 1, 2) groups each side of each of its six joins once, 12
        groupings (6 of them split by rows), and joins once per row holding
        terms, 3 rows x 6 joins.  With r23 = 0 the four joins that take r23
        have an empty side and are skipped: 6 joins."""
        calls = {"_join": 0, "_by_slot": 0, "_rows_by_slot": 0}
        for name in calls:
            def spy(*args, name=name, inner=getattr(cybe, name)):
                calls[name] += 1
                return inner(*args)
            monkeypatch.setattr(cybe, name, spy)

        def r(a, b):
            return cuspidal.assemble_r(2, 1, F(a), F(b))

        r12, r13, r23 = r(0, 1), r(0, 2), r(1, 2)
        assert not cybe_lhs(r12, r13, r23).terms
        assert calls == {"_join": 18, "_by_slot": 6, "_rows_by_slot": 6}
        calls.update(dict.fromkeys(calls, 0))
        zero = GlTensor2(3, RATIONAL, {})
        assert cybe_lhs(r12, r13, zero).terms == _naive_cybe(r12, r13, zero)
        assert calls == {"_join": 6, "_by_slot": 6, "_rows_by_slot": 6}

    def test_zero_inputs(self):
        z = GlTensor2(2, RATIONAL, {})
        assert not cybe_lhs(z, z, z).terms

    def test_yang_solution(self):
        def yang(x, y):
            return scale(casimir(2), F(1) / (y - x))

        res = cybe_residual_two_variable(yang, (F(0), F(1), F(2)))
        assert not res.terms

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
    terms = dict(scale(swap_tensor(r), -1).terms)
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
        assert is_unitary_pair(r_xy, r_yx) == (r_yx == scale(swap_tensor(r_xy), -1))

    @pytest.mark.parametrize("route", ["cuspidal", "stolin"])
    @pytest.mark.parametrize("e,d", [(1, 2), (2, 3), (1, 6)])
    def test_assembled_pairs(self, route, e, d):
        """Assembled solutions are unitary; one numerator bumped is not."""
        if route == "cuspidal":
            def r(a, b):
                return cuspidal.assemble_r(e, d, a, b)
        else:
            K = j_matrix_rat(e, d)

            def r(a, b):
                return stolin.assemble_stolin_r(e, d, K, a, b)

        x, y = F(1, 3), F(-5, 2)
        r_xy, r_yx = r(x, y), r(y, x)
        assert is_unitary_pair(r_xy, r_yx)
        assert r_yx == scale(swap_tensor(r_xy), -1)
        key, v = next(iter(r_yx.terms.items()))
        bumped = GlTensor2(r_yx.n, RATIONAL, {**r_yx.terms, key: v + F(1, v.denominator)})
        assert not is_unitary_pair(r_xy, bumped)
        assert bumped != scale(swap_tensor(r_xy), -1)

    def test_size_and_ring_must_match(self):
        z2, z3 = GlTensor2(2, RATIONAL, {}), GlTensor2(3, RATIONAL, {})
        assert is_unitary_pair(z2, z2)
        assert not is_unitary_pair(z2, z3)
        assert not is_unitary_pair(z2, GlTensor2(2, COMPLEX, {}))


# --- point evaluations as integer numerators over one denominator ------------

def table_reference(table, x, y) -> dict:
    """{key: Fraction} of r(x, y) from the table's definition: each key's
    numerators times the values x^a y^b / (y - x)^p of their monomials,
    over the table's denominator, zeros dropped."""
    values = [x**a * y**b / (y - x) ** p for p, a, b in table.monomials]
    out = {key: sum(v * values[c] for c, v in row) / table.den
           for key, row in table.terms.items()}
    return {key: v for key, v in out.items() if v}


ROUTE_TABLES = {
    "cuspidal": lambda e, d: cuspidal.sol_family(e, d).table,
    "stolin": lambda e, d: stolin.solve_dec(e, d, stolin.neg_j_matrix(e, d)).table,
}
SOLUTION_PAIRS = [(1, 6), (2, 3), (3, 1)]


def fraction_form(t: GlTensor2) -> GlTensor2:
    """The value of `t` in a tensor built from Fractions."""
    return GlTensor2(t.n, RATIONAL, dict(t.terms))


def planted(t: GlTensor2, change) -> GlTensor2:
    """`t` in integer form with its numerator v at the least key replaced
    by change(v)."""
    nums, den = t.numerators()
    key = min(nums)
    return GlTensor2.over(t.n, {**nums, key: change(nums[key])}, den)


def same_lhs(a, b) -> bool:
    return (a.n, a.ring, a.terms) == (b.n, b.ring, b.terms)


def count_fractions(monkeypatch) -> list:
    """Count the Fractions built from here on: the returned one-element
    list holds the number of `Fraction.__new__` calls."""
    count = [0]
    new = F.__new__

    def counting(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counting)
    return count


class TestIntegerForm:
    @pytest.mark.parametrize("route", sorted(ROUTE_TABLES))
    @pytest.mark.parametrize("e,d", SOLUTION_PAIRS)
    @pytest.mark.parametrize("seed", [3, 17])
    def test_at_matches_reference(self, route, e, d, seed):
        table = ROUTE_TABLES[route](e, d)
        rng = random.Random(seed)
        for _ in range(4):
            x = F(rng.randint(-9, 9), rng.randint(1, 9))
            y = x + F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
            t = table.at(x, y)
            nums, den = t.numerators()
            assert den > 0 and all(type(v) is int and v for v in nums.values())
            assert t.terms == table_reference(table, x, y)

    def test_at_sums_rows_of_several_pairs(self):
        """No pipeline table has a row of two pairs; `at` sums them all.
        The key (1, 1, 2, 2) is y - 2x, which cancels at (3/5, 6/5), and a
        point with x = 0 or y = 0 zeroes every monomial with a positive
        exponent there.  Negative control: an evaluation that reads only
        the first pair of each row differs from the reference."""
        monomials = ((0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 2, 1), POLE, (2, 0, 0))
        assert list(monomials) == sorted(monomials)
        rows = {(1, 2, 2, 1): ((0, 3), (5, 2)), (2, 1, 1, 2): ((1, -1), (2, 5), (3, 7)),
                (1, 1, 2, 2): ((1, 1), (2, -2)), (2, 2, 1, 1): ((4, 4), (6, -3)),
                (1, 2, 1, 2): ((2, 1), (4, -1), (5, 6)), (2, 1, 2, 1): ((6, 5),)}
        table = TensorTable(2, monomials, 6, rows)
        first_only = TensorTable(2, monomials, 6, {key: row[:1] for key, row in rows.items()})
        points = [(F(3, 5), F(6, 5)), (F(0), F(2)), (F(3, 2), F(0)), (F(0), F(-1, 4)),
                  (F(-1, 3), F(4, 7)), (F(5), F(-2))]
        for x, y in points:
            want = table_reference(table, x, y)
            got = table.at(x, y)
            assert got.terms == want
            assert list(got.numerators()[0]) == [key for key in rows if key in want]
            assert first_only.at(x, y).terms != want
        assert (1, 1, 2, 2) not in table.at(F(3, 5), F(6, 5)).terms

    def test_at_refuses_equal_points(self):
        x = F(1, 3)
        with pytest.raises(ValueError, match="need x != y"):
            cuspidal.assemble_r(2, 1, x, F(2, 6))
        with pytest.raises(ValueError, match="need x != y"):
            stolin.assemble_stolin_r(1, 2, stolin.neg_j_matrix(1, 2), x, x)
        with pytest.raises(ValueError, match="need x != y"):
            ROUTE_TABLES["stolin"](1, 6).at(x, x)

    @pytest.mark.parametrize("route", sorted(ROUTE_TABLES))
    @pytest.mark.parametrize("e,d", SOLUTION_PAIRS)
    def test_cybe_lhs_on_both_forms(self, route, e, d):
        """Integer-form, Fraction-form and mixed triples give equal left-hand
        sides: zero at the solution, and equal and nonzero once one
        coefficient of r12 is changed."""
        at = ROUTE_TABLES[route](e, d).at
        points = ((F(1, 3), F(-2)), (F(1, 3), F(5, 4)), (F(-2), F(5, 4)))

        def each_form(change):
            ints = [at(*p) for p in points]
            ints[0] = planted(ints[0], change)
            fracs = [fraction_form(planted(at(*points[0]), change))]
            fracs += [fraction_form(at(*p)) for p in points[1:]]
            mixed = [(ints[0], fracs[1], ints[2]), (fracs[0], ints[1], fracs[2])]
            return [cybe_lhs(*triple) for triple in [ints, fracs] + mixed]

        assert all(not res.terms for res in each_form(lambda v: v))
        got = each_form(lambda v: v + 1)
        assert got[0].terms
        assert all(same_lhs(res, got[0]) for res in got[1:])

    @pytest.mark.parametrize("route", sorted(ROUTE_TABLES))
    @pytest.mark.parametrize("e,d", SOLUTION_PAIRS)
    def test_unitarity_on_both_forms(self, route, e, d):
        """`is_unitary_pair` gives one answer on integer-form, Fraction-form
        and mixed pairs; one sign flipped in r(y, x) is not unitary in any
        of them."""
        at = ROUTE_TABLES[route](e, d).at
        x, y = F(2, 7), F(-3, 5)

        def each_form(change):
            def r_yx():
                return planted(at(y, x), change)

            return [is_unitary_pair(a, b) for a, b in [
                (at(x, y), r_yx()), (fraction_form(at(x, y)), fraction_form(r_yx())),
                (at(x, y), fraction_form(r_yx())), (fraction_form(at(x, y)), r_yx())]]

        assert each_form(lambda v: v) == [True] * 4
        assert each_form(lambda v: -v) == [False] * 4
        # the numerators are compared over their denominators
        nums, den = at(y, x).numerators()
        tripled = GlTensor2.over(e + d, {k: 3 * v for k, v in nums.items()}, 3 * den)
        assert is_unitary_pair(at(x, y), tripled)
        assert not is_unitary_pair(at(x, y), GlTensor2.over(e + d, nums, 3 * den))

    def test_evaluation_builds_no_fraction(self, monkeypatch):
        """The CYBE residual and the unitarity test of the Stolin (1,6)
        solution at -J build no Fraction once `solve_dec` is warm; a read of
        `terms` builds one per term."""
        K = stolin.neg_j_matrix(1, 6)

        def r(a, b):
            return stolin.assemble_stolin_r(1, 6, K, a, b)

        x1, x2, x3 = F(1, 3), F(-4, 7), F(5, 2)
        r(x1, x2)
        count = count_fractions(monkeypatch)
        assert not cybe_residual_two_variable(r, (x1, x2, x3)).terms
        assert is_unitary_pair(r(x1, x2), r(x2, x1))
        assert is_unitary_pair(r(x3, x1), r(x1, x3))
        assert count[0] == 0
        t = r(x2, x3)
        terms = t.terms
        assert count[0] == len(terms) > 0

    @pytest.mark.parametrize("route", sorted(ROUTE_TABLES))
    def test_evaluations_share_nothing(self, route):
        """An evaluation changed by `planted` leaves the next one at the same
        points as it was, and the CYBE kernel sees the change; the kernel
        leaves the numerators it is given as they were, also when all three
        share one denominator."""
        e, d = 2, 3
        K = stolin.neg_j_matrix(e, d)
        assemble = {"cuspidal": lambda x, y: cuspidal.assemble_r(e, d, x, y),
                    "stolin": lambda x, y: stolin.assemble_stolin_r(e, d, K, x, y)}[route]
        x1, x2, x3 = F(1, 2), F(-1, 3), F(4)
        want = dict(assemble(x1, x2).terms)
        changed = planted(assemble(x1, x2), lambda v: v + 1)
        assert assemble(x1, x2).terms == want
        res = cybe_lhs(changed, assemble(x1, x3), assemble(x2, x3))
        assert res.terms
        assert same_lhs(res, cybe_lhs(fraction_form(changed), assemble(x1, x3),
                                      assemble(x2, x3)))
        t = assemble(x1, x3)
        nums, den = t.numerators()
        held = dict(nums)
        assert cybe_lhs(t, t, t).terms
        assert t.numerators() == (held, den)


    @pytest.mark.parametrize("route", sorted(ROUTE_TABLES))
    def test_gauge_keeps_integer_form(self, route):
        """`apply_gauge` maps an evaluation to integer numerators over the
        same denominator, with the value of the gauged Fraction form; `==`
        compares canonical forms: a planted numerator change is unequal, the
        same value over a tripled denominator equal."""
        phi = transpose_negate_map(5)
        t = ROUTE_TABLES[route](2, 3).at(F(2, 7), F(-3, 5))
        nums, den = t.numerators()
        gauged = apply_gauge(phi, phi, t)
        g_nums, g_den = gauged.numerators()
        assert g_den == den
        assert sorted(map(abs, g_nums.values())) == sorted(map(abs, nums.values()))
        assert gauged.terms == apply_gauge(phi, phi, fraction_form(t)).terms
        identity = signed_permutation_map(5, lambda i, j: (i, j, 1))
        assert apply_gauge(phi, identity, t).terms == {
            (j, i, k, l): -c for (i, j, k, l), c in fraction_form(t).terms.items()}
        gauged = apply_gauge(phi, phi, t)
        assert gauged != apply_gauge(phi, phi, planted(t, lambda v: v + 1))
        assert gauged != apply_gauge(phi, phi, planted(t, lambda v: -v))
        assert gauged == GlTensor2.over(5, {k: 3 * v for k, v in g_nums.items()}, 3 * g_den)
        assert gauged != GlTensor2.over(5, g_nums, 3 * g_den)

    def test_compare_builds_no_fraction(self, monkeypatch):
        """Once the caches are warm, comparing the pipelines at (2,3) builds
        no Fraction, and a planted change on the gauged side is seen."""
        x, y = F(1, 3), F(-5, 2)
        assert stolin.compare_pipelines(2, 3, x, y)
        count = count_fractions(monkeypatch)
        assert stolin.compare_pipelines(2, 3, x, y)
        assert count[0] == 0
        phi = transpose_negate_map(5)
        lhs = apply_gauge(phi, phi, planted(cuspidal.assemble_r(2, 3, x, y), lambda v: v + 1))
        assert lhs != stolin.assemble_stolin_r(2, 3, stolin.neg_j_matrix(2, 3), x, y)
        assert count[0] == 0


HANDED_OUT = ("cuspidal", "stolin", "casimir", "apply_gauge", "swap_tensor", "tensor_from_pairs",
              "add", "scale", "belavin_r", "loaded-rational", "loaded-complex")


@pytest.fixture(scope="module")
def handed_out() -> dict:
    """name -> tensor, for every kind of tensor the package hands out."""
    from ybe_forge.document import document_from_tensor, dumps, loads
    from ybe_forge.elliptic import ThetaContext, belavin_r

    x, y = F(2, 7), F(-3, 5)
    out = {route: ROUTE_TABLES[route](2, 3).at(x, y) for route in ROUTE_TABLES}
    c, phi = casimir(3), transpose_negate_map(3)
    out.update(casimir=c, apply_gauge=apply_gauge(phi, phi, c), swap_tensor=swap_tensor(c),
               add=c.add(c), scale=scale(c, F(-2, 5)),
               belavin_r=belavin_r(3, 1, ThetaContext(tau=1j), 0.1, 0.3))
    out["tensor_from_pairs"] = tensor_from_pairs(3, [(
        basis_terms(("unit", 1, 2), 3).items(), basis_terms(("cartan", 1), 3).items(), F(1, 3))])
    for t in (out["cuspidal"], out["belavin_r"]):
        out["loaded-" + t.ring] = loads(dumps(document_from_tensor(t))).to_tensor()
    return out


@pytest.mark.parametrize("name", HANDED_OUT)
def test_tensors_are_read_only(handed_out, name):
    """Every tensor the package hands out refuses a write through `terms`
    and through `numerators()`, the cached Casimir among them, which
    `tensor_table` and `verify` read: it still equals a fresh one."""
    t = handed_out[name]
    nums, _ = t.numerators()
    key = min(nums)
    for view in (t.terms, nums):
        with pytest.raises(TypeError):
            view[key] = 0
        with pytest.raises(TypeError):
            del view[key]
        assert not any(hasattr(view, m) for m in ("clear", "pop", "popitem", "update", "setdefault"))
    assert casimir(3) == casimir.__wrapped__(3)


def test_complex_constructor_copies_its_terms():
    """A complex tensor holds its own dict: a caller that changes the dict
    it passed leaves the tensor as it was."""
    d = {(1, 2, 2, 1): 1j}
    t = GlTensor2(2, COMPLEX, d)
    d[(1, 2, 2, 1)] = 5j
    assert t.terms == {(1, 2, 2, 1): 1j}


def composed(f, g) -> dict:
    """The images of the signed unit permutation f after g."""
    return {key: f[a, b][:2] + (s * f[a, b][2],) for key, (a, b, s) in g.items()}


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
            assert composed(p, p) == identity
            assert composed(q, q) == identity

    def test_gauges_are_signed_unit_permutations(self):
        from ybe_forge.proofs import flip_transpose_gauge

        for n in range(2, 8):
            units = {(i, j) for i in range(1, n + 1) for j in range(1, n + 1)}
            gauges = [signed_permutation_map(n, lambda i, j: (i, j, 1)),
                      transpose_negate_map(n), flip_map(n)]
            gauges += [flip_transpose_gauge(e, n - e) for e in range(1, n) if gcd(e, n) == 1]
            for g in gauges:
                assert set(g) == units
                assert {(a, b) for a, b, _ in g.values()} == units
                assert {s for _, _, s in g.values()} <= {1, -1}

    def test_gauges_are_automorphisms(self):
        """g([A, B]) = [g(A), g(B)] on all pairs of matrix units."""
        from ybe_forge.proofs import flip_transpose_gauge

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
                for a in g:
                    for b in g:
                        (pa, qa, sa), (pb, qb, sb) = g[a], g[b]
                        lhs = {g[u][:2]: c * g[u][2]
                               for u, c in bracket(a, b).items()}
                        rhs = {u: c * sa * sb for u, c in bracket((pa, qa), (pb, qb)).items()}
                        assert lhs == rhs

    @pytest.mark.parametrize("slot", [0, 1])
    def test_gauge_of_another_n_is_refused(self, slot):
        """A gauge of n = 2 or 4 in either slot of an n = 3 tensor raises;
        the control, both gauges of n = 3, maps the tensor."""
        c, own = casimir(3), transpose_negate_map(3)
        assert apply_gauge(own, own, c) == c
        for other in (transpose_negate_map(2), transpose_negate_map(4)):
            gauges = [own, own]
            gauges[slot] = other
            with pytest.raises(ValueError, match="^gauge size mismatch$"):
                apply_gauge(*gauges, c)

    @pytest.mark.parametrize("n", [2, 5])
    def test_automorphism_criterion_reads_n_off_the_gauge(self, n):
        """`_is_automorphism` takes n from the gauge's keys: it accepts
        transpose-negation and rejects the bare transpose, an
        anti-automorphism, at n = 2 and n = 5."""
        from ybe_forge.proofs import _is_automorphism

        assert _is_automorphism(transpose_negate_map(n))
        assert not _is_automorphism(signed_permutation_map(n, lambda i, j: (j, i, 1)))

    def test_gauge_preserves_solution_property(self):
        # constant invertible gauge keeps CYBE residual zero and unitarity
        from ybe_forge.residuals import zoo_stolin_rat

        psi = flip_map(2)

        def gauged(z):
            return apply_gauge(psi, psi, zoo_stolin_rat(z))

        x, y = F(1, 3), F(1, 5)
        assert not cybe_lhs(gauged(x), gauged(x + y), gauged(y)).terms
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
    """`lie.heisenberg` against the dense reference above."""

    def test_n2_goldens(self):
        """At n = 2 every root is +-1: Z_(0,1) = X^-1, Z_(1,0) = Y and
        Z_(1,1) = Y X^-1, with their duals Z^-1 / 2."""
        dense = {a: [[0.0] * 2 for _ in range(2)] for a in index_set(2)}
        dense_dual = {a: [[0.0] * 2 for _ in range(2)] for a in index_set(2)}
        for a, z_dual, z in heisenberg(2, 1):
            for m, entries in ((dense_dual[a], z_dual), (dense[a], z)):
                for (i, j), v in entries:
                    assert v.imag == 0
                    m[i - 1][j - 1] = v.real
        assert dense == {(0, 1): [[1, 0], [0, -1]], (1, 0): [[0, 1], [1, 0]],
                         (1, 1): [[0, -1], [1, 0]]}
        assert dense_dual == {(0, 1): [[0.5, 0], [0, -0.5]], (1, 0): [[0, 0.5], [0.5, 0]],
                              (1, 1): [[0, 0.5], [-0.5, 0]]}

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            heisenberg(4, 2)

    @pytest.mark.parametrize("n,d", COPRIME_N_MAX)
    def test_dual_family_reproduces_casimir(self, n, d):
        """At every pair a CLI command can ask for, the exact duality sum
        that `verify.check_belavin` reports holds, and the reference is the
        eigenbasis: its conjugation relations and its duality hold."""
        assert residuals._dual_sum(n, d) == casimir(n)
        X, Y, _, _ = clock_and_shift(n)
        check_basis(n, d, X, Y, reference_basis(n))

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
        """Negative controls: a changed shift (the column of every row), a
        changed exponent (of row 0) or a changed dual denominator (n + 1)
        in one matrix each break a relation of `check_basis`, and a changed
        Z or Zdual no longer gives the entries of `lie.heisenberg`."""
        n, d, a = 3, 1, (1, 2)
        X, Y, _, _ = clock_and_shift(n)
        basis = dict(reference_basis(n))
        check_basis(n, d, X, Y, basis)

        def corrupt(m):
            if what == "shift":
                return tuple(row[-1:] + row[:-1] for row in m)
            if what == "den":
                return gr_scaled(m, F(n, n + 1), 0, n)
            row0 = tuple({(e + 1) % n: c for e, c in x.items()} for x in m[0])
            return (row0,) + m[1:]

        fields = {"X": X, "Y": Y}
        if family in fields:
            fields[family] = corrupt(fields[family])
        else:
            z_dual, z = basis[a]
            basis[a] = (corrupt(z_dual), z) if family == "Z_dual" else (z_dual, corrupt(z))
            got = {b: (zd, z) for b, zd, z in heisenberg(n, d)}[a]
            want = tuple(gr_entries(m, n, d) for m in basis[a])
            assert repr(got) != repr(want)
        with pytest.raises(AssertionError, match=check):
            check_basis(n, d, fields["X"], fields["Y"], basis)

    @pytest.mark.parametrize("n,d", [(3, 2), (4, 1), (5, 3)])
    def test_complex_values_match_clock_and_shift(self, n, d):
        eps = cmath.exp(2j * cmath.pi * d / n)
        X = np.diag([eps**i for i in range(n)])
        Y = np.roll(np.eye(n), 1, axis=1)
        for (k, l), z_dual, z in heisenberg(n, d):
            want = np.linalg.matrix_power(Y, k) @ np.linalg.matrix_power(np.linalg.inv(X), l)
            for got, m in ((z, want), (z_dual, np.linalg.inv(want) / n)):
                dense = np.zeros((n, n), dtype=complex)
                for (i, j), v in got:
                    dense[i - 1, j - 1] = v
                assert np.allclose(dense, m, atol=1e-12)

    @pytest.mark.parametrize("n,d", COPRIME_N_MAX)
    def test_entries_are_the_dense_nonzeros(self, n, d):
        """`heisenberg(n, d)` lists the nonzero entries of the reference
        matrices, values bit for bit, in the order of a row-major scan, for
        the index set in row-major order."""
        basis = heisenberg(n, d)
        assert [a for a, _, _ in basis] == index_set(n)
        for a, z_dual, z in basis:
            want = tuple(gr_entries(m, n, d) for m in reference_basis(n)[a])
            assert repr((z_dual, z)) == repr(want)
