"""Geometric pipeline: J recursion, shaped spaces, solution spaces,
corrections, assembly, and the polynomial-tail certificate."""

import hashlib
import random
import time
from collections.abc import Mapping
from fractions import Fraction as F
from math import gcd
from types import MappingProxyType, SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import quadrant
from test_bit_for_bit import POINTS, entries_text
from test_exact import (
    eval_dense,
    mat_add,
    mat_from_entries,
    mat_is_zero,
    mat_unit,
    mat_zero,
    matrix_poly_from_coeffs,
    matrix_poly_from_entries,
    rank,
)
from test_lie import basis_matrix, composed, nondegenerate
from ybe_forge import cuspidal, exact, jmat, lie, stolin, verify
from ybe_forge.cuspidal import (
    AnsatzError,
    SolDimensionError,
    assemble_r,
    flip_transpose_gauge,
    g_elements,
    psi_transport,
    r_ansatz,
    sol_family,
    sol_space,
)
from ybe_forge.exact import ONE, ZERO, eval_matrix_poly, poly_trim
from ybe_forge.jmat import NonCoprimeError, build_j, j_support_coloring, twist
from ybe_forge.lie import (
    cybe_residual_two_variable,
    is_unitary_pair,
    signed_permutation_map,
    tensor_from_pairs,
)
from ybe_forge.request import N_MAX
from ybe_forge.table import POLE, TensorTable, casimir, dual_terms, sl_basis
from ybe_forge.proofs import flip_j
from ybe_forge.verify import scale


class TestBuildJ:
    def test_base_case(self):
        assert build_j(1, 1) == ((0, 1), (0, 0))

    def test_one_two(self):
        assert build_j(1, 2) == ((0, 1, 0), (0, 0, 1), (0, 0, 0))

    def test_three_two(self):
        want = (
            (0, 1, 0, 0, 0),
            (0, 0, 1, 1, 0),
            (0, 0, 0, 0, 1),
            (0, 0, 0, 0, 0),
            (0, 0, 0, 0, 0),
        )
        assert build_j(3, 2) == want

    @pytest.mark.parametrize("n", range(2, 7))
    def test_superdiagonal_family(self, n):
        m = build_j(n - 1, 1)
        for i in range(n):
            for j in range(n):
                assert m[i][j] == (1 if j == i + 1 else 0)

    def test_non_coprime(self):
        with pytest.raises(NonCoprimeError):
            build_j(2, 2)
        with pytest.raises(NonCoprimeError):
            build_j(0, 1)

    @pytest.mark.parametrize("e,d", [(1, 1), (2, 1), (3, 2), (2, 5), (5, 3), (7, 4)])
    def test_index_reversal(self, e, d):
        assert flip_j(build_j(e, d)) == build_j(d, e)

    @pytest.mark.parametrize("e,d", [(1, 1), (3, 2), (4, 3), (5, 2)])
    def test_support_coloring(self, e, d):
        s = j_support_coloring(e, d)
        J = build_j(e, d)
        n = e + d
        for i in range(n):
            for j in range(n):
                if J[i][j]:
                    assert s[i] * s[j] == -1

    def test_block_triangular(self):
        for (e, d) in [(2, 3), (4, 1), (3, 5)]:
            m = build_j(e, d)
            for i in range(e, e + d):
                for j in range(e):
                    assert m[i][j] == 0


class TestShapedSpace:
    def test_region_classification(self):
        """The twist of each quadrant of the split 2 + 2: 1 upper-right,
        -1 lower-left, 0 on the diagonal blocks."""
        assert twist(1, 3, 2) == 1
        assert twist(3, 1, 2) == -1
        assert twist(1, 2, 2) == 0
        assert twist(3, 3, 2) == 0

    @pytest.mark.parametrize("n", range(1, 7))
    def test_twist_is_the_eta_degree(self, n):
        """twist(i, j, e) is the z-degree of eta^-1 e_ij eta, eta =
        diag(1_e, z 1_(n-e)), multiplied out here in Laurent polynomials
        ({degree: coefficient}) for every i, j and every split e of n."""
        def mul(a, b):  # products of {(row, column): {degree: coefficient}} matrices
            out: dict = {}
            for (r, k), p in a.items():
                for (k2, c), q in b.items():
                    if k == k2:
                        slot = out.setdefault((r, c), {})
                        for dp, vp in p.items():
                            for dq, vq in q.items():
                                slot[dp + dq] = slot.get(dp + dq, 0) + vp * vq
            return {rc: {m: v for m, v in p.items() if v} for rc, p in out.items()}

        for e in range(n + 1):
            eta = {(k, k): {0 if k <= e else 1: 1} for k in range(1, n + 1)}
            eta_inv = {(k, k): {0 if k <= e else -1: 1} for k in range(1, n + 1)}
            assert mul(eta, eta_inv) == {(k, k): {0: 1} for k in range(1, n + 1)}
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    conj = mul(mul(eta_inv, {(i, j): {0: 1}}), eta)
                    assert conj == {(i, j): {twist(i, j, e): 1}}, (i, j, e)

    def test_lower_left_constant_enters_neither(self):
        f0, feps = extract_f0_feps(matrix_poly_from_coeffs([mat_unit(2, 2, 1)]), 1, 1)
        assert mat_is_zero(f0) and mat_is_zero(feps)

    def test_upper_right_constant_lands_in_f0(self):
        f0, feps = extract_f0_feps(matrix_poly_from_coeffs([mat_unit(2, 1, 2)]), 1, 1)
        assert f0 == mat_unit(2, 1, 2) and mat_is_zero(feps)

    def test_linear_cartan_lands_in_f0(self):
        h = basis_matrix(("cartan", 1), 2)
        f0, feps = extract_f0_feps(matrix_poly_from_coeffs([mat_zero(2), h]), 1, 1)
        assert f0 == h and mat_is_zero(feps)

    def test_degree_cap_enforced(self):
        # z^2 in the upper-right block is out of shape
        Fm = matrix_poly_from_coeffs([mat_zero(2), mat_zero(2), mat_unit(2, 1, 2)])
        with pytest.raises(ShapeError):
            validate_ved_shape(Fm, 1, 1)

    def test_trace_condition_enforced(self):
        with pytest.raises(ShapeError):
            validate_ved_shape(matrix_poly_from_coeffs([mat_unit(2, 1, 1)]), 1, 1)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.data())
    def test_f0_feps_match_region_table(self, data):
        e, d = data.draw(st.sampled_from(SHAPED_PAIRS))
        Fm = data.draw(ved_members(e, d))
        assert extract_f0_feps(Fm, e, d) == _region_table_f0_feps(Fm, e, d)


# the pairs the shaped-space properties draw from; (3, 2) and (2, 3) have all
# four regions with more than one entry
SHAPED_PAIRS = [(1, 1), (2, 1), (1, 2), (3, 2), (2, 3), (1, 4)]


def _cap(i, j, e, n):
    """Degree cap of entry (i, j): constant upper-right block, quadratic
    lower-left block, linear diagonal blocks."""
    return {"I": 0, "III": 2}.get(quadrant(i, j, e), 1)


# The reference form of the defining constraint of Sol((e,d), x), which reads
# F_0 and F_eps off a member of V_{e,d} in powers of z; `TestSolEncoding`
# proves the rows of `sol_space` equal to it.

class ShapeError(ValueError):
    """A matrix polynomial violates the V_{e,d} degree mask."""


def coeff_matrix(Fm, k):
    """The matrix of z**k coefficients of Fm."""
    return tuple(tuple(p[k] if k < len(p) else ZERO for p in row) for row in Fm.entries)


def validate_ved_shape(Fm, e, d):
    """Fm, if it lies in V_{e,d}: no entry above its degree cap and
    traceless z^0 and z^1 parts; ShapeError otherwise."""
    n = e + d
    if Fm.n != n:
        raise ShapeError("size mismatch: %d vs %d" % (Fm.n, n))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            p = Fm.entries[i - 1][j - 1]
            if len(p) - 1 > _cap(i, j, e, n):
                raise ShapeError("degree %d exceeds cap at entry (%d, %d) in region %s"
                                 % (len(p) - 1, i, j, quadrant(i, j, e)))
    for k in (0, 1):
        if sum(coeff_matrix(Fm, k)[a][a] for a in range(n)) != 0:
            raise ShapeError("z^%d part has nonzero trace" % k)
    return Fm


def extract_f0_feps(Fm, e, d):
    """The two constant matrices read off Fm in V_{e,d}: F_0 holds each
    entry's z^cap coefficient and F_eps its z^(cap-1) coefficient, cap being
    the entry's degree cap.  So the constant upper-right block enters F_0
    only and the constant lower-left block enters neither."""
    n = e + d
    validate_ved_shape(Fm, e, d)

    def layer(shift):  # each entry's z^(cap - shift) coefficient
        out = [[ZERO] * n for _ in range(n)]
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                p = Fm.entries[i - 1][j - 1]
                k = _cap(i, j, e, n) - shift
                if 0 <= k < len(p):
                    out[i - 1][j - 1] = p[k]
        return tuple(map(tuple, out))

    return layer(0), layer(1)


def sol_constraint_violation(Fm, e, d, x):
    """[F_0, J] + x F_0 + F_eps of Fm in V_{e,d} as a matrix; zero iff Fm
    lies in Sol((e,d), x)."""
    J = build_j(e, d)
    f0, feps = extract_f0_feps(Fm, e, d)
    n = e + d
    out = [[x * a + b for a, b in zip(r0, reps)] for r0, reps in zip(f0, feps)]
    for c in range(n):
        for b in range(n):
            if J[c][b]:  # J is 0/1: add F_0 e_cb - e_cb F_0
                for a in range(n):
                    out[a][b] += f0[a][c]
                    out[c][a] -= f0[b][a]
    return tuple(map(tuple, out))


def ved_members(e, d):
    """Members of V_{e,d}: every coefficient under the degree cap drawn at
    random, then the z^0 and z^1 parts of the (n, n) entry fixed so that both
    are traceless."""
    n = e + d
    slots = [
        (i, j, k)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        for k in range(_cap(i, j, e, n) + 1)
    ]
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=4)

    def build(values):
        mats = [[[ZERO] * n for _ in range(n)] for _ in range(3)]
        for (i, j, k), v in zip(slots, values):
            mats[k][i - 1][j - 1] = v
        for k in (0, 1):
            mats[k][n - 1][n - 1] = -sum(mats[k][a][a] for a in range(n - 1))
        Fm = matrix_poly_from_coeffs([tuple(map(tuple, m)) for m in mats])
        return validate_ved_shape(Fm, e, d)

    return st.lists(coeff, min_size=len(slots), max_size=len(slots)).map(build)


def _region_table_f0_feps(Fm, e, d):
    """F_0 and F_eps by the per-region table of the construction: the
    diagonal blocks give their linear part to F_0 and their constant part to
    F_eps, the upper-right block its constant to F_0, and the lower-left block
    its quadratic part to F_0 and its linear part to F_eps."""
    n = e + d
    table = {"IV": (1, 0), "II": (1, 0), "I": (0, None), "III": (2, 1)}
    f0 = [[ZERO] * n for _ in range(n)]
    feps = [[ZERO] * n for _ in range(n)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            p = Fm.entries[i - 1][j - 1]
            k0, keps = table[quadrant(i, j, e)]
            f0[i - 1][j - 1] = p[k0] if k0 < len(p) else ZERO
            if keps is not None:
                feps[i - 1][j - 1] = p[keps] if keps < len(p) else ZERO
    return tuple(map(tuple, f0)), tuple(map(tuple, feps))


def _coords_to_poly_terms(e, d, x, vec):
    """The member of V_{e,d} with the sparse (z - x)-coordinates `vec`
    ({coordinate: value}), in powers of z, expanded in Fractions, as
    {(i, j): nonzero polynomial} in row-major order: the reference of
    `g_elements`, which sums integer numerators."""
    coords = cuspidal._ved_coords(e, d)
    # (z - x)^k - z^k in powers of z, for k = 0, 1, 2
    lower = ((), (-x,), (x * x, -2 * x))
    coeffs = {}  # (i, j) -> its z^0, z^1, z^2 coefficients
    for c, v in vec.items():
        i, j, k = coords[c]
        p = coeffs.setdefault((i, j), [ZERO, ZERO, ZERO])
        p[k] += v
        for m, low in enumerate(lower[k]):
            p[m] += low * v
    polys = {ij: poly_trim(coeffs[ij]) for ij in sorted(coeffs)}
    return {ij: p for ij, p in polys.items() if p}


def _members(e, d, x):
    """The members of Sol((e,d), x) as dense matrix polynomials in z."""
    return [matrix_poly_from_entries(e + d, _coords_to_poly_terms(e, d, x, dict(enumerate(v))))
            for v in sol_space(e, d, x)]


def _bump(Fm, i, j, k):
    """Fm with one added to the z^k coefficient of entry (i, j)."""
    mats = [[list(row) for row in coeff_matrix(Fm, m)] for m in range(3)]
    mats[k][i - 1][j - 1] += ONE
    return matrix_poly_from_coeffs([tuple(map(tuple, m)) for m in mats])


def _p_columns(e, d):
    """The columns of P: the z^2 coordinates of the lower-left block."""
    coords = cuspidal._ved_coords(e, d)
    return [m for m, (_, _, k) in enumerate(coords) if k == 2]


def _plus_one(sol, c):
    """A `solve_multi` solution ({column: numerator}, den) with one added
    to its value at column c, kept in lowest terms with no zero stored."""
    v, den = sol
    v = {**v, c: v.get(c, 0) + den}
    return {k: a for k, a in v.items() if a}, den


def _perturbed_m_block(e, d, rows, rhs, ncols):
    """`solve_multi`, with one entry of M = B0^-1 P set on P's columns."""
    sols = exact.solve_multi(rows, rhs, ncols)
    p = _p_columns(e, d)
    return sols[:-1] + [_plus_one(sols[-1], p[0])]


def _x2_term(e, d, rows, rhs, ncols):
    """`solve_multi`, with the first U = B0^-1 (-R1 D) given a z^2
    coordinate where M is nonzero, so that M U != 0."""
    sols = exact.solve_multi(rows, rhs, ncols)
    p = _p_columns(e, d)
    first_u = (e + d) ** 2 - 1
    return sols[:first_u] + [_plus_one(sols[first_u], p[0])] + sols[first_u + 1:]


def _singular_b0(e, d, rows, rhs, ncols):
    """`solve_multi` on B0 with its first column zeroed."""
    return exact.solve_multi([{c: v for c, v in row.items() if c} for row in rows], rhs, ncols)


class TestSolSpace:
    def test_dimension_small(self):
        assert len(_members(1, 1, F(1))) == 3
        assert len(_members(2, 1, F(0))) == 8

    def test_lower_left_unit_always_solves(self):
        for x in (F(0), F(2), F(-7, 3)):
            Fm = matrix_poly_from_coeffs([mat_unit(2, 2, 1)])
            assert mat_is_zero(sol_constraint_violation(Fm, 1, 1, x))

    @pytest.mark.parametrize("e,d", [(1, 1), (2, 1), (1, 2), (3, 2), (2, 3),
                                     (4, 3), (5, 2), (7, 1), (5, 3), (1, 7)])
    def test_dimension_and_residue_rank(self, e, d, rng):
        n = e + d
        for _ in range(2):
            x = F(rng.randint(-9, 9), rng.randint(1, 9))
            members = _members(e, d, x)
            assert len(members) == n * n - 1
            rows = []
            for Fm in members:
                v = eval_dense(Fm, x)
                rows.append({i * n + j: v[i][j] for i in range(n) for j in range(n) if v[i][j]})
            assert rank(rows, n * n) == n * n - 1

    def test_members_verify_constraint(self):
        for Fm in _members(2, 1, F(3, 7)):
            assert mat_is_zero(sol_constraint_violation(Fm, 2, 1, F(3, 7)))

    @pytest.mark.parametrize("e,d,x", [(1, 1, F(1)), (2, 1, F(0)), (1, 2, F(-5, 3)),
                                       (3, 2, F(3, 7)), (2, 5, F(-1, 2)), (4, 3, F(9))])
    def test_basis_is_dual_to_residues(self, e, d, x):
        n = e + d
        members = _members(e, d, x)
        cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)][1:]
        assert len(members) == len(cells)
        for Fm, (i, j) in zip(members, cells):
            want = {(i, j): ONE, **({(1, 1): -ONE} if i == j else {})}
            assert eval_dense(Fm, x) == mat_from_entries(n, want)

    @pytest.mark.parametrize("e,d,x", [(1, 1, F(2)), (2, 1, F(3, 7)), (3, 2, F(-1, 2))])
    def test_one_changed_coefficient_violates(self, e, d, x):
        """Negative control: one F_0 or F_eps coefficient of a Sol member
        moved off its value breaks the constraint, at every off-diagonal
        entry.  (x != 0, so that F_0 e_ab alone cannot commute with J.)"""
        n = e + d
        for Fm in _members(e, d, x)[:3]:
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i == j:
                        continue
                    cap = _cap(i, j, e, n)
                    for k in {cap, cap - 1} - {-1}:
                        bumped_member = _bump(Fm, i, j, k)
                        assert not mat_is_zero(sol_constraint_violation(bumped_member, e, d, x))

    @pytest.mark.parametrize("fake", [
        _perturbed_m_block,
        _x2_term,
        _singular_b0,
    ], ids=["m-block", "x2-term", "singular"])
    def test_certificate_failure_refused(self, fake, monkeypatch):
        """Negative controls of the family's certificate: a nonzero entry of
        M on P's columns, a nonzero x^2 coefficient M U, and a singular B0
        each raise SolDimensionError."""
        e, d = 2, 3
        monkeypatch.setattr(cuspidal, "solve_multi", lambda rows, rhs, ncols:
                            fake(e, d, rows, rhs, ncols))
        sol_family.cache_clear()
        try:
            with pytest.raises(SolDimensionError):
                sol_space(e, d, F(5, 3))
        finally:
            sol_family.cache_clear()

    @pytest.mark.parametrize("e,d", [(2, 1), (1, 2)])
    def test_dimension_at_ten_random_points(self, e, d, rng):
        n = e + d
        seen = set()
        while len(seen) < 10:
            seen.add(F(rng.randint(-20, 20), rng.randint(1, 12)))
        for x in seen:
            assert len(_members(e, d, x)) == n * n - 1


def _constraint_rows(e, d, x):
    """The {column: entry} rows of A0 + x A1 from `_sol_rows(e, d)`, each
    column one coordinate of V_{e,d}."""
    a0, a1 = cuspidal._sol_rows(e, d)
    ncols = len(cuspidal._ved_coords(e, d))
    assert all(0 <= c < ncols for row in a0 + a1 for c in row)
    return [{c: r0.get(c, 0) + x * r1.get(c, 0) for c in r0.keys() | r1.keys()}
            for r0, r1 in zip(a0, a1)]


def _proof_vectors(e, d, rng):
    """Traceless (z - x)-coordinates of V_{e,d} to check the rows on.  Up to
    n = 7 a basis of that space: every off-diagonal unit coordinate, and
    (a, a, k) - (1, 1, k) on the diagonal.  Above, two random combinations
    of that basis with 20-digit integer coefficients."""
    coords = cuspidal._ved_coords(e, d)
    col = {c: m for m, c in enumerate(coords)}
    basis = []
    for i, j, k in coords:
        if (i, j) == (1, 1):
            continue
        v = [ZERO] * len(coords)
        v[col[i, j, k]] = ONE
        if i == j:
            v[col[1, 1, k]] = -ONE
        basis.append(v)
    if e + d <= 7:
        return basis
    combos = []
    for _ in range(2):
        # the weight of each basis vector sits at its own coordinate; the
        # (1, 1, k) coordinate carries minus the rest of the diagonal
        c = [rng.choice((-1, 1)) * rng.randrange(10**19, 10**20) for _ in coords]
        for k in (0, 1):
            c[col[1, 1, k]] = -sum(c[col[a, a, k]] for a in range(2, e + d + 1))
        combos.append(c)
    return combos


def _encoding_mismatches(e, d, x, rows, vectors):
    """The vectors c on which the rows disagree with the reference form of
    the constraint: the first n^2 entries of rows . c must be the flattened
    `sol_constraint_violation` of c's member, and both trace rows must
    vanish on c."""
    columns = [[] for _ in cuspidal._ved_coords(e, d)]
    for r, row in enumerate(rows):
        for m, v in row.items():
            columns[m].append((r, v))
    bad = []
    for c in vectors:
        image = [ZERO] * len(rows)
        for m, cm in enumerate(c):
            if cm:
                for r, v in columns[m]:
                    image[r] += v * cm
        member = matrix_poly_from_entries(e + d, _coords_to_poly_terms(e, d, x, dict(enumerate(c))))
        want = [v for row in sol_constraint_violation(member, e, d, x) for v in row]
        if image != want + [ZERO, ZERO]:
            bad.append(c)
    return bad


PROOF_PAIRS = [(e, n - e) for n in range(2, N_MAX + 1) for e in range(1, n) if gcd(e, n - e) == 1]


class TestSolEncoding:
    """The rows A0 + x A1 of `_sol_rows`, from which `sol_family` builds
    Sol((e,d), x) for every x, encode [F_0, J] + x F_0 + F_eps = 0 exactly,
    which is why no member is re-checked against the constraint.

    For fixed coordinates c, (A0 + x A1) . c and the constraint of c's
    member are polynomials of degree <= 3 in x (the rows are linear in x,
    and the member's z-power coefficients quadratic), so agreeing at the
    four points of `test_bit_for_bit.POINTS` proves them equal at every x,
    and so proves A0 and A1.  The trace rows are checked to be exactly the
    two trace functionals, so the kernel of the rows is Sol((e,d), x)."""

    @pytest.mark.parametrize("e,d", PROOF_PAIRS)
    def test_rows_encode_the_constraint(self, e, d):
        n = e + d
        rng = random.Random(1000 * e + d)
        coords = cuspidal._ved_coords(e, d)
        traces = [coords.index((1, 1, k)) for k in (1, 0)]
        for x in POINTS:
            rows = _constraint_rows(e, d, x)
            assert len(rows) == n * n + 2
            assert [[row.get(m, 0) for m in traces] for row in rows[-2:]] == [[1, 0], [0, 1]]
            assert not _encoding_mismatches(e, d, x, rows, _proof_vectors(e, d, rng))

    @pytest.mark.parametrize("e,d,cell", [(3, 2, (1, 4)), (3, 2, (2, 2)), (3, 2, (4, 1)),
                                          (5, 3, (7, 2))],
                             ids=["cap0", "cap1", "cap2", "cap2-random"])
    def test_changed_entry_is_caught(self, e, d, cell, monkeypatch):
        """Negative control: the comparison rejects rows in which the
        (1 - cap) entry of one row of A1 has been changed."""
        n = e + d
        a, b = cell
        x = POINTS[2]
        a0, a1 = cuspidal._sol_rows(e, d)
        m = cuspidal._ved_coords(e, d).index((a, b, _cap(a, b, e, n)))
        row = a1[(a - 1) * n + b - 1]
        assert row.get(m, 0) == 1 - _cap(a, b, e, n)
        row[m] = row.get(m, 0) + 1
        monkeypatch.setattr(cuspidal, "_sol_rows", lambda e, d: (a0, a1))
        rows = _constraint_rows(e, d, x)
        assert _encoding_mismatches(e, d, x, rows, _proof_vectors(e, d, random.Random(7)))


class TestResEv:
    def test_res_constant(self):
        assert eval_matrix_poly({(1, 2): (ONE,)}, F(5)) == {(1, 2): ONE}


def _plain(mapping):
    """A read-only mapping of mappings, read into dicts at every level."""
    if isinstance(mapping, (dict, MappingProxyType)):
        return {key: _plain(value) for key, value in mapping.items()}
    return mapping


def _dec_2_1():
    return stolin.solve_dec(2, 1, stolin.neg_j_matrix(2, 1))


@pytest.mark.parametrize("cached", [
    lambda: g_elements(1, 1, F(1)),
    lambda: _dec_2_1().parts,
    lambda: sol_family(1, 1).table.terms,
    lambda: _dec_2_1().table.terms,
    lambda: dict(enumerate(sol_family(1, 2).v0)),
    lambda: dict(enumerate(sol_family(1, 2).v1)),
], ids=["g_elements", "solve_dec", "sol_family_table", "solve_dec_table", "sol_family_v0",
        "sol_family_v1"])
def test_cached_values_are_read_only(cached):
    """`g_elements`, `solve_dec` and `sol_family` hand every caller the one
    value their cache holds, so no caller may change it: each attempt to
    clear, set or delete an entry, at every level that is a mapping,
    raises or leaves the next answer unchanged."""
    value = cached()
    want = _plain(value)
    key = next(k for k, v in value.items() if v)
    attempts = [lambda: value.clear(), lambda: value.__setitem__(key, {}),
                lambda: value.__delitem__(key)]
    inner = value[key]
    if isinstance(inner, Mapping):
        inner_key = next(iter(inner))
        attempts += [lambda: inner.clear(), lambda: inner.__setitem__(inner_key, {})]
        if isinstance(inner[inner_key], Mapping):
            attempts.append(lambda: inner[inner_key].clear())
    for attempt in attempts:
        try:
            attempt()
        except (AttributeError, TypeError):
            pass
        assert _plain(cached()) == want
    assert len(assemble_r(1, 1, 0, 1).terms) == 8


@pytest.mark.parametrize("cached,names", [
    (lambda: sol_family(1, 2), ("den", "v0", "v1", "table")),
    (lambda: sol_family(1, 2).table, ("n", "monomials", "den", "terms", "tops")),
    (_dec_2_1, ("n", "parts")),
    (lambda: _dec_2_1().table, ("n", "monomials", "den", "terms", "tops")),
], ids=["sol_family", "sol_family_table", "solve_dec", "solve_dec_table"])
def test_cached_objects_refuse_rebinding(cached, names):
    """The objects those caches hold refuse to rebind or delete any
    attribute, so every later caller reads the same fields."""
    value = cached()
    for name in names:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, ())
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(cached(), name) is before


class TestGElements:
    def test_lower_left_unit_needs_no_correction(self):
        g = g_elements(1, 1, F(1))
        assert g[("unit", 2, 1)] == {}

    def test_region_three_vanishing(self):
        g = g_elements(2, 1, F(2))
        assert g[("unit", 3, 1)] == g[("unit", 3, 2)] == {}

    @pytest.mark.parametrize("e,d,x", [(1, 1, F(1)), (2, 1, F(-1, 2)), (1, 2, F(3))])
    def test_defining_conditions(self, e, d, x):
        _assert_defining_conditions(e, d, x)

    def test_large_residue_point(self):
        """A 31-digit x: the corrections are the family evaluated at x, with
        no elimination over its values (about 30 s when there was one)."""
        x = F(1, 10**30)
        t0 = time.perf_counter()
        g_elements(1, 8, x)
        elapsed = time.perf_counter() - t0
        _assert_defining_conditions(1, 8, x)
        assert elapsed < 10.0

    def test_cache_is_bounded(self):
        """A process that sees more residue points than the cache holds
        keeps only the most recent ones."""
        g_elements.cache_clear()
        try:
            for k in range(jmat.G_ELEMENTS_CACHE_MAX + 1):
                g_elements(1, 1, F(k, 7))
            info = g_elements.cache_info()
        finally:
            g_elements.cache_clear()
        assert info.misses == jmat.G_ELEMENTS_CACHE_MAX + 1
        assert info.currsize <= info.maxsize == jmat.G_ELEMENTS_CACHE_MAX

    def test_cold_run_makes_one_elimination(self, monkeypatch):
        """A cold pair runs one `solve_multi` and no `kernel`; a further x,
        and an assembly at a third, run no elimination."""
        calls = []

        def counting(name, original):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return wrapped

        for name in ("kernel", "solve_multi"):
            original = getattr(exact, name)
            for module in (exact, cuspidal):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(name, original))
        g_elements.cache_clear()
        sol_family.cache_clear()
        try:
            g_elements(2, 3, F(-2, 9))
            assert calls == ["solve_multi"]
            g_elements(2, 3, F(7, 5))
            assemble_r(2, 3, F(1, 3), F(2))
        finally:
            g_elements.cache_clear()
        assert calls == ["solve_multi"]

    @pytest.mark.parametrize("e,d", [(1, 1), (2, 1), (1, 3), (2, 3), (1, 6), (5, 2)])
    def test_corrections_match_sol_space_members(self, e, d, monkeypatch):
        """`g_elements` sums integer numerators off the family's coordinates
        without `sol_space`; the reference expands the residue-dual members
        of `sol_space` in Fractions.  Both agree repr for repr, once the
        read-only mappings of `g_elements` are read into dicts."""
        for x in (F(0), F(1), F(-3, 7), F(22, 9), F(5, 10**12 + 1)):
            members = [{c: v for c, v in enumerate(vec[:-(e + d) ** 2]) if v}
                       for vec in sol_space(e, d, x)]
            want = {label: _coords_to_poly_terms(e, d, x, g)
                    for label, g in cuspidal._by_label(e + d, members).items()}
            g_elements.cache_clear()
            with monkeypatch.context() as m:
                m.setattr(cuspidal, "sol_space", None)
                got = g_elements(e, d, x)
            assert repr({label: dict(terms) for label, terms in got.items()}) == repr(want)
        g_elements.cache_clear()

    @pytest.mark.parametrize("e,d,x,digest", [
        (2, 3, F(-1, 2), "27db93c9b50d9794782f54f70b3f01aabe56db51d4944867b591dcd5e1218816"),
        (1, 6, F(0), "ebdfb9247553926f92abfd370f4d25285056d6aa7c2f80a164edd3ab7e71350c"),
    ])
    def test_corrections_golden(self, e, d, x, digest):
        """sha256 of the entries of every correction, first taken before the
        corrections were read off the residue-dual basis (as the repr of
        each correction); the entries-only digests were re-recorded on the
        per-point solve and are unchanged by the family."""
        text = entries_text(g_elements(e, d, x).items(), e + d)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def _assert_defining_conditions(e, d, x):
    n = e + d
    g = g_elements(e, d, x)
    assert sorted(g) == sorted(sl_basis(n))
    for label in sl_basis(n):
        terms = g[label]
        # {(i, j): polynomial} in row-major order, read-only, no zero
        # polynomial stored
        assert type(terms) is MappingProxyType
        assert list(terms) == sorted(terms) and all(terms.values())
        assert eval_matrix_poly(terms, x) == {}
        G = matrix_poly_from_entries(n, terms)
        B = basis_matrix(label, n)
        member = matrix_poly_from_coeffs(
            [mat_add(B, coeff_matrix(G, 0)), coeff_matrix(G, 1), coeff_matrix(G, 2)])
        assert mat_is_zero(sol_constraint_violation(member, e, d, x))


class TestAssemble:
    def test_pole_part_is_casimir(self):
        # (y - x) * r has the Casimir as its value at y = x after the tail is
        # removed; equivalently r - c/(y-x) stays finite, which the polynomial
        # certificate asserts; here check the coefficient directly at a point
        x, y = F(0), F(1)
        r = assemble_r(1, 1, x, y)
        tail = r.add(scale(casimir(2), -ONE / (y - x)))
        # the tail at these points is finite and the full tensor nondegenerate
        assert all(v.denominator != 0 for v in tail.terms.values())
        assert nondegenerate(r)

    @pytest.mark.parametrize("e,d", [(1, 1), (2, 1), (1, 2), (3, 2)])
    def test_cybe_and_unitarity(self, e, d, rng):
        pts = []
        while len(pts) < 3:
            v = F(rng.randint(-9, 9), rng.randint(1, 9))
            if v not in pts:
                pts.append(v)
        res = cybe_residual_two_variable(lambda a, b: assemble_r(e, d, a, b), pts)
        assert not res.terms
        assert is_unitary_pair(
            assemble_r(e, d, pts[0], pts[1]), assemble_r(e, d, pts[1], pts[0])
        )

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError):
            assemble_r(1, 1, F(1), F(1))

    def test_comparison_with_parabolic_pipeline(self):
        # the transpose-negation image equals the parabolic assembly at -J
        from ybe_forge.stolin import compare_pipelines

        assert compare_pipelines(1, 1, F(0), F(1))


TABLE_PAIRS = [(e, n - e) for n in range(2, 8) for e in range(1, n) if gcd(e, n - e) == 1]


def table_ys(x):
    """Four distinct y != x: one below x, zero (unless x is), a 30-digit y
    and one more."""
    ys = []
    for y in (x - 1, F(0), F(-314159265358979323846264338327, 271828182845904523536028747135),
              F(7, 2), F(-9, 4)):
        if y != x and y not in ys:
            ys.append(y)
    return ys[:4]


def table_mismatches(table, reference, xs):
    """The points (x, y), y in `table_ys(x)`, at which the table differs
    from `reference(x, y)`."""
    return [(x, y) for x in xs for y in table_ys(x) if table.at(x, y) != reference(x, y)]


def bumped(table, rng):
    """A copy of `table` with one numerator of one entry raised by 1; a
    numerator raised to 0 leaves its row, so the row stays sparse."""
    key = rng.choice(sorted(table.terms))
    row = list(table.terms[key])
    k = rng.randrange(len(row))
    row[k] = (row[k][0], row[k][1] + 1)
    return TensorTable(table.n, table.monomials, table.den,
                       {**table.terms, key: tuple(p for p in row if p[1])})


def spy_tensor_products(monkeypatch) -> list:
    """Record every `eval_matrix_poly` and `tensor_from_pairs` call, under
    any module's binding of either name.  The spy is checked live on the
    defining modules before it is handed out."""
    calls = []
    for name in ("eval_matrix_poly", "tensor_from_pairs"):
        for mod in (exact, lie, cuspidal, stolin, verify):
            original = getattr(mod, name, None)
            if original is not None:
                monkeypatch.setattr(mod, name, lambda *a, _f=original, _n=name, **k:
                                    calls.append(_n) or _f(*a, **k))
    exact.eval_matrix_poly({}, ONE)
    lie.tensor_from_pairs(2, [])
    assert calls == ["eval_matrix_poly", "tensor_from_pairs"]
    calls.clear()
    return calls


def _per_point_r(e, d, x, y):
    """The per-point formula: Casimir/(y - x) plus the tensor products of
    the duals with the corrections evaluated at y, over y - x."""
    n = e + d
    inv = ONE / (y - x)
    pairs = [(dual_terms(label, n).items(), eval_matrix_poly(G, y).items(), inv)
             for label, G in g_elements(e, d, x).items()]
    return scale(casimir(n), inv).add(tensor_from_pairs(n, pairs))


class TestTable:
    """`assemble_r` reads r(x, y) off the table of `sol_family(e, d)`.  At
    each x both sides of (y - x) r(x, y) are polynomials of degree <= 2 in
    y, so agreeing at the four y of `table_ys(x)` proves the table right for
    every y at the four x of `POINTS`, where `tests/test_bit_for_bit.py`
    fixes the corrections."""

    @pytest.mark.parametrize("e,d", TABLE_PAIRS)
    def test_table_is_the_per_point_formula(self, e, d):
        table = sol_family(e, d).table
        assert table_mismatches(table, lambda x, y: _per_point_r(e, d, x, y), POINTS) == []
        y = table_ys(POINTS[2])[0]
        assert assemble_r(e, d, POINTS[2], y) == table.at(POINTS[2], y)

    @pytest.mark.parametrize("e,d", [(1, 1), (2, 3), (3, 4)])
    def test_bumped_entry_is_caught(self, e, d):
        """Negative control: one numerator raised by 1 fails the comparison."""
        rng = random.Random(100 * e + d)
        for _ in range(4):
            table = bumped(sol_family(e, d).table, rng)
            assert table_mismatches(table, lambda x, y: _per_point_r(e, d, x, y), POINTS)

    def test_table_integer_only(self):
        table = sol_family(3, 4).table
        # c/(y - x) + A + x B + y C
        assert set(table.monomials) == {POLE, (0, 0, 0), (0, 1, 0), (0, 0, 1)}
        assert type(table.den) is int
        assert all(type(v) is int and v for row in table.terms.values() for _, v in row)
        assert all(table.terms.values())

    def test_warm_assembly_forms_no_tensor_product(self, monkeypatch):
        """After the first assembly, another (x, y), at a new x too,
        evaluates the cached table; a table goes with its `sol_family`
        entry."""
        e, d = 2, 3
        sol_family.cache_clear()
        try:
            assemble_r(e, d, F(-3, 7), F(5, 2))
            table = sol_family(e, d).table
            calls = spy_tensor_products(monkeypatch)
            builds = []
            monkeypatch.setattr(cuspidal, "tensor_table",
                                lambda *a, _f=cuspidal.tensor_table: builds.append(1) or _f(*a))
            assemble_r(e, d, F(1, 9), F(-11, 4))
            assert calls == [] and builds == []
            sol_family.cache_clear()
            assemble_r(e, d, F(1, 9), F(-11, 4))
            assert calls == [] and builds == [1]
            assert sol_family(e, d).table is not table
        finally:
            sol_family.cache_clear()


class TestFlipTransport:
    @pytest.mark.parametrize("e,d", [(1, 1), (2, 1), (3, 2), (1, 4)])
    def test_transport_exact(self, e, d):
        x, y = F(1, 3), F(2)
        assert psi_transport(e, d, x, y) == assemble_r(d, e, x, y)

    def test_bare_index_reversal_fails(self):
        # the undecorated reversal e_{i,j} -> e_{n+1-i,n+1-j} does not
        # transport the solutions; the sign-twisted antitranspose is needed
        from ybe_forge.lie import apply_gauge
        from ybe_forge.proofs import flip_map

        x, y = F(1, 3), F(2)
        psi = flip_map(3)
        lhs = apply_gauge(psi, psi, assemble_r(2, 1, x, y))
        assert lhs != assemble_r(1, 2, x, y)

    def test_gauge_is_involutive(self):
        for (e, d) in [(2, 1), (3, 2)]:
            g_ed = flip_transpose_gauge(e, d)
            g_de = flip_transpose_gauge(d, e)
            assert composed(g_de, g_ed) == signed_permutation_map(e + d, lambda i, j: (i, j, 1)).images


class TestAnsatz:
    def test_non_polynomial_tail_is_an_ansatz_error(self, monkeypatch):
        """A table with a monomial outside c/(y-x) + A + xB + yC, here x^3,
        is reported as AnsatzError."""
        table = sol_family(1, 1).table
        cubic = TensorTable(table.n, table.monomials + ((0, 3, 0),), table.den,
                            {key: row + ((len(table.monomials), 1),)
                             for key, row in table.terms.items()})
        monkeypatch.setattr(cuspidal, "sol_family", lambda e, d: SimpleNamespace(table=cubic))
        with pytest.raises(AnsatzError, match="not those of"):
            r_ansatz(1, 1)

    def test_other_errors_propagate(self, monkeypatch):
        """Only a table of the wrong form becomes AnsatzError; a failed
        certificate reaches the caller as the error it raised."""
        monkeypatch.setattr(cuspidal, "solve_multi", lambda rows, rhs, ncols:
                            _singular_b0(1, 1, rows, rhs, ncols))
        sol_family.cache_clear()
        try:
            with pytest.raises(SolDimensionError) as caught:
                r_ansatz(1, 1)
        finally:
            sol_family.cache_clear()
        assert caught.type is SolDimensionError

    @pytest.mark.parametrize(
        "e,d", [(e, d) for e in range(1, 6) for d in range(1, 7 - e) if gcd(e, d) == 1]
    )
    def test_certificate(self, e, d):
        table = r_ansatz(e, d)
        assert POLE in table.monomials
        assert verify.check_ansatz(e, d)[0]
        x, y = F(5, 7), F(-3, 2)
        assert table.at(x, y) == assemble_r(e, d, x, y)

    def test_tail_finite_on_diagonal(self):
        """The table's one pole is the Casimir's: the pole monomial carries
        c and no other monomial has a pole, so r - c/(y-x) is finite at
        y = x."""
        for e, d in ((1, 1), (2, 3)):
            table = r_ansatz(e, d)
            pole = table.monomials.index(POLE)
            assert [m for m in table.monomials if m[0]] == [POLE]
            got = {key: F(v, table.den)
                   for key, row in table.terms.items() for c, v in row if c == pole}
            assert got == casimir(e + d).terms

    def test_bumped_table_fails_the_check(self, monkeypatch):
        """Negative control: one numerator of the (2, 1) table raised by 1
        fails `ansatz-(2,1)` and no other check."""
        table = bumped(r_ansatz(2, 1), random.Random(21))
        monkeypatch.setattr(cuspidal, "r_ansatz", lambda e, d, _f=cuspidal.r_ansatz:
                            table if (e, d) == (2, 1) else _f(e, d))
        report = verify.run_suite("rational", n_max=3)
        assert [c.name for c in report.checks if not c.passed] == ["ansatz-(2,1)"]

    def test_e_block_x_degree_via_interpolation(self):
        # coefficients of (y-x) r for (2,1), sampled in x: the terms whose
        # first slot lies in the e x e block depend on x with degree <= 1
        # (the quadratic x-dependence is confined to the order-1 labels)
        from ybe_forge.exact import interpolate

        e = 2
        y = F(11)
        xs = [F(k) for k in range(4)]
        samples = {}
        keys = set()
        for x in xs:
            t = scale(assemble_r(2, 1, x, y), y - x)
            samples[x] = t
            keys.update(t.terms)
        eblock = [k for k in keys if k[0] <= e and k[1] <= e]
        assert eblock
        for key in sorted(eblock):
            pts = [(x, samples[x].terms.get(key, ZERO)) for x in xs]
            p = interpolate(pts, 1)  # raises on inconsistency
            assert len(p) <= 2
