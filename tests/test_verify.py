"""The table proofs of `verify`: the CYBE lemma behind `cybe_polynomial`,
its coefficient bound, the premises, and the table identities of the
comparison, flip and closed-form checks with their negative controls."""

import random
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from ybe_forge import cuspidal, stolin, verify
from ybe_forge.lie import POLE, TensorTable, apply_gauge, cybe_lhs, flip_map, tensor_table
from ybe_forge.verify import _coprime_pairs, _points

ROUTES = {
    "cuspidal": (verify._CUSPIDAL_TAIL, verify.check_cuspidal_cybe),
    "stolin": (verify._TAIL, verify.check_stolin_cybe),
}
PAIR = (F(1, 3), F(-5, 2))


def route_table(route, e, d) -> TensorTable:
    if route == "cuspidal":
        return cuspidal.sol_family(e, d).table
    return stolin.solve_dec(e, d, stolin.j_matrix_rat(e, d)).table


def use_table(monkeypatch, route, table):
    """Make the check of `route` read `table` for every pair."""
    fake = SimpleNamespace(table=table)
    if route == "cuspidal":
        monkeypatch.setattr(cuspidal, "sol_family", lambda e, d: fake)
    else:
        monkeypatch.setattr(stolin, "solve_dec", lambda e, d, K: fake)


def changed(table, changes) -> TensorTable:
    """`table` with the numerator of each (monomial, key) moved by its delta;
    a monomial the table lacks gets a column."""
    monomials = tuple(sorted(set(table.monomials) | {m for m, _ in changes}))
    col = {m: c for c, m in enumerate(monomials)}
    acc: dict = {}
    for key, nums in table.terms.items():
        row = acc.setdefault(key, [0] * len(monomials))
        for m, v in zip(table.monomials, nums):
            row[col[m]] = v
    for (m, key), delta in changes.items():
        acc.setdefault(key, [0] * len(monomials))[col[m]] += delta
    return TensorTable(table.n, monomials, table.den,
                       {key: tuple(v) for key, v in acc.items() if any(v)})


def swap(key):
    i, j, k, l = key
    return k, l, i, j


def unitary_bump(table, m, key, delta) -> TensorTable:
    """Move T_ab at `key` by delta and T_ba at the swapped key by -delta, so
    that T_ab = -swap(T_ba) still holds."""
    _, a, b = m
    assert (m, key) != ((0, b, a), swap(key))
    return changed(table, {(m, key): delta, ((0, b, a), swap(key)): -delta})


def off_diagonal_keys(n):
    """Keys e_ij (x) e_kl with i != j and (i, j) != (k, l)."""
    idx = range(1, n + 1)
    return [(i, j, k, l) for i in idx for j in idx for k in idx for l in idx
            if i != j and (i, j) != (k, l)]


def random_bump(table, tail, rng) -> TensorTable:
    key = rng.choice(off_diagonal_keys(table.n))
    return unitary_bump(table, rng.choice(tail), key, rng.choice((-2, -1, 1, 3)))


def residual(table, pts):
    """den^2 times the CYBE left-hand side of the table's three evaluations."""
    x1, x2, x3 = pts
    lhs = cybe_lhs(table.at(x1, x2), table.at(x1, x3), table.at(x2, x3))
    return {key: v * table.den**2 for key, v in lhs.terms.items()}


def kronecker_bound(table) -> int:
    return 6 * sum(abs(v) for nums in table.terms.values() for v in nums) ** 2


# the Lagrange basis on the nodes 0, 1, 2 as coefficients of 1, x, x^2
LAGRANGE = ((1, F(-3, 2), F(1, 2)), (0, 2, -1), (0, F(-1, 2), F(1, 2)))


def coefficients(table) -> dict:
    """The coefficients of den^2 Q, {(key, (i, j, k)): the coefficient of
    x1^i x2^j x3^k}, interpolated from the 27 points of {0, 1, 2}^3 (Q has
    degree <= 2 in each variable; it has no pole, so equal points are
    fine)."""
    out: dict = {}
    for g1 in range(3):
        for g2 in range(3):
            for g3 in range(3):
                for key, v in verify.cybe_polynomial(table, g1, g2, g3).items():
                    for i in range(3):
                        for j in range(3):
                            for k in range(3):
                                w = LAGRANGE[g1][i] * LAGRANGE[g2][j] * LAGRANGE[g3][k]
                                out[key, (i, j, k)] = out.get((key, (i, j, k)), 0) + w * v
    return {k: v for k, v in out.items() if v}


class TestLemma:
    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("e,d", _coprime_pairs(5))
    def test_q_is_the_cybe_of_a_perturbed_table(self, route, e, d):
        """On tables moved off the solution with the premises kept, Q at
        rational triples is the CYBE left-hand side of the evaluations."""
        tail = ROUTES[route][0]
        rng = random.Random(e * 100 + d)
        table = route_table(route, e, d)
        for _ in range(2):
            bumped = random_bump(random_bump(table, tail, rng), tail, rng)
            assert verify._broken_premise(bumped, tail) is None
            pts = _points(rng, 3)
            want = residual(bumped, pts)
            assert want  # the perturbation breaks the CYBE
            assert verify.cybe_polynomial(bumped, *pts) == want

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("e,d", [(1, 1), (2, 1), (1, 2)])
    def test_coefficients_within_the_bound(self, route, e, d):
        """Every coefficient of den^2 Q is at most 6 S^2, and Q at the
        Kronecker point is the base-B number with those digits."""
        tail = ROUTES[route][0]
        rng = random.Random(e * 10 + d)
        table = route_table(route, e, d)
        for candidate in (table, random_bump(table, tail, rng)):
            coeffs = coefficients(candidate)
            bound = kronecker_bound(candidate)
            assert max((abs(v) for v in coeffs.values()), default=0) <= bound
            b = 1 << bound.bit_length() + 1
            value: dict = {}
            for (key, (i, j, k)), v in coeffs.items():
                value[key] = value.get(key, 0) + v * b ** (i + 3 * j + 9 * k)
            assert verify.cybe_polynomial(candidate, b, b**3, b**9) == {
                key: v for key, v in value.items() if v}
            assert (candidate is table) == (not coeffs)

    @pytest.mark.parametrize("route", ROUTES)
    def test_check_evaluates_past_the_bound(self, route, monkeypatch):
        """The check evaluates at (B, B^3, B^9) with B a power of two above
        twice the bound."""
        check = ROUTES[route][1]
        table = route_table(route, 2, 3)
        seen = []
        polynomial = verify.cybe_polynomial
        monkeypatch.setattr(verify, "cybe_polynomial",
                            lambda t, *pt: seen.append(pt) or polynomial(t, *pt))
        assert check(2, 3, PAIR)[0]
        [(b, b3, b9)] = seen
        assert (b3, b9) == (b**3, b**9) and b & (b - 1) == 0
        assert 2 * kronecker_bound(table) < b <= 4 * kronecker_bound(table)


class TestProof:
    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("e,d", [(1, 1), (2, 1), (1, 2), (2, 3), (1, 6), (3, 4)])
    def test_every_table_proved(self, route, e, d):
        tail, check = ROUTES[route]
        assert verify._broken_premise(route_table(route, e, d), tail) is None
        ok, detail = check(e, d, PAIR)
        assert ok and detail.startswith("CYBE and unitarity for all x, y")

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("e,d", [(1, 1), (2, 1), (1, 2), (2, 3), (3, 2)])
    def test_roadmap_perturbations_rejected(self, route, e, d, monkeypatch):
        """One bumped numerator of a degree-1 part breaks unitarity; T10 and
        T01 moved together, and A at a key and its swap, keep it and are
        caught by the Kronecker evaluation."""
        check = ROUTES[route][1]
        table = route_table(route, e, d)
        key = off_diagonal_keys(e + d)[0]
        pts = _points(random.Random(e + d), 3)
        one = changed(table, {((0, 1, 0), key): 1})
        use_table(monkeypatch, route, one)
        assert check(e, d, PAIR) == (False, "T_ab != -swap(T_ba)")
        for m in ((0, 1, 0), (0, 0, 0)):
            bumped = unitary_bump(table, m, key, 1)
            assert residual(bumped, pts)
            use_table(monkeypatch, route, bumped)
            assert check(e, d, PAIR) == (False, "Q(B, B^3, B^9) != 0")

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("e,d", [(2, 1), (1, 3), (2, 3), (1, 6)])
    @pytest.mark.parametrize("delta", [1, -1])
    def test_largest_numerator_moved_by_one(self, route, e, d, delta, monkeypatch):
        """A +-1 change at the largest numerator of the polynomial part,
        with its unitary partner, is rejected."""
        tail, check = ROUTES[route]
        table = route_table(route, e, d)
        col = {m: c for c, m in enumerate(table.monomials)}
        _, m, key = max((abs(nums[col[m]]), m, key) for key, nums in table.terms.items()
                        for m in tail if m in col and (m, key) != ((0, m[2], m[1]), swap(key)))
        bumped = unitary_bump(table, m, key, delta)
        assert verify._broken_premise(bumped, tail) is None
        use_table(monkeypatch, route, bumped)
        assert check(e, d, PAIR) == (False, "Q(B, B^3, B^9) != 0")

    @pytest.mark.parametrize("route", ROUTES)
    def test_pole_not_casimir(self, route, monkeypatch):
        check = ROUTES[route][1]
        table = route_table(route, 2, 1)
        for key in ((1, 1, 1, 1), (1, 2, 2, 1), (1, 2, 1, 2)):
            use_table(monkeypatch, route, changed(table, {(POLE, key): 1}))
            assert check(2, 1, PAIR) == (False, "pole part is not the Casimir")

    @pytest.mark.parametrize("m", [(0, 2, 0), (0, 1, 1)])
    def test_cuspidal_monomial_outside_ansatz(self, m, monkeypatch):
        """x^2 and x y have no place in c/(y-x) + A + xB + yC, even as a
        unitary part."""
        table = cuspidal.sol_family(2, 1).table
        key = (1, 2, 2, 3)
        changes = {(m, key): 1, ((0, m[2], m[1]), swap(key)): -1}
        use_table(monkeypatch, "cuspidal", changed(table, changes))
        ok, detail = verify.check_cuspidal_cybe(2, 1, PAIR)
        assert not ok and detail.startswith("monomials [") and str(m) in detail

    def test_stolin_x_squared_outside_ansatz(self, monkeypatch):
        table = route_table("stolin", 2, 1)
        use_table(monkeypatch, "stolin", changed(table, {((0, 2, 0), (1, 2, 2, 3)): 1}))
        assert verify.check_stolin_cybe(2, 1, PAIR) == (
            False, "monomials [(0, 2, 0)] outside the ansatz")

    @pytest.mark.parametrize("route", ROUTES)
    def test_broken_unitarity(self, route, monkeypatch):
        tail, check = ROUTES[route]
        table = route_table(route, 1, 2)
        for m in tail:
            use_table(monkeypatch, route, changed(table, {(m, (1, 2, 2, 3)): 1}))
            assert check(1, 2, PAIR) == (False, "T_ab != -swap(T_ba)")

    def test_end_to_end_unitarity(self, monkeypatch):
        """The pair goes through `TensorTable.at`: a table whose evaluation
        breaks unitarity fails there, after the proof."""
        table = cuspidal.sol_family(2, 1).table

        class Broken(TensorTable):
            def at(self, x, y):
                r = super().at(x, y)
                return r.add(r) if x < y else r

        use_table(monkeypatch, "cuspidal", Broken(table.n, table.monomials, table.den, table.terms))
        ok, detail = verify.check_cuspidal_cybe(2, 1, PAIR)
        assert not ok and detail.startswith("not unitary at")


class TestTableIdentities:
    def test_same_table_reads_values(self):
        table = cuspidal.sol_family(2, 3).table
        scaled = TensorTable(table.n, table.monomials + ((0, 2, 0),), 3 * table.den,
                             {key: tuple(3 * v for v in nums) + (0,)
                              for key, nums in table.terms.items()})
        assert verify._same_table(table, scaled) and verify._same_table(scaled, table)
        key = next(iter(table.terms))
        for bumped in (changed(table, {((0, 0, 0), key): 1}),
                       changed(table, {((0, 2, 0), key): 1})):
            assert not verify._same_table(table, bumped)
            assert not verify._same_table(bumped, table)

    @pytest.mark.parametrize("e,d", [(1, 2), (2, 3), (3, 1)])
    def test_gauge_table_is_apply_gauge(self, e, d):
        table = cuspidal.sol_family(e, d).table
        for phi in (flip_map(e + d), cuspidal.flip_transpose_gauge(e, d)):
            for x, y in (PAIR, (F(2), F(0))):
                assert verify._gauge_table(phi, table).at(x, y) == apply_gauge(
                    phi, phi, table.at(x, y))

    @pytest.mark.parametrize("e,d", [(1, 1), (1, 2), (2, 3)])
    def test_comparison_rejects_a_changed_table(self, e, d, monkeypatch):
        table = cuspidal.sol_family(e, d).table
        monkeypatch.setattr(cuspidal, "sol_family", lambda *_: SimpleNamespace(
            table=changed(table, {((0, 0, 1), (1, 2, 2, 1)): 1})))
        # the end-to-end point reads the real tables, so only the table
        # identity can fail here
        monkeypatch.setattr(stolin, "compare_pipelines", lambda *_: True)
        assert not verify.check_comparison(e, d, PAIR)[0]

    def test_comparison_control_is_live(self, monkeypatch):
        """With -J in place of +J the control table equals the gauged one,
        and the check fails."""
        monkeypatch.setattr(stolin, "j_matrix_rat", stolin.neg_j_matrix)
        assert not verify.check_comparison(2, 3, PAIR)[0]

    @pytest.mark.parametrize("e,d", [(1, 2), (2, 3)])
    def test_flip_rejects_a_changed_table(self, e, d, monkeypatch):
        tables = {(e, d): cuspidal.sol_family(e, d).table,
                  (d, e): changed(cuspidal.sol_family(d, e).table, {((0, 1, 0), (1, 2, 2, 1)): 1})}
        monkeypatch.setattr(cuspidal, "sol_family", lambda a, b: SimpleNamespace(
            table=tables[a, b]))
        monkeypatch.setattr(cuspidal, "psi_transport", lambda *_: None)
        monkeypatch.setattr(cuspidal, "assemble_r", lambda *_: None)
        assert not verify.check_flip_symmetry(e, d, PAIR)[0]

    def test_flip_control_is_live(self, monkeypatch):
        """If the bare reversal were the gauge, the control would fail."""
        monkeypatch.setattr(verify, "flip_map", lambda n: cuspidal.flip_transpose_gauge(2, 3))
        assert not verify.check_flip_symmetry(3, 2, PAIR)[0]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_closed_form_rejects_a_changed_table(self, n, monkeypatch):
        table = stolin.closed_form_d1(n)
        monkeypatch.setattr(stolin, "closed_form_d1", lambda _: changed(
            table, {((0, 1, 0), (1, 2, 1, 2)): 1}))
        assert not verify.check_closed_form_d1(n)[0]

    def test_closed_form_n2_reference(self):
        assert verify._same_table(stolin.closed_form_d1(2), verify._closed_form_n2())
        # the variant ending in h (x) e_{2,1} is another table
        h = {(1, 1): F(1), (2, 2): F(-1)}
        e21 = tensor_table(2, [({(1, 2): F(1, 2)}, h, (0, 1, 0)), (h, {(2, 1): F(-1, 2)}, (0, 0, 1))])
        assert not verify._same_table(stolin.closed_form_d1(2), e21)
