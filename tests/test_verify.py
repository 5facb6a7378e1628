"""The table proofs of `verify`: the CYBE lemma behind `cybe_polynomial`,
its coefficient bound, the premises, the table identities of the
comparison, flip and closed-form checks with their negative controls, and
the transport of proofs and Gram determinants by proven automorphisms."""

import random
from fractions import Fraction as F
from math import gcd
from types import SimpleNamespace

import pytest

from ybe_forge import cuspidal, jmat, proofs, stolin, verify
from ybe_forge.jmat import build_j
from ybe_forge.lie import (
    LinearMapGl,
    apply_gauge,
    cybe_lhs,
    signed_permutation_map,
    transpose_negate_map,
)
from ybe_forge.table import POLE, TensorTable, tensor_table
from ybe_forge.proofs import flip_map
from ybe_forge.verify import _coprime_pairs, _points

ROUTES = {
    "cuspidal": (proofs._CUSPIDAL_TAIL, verify.check_cuspidal_cybe),
    "stolin": (proofs._TAIL, verify.check_stolin_cybe),
}
PAIR = (F(1, 3), F(-5, 2))


@pytest.fixture(autouse=True)
def fresh_verdicts(monkeypatch):
    """Each test starts from an empty proof memo, so that a check it runs
    proves its tables in the test, not in an earlier one."""
    monkeypatch.setattr(proofs, "_PROOFS", {})


def route_table(route, e, d) -> TensorTable:
    if route == "cuspidal":
        return cuspidal.sol_family(e, d).table
    return stolin.solve_dec(e, d, jmat.build_j(e, d)).table


def use_table(monkeypatch, route, table):
    """Make the check of `route` read `table` for every pair."""
    fake = SimpleNamespace(table=table)
    if route == "cuspidal":
        monkeypatch.setattr(cuspidal, "sol_family", lambda e, d: fake)
    else:
        monkeypatch.setattr(stolin, "solve_dec", lambda e, d, K: fake)


def changed(table, changes) -> TensorTable:
    """`table` with the numerator of each (monomial, key) moved by its delta;
    a monomial the table lacks gets an index, a numerator moved to 0 leaves
    its row and a key whose row empties leaves the table."""
    monomials = tuple(sorted(set(table.monomials) | {m for m, _ in changes}))
    col = {m: c for c, m in enumerate(monomials)}
    acc = {key: {col[table.monomials[c]]: v for c, v in row} for key, row in table.terms.items()}
    for (m, key), delta in changes.items():
        row = acc.setdefault(key, {})
        row[col[m]] = row.get(col[m], 0) + delta
    rows = {key: tuple((c, v) for c, v in sorted(row.items()) if v) for key, row in acc.items()}
    return TensorTable(table.n, monomials, table.den, {key: row for key, row in rows.items() if row})


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


def canonical_rule_broken(table) -> str | None:
    """The first part of the rule `TensorTable` states that the table
    breaks, or None: each row is its (monomial index, nonzero numerator)
    pairs, indices ascending, no row is empty, every monomial is in some
    row, the denominator is positive and in lowest terms with the
    numerators, and the monomials are sorted."""
    rows = list(table.terms.values())
    if any(v == 0 for row in rows for _, v in row):
        return "a zero numerator"
    if not all(rows):
        return "an empty row"
    if any([c for c, _ in row] != sorted({c for c, _ in row}) for row in rows):
        return "a row out of order"
    if {c for row in rows for c, _ in row} != set(range(len(table.monomials))):
        return "a monomial in no row"
    if table.den <= 0 or gcd(table.den, *(v for row in rows for _, v in row)) != 1:
        return "a denominator not in lowest terms"
    if list(table.monomials) != sorted(set(table.monomials)):
        return "monomials out of order"
    return None


def kronecker_bound(table) -> int:
    return 6 * sum(abs(v) for row in table.terms.values() for _, v in row) ** 2


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
                for key, v in proofs.cybe_polynomial(table, g1, g2, g3).items():
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
            assert proofs._broken_premise(bumped, tail) is None
            pts = _points(rng, 3)
            want = residual(bumped, pts)
            assert want  # the perturbation breaks the CYBE
            assert proofs.cybe_polynomial(bumped, *pts) == want

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
            assert proofs.cybe_polynomial(candidate, b, b**3, b**9) == {
                key: v for key, v in value.items() if v}
            assert (candidate is table) == (not coeffs)

    @pytest.mark.parametrize("route", ROUTES)
    def test_check_evaluates_past_the_bound(self, route, monkeypatch):
        """The check evaluates at (B, B^3, B^9) with B a power of two above
        twice the bound."""
        check = ROUTES[route][1]
        table = route_table(route, 2, 3)
        seen = []
        polynomial = proofs.cybe_polynomial
        monkeypatch.setattr(proofs, "cybe_polynomial",
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
        assert proofs._broken_premise(route_table(route, e, d), tail) is None
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
        _, m, key = max((abs(v), m, key) for key, row in table.terms.items() for c, v in row
                        if (m := table.monomials[c]) in tail
                        and (m, key) != ((0, m[2], m[1]), swap(key)))
        bumped = unitary_bump(table, m, key, delta)
        assert proofs._broken_premise(bumped, tail) is None
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
    def test_tensor_table_is_canonical(self):
        """Pairs whose contributions to a monomial cancel leave no column and
        no key behind, and entries scaled against each other give the same
        denominator, so `==` is table identity."""
        h, e12 = {(1, 1): F(1), (2, 2): F(-1)}, {(1, 2): F(1, 2)}
        base = [(e12, h, (0, 1, 0)), (h, {(1, 2): F(-1, 2)}, (0, 0, 1))]
        want = tensor_table(2, base)
        cancelling = [({(2, 1): F(1, 3)}, {(1, 2): F(1)}, (0, 1, 1)),
                      ({(2, 1): F(-1)}, {(1, 2): F(1, 3)}, (0, 1, 1)),
                      ({(1, 2): F(5)}, h, (0, 1, 0)), ({(1, 2): F(-5)}, h, (0, 1, 0))]
        assert tensor_table(2, base + cancelling) == want
        assert tensor_table(2, cancelling[:2] + base) == want
        scaled = [({k: 6 * v for k, v in a.items()}, {k: v / 6 for k, v in b.items()}, m)
                  for a, b, m in base]
        assert tensor_table(2, scaled).den == want.den and tensor_table(2, scaled) == want
        assert tensor_table(2, base[:1]) != want

    @pytest.mark.parametrize("e,d", [(1, 1), (2, 3), (3, 2), (1, 6)])
    def test_built_tables_are_canonical(self, e, d):
        """The rule `TensorTable` states, on the tables of both routes and
        their gauge images."""
        cusp = cuspidal.sol_family(e, d).table
        tables = [cusp, proofs._gauge_table(cuspidal.flip_transpose_gauge(e, d), cusp)]
        tables += [stolin.solve_dec(e, d, K).table
                   for K in (build_j(e, d), stolin.neg_j_matrix(e, d))]
        for table in tables:
            assert canonical_rule_broken(table) is None

    @pytest.mark.parametrize("fault, broken", [
        ("a zero numerator", lambda rows, key, pole: {**rows, key: rows[key] + ((pole, 0),)}),
        ("an empty row", lambda rows, key, pole: {**rows, key: ()}),
        ("a row out of order", lambda rows, key, pole: {**rows, key: ((pole, 1),) + rows[key]}),
        ("a monomial in no row", lambda rows, key, pole: {k: r for k, r in rows.items()
                                                          if all(c != pole for c, _ in r)}),
    ])
    def test_canonical_rule_fails_a_broken_table(self, fault, broken):
        """Negative controls: the rule rejects a table that stores a zero,
        an empty row, pairs out of index order, a monomial that no row
        holds, and a denominator not in lowest terms."""
        table = cuspidal.sol_family(2, 1).table
        pole = table.monomials.index(POLE)
        assert pole == len(table.monomials) - 1 and canonical_rule_broken(table) is None
        key = next(k for k, row in table.terms.items() if row[-1][0] < pole)
        bad = TensorTable(table.n, table.monomials, table.den, broken(dict(table.terms), key, pole))
        assert canonical_rule_broken(bad) == fault
        doubled = {k: tuple((c, 2 * v) for c, v in row) for k, row in table.terms.items()}
        assert canonical_rule_broken(TensorTable(
            table.n, table.monomials, 2 * table.den, doubled)) == "a denominator not in lowest terms"

    @pytest.mark.parametrize("e,d", [(1, 2), (2, 3), (3, 1)])
    def test_gauge_table_is_apply_gauge(self, e, d):
        table = cuspidal.sol_family(e, d).table
        for phi in (flip_map(e + d), cuspidal.flip_transpose_gauge(e, d)):
            for x, y in (PAIR, (F(2), F(0))):
                assert proofs._gauge_table(phi, table).at(x, y) == apply_gauge(
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
        monkeypatch.setattr(jmat, "build_j", stolin.neg_j_matrix)
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
        monkeypatch.setattr(proofs, "flip_map", lambda n: cuspidal.flip_transpose_gauge(2, 3))
        assert not verify.check_flip_symmetry(3, 2, PAIR)[0]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_closed_form_rejects_a_changed_table(self, n, monkeypatch):
        table = proofs.closed_form_d1(n)
        monkeypatch.setattr(proofs, "closed_form_d1", lambda _: changed(
            table, {((0, 1, 0), (1, 2, 1, 2)): 1}))
        assert not verify.check_closed_form_d1(n)[0]

    def test_closed_form_n2_reference(self):
        assert proofs.closed_form_d1(2) == proofs._closed_form_n2()
        # the variant ending in h (x) e_{2,1} is another table
        h = {(1, 1): F(1), (2, 2): F(-1)}
        e21 = tensor_table(2, [({(1, 2): F(1, 2)}, h, (0, 1, 0)), (h, {(2, 1): F(-1, 2)}, (0, 0, 1))])
        assert proofs.closed_form_d1(2) != e21


def direct_proof(table, tail) -> bool:
    """The Kronecker proof of the table itself, without the memo."""
    if proofs._broken_premise(table, tail) is not None:
        return False
    b = 1 << kronecker_bound(table).bit_length() + 1
    return not proofs.cybe_polynomial(table, b, b**3, b**9)


def unit_bracket(a, b) -> dict:
    """[e_a, e_b] for units a = (i, j), b = (k, l), as {(i, j): entry}."""
    (i, j), (k, l) = a, b
    out: dict = {}
    if j == k:
        out[i, l] = out.get((i, l), 0) + 1
    if l == i:
        out[k, j] = out.get((k, j), 0) - 1
    return {key: v for key, v in out.items() if v}


def brackets_kept(g) -> bool:
    """The n^4 oracle: g [a, b] = [g a, g b] on every pair of units."""
    def image(m):
        out: dict = {}
        for key, v in m.items():
            a, b, s = g.images[key]
            out[a, b] = out.get((a, b), 0) + s * v
        return {key: v for key, v in out.items() if v}

    units = list(g.images)
    for a in units:
        for b in units:
            (p, q, s), (u, v, t) = g.images[a], g.images[b]
            lhs = image(unit_bracket(a, b))
            rhs = {key: s * t * w for key, w in unit_bracket((p, q), (u, v)).items()}
            if lhs != rhs:
                return False
    return True


def sign_flipped(g, key) -> LinearMapGl:
    images = dict(g.images)
    a, b, s = images[key]
    images[key] = (a, b, -s)
    return LinearMapGl(g.n, images)


def sigma(n) -> LinearMapGl:
    return signed_permutation_map(n, lambda i, j: (n + 1 - j, n + 1 - i, -1))


class TestTransport:
    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("e,d", _coprime_pairs(5))
    def test_transported_verdict_is_the_direct_proof(self, route, e, d):
        """The check's verdict equals the Kronecker proof of the pair's own
        table, and every (e,d) cuspidal check with e > d and every +J check
        was transported."""
        tail, check = ROUTES[route]
        ok, detail = check(e, d, PAIR)
        assert ok == direct_proof(route_table(route, e, d), tail)
        transported = route == "stolin" or e > d
        assert ("image of cuspidal" in detail) == transported
        assert detail.startswith("CYBE and unitarity for all x, y")

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_criterion_is_the_bracket_scan(self, n):
        """The closed criterion agrees with the bracket scan: it accepts the
        gauges and minus the antitranspose, and rejects each of them with any
        one image sign flipped."""
        maps = [flip_map(n), transpose_negate_map(n), sigma(n)]
        maps += [cuspidal.flip_transpose_gauge(n - d, d) for d in range(1, n) if gcd(n, d) == 1]
        for g in maps:
            assert proofs._is_automorphism(g) and brackets_kept(g)
            for key in g.images:
                bad = sign_flipped(g, key)
                assert not proofs._is_automorphism(bad) and not brackets_kept(bad)

    @pytest.mark.parametrize("e,d", [(1, 2), (2, 1), (2, 3), (5, 7)])
    def test_criterion_rejects_a_flipped_sign_and_the_transpose(self, e, d):
        n, g = e + d, cuspidal.flip_transpose_gauge(e, d)
        assert proofs._is_automorphism(g)
        assert not proofs._is_automorphism(sign_flipped(g, (1, n)))
        assert not proofs._is_automorphism(sign_flipped(g, (n, n)))
        # the bare transpose is an anti-automorphism
        transpose = signed_permutation_map(n, lambda i, j: (j, i, 1))
        assert not proofs._is_automorphism(transpose)
        assert not brackets_kept(transpose)

    def test_plus_j_check_reads_its_source_proof(self, monkeypatch):
        """After both cuspidal checks of (1,2) and (2,1), the +J (1,2)
        check runs its own premises and its one transport, and takes the
        memoised proof of cuspidal (2,1) without proving it again."""
        assert verify.check_cuspidal_cybe(1, 2, PAIR)[0]
        assert verify.check_cuspidal_cybe(2, 1, PAIR)[0]
        calls = {"_transports": 0, "_broken_premise": 0, "cybe_polynomial": 0}
        for name in calls:
            real = getattr(proofs, name)
            monkeypatch.setattr(proofs, name, lambda *a, _f=real, _n=name: calls.update(
                {_n: calls[_n] + 1}) or _f(*a))
        ok, detail = verify.check_stolin_cybe(1, 2, PAIR)
        assert ok and "flip_map image of cuspidal (2,1) = flip_transpose_gauge" in detail
        assert calls == {"_transports": 1, "_broken_premise": 1, "cybe_polynomial": 0}
        # a second +J check reads its own memo entry
        assert verify.check_stolin_cybe(1, 2, PAIR) == (ok, detail)
        assert calls == {"_transports": 1, "_broken_premise": 1, "cybe_polynomial": 0}

    @pytest.mark.parametrize("e,d", [(2, 1), (2, 3), (3, 2)])
    def test_bumped_plus_j_table_is_proved_on_its_own(self, e, d, monkeypatch):
        """A +J table with one numerator moved (its unitary partner too)
        is not the flip_map image of the cuspidal (d,e) table, so its own
        Kronecker proof runs, and fails."""
        table = route_table("stolin", e, d)
        bumped = unitary_bump(table, (0, 1, 0), off_diagonal_keys(e + d)[0], 1)
        assert not proofs._transports(flip_map(e + d), cuspidal.sol_family(d, e).table, bumped)
        use_table(monkeypatch, "stolin", bumped)
        seen = []
        polynomial = proofs.cybe_polynomial
        monkeypatch.setattr(proofs, "cybe_polynomial",
                            lambda t, *pt: seen.append(t) or polynomial(t, *pt))
        assert verify.check_stolin_cybe(e, d, PAIR) == (False, "Q(B, B^3, B^9) != 0")
        assert seen == [bumped]

    def test_broken_table_after_a_clean_run(self, monkeypatch):
        """After both orientations passed in this process, a broken (1,2)
        table and its gauge image as the (2,1) table fail both checks: the
        memo holds the verdicts of the old table objects only."""
        assert verify.check_cuspidal_cybe(1, 2, PAIR)[0]
        assert verify.check_cuspidal_cybe(2, 1, PAIR)[0]
        broken = unitary_bump(route_table("cuspidal", 1, 2), (0, 0, 0), (1, 2, 2, 3), 1)
        tables = {(1, 2): broken,
                  (2, 1): proofs._gauge_table(cuspidal.flip_transpose_gauge(1, 2), broken)}
        monkeypatch.setattr(cuspidal, "sol_family", lambda e, d: SimpleNamespace(table=tables[e, d]))
        for e, d in ((1, 2), (2, 1)):
            assert verify.check_cuspidal_cybe(e, d, PAIR) == (False, "Q(B, B^3, B^9) != 0")
        # the real +J (2,1) table is no flip_map image of the broken table,
        # so it is proved on its own, and passes
        assert verify.check_stolin_cybe(2, 1, PAIR)[0]

    @pytest.mark.parametrize("e,d", [(2, 1), (1, 2)])
    def test_broken_source_is_not_transported_to_plus_j(self, e, d, monkeypatch):
        """A +J table that is the flip_map image of a broken cuspidal (d,e)
        table takes no proof from it: its own proof runs, and fails."""
        broken = unitary_bump(route_table("cuspidal", d, e), (0, 0, 0), (1, 2, 2, 3), 1)
        image = proofs._gauge_table(flip_map(e + d), broken)
        real = cuspidal.sol_family
        monkeypatch.setattr(cuspidal, "sol_family", lambda a, b: SimpleNamespace(
            table=broken) if (a, b) == (d, e) else real(a, b))
        use_table(monkeypatch, "stolin", image)
        assert verify.check_stolin_cybe(e, d, PAIR) == (False, "Q(B, B^3, B^9) != 0")

    def test_gram_determinants_match_elimination(self):
        form = stolin.frobenius_gram(build_j(1, 1), 1)
        dets = proofs._gram_determinants(form, _coprime_pairs(12))
        assert sorted(dets) == sorted(_coprime_pairs(12))
        for (e, d), (det, eliminated) in dets.items():
            assert det == stolin.frobenius_gram(build_j(e, d), e).determinant
            assert eliminated == (e <= d)

    def test_gram_transport_identity(self):
        """Entry by entry: Gram(e,d)[sigma a, sigma b] = -Gram(d,e)[a, b]."""
        for e, d in [(2, 1), (3, 2), (5, 2)]:
            n = e + d
            src = stolin.frobenius_gram(build_j(d, e), d)
            dst = stolin.frobenius_gram(build_j(e, d), e)
            at = {lbl: p for p, lbl in enumerate(dst.labels)}
            g, to = sigma(n), {}
            for p, lbl in enumerate(src.labels):
                if lbl[0] == "cartan":
                    to[p] = (at["cartan", n - lbl[1]], 1)
                else:
                    a, b, s = g.images[lbl[1:]]
                    to[p] = (at["unit", a, b], s)
            for p, row in enumerate(src.rows):
                for q in range(len(src.labels)):
                    (p2, s), (q2, t) = to[p], to[q]
                    assert dst.rows[p2].get(q2, 0) * s * t == -row.get(q, 0)

    def test_maps_labels_needs_the_other_parabolic(self):
        n = 5
        labels = {e: stolin.parabolic_labels(e, n) for e in (2, 3)}
        assert proofs._maps_labels(sigma(n), labels[2], labels[3])
        assert not proofs._maps_labels(sigma(n), labels[2], labels[2])
        assert not proofs._maps_labels(flip_map(n), labels[2], labels[3])

    def test_moved_j_entry_falls_back_to_elimination(self, monkeypatch):
        """J(3,2) with one unit moved breaks flip_j(J(2,3)) = J(3,2), so its
        determinant is eliminated, from the moved J."""
        rows = [list(row) for row in build_j(3, 2)]
        i, j = next((i, j) for i, row in enumerate(rows) for j, v in enumerate(row) if v)
        rows[i][j], rows[i][(j + 1) % 5] = 0, 1
        moved = tuple(map(tuple, rows))
        monkeypatch.setattr(jmat, "build_j", lambda e, d: moved if (e, d) == (3, 2) else build_j(e, d))
        assert not proofs._gram_transports(3, 2)
        form = stolin.frobenius_gram(build_j(1, 1), 1)
        det, eliminated = proofs._gram_determinants(form, _coprime_pairs(12))[3, 2]
        assert eliminated and det == stolin.frobenius_gram(moved, 3).determinant
        assert "24 eliminated, 21 transported" in verify.check_frobenius_goldens()[1]

