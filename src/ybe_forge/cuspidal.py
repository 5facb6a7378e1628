"""Rational r-matrices from the geometric pipeline on the cuspidal cubic.

The construction is driven by the 0/1 matrix J of the coprime pair (e, d)
(`jmat`), a shaped space V_{e,d} of matrix polynomials in z, and its
subspace Sol((e, d), x) cut out by [F_0, J] + x F_0 + F_eps = 0.  The
members of Sol, taken at the residue point x and evaluated at y, produce
the tensor, whose pole part is always the Casimir element.  A `rational`
request runs only `assemble_r` on the cached `sol_family`.  The degree cap
of entry (i, j) of V_{e,d} is 1 - `jmat.twist(i, j, e)`.  `sol_space` hands
out its tuple of members and `g_elements` its corrections dict.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .exact import (
    InconsistentSystemError,
    SingularSystemError,
    ZERO,
    kernel,
    rat,
    solve_multi,
)
from .jmat import G_ELEMENTS_CACHE_MAX, _check_coprime, build_j, j_support_coloring, twist
from .lie import (
    POLE,
    GlTensor2,
    TensorTable,
    apply_gauge,
    dual_terms,
    signed_permutation_map,
    sl_basis,
    tensor_table,
)


class SolDimensionError(RuntimeError):
    """The certificate of `sol_family` failed: dim Sol((e,d), x) may differ
    from n^2 - 1 at some x, and downstream formulas would be meaningless."""


class AnsatzError(RuntimeError):
    """The table is not of the form c/(y - x) + A + x B + y C."""


def _cells(n: int) -> list:
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]


# Coordinates of V_{e,d}: (i, j, k) is the coefficient of (z - x)^k in entry
# (i, j), for every k up to the entry's degree cap 1 - twist(i, j, e):
# constant on the e x d upper-right block, linear on the diagonal blocks,
# quadratic on the d x e lower-left block.  The n^2 residue
# coordinates (k = 0) come last, in row-major order, so that the solutions
# split into the coordinates before them and the residues (see `sol_family`).
@lru_cache(maxsize=None)
def _ved_coords(e: int, d: int) -> tuple:
    n = e + d
    cells = _cells(n)
    return tuple(
        (i, j, k) for i, j in cells for k in range(1, 2 - twist(i, j, e))
    ) + tuple((i, j, 0) for i, j in cells)


def _sol_rows(e: int, d: int) -> tuple[list, list]:
    """The defining constraint of Sol((e,d), x) as the rows of A0 + x A1
    over the coordinates of V_{e,d}, each a {column: int} dict.

    In (z - x)-coordinates c_k, an entry with degree cap `cap` has
    F_0 = c_cap and F_eps = c_(cap-1) - cap x c_cap, so row (a, b) of the
    constraint is [c_cap, J] + (1 - cap) x c_cap + c_(cap-1), and the trace
    rows are sum c1_aa = 0 and sum c0_aa = 0.  tests/test_cuspidal.py
    proves, for n <= cli.N_MAX, that A0 + x A1 equals its reference form of
    the constraint (F_0 and F_eps read off each member in powers of z) at
    every x, so no member is re-checked at runtime.
    """
    n = e + d
    col = {c: idx for idx, c in enumerate(_ved_coords(e, d))}
    # (i, j) -> the column of its top coefficient c_cap
    top = {(i, j): col[i, j, 1 - twist(i, j, e)] for i, j in _cells(n)}
    J = build_j(e, d)
    a0, a1 = [], []
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            cap = 1 - twist(a, b, e)
            row = {col[a, b, cap - 1]: 1} if cap else {}
            # J is strictly upper triangular, so no column below is hit
            # twice and none of them is top[a, b]
            for c in range(1, n + 1):
                if J[c - 1][b - 1]:
                    row[top[a, c]] = 1
                if J[a - 1][c - 1]:
                    row[top[c, b]] = -1
            a0.append(row)
            a1.append({top[a, b]: 1 - cap} if cap != 1 else {})
    for k in (1, 0):
        a0.append({col[a, a, k]: 1 for a in range(1, n + 1)})
        a1.append({})
    return a0, a1


def _columns(rows) -> dict:
    """{column: {row: entry}} of the {column: entry} rows."""
    out: dict = {}
    for r, row in enumerate(rows):
        for c, v in row.items():
            out.setdefault(c, {})[r] = v
    return out


def _combine(terms) -> dict:
    """The sum of w v over the pairs (w, v) of `terms`, each v a sparse
    {index: value} dict, with zeros dropped."""
    acc: dict = {}
    for w, vec in terms:
        for c, v in vec.items():
            acc[c] = acc.get(c, 0) + w * v
    return {c: v for c, v in acc.items() if v}


def _by_label(n: int, members) -> dict:
    """label B -> B + G_B as the same combination of the members'
    coordinates (in the order of `sol_space`), since B = sum over
    (i, j) != (1, 1) of B_ij (e_ij - delta_ij e_11).  Without its residue
    coordinates it is G_B, and G_B(x) = 0: each one left is of (z - x)^k,
    k >= 1."""
    member = dict(zip(_cells(n)[1:], members))
    member[1, 1] = {}
    return {label: member[label[1:]] if label[0] == "unit" else _combine(
        ((1, member[label[1], label[1]]), (-1, member[label[1] + 1, label[1] + 1])))
        for label in sl_basis(n)}


# (k, s) -> the signed monomials the x^s part of a z^k coordinate of G adds
# to G(y)/(y - x): the sum of the z^1 coordinates and the z^2 ones (y - x).
_PARTS = {(1, 0): ((1, (0, 0, 0)),), (1, 1): ((1, (0, 1, 0)),),
          (2, 0): ((1, (0, 0, 1)), (-1, (0, 1, 0))), (2, 1): ((1, (0, 1, 1)), (-1, (0, 2, 0)))}


class SolFamily:
    """Sol((e,d), x) for every x: member m of the residue-dual basis has the
    coordinates v0[m]/den + x v1[m]/den^2, each a sparse {coordinate: int}
    dict; `table` is r(x, y) read off them."""

    __slots__ = ("den", "v0", "v1", "table")

    def __init__(self, den: int, v0: tuple, v1: tuple, table: TensorTable):
        self.den = den
        self.v0 = v0
        self.v1 = v1
        self.table = table


# One family per coprime pair, kept for the life of the process: the CLI
# admits the 45 pairs up to cli.N_MAX, and a family at n = 12, table
# included, holds about 0.23 MB (measured with tracemalloc at (1, 11) and
# (5, 7)).
@lru_cache(maxsize=None)
def sol_family(e: int, d: int) -> SolFamily:
    """Sol((e,d), x) for every x from one elimination, certified at every x.

    Split the columns of A0 + x A1 (`_sol_rows`) into the coordinates before
    the residues, B0 + x P, and the residues, R0 + x R1.  One batched
    `solve_multi` on B0 gives W0 = B0^-1 (-R0 D) for the residue duals D,
    U = B0^-1 (-R1 D) for those D with R1 D != 0, and M = B0^-1 P; it raises
    unless B0 is injective and every right-hand side lies in its range.
    The certificate: M is zero on the rows of P's columns, so M^2 = 0 and
    B0 + x P = B0 (I + x M) is injective at every x; and M U = 0.  Then the
    member over D is W0 + x (U - M W0) at every x, and the residue map
    Sol -> sl(n) is an isomorphism, which every downstream formula assumes;
    SolDimensionError otherwise.
    """
    _check_coprime(e, d)
    n = e + d
    head = len(_ved_coords(e, d)) - n * n  # coordinates before the residue ones
    a0, a1 = _sol_rows(e, d)
    cols0, cols1 = _columns(a0), _columns(a1)
    # the residue dual of cell (i, j) != (1, 1), e_ij - delta_ij e_11
    duals = [{head + q: 1, **({head: -1} if i == j else {})}
             for q, (i, j) in enumerate(_cells(n)) if q]
    w_rhs = [_combine((-w, cols0.get(c, {})) for c, w in D.items()) for D in duals]
    u_rhs = {m: rhs for m, D in enumerate(duals)
             if (rhs := _combine((-w, cols1.get(c, {})) for c, w in D.items()))}
    p_cols = sorted(c for c in cols1 if c < head)
    b0 = [{c: v for c, v in row.items() if c < head} for row in a0]
    try:
        sols = solve_multi(b0, w_rhs + list(u_rhs.values()) + [cols1[c] for c in p_cols], head)
    except (SingularSystemError, InconsistentSystemError) as exc:
        raise SolDimensionError("Sol((%d,%d), x): %s" % (e, d, exc)) from exc
    den = lcm(*(q for _, q in sols))
    ints = [{c: v * (den // q) for c, v in sol.items()} for sol, q in sols]
    u = dict(zip(u_rhs, ints[len(w_rhs):]))
    # each member with its residue coordinates, the dual itself
    w0 = tuple({**w, **{c: den * v for c, v in D.items()}} for w, D in zip(ints, duals))
    m_cols = dict(zip(p_cols, ints[len(ints) - len(p_cols):]))
    if (any(c in m_cols for col in m_cols.values() for c in col)
            or any(_combine((w, m_cols.get(j, {})) for j, w in um.items()) for um in u.values())):
        raise SolDimensionError("Sol((%d,%d), x): M is not zero on the rows of P's "
                                "columns, or M U != 0" % (e, d))
    v1 = tuple(_combine([(den, u.get(m, {}))] + [(-w, m_cols.get(j, {})) for j, w in w0m.items()])
               for m, w0m in enumerate(w0))
    return SolFamily(den, w0, v1, _family_table(n, den, w0, v1, _ved_coords(e, d)))


def _family_table(n: int, den: int, v0: tuple, v1: tuple, coords: tuple) -> TensorTable:
    """r(x, y) for every x and y, in integers, from the members' coordinates
    v0 over den and v1 over den^2."""
    g1 = _by_label(n, v1)
    pairs = []
    for label, g0 in _by_label(n, v0).items():
        parts: dict = {}  # monomial -> {(i, j): numerator over den^2}
        for s, g, scale in ((0, g0, den), (1, g1[label], 1)):
            for c, v in g.items():
                i, j, k = coords[c]
                # k = 0 is B itself, whose part is the Casimir pole
                for sign, m in _PARTS.get((k, s), ()):
                    slot = parts.setdefault(m, {})
                    slot[i, j] = slot.get((i, j), 0) + sign * scale * v
        first = {key: v / (den * den) for key, v in dual_terms(label, n).items()}
        pairs += [(first, {ij: v for ij, v in slot.items() if v}, m) for m, slot in parts.items()]
    return tensor_table(n, pairs)


def sol_space(e: int, d: int, x) -> tuple:
    """The exact basis of Sol((e,d), x) inside V_{e,d} dual to the residues,
    as the members' (z - x)-coordinates: member m is the one with residue
    e_ij - delta_ij e_11, for the m-th (i, j) != (1, 1) in row-major order.
    `sol_family` evaluated at x."""
    x = rat(x)
    fam = sol_family(e, d)
    scale = fam.den * x.denominator  # v0/den + x v1/den^2 over den * scale
    ncols, vectors = len(_ved_coords(e, d)), []
    for g0, g1 in zip(fam.v0, fam.v1):
        vec = [ZERO] * ncols
        for c in g0.keys() | g1.keys():
            if num := g0.get(c, 0) * scale + g1.get(c, 0) * x.numerator:
                vec[c] = Fraction(num, fam.den * scale)
        vectors.append(tuple(vec))
    return tuple(vectors)


@lru_cache(maxsize=G_ELEMENTS_CACHE_MAX)
def g_elements(e: int, d: int, x: Fraction) -> dict:
    """For each sl(n) basis label B, the unique correction G in V_{e,d} with
    B + G in Sol((e,d), x) and G(x) = 0, as {(i, j): nonzero polynomial in
    z}; read off the integer coordinates of `sol_family(e, d)` (`_by_label`).

    Coordinate c of a correction is (g0 den xd + g1 xn) / (den^2 xd) at
    x = xn/xd, for its g0 over den and g1 over den^2, and it is the
    coefficient of (z - x)^k, k >= 1; so every z^m coefficient is an
    integer over den^2 xd^3, summed over the nonzero coordinates only."""
    x = rat(x)
    n = e + d
    fam = sol_family(e, d)
    coords = _ved_coords(e, d)
    xn, xd = x.numerator, x.denominator
    q = fam.den ** 2 * xd ** 3
    # (z - x)^k as (m, its z^m coefficient times xd^2, an integer) pairs
    powers = {1: ((1, xd * xd), (0, -xn * xd)), 2: ((2, xd * xd), (1, -2 * xn * xd), (0, xn * xn))}
    g1 = _by_label(n, fam.v1)
    corrections = {}
    for label, g0 in _by_label(n, fam.v0).items():
        h1 = g1[label]
        cells: dict = {}  # (i, j) -> numerators of its z^0, z^1, z^2 coefficients
        for c in g0.keys() | h1.keys():
            i, j, k = coords[c]
            if k:  # k = 0 is B itself
                num = g0.get(c, 0) * fam.den * xd + h1.get(c, 0) * xn
                p = cells.setdefault((i, j), [0, 0, 0])
                for m, f in powers[k]:
                    p[m] += num * f
        polys = {}  # in row-major order
        for ij in sorted(cells):
            p = cells[ij]
            while p and not p[-1]:
                p.pop()
            if p:
                polys[ij] = tuple(Fraction(a, q) if a else ZERO for a in p)
        corrections[label] = polys
    return corrections


def point_sol_space(e: int, d: int, x) -> tuple:
    """Sol((e,d), x) from one `kernel` elimination of the rows at x, without
    `sol_family`: the reference of `verify.check_ansatz`.  Its basis is the
    residue-dual one exactly when the residue map is an isomorphism at x."""
    x = rat(x)
    # A0 and A1 share no column within a row
    rows = [{**r0, **{c: x * v for c, v in r1.items() if x}} for r0, r1 in zip(*_sol_rows(e, d))]
    ncols = len(_ved_coords(e, d))
    return tuple(tuple(Fraction(vec.get(c, 0), den) for c in range(ncols))
                 for vec, den in kernel(rows, ncols))


def assemble_r(e: int, d: int, x, y) -> GlTensor2:
    """The rational solution of the geometric pipeline at exact points:
    (1/(y-x)) [ c + sum dual(B) (x) G_B(y) ] over the sl(n) basis, read off
    the table of `sol_family(e, d)`; `TensorTable.at` refuses x == y."""
    return sol_family(e, d).table.at(rat(x), rat(y))


def flip_transpose_gauge(e: int, d: int):
    """The involutive automorphism realizing r_(e,d) ~ r_(d,e):
    A |-> -D (antitranspose of A) D, with D the sign diagonal from the
    2-coloring of the support of J_(d,e).

    The antitranspose alone is an anti-automorphism that carries the shaped
    space of (e,d) onto that of (d,e) and J_(e,d) to J_(d,e); the overall
    minus makes it an automorphism and the sign twist absorbs the bracket
    sign against J.  The bare index-reversal e_{i,j} -> e_{n+1-i,n+1-j} does
    NOT transport the solutions (it does not even preserve the shape space).
    """
    n = e + d
    s = j_support_coloring(d, e)
    # antitranspose sends e_{i,j} to e_{n+1-j, n+1-i}
    return signed_permutation_map(
        n, lambda i, j: (n + 1 - j, n + 1 - i, -s[n - j] * s[n - i])
    )


def psi_transport(e: int, d: int, x, y) -> GlTensor2:
    """Image of the assembled tensor under the flip-transpose gauge in both
    slots; equals assemble_r(d, e, x, y) exactly."""
    g = flip_transpose_gauge(e, d)
    return apply_gauge(g, g, assemble_r(e, d, x, y))


def r_ansatz(e: int, d: int) -> TensorTable:
    """The table of `sol_family(e, d)`, certified to be c/(y - x) + A + x B
    + y C: no monomial besides the pole, 1, x and y (A is zero for (1, 1)).
    A z^2 coordinate of some V1 would add x y and x^2.  AnsatzError
    otherwise."""
    table = sol_family(e, d).table
    if not {POLE, (0, 0, 0), (0, 1, 0), (0, 0, 1)}.issuperset(table.monomials):
        raise AnsatzError("table of (%d,%d) has the monomials %s, not those of "
                          "c/(y-x) + A + xB + yC" % (e, d, sorted(table.monomials)))
    return table
