"""Basis-indexed exact tensor algebra on gl(n)/sl(n).

Tensors are stored over the matrix-unit basis of gl(n) (x) gl(n) even though
the solutions live in sl(n) (x) sl(n); sl-membership (both partial traces
vanish) is a property the tests check, not a storage constraint.  The CYBE
embedding conventions (which slot carries the bracket) are fixed here once
and nowhere else.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul

from .exact import (
    ONE,
    cyclo_rational,
    mat_from_entries,
    mat_unit,
    root_complex,
    root_table,
)

RATIONAL = "rational"
COMPLEX = "complex"

# basis labels: ("unit", i, j) for e_{i,j} with i != j, ("cartan", l) for h_l
BasisIndex = tuple


def sl_basis(n: int) -> tuple[BasisIndex, ...]:
    """Ordered basis of sl(n): h_1..h_{n-1} then the off-diagonal units."""
    labels = [("cartan", l) for l in range(1, n)]
    labels += [("unit", i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    return tuple(labels)


def basis_matrix(label: BasisIndex, n: int):
    """The matrix of a basis label: e_{i,j} or h_l = e_{l,l} - e_{l+1,l+1}."""
    if label[0] == "unit":
        _, i, j = label
        return mat_unit(n, i, j)
    _, l = label
    if not 1 <= l <= n - 1:
        raise ValueError("cartan index out of range: %d" % l)
    return mat_from_entries(n, {(l, l): ONE, (l + 1, l + 1): -ONE})


def cartan_dual(l: int, n: int):
    """The unique Cartan element with tr(dual * h_m) = delta_{l m}: the
    fundamental coweight, diagonal with (n-l)/n in its first l entries and
    -l/n in the rest."""
    return mat_from_entries(n, dual_terms(("cartan", l), n))


def dual_matrix(label: BasisIndex, n: int):
    """Trace-form dual of a basis element: e_{i,j} -> e_{j,i}, h_l -> its dual."""
    if label[0] == "unit":
        _, i, j = label
        return mat_unit(n, j, i)
    return cartan_dual(label[1], n)


def dual_terms(label: BasisIndex, n: int) -> dict:
    """`dual_matrix` as {(i, j): nonzero entry}, 1-based."""
    if label[0] == "unit":
        _, i, j = label
        return {(j, i): ONE}
    _, l = label
    if not 1 <= l <= n - 1:
        raise ValueError("cartan index out of range: %d for n=%d" % (l, n))
    return {(a, a): Fraction(n - l if a <= l else -l, n) for a in range(1, n + 1)}


# ---------------------------------------------------------------------------
# sparse tensors over the unit basis
# ---------------------------------------------------------------------------

def _accumulate(store: dict, key, value):
    acc = store.get(key)
    acc = value if acc is None else acc + value
    if acc == 0:
        store.pop(key, None)
    else:
        store[key] = acc


@dataclass(frozen=True)
class GlTensor2:
    """Sparse element of gl(n) (x) gl(n): terms[(i,j,k,l)] is the coefficient
    of e_{i,j} (x) e_{k,l} (1-based indices)."""

    n: int
    ring: str
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.ring not in (RATIONAL, COMPLEX):
            raise ValueError("unknown scalar ring %r" % self.ring)

    def __eq__(self, other):
        return (
            isinstance(other, GlTensor2)
            and self.n == other.n
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def is_zero(self) -> bool:
        return not self.terms

    def norm(self) -> float:
        """Max coefficient magnitude."""
        return max((abs(v) for v in self.terms.values()), default=0.0)

    def add(self, other: "GlTensor2") -> "GlTensor2":
        self._check_compatible(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            _accumulate(out, k, v)
        return GlTensor2(self.n, self.ring, out)

    def sub(self, other: "GlTensor2") -> "GlTensor2":
        return self.add(other.scale(-1))

    def scale(self, c) -> "GlTensor2":
        if c == 0:
            return GlTensor2(self.n, self.ring, {})
        return GlTensor2(self.n, self.ring, {k: c * v for k, v in self.terms.items()})

    def _check_compatible(self, other):
        if self.n != other.n:
            raise ValueError("tensor size mismatch: %d vs %d" % (self.n, other.n))
        if self.ring != other.ring:
            raise ValueError("scalar ring mismatch: %s vs %s" % (self.ring, other.ring))

    def to_complex(self) -> "GlTensor2":
        if self.ring == COMPLEX:
            return self
        return GlTensor2(self.n, COMPLEX, {k: complex(v) for k, v in self.terms.items()})


@dataclass(frozen=True)
class GlTensor3:
    """Sparse element of gl(n) (x) gl(n) (x) gl(n), keyed by six indices."""

    n: int
    ring: str
    terms: dict = field(default_factory=dict)

    def is_zero(self) -> bool:
        return not self.terms

    def norm(self) -> float:
        return max((abs(v) for v in self.terms.values()), default=0.0)


def tensor_from_pairs(n: int, pairs, ring: str = RATIONAL) -> GlTensor2:
    """Sum of coeff * (A (x) B) over (A, B, coeff) triples of matrices."""
    return tensor_from_entries(n, ((_entries(a), _entries(b), c) for a, b, c in pairs), ring)


def _entries(m) -> list:
    """The nonzero entries of a square matrix as (row, column, entry),
    1-based, in row-major order."""
    n = len(m)
    return [(i + 1, j + 1, m[i][j]) for i in range(n) for j in range(n) if m[i][j] != 0]


def tensor_from_entries(n: int, pairs, ring: str = RATIONAL) -> GlTensor2:
    """Sum of coeff * (A (x) B) over (A, B, coeff) triples, A and B given as
    their nonzero entries (row, column, entry), 1-based.  Each key sums its
    products in the order of the triples."""
    out: dict = {}
    for a, b, c in pairs:
        if c == 0:
            continue
        for i, j, aij in a:
            ca = c * aij
            for k, l, bkl in b:
                _accumulate(out, (i, j, k, l), ca * bkl)
    return GlTensor2(n, ring, out)


def _swapped(terms: dict) -> dict:
    return {(k, l, i, j): c for (i, j, k, l), c in terms.items()}


def swap_tensor(r: GlTensor2) -> GlTensor2:
    """The flip a (x) b -> b (x) a, extended linearly."""
    return GlTensor2(r.n, r.ring, _swapped(r.terms))


@lru_cache(maxsize=None)
def casimir(n: int) -> GlTensor2:
    """Casimir element of sl(n) for the trace form: sum over i != j of
    e_{i,j} (x) e_{j,i}, plus sum over all a, b of
    (delta_{a,b} - 1/n) e_{a,a} (x) e_{b,b}."""
    if n < 2:
        raise ValueError("need n >= 2")
    idx = range(1, n + 1)
    terms = {(i, j, j, i): ONE for i in idx for j in idx if i != j}
    terms.update({(a, a, b, b): (a == b) - Fraction(1, n) for a in idx for b in idx})
    return GlTensor2(n, RATIONAL, terms)


# ---------------------------------------------------------------------------
# rational r-matrices as integer coefficient tables
# ---------------------------------------------------------------------------

# The monomial (p, a, b) of a table stands for x^a y^b / (y - x)^p.
POLE = (1, 0, 0)


@dataclass(frozen=True)
class TensorTable:
    """r(x, y) = sum over the monomials m of m(x, y) T_m in integers:
    terms[(i, j, k, l)] holds the numerators of the coefficient of
    e_{i,j} (x) e_{k,l} in each T_m, in the order of `monomials`, over the
    common denominator `den`.  No key has only zero numerators."""

    n: int
    monomials: tuple
    den: int
    terms: dict

    def at(self, x: Fraction, y: Fraction) -> GlTensor2:
        """r(x, y) for y != x.  Every monomial is an integer over one common
        denominator, so each term costs one integer combination and one
        Fraction; terms that vanish at (x, y) are dropped."""
        xn, xd, yn, yd = x.numerator, x.denominator, y.numerator, y.denominator
        s = yn * xd - xn * yd  # (y - x) xd yd
        p_max, a_max, b_max = (max(m[k] for m in self.monomials) for k in range(3))
        values = [
            xn**a * xd ** (a_max - a + p) * yn**b * yd ** (b_max - b + p) * s ** (p_max - p)
            for p, a, b in self.monomials
        ]
        den = self.den * xd**a_max * yd**b_max * s**p_max
        g = gcd(den, *values)
        values = [v // g for v in values]
        den //= g
        terms = {}
        for key, nums in self.terms.items():
            v = sum(map(mul, nums, values))
            if v:
                terms[key] = Fraction(v, den)
        return GlTensor2(self.n, RATIONAL, terms)


def tensor_table(n: int, pairs) -> TensorTable:
    """The table of c/(y - x) + sum of m(x, y) A (x) B over the list of
    triples (A, B, m) `pairs`, c the Casimir.  A and B are {(i, j): entry}
    dicts, 1-based, of rationals.  Built in integers: the entries of each
    slot are scaled to the lcm of that slot's denominators, and keys whose
    numerators all cancel are dropped."""
    monomials = tuple(sorted({POLE}.union(m for _, _, m in pairs)))
    col = {m: c for c, m in enumerate(monomials)}
    den_a = lcm(*(v.denominator for a, _, _ in pairs for v in a.values()))
    den_b = lcm(n, *(v.denominator for _, b, _ in pairs for v in b.values()))
    den = den_a * den_b
    acc: dict = {}
    width = len(monomials)
    for key, v in casimir(n).terms.items():
        acc.setdefault(key, [0] * width)[col[POLE]] = v.numerator * (den // v.denominator)
    for a, b, m in pairs:
        c = col[m]
        b_terms = [(k, l, v.numerator * (den_b // v.denominator)) for (k, l), v in b.items()]
        for (i, j), v in a.items():
            va = v.numerator * (den_a // v.denominator)
            for k, l, vb in b_terms:
                key = (i, j, k, l)
                nums = acc.get(key)
                if nums is None:
                    nums = acc[key] = [0] * width
                nums[c] += va * vb
    g = gcd(den, *(v for nums in acc.values() for v in nums))
    terms = {key: tuple(v // g for v in nums) for key, nums in acc.items() if any(nums)}
    return TensorTable(n, monomials, den // g, terms)


# ---------------------------------------------------------------------------
# the CYBE left-hand side
# ---------------------------------------------------------------------------

def _common_denominator(tensors) -> int:
    return lcm(*{v.denominator for t in tensors for v in t.terms.values()})


def _drop_central(terms: dict, n: int) -> None:
    """Subtract mu_u I (x) u from `terms` in place for each second factor u,
    I the identity sum_a e_{a,a} and mu_u the most common coefficient of
    e_{a,a} (x) u over a = 1..n, zeros counted (a tie with zero leaves u
    alone).  e_{a,a} (x) u then vanishes wherever its coefficient was mu_u,
    which is at least as common as zero, so no u gains diagonal terms."""
    diag: dict = {}
    for (i, j, k, l), c in terms.items():
        if i == j:
            diag.setdefault((k, l), []).append(c)
    for (k, l), cs in diag.items():
        mu, count = Counter(cs).most_common(1)[0]
        if count <= n - len(cs):
            continue
        for a in range(1, n + 1):
            key = (a, a, k, l)
            c = terms.get(key, 0) - mu
            if c:
                terms[key] = c
            else:
                del terms[key]


def _by_slot(terms: dict, slot: int, weights: tuple) -> dict:
    """Terms (i, j, k, l) -> c grouped by the row (slot 0) or the column
    (slot 1) of their first factor; each group lists (the dot product of
    `weights` with (i, j, k, l), c)."""
    wi, wj, wk, wl = weights
    out: dict = {}
    for key, c in terms.items():
        i, j, k, l = key
        out.setdefault(key[slot], []).append((wi * i + wj * j + wk * k + wl * l, c))
    return out


def _join(total: dict, xs: dict, ys: dict, sign: int) -> None:
    """total[kx + ky] += sign c c' over the pairs of terms (kx, c) of xs and
    (ky, c') of ys in groups of equal index."""
    get = total.get
    for idx, xgroup in xs.items():
        ygroup = ys.get(idx)
        if ygroup is None:
            continue
        for kx, c in xgroup:
            if sign < 0:
                c = -c
            for ky, c2 in ygroup:
                key = kx + ky
                total[key] = get(key, 0) + c * c2


def _bracket_joins(slots, powers) -> tuple:
    """The two joins that add the bracket of x and y in their first factors:
    terms c a (x) u of x and c' b (x) w of y give c c' [a, b], u and w in
    slots slots[0], slots[1] and slots[2] of gl(n)^(x3).  An output key is
    the dot product of the six indices with `powers`, the powers of a base
    > n.  As [e_ab, e_pq] = delta_bp e_aq - delta_qa e_pb, x is joined with
    y once on x's column = y's row, and once on x's row = y's column.  Each
    join is ((slot, weights) of x, (slot, weights) of y, sign) for
    `_by_slot` and `_join`; a's row is the output row in the first join
    and b's row in the second."""
    row, col, u_row, u_col, w_row, w_col = (powers[2 * s + i] for s in slots for i in (0, 1))
    return (((1, (row, 0, u_row, u_col)), (0, (0, col, w_row, w_col)), 1),
            ((0, (0, col, u_row, u_col)), (1, (row, 0, w_row, w_col)), -1))


def _by_row(terms: dict, slot: int) -> dict:
    """Terms (i, j, k, l) -> c split by the row of their first (slot 0) or
    second (slot 2) factor."""
    out: dict = {}
    for key, c in terms.items():
        out.setdefault(key[slot], {})[key] = c
    return out


def cybe_lhs(r12: GlTensor2, r13: GlTensor2, r23: GlTensor2) -> GlTensor3:
    """[r12, r13] + [r13, r23] + [r12, r23] in gl(n)^(x3).

    Inputs are the three pairwise evaluations of a candidate solution.  Each
    commutator acts in the shared slot and multiplies nothing in the others.
    Slot conventions are fixed here; no other module re-implements them.
    One sparse pass per commutator; rational inputs are summed as integer
    numerators over their common denominator D and divided by D^2 once.
    The passes run once per row v of the first output slot, so only the
    partial sums of that row are held at a time: that row is the row of
    the first factor of an r12 or an r13 term, so each join restricts one
    side to the terms of row v.

    Each commutator takes its two inputs with the shared slot moved first,
    and there the identity I is central: [I, b] = 0.  So for rational
    inputs each of the six arrangements drops mu_u I (x) u for each second
    factor u (`_drop_central`), which changes no commutator and removes
    the dense diagonal rows that the Casimir's -1/n block and the dual
    Cartan elements put into a table evaluation.  At the Stolin (1,6)
    solution at (0, 1, 2) the joins form 56,294 products without the drop
    and 29,154 with it.  Complex inputs skip the drop, which would change
    their rounding.
    """
    return cybe_lhs_sum([(r12, r13, r23)])


def cybe_lhs_sum(triples) -> GlTensor3:
    """The sum of `cybe_lhs(r12, r13, r23)` over the triples, from one pass
    per row v over all of them: a term that cancels between triples is
    never decoded."""
    tensors = [t for triple in triples for t in triple]
    for t in tensors[1:]:
        tensors[0]._check_compatible(t)
    n = tensors[0].n
    rational = tensors[0].ring == RATIONAL
    den = _common_denominator(tensors) if rational else 1

    def coeffs(t: GlTensor2) -> dict:
        if not rational:
            return t.terms
        return {k: v.numerator * (den // v.denominator) for k, v in t.terms.items()}

    base = n + 1
    powers = [base ** p for p in range(5, -1, -1)]
    (x1, y1, _), (x2, y2, _) = _bracket_joins((0, 1, 2), powers)
    in_slot3 = _bracket_joins((2, 0, 1), powers)
    in_slot2 = _bracket_joins((1, 0, 2), powers)
    groups = []
    for r12, r13, r23 in triples:
        c12, c13, c23 = coeffs(r12), coeffs(r13), coeffs(r23)
        # the bracket acts on each tensor's first factor; swapping moves the
        # shared slot there.  [r12, r13] lands in slot 1 and takes c12 and
        # c13, [r13, r23] in slot 3 and [r12, r23] in slot 2 take swapped
        # tensors; those two carry the first factor of r13 and of r12 into
        # slot 1, so their rows v are those of the second factor after the
        # swap.
        s12, s13, s23 = _swapped(c12), _swapped(c13), _swapped(c23)
        if rational:
            for t in (c12, c13, s13, s23, s12, c23):
                _drop_central(t, n)
        # the unrestricted side of each join, grouped once, then the rows
        groups.append((
            _by_slot(c13, *y1), _by_slot(c12, *x2),
            [(x, _by_slot(s23, *y), sign) for x, y, sign in in_slot3],
            [(x, _by_slot(c23, *y), sign) for x, y, sign in in_slot2],
            _by_row(c12, 0), _by_row(c13, 0), _by_row(s13, 2), _by_row(s12, 2),
        ))
    sq = den * den
    unit = [divmod(q, base) for q in range(base * base)]  # (row, col) of a packed slot
    terms: dict = {}
    for v in range(1, n + 1):
        packed: dict = {}
        for r13_y1, r12_x2, r23_slot3, r23_slot2, rows12, rows13, srows13, srows12 in groups:
            _join(packed, _by_slot(rows12.get(v, {}), *x1), r13_y1, 1)
            _join(packed, r12_x2, _by_slot(rows13.get(v, {}), *y2), -1)
            v13, v12 = srows13.get(v, {}), srows12.get(v, {})
            for x, ys, sign in r23_slot3:
                _join(packed, _by_slot(v13, *x), ys, sign)
            for x, ys, sign in r23_slot2:
                _join(packed, _by_slot(v12, *x), ys, sign)
        # lexicographic order of the six indices
        for key in sorted([key for key, c in packed.items() if c]):
            c = packed[key]
            first, rest = divmod(key, powers[1])
            second, third = divmod(rest, powers[3])
            terms[unit[first] + unit[second] + unit[third]] = Fraction(c, sq) if rational else c
    return GlTensor3(n, tensors[0].ring, terms)


def cybe_residual_two_variable(r_of, points) -> GlTensor3:
    """CYBE left-hand side for a two-variable solution r(x, y) at a triple of
    spectral points: r12 = r(x1,x2), r13 = r(x1,x3), r23 = r(x2,x3)."""
    x1, x2, x3 = points
    return cybe_lhs(r_of(x1, x2), r_of(x1, x3), r_of(x2, x3))


def cybe_residual_difference(r_of, x, y) -> GlTensor3:
    """CYBE left-hand side in the one-variable (difference) form:
    [r12(x), r13(x+y)] + [r13(x+y), r23(y)] + [r12(x), r23(y)]."""
    return cybe_lhs(r_of(x), r_of(x + y), r_of(y))


def is_unitary_pair(r_xy: GlTensor2, r_yx: GlTensor2) -> bool:
    """Exact check of r(y,x) = -swap(r(x,y)), term by term."""
    if (r_xy.n, r_xy.ring, len(r_xy.terms)) != (r_yx.n, r_yx.ring, len(r_yx.terms)):
        return False
    get = r_yx.terms.get
    return all(get((k, l, i, j)) == -c for (i, j, k, l), c in r_xy.terms.items())


# ---------------------------------------------------------------------------
# constant gauge transformations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearMapGl:
    """A signed permutation of the unit basis of gl(n): images[(i, j)] =
    (a, b, s) means e_{i,j} |-> s e_{a,b} with s = +1 or -1.  Every gauge
    relating the pipelines has this form."""

    n: int
    images: dict

    def compose(self, other: "LinearMapGl") -> "LinearMapGl":
        """self after other."""
        if self.n != other.n:
            raise ValueError("size mismatch")
        images = {}
        for key, (a, b, s) in other.images.items():
            p, q, t = self.images[(a, b)]
            images[key] = (p, q, s * t)
        return LinearMapGl(self.n, images)


def signed_permutation_map(n: int, image) -> LinearMapGl:
    """The gauge e_{i,j} |-> s e_{a,b} for image(i, j) = (a, b, s), 1-based."""
    idx = range(1, n + 1)
    return LinearMapGl(n, {(i, j): image(i, j) for i in idx for j in idx})


def transpose_negate_map(n: int) -> LinearMapGl:
    """A |-> -A^t, the involutive automorphism relating the two rational
    pipelines."""
    return signed_permutation_map(n, lambda i, j: (j, i, -1))


def flip_map(n: int) -> LinearMapGl:
    """e_{i,j} |-> e_{n+1-i, n+1-j}, conjugation by the antidiagonal."""
    return signed_permutation_map(n, lambda i, j: (n + 1 - i, n + 1 - j, 1))


def apply_gauge(phi: LinearMapGl, psi: LinearMapGl, r: GlTensor2) -> GlTensor2:
    """(phi (x) psi) applied coefficient-wise.  Distinct unit pairs have
    distinct images, so no two terms combine."""
    if phi.n != r.n or psi.n != r.n:
        raise ValueError("gauge size mismatch")
    out: dict = {}
    for (i, j, k, l), c in r.terms.items():
        if c == 0:
            continue
        a, b, s = phi.images[(i, j)]
        p, q, t = psi.images[(k, l)]
        out[(a, b, p, q)] = c * (s * t)
    return GlTensor2(r.n, r.ring, out)


# ---------------------------------------------------------------------------
# the finite Heisenberg pair and its eigenbasis of sl(n)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Monomial:
    """An n x n monomial matrix over Q(eps), eps a primitive n-th root of
    unity: row i holds eps**exps[i] / den in column (i + shift) % n and zeros
    elsewhere.  The shift and the exponents are kept mod n = len(exps)."""

    shift: int
    exps: tuple
    den: int = 1

    def __matmul__(self, other: "Monomial") -> "Monomial":
        n = len(self.exps)
        return Monomial(
            (self.shift + other.shift) % n,
            tuple((e + other.exps[(i + self.shift) % n]) % n for i, e in enumerate(self.exps)),
            self.den * other.den,
        )

    def times_eps(self, p: int) -> "Monomial":
        n = len(self.exps)
        return Monomial(self.shift, tuple((e + p) % n for e in self.exps), self.den)


def _eps_sum(counts, n: int, d: int) -> int | None:
    """sum(counts[e] * eps**e) for eps = zeta_n**d if it is rational (then it
    is an integer), else None."""
    zeta = [0] * n
    for e, c in enumerate(counts):
        zeta[d * e % n] += c
    return cyclo_rational(zeta, n)


@lru_cache(maxsize=None)
def _root_values(n: int, den: int) -> tuple:
    """Float values of zeta_n**e / den for e < n, each summed over the power
    basis of Q(zeta_n)."""
    return tuple(root_complex(row, n, den) for row in root_table(n))


@dataclass(frozen=True)
class HeisenbergBasis:
    """The clock-and-shift pair (X, Y) for epsilon = exp(2 pi i d / n) with the
    eigenfamilies Z_{k,l} = Y^k X^{-l} and their trace duals
    Z^dual_{k,l} = Z_{k,l}^{-1} / n, all stored as `Monomial`s in powers of
    epsilon."""

    n: int
    d: int
    X: Monomial
    Y: Monomial
    index_set: tuple
    Z: dict
    Z_dual: dict


@lru_cache(maxsize=None)
def heisenberg_entries(n: int, d: int) -> tuple:
    """The entries of Z^dual_{k,l} and of Z_{k,l} as complex numbers, for
    each (k, l) of the index set in order.  Each is a tuple of (row, column,
    entry), 1-based, one per row in row order: the nonzero entries of the
    matrix, in the order a dense scan meets them."""
    hb = heisenberg(n, d)

    def entries(m: Monomial) -> tuple:
        values = _root_values(n, m.den)
        return tuple((i + 1, (i + m.shift) % n + 1, values[d * e % n])
                     for i, e in enumerate(m.exps))

    return tuple((entries(hb.Z_dual[kl]), entries(hb.Z[kl])) for kl in hb.index_set)


def _dual_sum(hb: HeisenbergBasis) -> GlTensor2:
    """Sum of Z^dual (x) Z over the index set, as an exact rational tensor.

    Every unit-basis coefficient of the sum must be rational; AssertionError
    otherwise."""
    n = hb.n
    den = lcm(*(hb.Z_dual[kl].den * hb.Z[kl].den for kl in hb.index_set))
    counts: dict = {}
    for kl in hb.index_set:
        zd = hb.Z_dual[kl]
        z = hb.Z[kl]
        weight = den // (zd.den * z.den)
        for i, a in enumerate(zd.exps):
            for p, b in enumerate(z.exps):
                key = (i + 1, (i + zd.shift) % n + 1, p + 1, (p + z.shift) % n + 1)
                counts.setdefault(key, [0] * n)[(a + b) % n] += weight
    terms = {}
    for key, c in counts.items():
        v = _eps_sum(c, n, hb.d)
        if v is None:
            raise AssertionError("duality failed: non-rational coefficient in Heisenberg Casimir")
        if v != 0:
            terms[key] = Fraction(v, den)
    return GlTensor2(n, RATIONAL, terms)


def _validate_heisenberg(hb: HeisenbergBasis) -> None:
    """Check the conjugation-eigenvalue relations and the trace duality in
    integers mod n; raise AssertionError on the first failure.

    Duality is checked as sum Z^dual (x) Z = casimir(n).  Contracted with
    a in gl(n) through the first slot, the left side is sum tr(Z^dual a) Z
    and the right side is the projection of a to sl(n).  So the n^2 - 1
    matrices Z span sl(n) and are a basis of it, and a = Z_{k',l'} gives
    tr(Z^dual_{k,l} Z_{k',l'}) = delta delta: the full duality table.
    """
    n = hb.n
    Xinv = Monomial(0, tuple(-i % n for i in range(n)))
    Yinv = Monomial(n - 1, (0,) * n)
    # conjugating Z_{k,l} through X scales by eps^k, through Y by eps^l
    for (k, l) in hb.index_set:
        zkl = hb.Z[(k, l)]
        if Xinv @ zkl @ hb.X != zkl.times_eps(k):
            raise AssertionError("clock conjugation relation failed at %r" % ((k, l),))
        if Yinv @ zkl @ hb.Y != zkl.times_eps(l):
            raise AssertionError("shift conjugation relation failed at %r" % ((k, l),))
    if _dual_sum(hb) != casimir(n):
        raise AssertionError("duality failed: sum of Z^dual (x) Z is not the Casimir")


@lru_cache(maxsize=None)
def heisenberg(n: int, d: int) -> HeisenbergBasis:
    """Construct and validate the Heisenberg eigenbasis of sl(n).

    Validates the conjugation-eigenvalue relations and the trace duality at
    construction; a failure means a non-coprime pair or a bug.
    """
    if gcd(n, d) != 1 or not 0 < d < n:
        raise ValueError("need coprime 0 < d < n, got (%d, %d)" % (n, d))
    X = Monomial(0, tuple(range(n)))
    Y = Monomial(1, (0,) * n)
    index_set = tuple(
        (k, l) for k in range(n) for l in range(n) if (k, l) != (0, 0)
    )
    Z = {
        (k, l): Monomial(k, tuple(-l * ((i + k) % n) % n for i in range(n)))
        for (k, l) in index_set
    }
    Zd = {
        (k, l): Monomial(-k % n, tuple(l * i % n for i in range(n)), n)
        for (k, l) in index_set
    }
    hb = HeisenbergBasis(n, d, X, Y, index_set, Z, Zd)
    _validate_heisenberg(hb)
    return hb
