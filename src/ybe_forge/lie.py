"""Basis-indexed exact tensor algebra on gl(n)/sl(n).

Tensors are stored over the matrix-unit basis of gl(n) (x) gl(n) even though
the solutions live in sl(n) (x) sl(n); sl-membership (both partial traces
vanish) is a property the tests check, not a storage constraint.  A tensor
is read-only, and a rational one holds integer numerators in lowest terms
over one positive denominator, so equal values have equal forms.  The CYBE
embedding conventions (which slot carries the bracket) are fixed here once,
by `cybe_lhs`, and nowhere else.  The CYBE kernel (`cybe`) and the
closed form of the Heisenberg basis (`heis`) load only when first used.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul
from types import MappingProxyType

from . import COMPLEX, RATIONAL

# basis labels: ("unit", i, j) for e_{i,j} with i != j, ("cartan", l) for h_l
BasisIndex = tuple


def sl_basis(n: int) -> tuple[BasisIndex, ...]:
    """Ordered basis of sl(n): h_1..h_{n-1} then the off-diagonal units."""
    labels = [("cartan", l) for l in range(1, n)]
    labels += [("unit", i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    return tuple(labels)


def basis_terms(label: BasisIndex, n: int) -> dict:
    """The matrix of a basis label as {(i, j): nonzero entry}, 1-based:
    e_{i,j}, or h_l = e_{l,l} - e_{l+1,l+1}, with integer entries."""
    if label[0] == "unit":
        return {label[1:]: 1}
    _, l = label
    if not 1 <= l <= n - 1:
        raise ValueError("cartan index out of range: %d for n=%d" % (l, n))
    return {(l, l): 1, (l + 1, l + 1): -1}


def dual_terms(label: BasisIndex, n: int) -> dict:
    """The trace-form dual of a basis label as {(i, j): nonzero entry},
    1-based: e_{i,j} -> e_{j,i}, and h_l -> the unique Cartan element with
    tr(dual h_m) = delta_{l m}, the fundamental coweight, diagonal with
    (n-l)/n in its first l entries and -l/n in the rest."""
    if label[0] == "unit":
        _, i, j = label
        return {(j, i): Fraction(1)}
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


class GlTensor2:
    """Sparse element of gl(n) (x) gl(n): terms[(i,j,k,l)] is the coefficient
    of e_{i,j} (x) e_{k,l} (1-based indices).

    A rational tensor holds numerators nums over den > 0 with gcd(den,
    *nums) = 1, den the lcm of the reduced denominators: the constructor
    puts Fraction or int terms, explicit zeros kept, over their lcm.  A
    complex tensor holds a copy of its terms over den = 1.  `numerators`
    hands out the held form and `terms` the coefficients (Fractions built
    on each read), both read-only."""

    __slots__ = ("n", "ring", "_coeffs", "_den")

    def __init__(self, n: int, ring: str, terms: dict | None = None):
        if ring not in (RATIONAL, COMPLEX):
            raise ValueError("unknown scalar ring %r" % ring)
        terms = {} if terms is None else terms
        den = 1
        if ring == RATIONAL:
            den = lcm(*(v.denominator for v in terms.values()))
            terms = {k: v.numerator * (den // v.denominator) for k, v in terms.items()}
        else:
            terms = dict(terms)  # the caller's dict stays the caller's
        self.n, self.ring, self._coeffs, self._den = n, ring, terms, den

    @classmethod
    def _held(cls, n: int, ring: str, coeffs: dict, den: int) -> "GlTensor2":
        """The tensor holding `coeffs` over `den` as given, for a caller
        that has the canonical form already: `over` without its gcd."""
        t = cls.__new__(cls)
        t.n, t.ring, t._coeffs, t._den = n, ring, coeffs, den
        return t

    @classmethod
    def over(cls, n: int, nums: dict, den: int) -> "GlTensor2":
        """The rational tensor with coefficients nums[key] / den, for
        integer numerators and a nonzero integer den, put in lowest terms by
        one gcd with a positive denominator."""
        g = gcd(den, *nums.values())
        if den < 0:
            g = -g
        if g != 1:
            nums, den = {k: v // g for k, v in nums.items()}, den // g
        return cls._held(n, RATIONAL, nums, den)

    @property
    def terms(self):
        if self.ring == COMPLEX:
            return MappingProxyType(self._coeffs)
        den = self._den
        return MappingProxyType({k: Fraction(v, den) for k, v in self._coeffs.items()})

    def numerators(self) -> tuple:
        """(nums, den), the coefficients being nums[key] / den: the held
        form, with nums read-only."""
        return MappingProxyType(self._coeffs), self._den

    def __repr__(self):
        return "GlTensor2(n=%r, ring=%r, terms=%r)" % (self.n, self.ring, dict(self.terms))

    def __eq__(self, other):
        """Same n, ring and coefficients: the held forms are equal."""
        return isinstance(other, GlTensor2) and (self.n, self.ring, self._den, self._coeffs) == (
            other.n, other.ring, other._den, other._coeffs)

    def norm(self) -> float:
        """Max coefficient magnitude."""
        return max((abs(v) for v in self.terms.values()), default=0.0)

    def add(self, other: "GlTensor2") -> "GlTensor2":
        self._check_compatible(other)
        den = lcm(self._den, other._den)
        out = _scaled(self._coeffs, den // self._den)
        for k, v in _scaled(other._coeffs, den // other._den).items():
            _accumulate(out, k, v)
        if self.ring == RATIONAL:
            return GlTensor2.over(self.n, out, den)
        return GlTensor2._held(self.n, COMPLEX, out, den)

    def sub(self, other: "GlTensor2") -> "GlTensor2":
        return self.add(other.scale(-1))

    def scale(self, c) -> "GlTensor2":
        if c == 0:
            return GlTensor2(self.n, self.ring, {})
        if self.ring == COMPLEX:
            return GlTensor2._held(self.n, COMPLEX, {k: c * v for k, v in self._coeffs.items()}, 1)
        p, q = c.numerator, c.denominator
        return GlTensor2.over(self.n, _scaled(self._coeffs, p), q * self._den)

    def _check_compatible(self, other):
        if self.n != other.n:
            raise ValueError("tensor size mismatch: %d vs %d" % (self.n, other.n))
        if self.ring != other.ring:
            raise ValueError("scalar ring mismatch: %s vs %s" % (self.ring, other.ring))


def _scaled(coeffs, f: int) -> dict:
    """A new dict of the coefficients times f; f = 1 multiplies none."""
    return dict(coeffs) if f == 1 else {k: v * f for k, v in coeffs.items()}


class GlTensor3:
    """Sparse element of gl(n) (x) gl(n) (x) gl(n), keyed by six indices."""

    __slots__ = ("n", "ring", "terms")

    def __init__(self, n: int, ring: str, terms: dict | None = None):
        self.n = n
        self.ring = ring
        self.terms = {} if terms is None else terms

    def is_zero(self) -> bool:
        return not self.terms

    def norm(self) -> float:
        return max((abs(v) for v in self.terms.values()), default=0.0)


def tensor_from_pairs(n: int, pairs, ring: str = RATIONAL) -> GlTensor2:
    """Sum of coeff * (A (x) B) over (A, B, coeff) triples, A and B each
    given as its nonzero entries, an iterable of ((i, j), entry) pairs,
    1-based (a tuple of pairs, or the items of a {(i, j): entry} dict).
    Each key sums its products in the order of the triples and of their
    entries."""
    out: dict = {}
    for a, b, c in pairs:
        if c == 0:
            continue
        for (i, j), aij in a:
            ca = c * aij
            for (k, l), bkl in b:
                _accumulate(out, (i, j, k, l), ca * bkl)
    if ring == COMPLEX:  # `out` is this call's own: no copy
        return GlTensor2._held(n, COMPLEX, out, 1)
    return GlTensor2(n, ring, out)


def _swapped(terms: dict) -> dict:
    return {(k, l, i, j): c for (i, j, k, l), c in terms.items()}


def swap_tensor(r: GlTensor2) -> GlTensor2:
    """The flip a (x) b -> b (x) a, extended linearly."""
    return GlTensor2._held(r.n, r.ring, _swapped(r._coeffs), r._den)


@lru_cache(maxsize=None)
def casimir(n: int) -> GlTensor2:
    """Casimir element of sl(n) for the trace form: sum over i != j of
    e_{i,j} (x) e_{j,i}, plus sum over all a, b of
    (delta_{a,b} - 1/n) e_{a,a} (x) e_{b,b}."""
    if n < 2:
        raise ValueError("need n >= 2")
    idx = range(1, n + 1)
    nums = {(i, j, j, i): n for i in idx for j in idx if i != j}
    nums.update({(a, a, b, b): n * (a == b) - 1 for a in idx for b in idx})
    return GlTensor2.over(n, nums, n)


# ---------------------------------------------------------------------------
# rational r-matrices as integer coefficient tables
# ---------------------------------------------------------------------------

# The monomial (p, a, b) of a table stands for x^a y^b / (y - x)^p.
POLE = (1, 0, 0)


class TensorTable:
    """r(x, y) = sum over the monomials m of m(x, y) T_m in integers:
    terms[(i, j, k, l)] holds the numerators of the coefficient of
    e_{i,j} (x) e_{k,l} in each T_m, in the order of `monomials`, over the
    common denominator `den`.

    A table is canonical: `monomials` is sorted, `den` is positive and in
    lowest terms with the numerators, and no key and no monomial has only
    zero numerators.  `tensor_table` builds only canonical tables, so for
    the monomials it is given (1/(y - x) and x^a y^b, which are linearly
    independent) two tables are the same r(x, y) iff they are ==."""

    __slots__ = ("n", "monomials", "den", "terms")

    def __init__(self, n: int, monomials: tuple, den: int, terms: dict):
        self.n = n
        self.monomials = monomials
        self.den = den
        self.terms = terms

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.monomials, self.den, self.terms) == (
            other.n, other.monomials, other.den, other.terms)

    def at(self, x: Fraction, y: Fraction) -> GlTensor2:
        """r(x, y) for y != x, put in lowest terms over one positive
        denominator by `GlTensor2.over`.  Every monomial is an integer over
        one common denominator, so each term costs one integer combination
        and no Fraction; terms that vanish at (x, y) are dropped.  The
        numerators are a new dict on every call: no evaluation shares a
        value with the table or with another evaluation."""
        if x == y:
            raise ValueError("need x != y")
        xn, xd, yn, yd = x.numerator, x.denominator, y.numerator, y.denominator
        s = yn * xd - xn * yd  # (y - x) xd yd
        p_max, a_max, b_max = (max(m[k] for m in self.monomials) for k in range(3))
        values = [
            xn**a * xd ** (a_max - a + p) * yn**b * yd ** (b_max - b + p) * s ** (p_max - p)
            for p, a, b in self.monomials
        ]
        den = self.den * xd**a_max * yd**b_max * s**p_max
        # den < 0 where y < x: a negative g makes den // g positive, so that
        # `over` divides no numerator when they are in lowest terms
        g = gcd(den, *values) if den > 0 else -gcd(den, *values)
        values = [v // g for v in values]
        nums = {key: v for key, row in self.terms.items() if (v := sum(map(mul, row, values)))}
        return GlTensor2.over(self.n, nums, den // g)


def tensor_table(n: int, pairs) -> TensorTable:
    """The table of c/(y - x) + sum of m(x, y) A (x) B over the list of
    triples (A, B, m) `pairs`, c the Casimir.  A and B are {(i, j): entry}
    dicts, 1-based, of rationals.  Built in integers: the entries of each
    slot are scaled to the lcm of that slot's denominators, and keys and
    monomials whose numerators all cancel are dropped: the table is
    canonical."""
    monomials = tuple(sorted({POLE}.union(m for _, _, m in pairs)))
    col = {m: c for c, m in enumerate(monomials)}
    den_a = lcm(*(v.denominator for a, _, _ in pairs for v in a.values()))
    den_b = lcm(n, *(v.denominator for _, b, _ in pairs for v in b.values()))
    den = den_a * den_b
    acc: dict = {}
    width = len(monomials)
    c_nums, c_den = casimir(n).numerators()
    for key, v in c_nums.items():
        acc.setdefault(key, [0] * width)[col[POLE]] = v * (den // c_den)
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
    live = [c for c in range(width) if any(nums[c] for nums in acc.values())]
    if len(live) < width:
        monomials = tuple(monomials[c] for c in live)
        acc = {key: [nums[c] for c in live] for key, nums in acc.items()}
    g = gcd(den, *(v for nums in acc.values() for v in nums))
    terms = {key: tuple(v // g for v in nums) for key, nums in acc.items() if any(nums)}
    return TensorTable(n, monomials, den // g, terms)


# ---------------------------------------------------------------------------
# the CYBE left-hand side
# ---------------------------------------------------------------------------

def cybe_lhs(r12: GlTensor2, r13: GlTensor2, r23: GlTensor2) -> GlTensor3:
    """[r12, r13] + [r13, r23] + [r12, r23] in gl(n)^(x3).

    Inputs are the three pairwise evaluations of a candidate solution.  Each
    commutator acts in the shared slot and multiplies nothing in the others.
    Slot conventions are fixed here; the kernel, `cybe.cybe_lhs_sum`, is
    loaded on the first call.
    """
    from .cybe import cybe_lhs_sum

    return cybe_lhs_sum([(r12, r13, r23)])


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
    """Exact check of r(y,x) = -swap(r(x,y)), term by term on the held
    forms: the canonical forms of a unitary pair share their denominator."""
    if (r_xy.n, r_xy.ring, r_xy._den) != (r_yx.n, r_yx.ring, r_yx._den):
        return False
    a, get = r_xy._coeffs, r_yx._coeffs.get
    return len(a) == len(r_yx._coeffs) and all(
        get((k, l, i, j)) == -c for (i, j, k, l), c in a.items())


# ---------------------------------------------------------------------------
# constant gauge transformations
# ---------------------------------------------------------------------------

class LinearMapGl:
    """A signed permutation of the unit basis of gl(n): images[(i, j)] =
    (a, b, s) means e_{i,j} |-> s e_{a,b} with s = +1 or -1.  Every gauge
    relating the pipelines has this form."""

    __slots__ = ("n", "images")

    def __init__(self, n: int, images: dict):
        self.n = n
        self.images = images

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.images) == (other.n, other.images)

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
    """(phi (x) psi) applied coefficient-wise, zero terms dropped.
    Distinct unit pairs have distinct images, so no two terms combine: the
    held coefficients are mapped over the same denominator."""
    if phi.n != r.n or psi.n != r.n:
        raise ValueError("gauge size mismatch")
    out: dict = {}
    for (i, j, k, l), c in r._coeffs.items():
        if c == 0:
            continue
        a, b, s = phi.images[(i, j)]
        p, q, t = psi.images[(k, l)]
        out[(a, b, p, q)] = c * (s * t)
    return GlTensor2._held(r.n, r.ring, out, r._den)


# ---------------------------------------------------------------------------
# the finite Heisenberg eigenbasis of sl(n)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def heisenberg(n: int, d: int) -> tuple:
    """The clock-and-shift eigenbasis of sl(n) for eps = exp(2 pi i d / n),
    cached per (n, d): `heis.basis`, (a, Zdual_a, Z_a) per index a with the
    matrices as complex entries.  Refuses a non-coprime pair."""
    if gcd(n, d) != 1 or not 0 < d < n:
        raise ValueError("need coprime 0 < d < n, got (%d, %d)" % (n, d))
    from .heis import basis

    return basis(n, d)
