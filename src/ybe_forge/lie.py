"""Basis-indexed exact tensor algebra on gl(n)/sl(n).

Tensors are stored over the matrix-unit basis of gl(n) (x) gl(n) even though
the solutions live in sl(n) (x) sl(n); sl-membership (both partial traces
vanish) is a property the tests check, not a storage constraint.  A tensor
is read-only, and a rational one holds integer numerators in lowest terms
over one positive denominator, so equal values have equal forms.  The CYBE
embedding conventions (which slot carries the bracket) are fixed here once,
by `cybe_lhs`.  The CYBE kernel (`cybe`, which also holds `GlTensor3`) and
the closed form of the Heisenberg basis (`heis`) load when first used.  The
sl(n) basis, the Casimir element and the rational tables of the exact
pipelines are `table`: an `elliptic` request loads this module alone, and no
`fractions`, since a Fraction is built only where one is handed out
(`GlTensor2.terms` of a rational tensor).  The tensor class holds what
requests call (`verify` scales a tensor itself); a gauge is a plain dict
{(i, j): (a, b, s)} of images.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm
from types import MappingProxyType

from . import COMPLEX, RATIONAL

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
        from fractions import Fraction

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

    def _check_compatible(self, other):
        if self.n != other.n:
            raise ValueError("tensor size mismatch: %d vs %d" % (self.n, other.n))
        if self.ring != other.ring:
            raise ValueError("scalar ring mismatch: %s vs %s" % (self.ring, other.ring))


def _scaled(coeffs, f: int) -> dict:
    """A new dict of the coefficients times f; f = 1 multiplies none."""
    return dict(coeffs) if f == 1 else {k: v * f for k, v in coeffs.items()}


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

def signed_permutation_map(n: int, image) -> dict:
    """The gauge e_{i,j} |-> s e_{a,b} for image(i, j) = (a, b, s), 1-based,
    as its images {(i, j): (a, b, s)}, s = +1 or -1: every gauge relating
    the pipelines is such a signed permutation of the unit basis of gl(n)."""
    idx = range(1, n + 1)
    return {(i, j): image(i, j) for i in idx for j in idx}


def transpose_negate_map(n: int) -> dict:
    """A |-> -A^t, the involutive automorphism relating the two rational
    pipelines."""
    return signed_permutation_map(n, lambda i, j: (j, i, -1))


def apply_gauge(phi: dict, psi: dict, r: GlTensor2) -> GlTensor2:
    """(phi (x) psi) applied coefficient-wise for gauges of r's n, zero terms
    dropped.  Distinct unit pairs have distinct images, so no two terms
    combine: the held coefficients are mapped over the same denominator."""
    if len(phi) != r.n * r.n or len(psi) != r.n * r.n:
        raise ValueError("gauge size mismatch")
    out: dict = {}
    for (i, j, k, l), c in r._coeffs.items():
        if c == 0:
            continue
        a, b, s = phi[i, j]
        p, q, t = psi[k, l]
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
