"""Rational r-matrices as integer coefficient tables over the sl(n) basis.

The basis of sl(n) and its trace duals, the Casimir element, and
`TensorTable`, which holds r(x, y) = c/(y - x) + sum m(x, y) T_m in
integers over one denominator for every x and y.  Both exact pipelines
(`cuspidal`, `stolin`) build their tables here and `verify` proves them;
an `elliptic` request loads only `lie`, not this module.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from types import MappingProxyType

from .lie import GlTensor2


def sl_basis(n: int) -> tuple:
    """Basis labels of sl(n): ("cartan", l) for h_1..h_{n-1}, then ("unit", i, j) for i != j."""
    labels = [("cartan", l) for l in range(1, n)]
    labels += [("unit", i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    return tuple(labels)


def basis_terms(label: tuple, n: int) -> dict:
    """The matrix of a basis label as {(i, j): nonzero entry}, 1-based:
    e_{i,j}, or h_l = e_{l,l} - e_{l+1,l+1}, with integer entries."""
    if label[0] == "unit":
        return {label[1:]: 1}
    _, l = label
    if not 1 <= l <= n - 1:
        raise ValueError("cartan index out of range: %d for n=%d" % (l, n))
    return {(l, l): 1, (l + 1, l + 1): -1}


def dual_terms(label: tuple, n: int) -> dict:
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


# The monomial (p, a, b) of a table stands for x^a y^b / (y - x)^p.
POLE = (1, 0, 0)


class ReadOnly:
    """A value that a cache hands to every caller: `_freeze` sets its
    attributes once, and none can be rebound or deleted after that."""

    __slots__ = ()

    def _freeze(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("%s.%s is read-only (given a %s)"
                             % (type(self).__name__, name, type(value).__name__))

    def __delattr__(self, name):
        raise AttributeError("%s.%s is read-only" % (type(self).__name__, name))


class TensorTable(ReadOnly):
    """r(x, y) = sum over the monomials m of m(x, y) T_m in integers: the
    row terms[(i, j, k, l)] holds the coefficient of e_{i,j} (x) e_{k,l}
    sparsely, as the pairs (c, v), c ascending, of each monomial
    `monomials[c]` where it is nonzero and its numerator v over `den`.

    A table is canonical: `monomials` is sorted, `den` is positive and in
    lowest terms with the numerators, no row is empty or holds a zero, and
    every monomial is in some row.  `tensor_table` builds only canonical
    tables, so for its monomials (1/(y - x) and x^a y^b, linearly
    independent) two tables are the same r(x, y) iff they are ==.

    The caches of both pipelines hand one table to every caller, so a table
    is read-only: `terms` is a mapping proxy made once, by the constructor,
    and no attribute can be rebound.  `tops` holds the top exponents of p,
    a and b over the monomials, which `at` needs on every call."""

    __slots__ = ("n", "monomials", "den", "terms", "tops")

    def __init__(self, n: int, monomials: tuple, den: int, terms: dict):
        self._freeze(n=n, monomials=monomials, den=den, terms=MappingProxyType(terms),
                     tops=tuple(max(m[k] for m in monomials) for k in range(3)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.monomials, self.den, self.terms) == (
            other.n, other.monomials, other.den, other.terms)

    def at(self, x: Fraction, y: Fraction) -> GlTensor2:
        """r(x, y) for y != x, put in lowest terms over one positive
        denominator by `GlTensor2.over`.  Every monomial is an integer over
        one common denominator, so each pair of a row costs one integer
        product and no Fraction; terms that vanish at (x, y) are dropped,
        the rest kept in key order.  The numerators are a new dict on every
        call: no evaluation shares a value with the table or another."""
        if x == y:
            raise ValueError("need x != y")
        xn, xd, yn, yd = x.numerator, x.denominator, y.numerator, y.denominator
        s = yn * xd - xn * yd  # (y - x) xd yd
        p_max, a_max, b_max = self.tops
        values = [xn**a * xd ** (a_max - a + p) * yn**b * yd ** (b_max - b + p) * s ** (p_max - p)
                  for p, a, b in self.monomials]
        den = self.den * xd**a_max * yd**b_max * s**p_max
        # den < 0 where y < x: a negative g makes den // g positive, so that
        # `over` divides no numerator when they are in lowest terms
        g = gcd(den, *values) if den > 0 else -gcd(den, *values)
        values = [v // g for v in values]
        nums = {key: v for key, row in self.terms.items() if (v := values[row[0][0]] * row[0][1]
                if len(row) == 1 else sum(values[c] * u for c, u in row))}
        return GlTensor2.over(self.n, nums, den // g)


def tensor_table(n: int, pairs) -> TensorTable:
    """The table of c/(y - x) + sum of m(x, y) A (x) B over the list of
    triples (A, B, m) `pairs`, c the Casimir.  A and B are {(i, j): entry}
    dicts, 1-based, of rationals.  Built in integers and sparse rows: the
    entries of each slot are scaled to the lcm of that slot's
    denominators, and numerators that cancel, keys left with none and
    monomials that no row holds are dropped: the table is canonical."""
    monomials = tuple(sorted({POLE}.union(m for _, _, m in pairs)))
    col = {m: c for c, m in enumerate(monomials)}
    den_a = lcm(*(v.denominator for a, _, _ in pairs for v in a.values()))
    den_b = lcm(n, *(v.denominator for _, b, _ in pairs for v in b.values()))
    den = den_a * den_b
    c_nums, c_den = casimir(n).numerators()
    acc = {key: {col[POLE]: v * (den // c_den)} for key, v in c_nums.items()}
    for a, b, m in pairs:
        c = col[m]
        b_terms = [(k, l, v.numerator * (den_b // v.denominator)) for (k, l), v in b.items()]
        for (i, j), v in a.items():
            va = v.numerator * (den_a // v.denominator)
            for k, l, vb in b_terms:
                row = acc.get((i, j, k, l))
                if row is None:
                    acc[i, j, k, l] = {c: va * vb}
                else:
                    row[c] = row.get(c, 0) + va * vb
    g = gcd(den, *(v for row in acc.values() for v in row.values()))
    live = sorted({c for row in acc.values() for c, v in row.items() if v})
    new = {c: k for k, c in enumerate(live)}
    # a pipeline table has a few dozen distinct rows: equal rows share one tuple
    terms, shared = {}, {}
    for key, row in acc.items():
        if len(row) == 1:  # the rule in both pipelines' tables: no sort, no list
            ((c, v),) = row.items()
            row = ((new[c], v // g),) if v else ()
        else:
            row = tuple([(new[c], v // g) for c, v in sorted(row.items()) if v])
        if row:
            terms[key] = shared.setdefault(row, row)
    return TensorTable(n, tuple(monomials[c] for c in live), den // g, terms)
