"""The finite Heisenberg eigenbasis of sl(n), exact in powers of epsilon.

`lie.heisenberg(n, d)` builds and caches the basis from the types here, and
`heisenberg_entries` gives its entries as the complex numbers that
`elliptic.belavin_r` weights.  Of the CLI requests only `elliptic` loads it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache

from .lie import GlTensor2, casimir, heisenberg

# --- roots of unity in the power basis of Q(zeta_m), in integers -----------

def _int_poly_divexact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (ascending), den monic-led."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        q, r = divmod(num[i + len(den) - 1], den[-1])
        if r != 0:
            raise ArithmeticError("non-exact polynomial division")
        out[i] = q
        for j, c in enumerate(den):
            num[i + j] -= q * c
    if any(c != 0 for c in num):
        raise ArithmeticError("non-exact polynomial division")
    return out


def cyclotomic_poly(m: int) -> tuple[int, ...]:
    """Integer coefficients (ascending) of the m-th cyclotomic polynomial."""
    num = [0] * (m + 1)
    num[0], num[m] = -1, 1
    for dd in range(1, m):
        if m % dd == 0:
            num = _int_poly_divexact(num, list(cyclotomic_poly(dd)))
    return tuple(num)


@lru_cache(maxsize=None)
def root_table(m: int) -> tuple[tuple[int, ...], ...]:
    """Row e (0 <= e < m): the integer coefficients (ascending) of x**e mod
    Phi_m, i.e. zeta_m**e in the power basis of Q(zeta_m).  Phi_m is monic,
    so every reduction stays in the integers."""
    phi = cyclotomic_poly(m)
    row = [1] + [0] * (len(phi) - 2)
    rows = []
    for _ in range(m):
        rows.append(tuple(row))
        top = row[-1]
        row = [0] + row[:-1]
        if top:
            row = [c - top * p for c, p in zip(row, phi)]
    return tuple(rows)


def cyclo_rational(counts: Sequence[int], m: int) -> int | None:
    """The value of sum(counts[e] * zeta_m**e) if it is rational, else None.

    The sum is reduced through `root_table`; it is rational exactly when the
    reduction is constant, and then it is an integer."""
    table = root_table(m)
    acc = [0] * len(table[0])
    for e, c in enumerate(counts):
        if c:
            for j, t in enumerate(table[e]):
                acc[j] += c * t
    return acc[0] if not any(acc[1:]) else None


def root_complex(coeffs: Sequence[int], m: int, den: int = 1) -> complex:
    """Float value of sum(coeffs[k] / den * zeta_m**k) for a power-basis
    coefficient vector, summed in ascending power order."""
    z = math.tau / m
    return sum(
        float(Fraction(c, den)) * complex(math.cos(z * k), math.sin(z * k))
        for k, c in enumerate(coeffs)
    )


# --- the Heisenberg eigenbasis -------------------------------------------

class Monomial:
    """An n x n monomial matrix over Q(eps), eps a primitive n-th root of
    unity: row i holds eps**exps[i] / den in column (i + shift) % n and zeros
    elsewhere.  The shift and the exponents are kept mod n = len(exps)."""

    __slots__ = ("shift", "exps", "den")

    def __init__(self, shift: int, exps: tuple, den: int = 1):
        self.shift = shift
        self.exps = exps
        self.den = den

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.shift, self.exps, self.den) == (other.shift, other.exps, other.den)

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


class HeisenbergBasis:
    """The clock-and-shift pair (X, Y) for epsilon = exp(2 pi i d / n) with the
    eigenfamilies Z_{k,l} = Y^k X^{-l} and their trace duals
    Z^dual_{k,l} = Z_{k,l}^{-1} / n, all stored as `Monomial`s in powers of
    epsilon."""

    __slots__ = ("n", "d", "X", "Y", "index_set", "Z", "Z_dual")

    def __init__(self, n: int, d: int, X: Monomial, Y: Monomial, index_set: tuple,
                 Z: dict, Z_dual: dict):
        self.n = n
        self.d = d
        self.X = X
        self.Y = Y
        self.index_set = index_set
        self.Z = Z
        self.Z_dual = Z_dual


@lru_cache(maxsize=None)
def heisenberg_entries(n: int, d: int) -> tuple:
    """The entries of Z^dual_{k,l} and of Z_{k,l} as complex numbers, for
    each (k, l) of the index set in order.  Each is a tuple of
    ((row, column), entry) pairs, 1-based, one per row in row order: the
    nonzero entries of the matrix, in the order a dense scan meets them."""
    hb = heisenberg(n, d)

    def entries(m: Monomial) -> tuple:
        values = _root_values(n, m.den)
        return tuple(((i + 1, (i + m.shift) % n + 1), values[d * e % n])
                     for i, e in enumerate(m.exps))

    return tuple((entries(hb.Z_dual[kl]), entries(hb.Z[kl])) for kl in hb.index_set)


def _dual_sum(hb: HeisenbergBasis) -> GlTensor2:
    """Sum of Z^dual (x) Z over the index set, as an exact rational tensor.

    Every unit-basis coefficient of the sum must be rational; AssertionError
    otherwise."""
    n = hb.n
    den = math.lcm(*(hb.Z_dual[kl].den * hb.Z[kl].den for kl in hb.index_set))
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
            terms[key] = v
    return GlTensor2.over(n, terms, den)


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
