"""The finite Heisenberg eigenbasis of sl(n) in closed form (Belavin 1980).

With eps = exp(2 pi i d / n), the clock X = diag(eps^i) and the shift Y,
whose row i holds 1 in column i + 1, the basis is Z_(k,l) = Y^k X^(-l) for
(k, l) != (0, 0) mod n.  Each Z_(k,l) has one nonzero entry per row,
eps^(-l(i+k)) in column i + k (`z_row`), and its trace dual is
Zdual_(k,l) = eps^(k l) Z_(-k,-l) / n (`dual_exponent`).  These two
functions are the one statement of the basis: `basis` lists its entries as
the complex numbers that `elliptic.belavin_r` weights, and `verify` reads
the products and the exact duality sum off them.  Tier-1 compares them with
dense products of X and Y.  Of the CLI requests only `elliptic` loads this
module, through `lie.heisenberg`, which caches the basis.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache

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


def root_complex(coeffs: Sequence[int], m: int, den: int = 1) -> complex:
    """Float value of sum(coeffs[k] / den * zeta_m**k) for a power-basis
    coefficient vector, summed in ascending power order."""
    z = math.tau / m
    return sum(
        float(Fraction(c, den)) * complex(math.cos(z * k), math.sin(z * k))
        for k, c in enumerate(coeffs)
    )


# --- the Heisenberg eigenbasis -------------------------------------------

@lru_cache(maxsize=None)
def _root_values(n: int, den: int) -> tuple:
    """Float values of zeta_n**e / den for e < n, each summed over the power
    basis of Q(zeta_n)."""
    return tuple(root_complex(row, n, den) for row in root_table(n))


def z_row(a, i: int, n: int) -> tuple[int, int]:
    """Row i of Z_a, a = (k, l), as (column, exponent), 0-based and mod n:
    the row holds eps^(-l(i + k)) in column i + k and zeros elsewhere."""
    k, l = a
    return (i + k) % n, -l * (i + k) % n


def dual_exponent(a, n: int) -> int:
    """The exponent e in Zdual_a = eps^e Z_(-a) / n: e = k l mod n."""
    return a[0] * a[1] % n


def basis(n: int, d: int) -> tuple:
    """(a, Zdual_a, Z_a) at eps = exp(2 pi i d / n) for each index
    a = (k, l) != (0, 0), k and l in 0 .. n - 1 in row-major order.  Each
    matrix is given by its nonzero
    entries, ((row, column), complex entry) pairs, 1-based, one per row in
    row order: the order a dense scan meets them."""
    ones, duals = _root_values(n, 1), _root_values(n, n)

    def entries(b, e: int, values: tuple) -> tuple:
        """The entries of eps^e Z_b, each the value of its exponent."""
        out = []
        for i in range(n):
            column, x = z_row(b, i, n)
            out.append(((i + 1, column + 1), values[d * (x + e) % n]))
        return tuple(out)

    return tuple(
        ((k, l), entries((-k % n, -l % n), dual_exponent((k, l), n), duals),
         entries((k, l), 0, ones))
        for k in range(n) for l in range(n) if k or l
    )
