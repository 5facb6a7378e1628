"""The elliptic route of `verify`, which its `elliptic` and `zoo` suites
load: the even thetas, sn/cn/dn, the classical (2,1) solution zoo, and the
Heisenberg coordinates, residuals and tolerance of the elliptic solution.
It loads no exact pipeline; the rational zoo solution is built in Fractions.
"""

from __future__ import annotations

import cmath
import math
import sys
from fractions import Fraction

from . import elliptic
from .heis import dual_exponent, root_table, z_row
from .lie import COMPLEX, GlTensor2, heisenberg, tensor_from_pairs


def theta2(z: complex, ctx: elliptic.ThetaContext) -> complex:
    q = ctx.q
    acc = 0j
    for n in range(ctx.terms):
        acc += q ** (n * (n + 1)) * cmath.cos((2 * n + 1) * math.pi * z)
    return 2 * q ** Fraction(1, 4) * acc


def even_theta(z: complex, ctx: elliptic.ThetaContext, s: int) -> complex:
    """Even Jacobi theta3 (s = 1) or theta4 (s = -1):
    1 + 2 sum s^n q^{n^2} cos(2 pi n z)."""
    q = ctx.q
    acc = 1 + 0j
    for n in range(1, ctx.terms + 1):
        acc += 2 * s ** n * q ** (n * n) * cmath.cos(2 * math.pi * n * z)
    return acc


def theta_half_shift_identity_residual(z: complex, ctx: elliptic.ThetaContext) -> float:
    """|theta3(z + (1+tau)/2) - i exp(-pi i (z + tau/4)) theta1(z)|: the
    half-period relation tying the even and odd theta functions."""
    lhs = even_theta(z + (1 + ctx.tau) / 2, ctx, 1)
    rhs = 1j * cmath.exp(-1j * math.pi * (z + ctx.tau / 4)) * elliptic.theta1(z, ctx)
    return abs(lhs - rhs)


# --- the classical (2,1) solutions: elliptic, trigonometric, rational ------

# h, e and f of sl(2) as their ((i, j), entry) pairs, with integer entries,
# so that they serve the exact and the complex solutions alike
_SL2 = (((1, 1), 1), ((2, 2), -1)), (((1, 2), 1),), (((2, 1), 1),)


def jacobi_sn_cn_dn(z: complex, ctx: elliptic.ThetaContext) -> tuple[complex, complex, complex]:
    """Jacobi elliptic triple from theta quotients at the context modulus.

    Arguments are taken in theta convention (no rescaling by theta3(0)^2);
    the induced relation between the classical modulus and tau is a property
    of the fixture, not a claim.  All algebraic identities among sn, cn, dn
    are scaling-invariant, which is what the residual checks consume.
    """
    t2z, t3z, t4z = theta2(z, ctx), even_theta(z, ctx, 1), even_theta(z, ctx, -1)
    t1z = elliptic.theta1(z, ctx)
    t20, t30, t40 = theta2(0, ctx), even_theta(0, ctx, 1), even_theta(0, ctx, -1)
    if abs(t4z) < elliptic.POLE_GUARD:
        raise elliptic.PoleProximityError("theta4 zero: sn/cn/dn pole")
    sn = t30 * t1z / (t20 * t4z)
    cn = t40 * t2z / (t20 * t4z)
    dn = t40 * t3z / (t30 * t4z)
    return sn, cn, dn


def zoo_baxter(z: complex, ctx: elliptic.ThetaContext) -> GlTensor2:
    """The elliptic (2,1) solution:
    (cn/sn) h(x)h + ((1+dn)/sn)(e(x)f + f(x)e) + ((1-dn)/sn)(e(x)e + f(x)f)."""
    sn, cn, dn = jacobi_sn_cn_dn(z, ctx)
    if abs(sn) < elliptic.POLE_GUARD:
        raise elliptic.PoleProximityError("sn zero: solution pole")
    h, e, f = _SL2
    pairs = [
        (h, h, cn / sn),
        (e, f, (1 + dn) / sn),
        (f, e, (1 + dn) / sn),
        (e, e, (1 - dn) / sn),
        (f, f, (1 - dn) / sn),
    ]
    return tensor_from_pairs(2, pairs, ring=COMPLEX)


def zoo_cherednik(z: complex) -> GlTensor2:
    """The trigonometric (2,1) solution:
    (1/2) cot(z) h(x)h + (1/sin z)(e(x)f + f(x)e) + sin(z) e(x)e."""
    s = cmath.sin(z)
    if abs(s) < elliptic.POLE_GUARD:
        raise elliptic.PoleProximityError("sin zero: solution pole")
    h, e, f = _SL2
    pairs = [
        (h, h, 0.5 * cmath.cos(z) / s),
        (e, f, 1 / s),
        (f, e, 1 / s),
        (e, e, s),
    ]
    return tensor_from_pairs(2, pairs, ring=COMPLEX)


def zoo_stolin_rat(z) -> GlTensor2:
    """The rational (2,1) solution, exact in one variable:
    (1/z)(h(x)h/2 + e(x)f + f(x)e) + z (f(x)h + h(x)f) - z^3 f(x)f."""
    z = Fraction(z)
    if z == 0:
        raise ZeroDivisionError("solution pole at z = 0")
    h, e, f = _SL2
    pairs = [
        (h, h, Fraction(1, 2) / z),
        (e, f, 1 / z),
        (f, e, 1 / z),
        (f, h, z),
        (h, f, z),
        (f, f, -(z**3)),
    ]
    return tensor_from_pairs(2, pairs)


# --- the elliptic solution in Heisenberg coordinates ---------------------------
#
# With eps = exp(2 pi i d / n) and a = (k_a, l_a) in the index set of
# `heisenberg(n, d)`, the closed form of `heis` (`z_row`, `dual_exponent`)
# gives the basis exactly: Z_a Z_b = eps^(l_a k_b) Z_(a+b), which
# `product_exponent` reads off row 0 of the three matrices, and the trace
# duals Zdual_a = eps^(k_a l_a) Z_(-a) / n, indices mod n (tier-1 compares
# both with dense products of the clock and the shift).  So
# r = sum_a c_a Zdual_a (x) Z_a = sum_a w_a Z_(-a) (x) Z_a with
# w_a = c_a eps^(k_a l_a) / n, and [Z_a, Z_b] = [a, b] Z_(a+b) with
# [a, b] = eps^(l_a k_b) - eps^(l_b k_a).  The coordinate of Z_P (x) Z_Q (x) Z_S
# in CYBE(r), P + Q + S = 0, is then exactly three products:
#   w_Q(v12) w_S(v13) [-Q, -S] + w_-P(v12) w_S(v23) [-P, -S]
#     + w_-P(v13) w_-Q(v23) [-P, -Q],
# from [r12, r13], [r12, r23] and [r13, r23] (Belavin 1980; in these
# coordinates the CYBE is the Fay trisecant identity of sigma).  That the
# duals are the trace duals of the Z_a is the exact identity
# sum_a Zdual_a (x) Z_a = casimir(n), which `_dual_sum` sums in Q(eps).

# the points of `check_belavin`: the CYBE triple, a unitarity pair and the
# residue radius; all real and less than 1/2 apart, so no period is reduced
BELAVIN_TRIPLE = (0.11, 0.27, 0.40)
BELAVIN_PAIR = (0.13, 0.29)
RESIDUE_RADIUS = 1e-4  # the regular part of rho c_a(rho) cancels to second order in it
RESIDUE_TOL = 1e-5
# the moduli of `check_belavin`, made once: a context's theta tables are
# cached by value, and the very key object is found without an __eq__ call
BELAVIN_CONTEXTS = (elliptic.ThetaContext(tau=1j), elliptic.ThetaContext(tau=0.3 + 1j))


def product_exponent(a, b, n: int) -> int:
    """The exponent of eps in Z_a Z_b = eps^(l_a k_b) Z_(a+b): row 0 of Z_a
    holds eps^x in column c, row c of Z_b eps^y, and row 0 of Z_(a+b)
    eps^z, so the exponent is x + y - z."""
    c, x = z_row(a, 0, n)
    return (x + z_row(b, c, n)[1] - z_row((a[0] + b[0], a[1] + b[1]), 0, n)[1]) % n


def cyclo_rational(counts, m: int) -> int | None:
    """The value of sum(counts[e] * zeta_m**e) if it is rational, else None.

    The sum is reduced through `heis.root_table`; it is rational exactly
    when the reduction is constant, and then it is an integer."""
    table = root_table(m)
    acc = [0] * len(table[0])
    for e, c in enumerate(counts):
        if c:
            for j, t in enumerate(table[e]):
                acc[j] += c * t
    return acc[0] if not any(acc[1:]) else None


def _dual_sum(n: int, d: int) -> GlTensor2 | None:
    """Sum of Zdual_a (x) Z_a over the index set of `heisenberg(n, d)`, read
    off the closed form in Q(eps), eps = zeta_n^d: an exact rational tensor
    over the denominator n, or None if a coefficient is not rational.

    Contracted with x in gl(n) through the first slot, the sum is
    sum tr(Zdual_a x) Z_a, and casimir(n) is the projection of x to sl(n).
    So the sum is casimir(n) exactly when the n^2 - 1 matrices Z_a are a
    basis of sl(n) and tr(Zdual_a Z_b) = delta_ab: the full duality table."""
    counts: dict = {}
    for a, _, _ in heisenberg(n, d):
        e = dual_exponent(a, n)
        for i in range(n):
            c, x = z_row((-a[0], -a[1]), i, n)
            for p in range(n):
                q, y = z_row(a, p, n)
                counts.setdefault((i + 1, c + 1, p + 1, q + 1), [0] * n)[d * (x + e + y) % n] += 1
    terms = {key: cyclo_rational(c, n) for key, c in counts.items()}
    if None in terms.values():
        return None
    return GlTensor2.over(n, {key: v for key, v in terms.items() if v}, n)


def heisenberg_coordinates(n: int, d: int) -> tuple:
    """(weights, negatives, coordinates) in the order of the index set of
    `heisenberg(n, d)`: w_a = c_a * weights[a]; negatives[a] is the position
    of -a; each coordinate Z_P (x) Z_Q (x) Z_S with P, Q, S != 0 and a
    nonzero bracket is (Q, S, -P, -Q, [-Q, -S], [-P, -S], [-P, -Q]), its
    indices as positions."""
    index = [a for a, _, _ in heisenberg(n, d)]
    position = {a: i for i, a in enumerate(index)}
    negatives = [position[(-k % n, -l % n)] for k, l in index]
    eps = [cmath.exp(2j * math.pi * (d * e % n) / n) for e in range(n)]
    bracket = [[eps[product_exponent(a, b, n)] - eps[product_exponent(b, a, n)] for b in index]
               for a in index]
    coordinates = []
    for p, (kp, lp) in enumerate(index):
        mp = negatives[p]
        for q, (kq, lq) in enumerate(index):
            s = position.get((-(kp + kq) % n, -(lp + lq) % n))  # None where S = 0
            if s is not None:
                mq, ms = negatives[q], negatives[s]
                terms = (bracket[mq][ms], bracket[mp][ms], bracket[mp][mq])
                if any(terms):
                    coordinates.append((q, s, mp, mq, *terms))
    weights = [eps[dual_exponent(a, n)] / n for a in index]
    return weights, negatives, coordinates


def coordinate_cybe_residual(coordinates, w12, w13, w23) -> float:
    """max |sum| / sum |terms| over the coordinates of CYBE(r) whose terms
    are not all zero, for the weights w_a at v12, v13 and v23; infinite if
    there is no such coordinate."""
    worst = -1.0
    for q, s, mp, mq, b1, b2, b3 in coordinates:
        t1, t2, t3 = w12[q] * w13[s] * b1, w12[mp] * w23[s] * b2, w13[mp] * w23[mq] * b3
        size = abs(t1) + abs(t2) + abs(t3)
        if size:
            worst = max(worst, abs(t1 + t2 + t3) / size)
    return worst if worst >= 0 else math.inf


def coordinate_unitarity_residual(negatives, forward, back) -> float:
    """max over a of |c_a(-v) + c_(-a)(v)| / (|c_a(-v)| + |c_(-a)(v)|), for
    the coefficient lists `forward` at v and `back` at -v."""
    return max(abs(back[a] + forward[b]) / (abs(back[a]) + abs(forward[b]))
               for a, b in enumerate(negatives))


def _theta_floor(n: int, d: int, ctx: elliptic.ThetaContext, lists: dict) -> float:
    """The smallest |theta| / |2 q^(1/4)| among the theta values behind the
    coefficient lists {(x, y): coefficients}: theta1'(0), theta1(u) at the
    lattice, theta1(v) and theta1(u + v).  For real v the factor
    exp(-2 pi i r v / n) has modulus 1, so |theta1(u + v)| is read off each
    coefficient as |c theta1(u) theta1(v) / theta1'(0)|."""
    prefactor, _, deriv = elliptic._theta_table(ctx)
    lattice = [abs(t[-1]) for t in elliptic._lattice_thetas(n, d, ctx)]
    low = min(abs(deriv), *lattice)
    for (x, y), coeffs in lists.items():
        tv = abs(elliptic.theta1(complex(y - x), ctx))
        low = min(low, tv, *(abs(c) * tu * tv / abs(deriv) for c, tu in zip(coeffs, lattice)))
    return low / abs(prefactor)


def belavin_tolerance(theta_floor: float) -> float:
    """The relative tolerance of the CYBE coordinates and of unitarity.

    Every theta value a coefficient uses, theta1'(0), theta1(u), theta1(v)
    and theta1(u + v), is within THETA_TOL |2 q^(1/4)| of its exact value:
    `ThetaContext` keeps the dropped series below a tenth of that, and the
    float sum of the kept terms rounds far below the rest.  With t the
    smallest of them in units of |2 q^(1/4)|, each of the four factors of
    c_a is within THETA_TOL / t relative, so c_a is within
    4 THETA_TOL / t plus rounding.  A coordinate term is a product of two
    coefficients (twice that), of their weights eps^(k l) / n and of a
    bracket of float roots of unity; the exact coordinate is 0, so the
    computed sum is at most (8 THETA_TOL / t + 64 eps) times the sum of
    the terms' sizes, 64 eps bounding the float operations of a term and
    of the sum (the exponentials, products and quotient in c_a, the weight,
    the bracket and two additions, each a few eps).  Unitarity compares two
    coefficients, within half of that."""
    return 8 * elliptic.THETA_TOL / theta_floor + 64 * sys.float_info.epsilon
