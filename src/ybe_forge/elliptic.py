"""Numeric theta functions, the elliptic kernel, the torus r-matrix, and the
classical (2,1) solution zoo.

Everything here is floating-point; the exact modules never import it.  The
theta-quotient form of the elliptic kernel is normative; tests/test_elliptic.py
cross-checks it against the double-series form where that converges.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .lie import (
    COMPLEX,
    GlTensor2,
    casimir,
    cybe_residual_two_variable,
    heisenberg,
    heisenberg_entries,
    tensor_from_entries,
    tensor_from_pairs,
)

TWO_PI_I = 2j * math.pi
# |sin(x + iy)| reaches the largest float once |y| exceeds about this
_LOG_MAX = math.log(sys.float_info.max)
# |theta| or |sin| below this counts as a zero: the point is refused as a pole
POLE_GUARD = 1e-8
# Laurent-fit offset of `belavin_residue_fit`; the regular part cancels to
# second order in it
RESIDUE_FIT_RADIUS = 1e-4
# tolerance of every theta evaluation: a `ThetaContext` whose first dropped
# series term is not below a tenth of it is refused
THETA_TOL = 1e-12


class PoleProximityError(ArithmeticError):
    """Evaluation point too close to a zero of theta / a pole of the kernel."""


@dataclass(frozen=True)
class ThetaContext:
    """Modulus and series truncation for all elliptic evaluation."""

    tau: complex
    terms: int = 60

    def __post_init__(self):
        # NaN compares False with everything, so it must be refused first
        if not cmath.isfinite(self.tau):
            raise ValueError("need a finite tau, got %r" % (self.tau,))
        if self.tau.imag <= 0:
            raise ValueError("need Im(tau) > 0, got %r" % (self.tau,))
        # an equal float would share the tables of the int (lru_cache keys)
        if not isinstance(self.terms, int):
            raise ValueError("need an integer number of theta series terms, got %r"
                             % (self.terms,))
        if self.terms < 1:
            raise ValueError("need at least 1 theta series term, got %d" % self.terms)
        if (2 * self.terms - 1) * math.pi * self.tau.imag / 2 > _LOG_MAX:
            raise ValueError(
                "%d theta series terms overflow on the strip |Im z| <= Im(tau)/2 "
                "for Im(tau) = %g; use fewer terms" % (self.terms, self.tau.imag)
            )
        # first dropped term of the odd theta series, |q|^(N(N+1)) e^((2N+1) pi |Im z|),
        # at the largest |Im z| theta1 is summed at: 1.5 Im(tau), where
        # `belavin_r` evaluates theta1(u + v) with |Im u| < Im(tau) and
        # |Im v| <= Im(tau)/2
        n = self.terms
        drop = math.exp(-math.pi * self.tau.imag * (n * (n + 1) - 1.5 * (2 * n + 1)))
        if drop >= THETA_TOL / 10:
            raise ValueError(
                "truncation at %d terms cannot reach tol=%g for this modulus"
                % (self.terms, THETA_TOL)
            )

    @property
    def q(self) -> complex:
        return cmath.exp(1j * math.pi * self.tau)


# contexts (and (n, d, context) triples) whose tables are kept at once
CONTEXT_CACHE_MAX = 32


@lru_cache(maxsize=CONTEXT_CACHE_MAX)
def _theta_table(ctx: ThetaContext) -> tuple:
    """The context-only parts of the odd theta series: 2 q^{1/4}, the terms
    (coefficient (-1)^n q^{n(n+1)}, frequency (2n+1) pi) up to the last
    nonzero coefficient, and theta1'(0) summed over all `terms` terms."""
    q = ctx.q
    coeffs = [(-1) ** n * q ** (n * (n + 1)) for n in range(ctx.terms)]
    deriv = 0j
    for n, c in enumerate(coeffs):
        deriv += c * (2 * n + 1) * math.pi
    # |q|^(n(n+1)) underflows to 0.0 long before `terms` at moderate Im(tau)
    # (from n = 15 on at tau = i); those terms only add signed zeros
    kept = 1 + max(n for n, c in enumerate(coeffs) if c)
    prefactor = 2 * q ** Fraction(1, 4)
    terms = tuple((c, (2 * n + 1) * math.pi) for n, c in enumerate(coeffs[:kept]))
    return prefactor, terms, prefactor * deriv


def _can_overflow(w) -> bool:
    """False when cmath.sin(w) certainly returns a finite value: sinh and
    cosh of |Im w| <= 710 stay below the largest float."""
    return not (cmath.isfinite(w) and abs(w.imag) <= 710)


def _theta1_series(z: complex, ctx: ThetaContext) -> complex:
    """The first `ctx.terms` terms of the odd theta series, summed in order.

    The terms past the table add +-0.0 each, which leaves a float sum that
    starts at +0.0 unchanged.  But cmath.sin raises OverflowError on some of
    them where the full series would, so the sines that may overflow are
    taken: those of a tail of the frequencies, found by bisection."""
    prefactor, terms, _ = _theta_table(ctx)
    acc = 0j
    for c, f in terms:
        acc += c * cmath.sin(f * z)
    lo, hi = len(terms), ctx.terms - 1
    if lo <= hi and _can_overflow((2 * hi + 1) * math.pi * z):
        while lo < hi:
            mid = (lo + hi) // 2
            if _can_overflow((2 * mid + 1) * math.pi * z):
                hi = mid
            else:
                lo = mid + 1
        for n in range(lo, ctx.terms):
            cmath.sin((2 * n + 1) * math.pi * z)
    return prefactor * acc


def theta1(z: complex, ctx: ThetaContext) -> complex:
    """Odd Jacobi theta: 2 q^{1/4} sum (-1)^n q^{n(n+1)} sin((2n+1) pi z).

    Where a term of the series overflows, the series is summed at z - m tau
    in the strip |Im| <= Im(tau)/2 instead, by theta1(z + m tau) =
    (-1)^m q^{-m^2} exp(-2 pi i m z) theta1(z) (DLMF 20.2.9); ThetaContext
    guarantees that the series is finite on that strip."""
    try:
        return _theta1_series(z, ctx)
    except OverflowError:
        m = round(z.imag / ctx.tau.imag)
        z = z - m * ctx.tau
        scale = (-1) ** m * ctx.q ** (-m * m) * cmath.exp(-TWO_PI_I * m * z)
        return scale * _theta1_series(z, ctx)


def theta2(z: complex, ctx: ThetaContext) -> complex:
    q = ctx.q
    acc = 0j
    for n in range(ctx.terms):
        acc += q ** (n * (n + 1)) * cmath.cos((2 * n + 1) * math.pi * z)
    return 2 * q ** Fraction(1, 4) * acc


def theta3(z: complex, ctx: ThetaContext) -> complex:
    """Even Jacobi theta: 1 + 2 sum q^{n^2} cos(2 pi n z)."""
    q = ctx.q
    acc = 1 + 0j
    for n in range(1, ctx.terms + 1):
        acc += 2 * q ** (n * n) * cmath.cos(2 * math.pi * n * z)
    return acc


def theta4(z: complex, ctx: ThetaContext) -> complex:
    q = ctx.q
    acc = 1 + 0j
    for n in range(1, ctx.terms + 1):
        acc += 2 * (-1) ** n * q ** (n * n) * cmath.cos(2 * math.pi * n * z)
    return acc


def theta1_deriv0(ctx: ThetaContext) -> complex:
    """Term-wise derivative of the odd theta series at z = 0, summed once
    per context into its theta table."""
    return _theta_table(ctx)[2]


def theta_half_shift_identity_residual(z: complex, ctx: ThetaContext) -> float:
    """|theta3(z + (1+tau)/2) - i exp(-pi i (z + tau/4)) theta1(z)|: the
    half-period relation tying the even and odd theta functions."""
    lhs = theta3(z + (1 + ctx.tau) / 2, ctx)
    rhs = 1j * cmath.exp(-1j * math.pi * (z + ctx.tau / 4)) * theta1(z, ctx)
    return abs(lhs - rhs)


def kronecker_sigma(u: complex, z: complex, ctx: ThetaContext, *,
                    tu: complex | None = None, tz: complex | None = None) -> complex:
    """The elliptic kernel in its theta-quotient form:
    theta1'(0) theta1(u+z) / (theta1(u) theta1(z)).  A caller that has
    already summed theta1(u, ctx) or theta1(z, ctx) passes it as `tu` or
    `tz`."""
    if tu is None:
        tu = theta1(u, ctx)
    if tz is None:
        tz = theta1(z, ctx)
    if abs(tu) < POLE_GUARD or abs(tz) < POLE_GUARD:
        raise PoleProximityError("kernel argument too close to the zero lattice")
    return theta1_deriv0(ctx) * theta1(u + z, ctx) / (tu * tz)


# ---------------------------------------------------------------------------
# the torus r-matrix
# ---------------------------------------------------------------------------

def v_sign_convention() -> str:
    """The difference variable enters the coefficients as v = y - x.

    The source states both y - x and x - y.  The CYBE alone cannot decide:
    negating the difference composes the solution with the flip of both
    slots, which is again a solution for any n.  Only y - x also gives the
    Casimir tensor with a plus sign as the residue in y - x, matching the
    rational pipelines; tests/test_elliptic.py re-derives this."""
    return "y-x"


@lru_cache(maxsize=CONTEXT_CACHE_MAX)
def _lattice_thetas(n: int, d: int, ctx: ThetaContext) -> tuple:
    """(r, s, u, theta1(u)) for each (k, l) of the Heisenberg index set in
    order, with r = d k mod n, s = d l mod n and u = (s - r tau) / n.  The
    coefficient depends on d k and d l only mod n: shifting u by 1 leaves
    sigma unchanged, and the prefactor undoes a shift by tau."""
    out = []
    for (k, l) in heisenberg(n, d).index_set:
        r, s = d * k % n, d * l % n
        u = (1 / n) * (s - r * ctx.tau)
        out.append((r, s, u, theta1(u, ctx)))
    return tuple(out)


def _belavin_terms(n: int, d: int, ctx: ThetaContext, v: complex):
    # Quasi-periodicity (DLMF 20.2(ii)): with v = v0 + m tau + j,
    # |Im v0| <= Im tau / 2 and |Re v0| <= 1/2, every coefficient is
    # exp(-2 pi i (m s + j r) / n) times its value at v0: the tau terms of
    # the prefactor and the kernel cancel, and sigma(u, v + 1) = sigma(u, v).
    m = round(v.imag / ctx.tau.imag)
    if m:
        v = v - m * ctx.tau
        if abs(v.imag) > ctx.tau.imag:
            raise ValueError("y - x is too large to reduce by the periods")
    j = round(v.real)
    if j:
        v = v - j
    tv = theta1(v, ctx)
    if abs(tv) < POLE_GUARD:
        raise PoleProximityError(
            "difference of spectral points is on the period lattice"
        )
    pairs = []
    lattice = zip(_lattice_thetas(n, d, ctx), heisenberg_entries(n, d))
    for (r, s, u, tu), (z_dual, z) in lattice:
        coeff = cmath.exp(-TWO_PI_I * r * v / n) * kronecker_sigma(u, v, ctx, tu=tu, tz=tv)
        # the phase depends on m s + j r only mod n; reduce it in integers,
        # since j r can be too large for the float phase to be accurate
        phase = (m * s + j * r) % n
        if phase:
            coeff *= cmath.exp(-TWO_PI_I * phase / n)
        pairs.append((z_dual, z, coeff))
    return pairs


def belavin_r(n: int, d: int, ctx: ThetaContext, x, y) -> GlTensor2:
    """The elliptic solution on the torus: sum over the Heisenberg index set
    of exp(-2 pi i d k v / n) sigma(d(l - k tau)/n, v) Zdual_{k,l} (x) Z_{k,l}
    with v = y - x.

    r is invariant under tau -> tau + n.  theta1(z | tau + 1) =
    exp(i pi / 4) theta1(z | tau) (DLMF 20.7.26), so sigma(u, v), with two
    theta1 factors above and two below, does not change with tau at fixed
    u and v.  The lattice point u = (s - r tau)/n moves by the integer -r
    under tau -> tau + n, and theta1(z - r) = (-1)^r theta1(z) changes the
    numerator theta1(u + v) and the denominator theta1(u) by the same sign.
    The prefactor exp(-2 pi i r v / n) does not involve tau.  The float
    phase of q = exp(i pi tau) and of u loses its accuracy as |Re tau|
    grows, so for |Re tau| > n/2 r is evaluated at Re tau reduced mod n into
    [-n/2, n/2] by the exact `math.remainder`."""
    if gcd(n, d) != 1 or not 0 < d < n:
        raise ValueError("need coprime 0 < d < n, got (%d, %d)" % (n, d))
    if abs(ctx.tau.real) > n / 2:
        ctx = ThetaContext(complex(math.remainder(ctx.tau.real, n), ctx.tau.imag), ctx.terms)
    v = complex(y) - complex(x)
    if not cmath.isfinite(v / ctx.tau.imag):
        raise ValueError(
            "y - x = %r is not finite or too large for Im(tau) = %g" % (v, ctx.tau.imag)
        )
    return tensor_from_entries(n, _belavin_terms(n, d, ctx, v), ring=COMPLEX)


def belavin_cybe_residual(n: int, d: int, ctx: ThetaContext, pts) -> float:
    """Max-norm of the CYBE left-hand side at a triple of spectral points."""
    return cybe_residual_two_variable(lambda x, y: belavin_r(n, d, ctx, x, y), pts).norm()


def belavin_residue_fit(n: int, d: int, ctx: ThetaContext) -> float:
    """Max-norm distance of the Laurent-fit residue (in the variable y - x)
    from the Casimir tensor.

    Fits at two opposite radii so the regular part cancels to second order.
    """
    radius = RESIDUE_FIT_RADIUS
    rp = belavin_r(n, d, ctx, 0.0, radius)
    rm = belavin_r(n, d, ctx, 0.0, -radius)
    fitted = rp.scale(radius).add(rm.scale(-radius)).scale(0.5)
    return fitted.sub(casimir(n).to_complex()).norm()


def belavin_unitarity_residual(n: int, d: int, ctx: ThetaContext, x, y) -> float:
    from .lie import swap_tensor

    r_xy = belavin_r(n, d, ctx, x, y)
    r_yx = belavin_r(n, d, ctx, y, x)
    return r_xy.add(swap_tensor(r_yx)).norm()


# ---------------------------------------------------------------------------
# the classical (2,1) solutions: elliptic, trigonometric, rational
# ---------------------------------------------------------------------------

def _sl2_basis():
    from .exact import ONE, ZERO

    h = ((ONE, ZERO), (ZERO, -ONE))
    e = ((ZERO, ONE), (ZERO, ZERO))
    f = ((ZERO, ZERO), (ONE, ZERO))
    return h, e, f


def _sl2_basis_c():
    h = ((1 + 0j, 0j), (0j, -1 + 0j))
    e = ((0j, 1 + 0j), (0j, 0j))
    f = ((0j, 0j), (1 + 0j, 0j))
    return h, e, f


def jacobi_sn_cn_dn(z: complex, ctx: ThetaContext) -> tuple[complex, complex, complex]:
    """Jacobi elliptic triple from theta quotients at the context modulus.

    Arguments are taken in theta convention (no rescaling by theta3(0)^2);
    the induced relation between the classical modulus and tau is a property
    of the fixture, not a claim.  All algebraic identities among sn, cn, dn
    are scaling-invariant, which is what the residual checks consume.
    """
    t2z, t3z, t4z = theta2(z, ctx), theta3(z, ctx), theta4(z, ctx)
    t1z = theta1(z, ctx)
    t20, t30, t40 = theta2(0, ctx), theta3(0, ctx), theta4(0, ctx)
    if abs(t4z) < POLE_GUARD:
        raise PoleProximityError("theta4 zero: sn/cn/dn pole")
    sn = t30 * t1z / (t20 * t4z)
    cn = t40 * t2z / (t20 * t4z)
    dn = t40 * t3z / (t30 * t4z)
    return sn, cn, dn


def zoo_baxter(z: complex, ctx: ThetaContext) -> GlTensor2:
    """The elliptic (2,1) solution:
    (cn/sn) h(x)h + ((1+dn)/sn)(e(x)f + f(x)e) + ((1-dn)/sn)(e(x)e + f(x)f)."""
    sn, cn, dn = jacobi_sn_cn_dn(z, ctx)
    if abs(sn) < POLE_GUARD:
        raise PoleProximityError("sn zero: solution pole")
    h, e, f = _sl2_basis_c()
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
    if abs(s) < POLE_GUARD:
        raise PoleProximityError("sin zero: solution pole")
    h, e, f = _sl2_basis_c()
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
    from .exact import ONE, rat

    z = rat(z)
    if z == 0:
        raise ZeroDivisionError("solution pole at z = 0")
    h, e, f = _sl2_basis()
    pairs = [
        (h, h, Fraction(1, 2) / z),
        (e, f, ONE / z),
        (f, e, ONE / z),
        (f, h, z),
        (h, f, z),
        (f, f, -(z**3)),
    ]
    return tensor_from_pairs(2, pairs)
