"""Numeric theta functions, the elliptic kernel, the torus r-matrix, and the
classical (2,1) solution zoo.

Everything here is floating-point; the exact modules never import it.  The
theta-quotient form of the elliptic kernel is normative; the double-series
form is kept only as a cross-check where it converges.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .lie import (
    COMPLEX,
    GlTensor2,
    casimir,
    cybe_residual_two_variable,
    heisenberg,
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


class PoleProximityError(ArithmeticError):
    """Evaluation point too close to a zero of theta / a pole of the kernel."""


@dataclass(frozen=True)
class ThetaContext:
    """Modulus, series truncation and tolerance for all elliptic evaluation."""

    tau: complex
    terms: int = 60
    tol: float = 1e-12

    def __post_init__(self):
        if self.tau.imag <= 0:
            raise ValueError("need Im(tau) > 0, got %r" % (self.tau,))
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
        if drop >= self.tol / 10:
            raise ValueError(
                "truncation at %d terms cannot reach tol=%g for this modulus"
                % (self.terms, self.tol)
            )

    @property
    def q(self) -> complex:
        return cmath.exp(1j * math.pi * self.tau)


def _theta1_series(z: complex, ctx: ThetaContext) -> complex:
    q = ctx.q
    acc = 0j
    for n in range(ctx.terms):
        acc += (-1) ** n * q ** (n * (n + 1)) * cmath.sin((2 * n + 1) * math.pi * z)
    return 2 * q ** Fraction(1, 4) * acc


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
    """Term-wise derivative of the odd theta series at z = 0."""
    q = ctx.q
    acc = 0j
    for n in range(ctx.terms):
        acc += (-1) ** n * q ** (n * (n + 1)) * (2 * n + 1) * math.pi
    return 2 * q ** Fraction(1, 4) * acc


def theta_half_shift_identity_residual(z: complex, ctx: ThetaContext) -> float:
    """|theta3(z + (1+tau)/2) - i exp(-pi i (z + tau/4)) theta1(z)|: the
    half-period relation tying the even and odd theta functions."""
    lhs = theta3(z + (1 + ctx.tau) / 2, ctx)
    rhs = 1j * cmath.exp(-1j * math.pi * (z + ctx.tau / 4)) * theta1(z, ctx)
    return abs(lhs - rhs)


def kronecker_sigma(u: complex, z: complex, ctx: ThetaContext) -> complex:
    """The elliptic kernel in its theta-quotient form:
    theta1'(0) theta1(u+z) / (theta1(u) theta1(z))."""
    tu = theta1(u, ctx)
    tz = theta1(z, ctx)
    if abs(tu) < POLE_GUARD or abs(tz) < POLE_GUARD:
        raise PoleProximityError("kernel argument too close to the zero lattice")
    return theta1_deriv0(ctx) * theta1(u + z, ctx) / (tu * tz)


def kronecker_sigma_series(u: complex, z: complex, ctx: ThetaContext) -> complex:
    """Non-normative double-series form of the kernel, with the exponent read
    as a - n tau (a commonly reproduced variant of the exponent is
    dimensionally inconsistent).  Converges only for -Im(tau) < Im(z) < 0; used solely as a
    cross-check of the quotient form inside that strip."""
    if not -ctx.tau.imag < z.imag < 0:
        raise ValueError("series form needs -Im(tau) < Im(z) < 0")
    acc = 0j
    for n in range(-ctx.terms, ctx.terms + 1):
        acc += cmath.exp(-TWO_PI_I * n * z) / (
            1 - cmath.exp(-TWO_PI_I * (u - n * ctx.tau))
        )
    return TWO_PI_I * acc


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


def _belavin_terms(n: int, d: int, ctx: ThetaContext, v: complex):
    hb = heisenberg(n, d)
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
    for (k, l) in hb.index_set:
        # the coefficient depends on d k and d l only mod n: shifting u by 1
        # leaves sigma unchanged, and the prefactor undoes a shift by tau
        r, s = d * k % n, d * l % n
        u = (1 / n) * (s - r * ctx.tau)
        coeff = cmath.exp(-TWO_PI_I * r * v / n) * kronecker_sigma(u, v, ctx)
        # the phase depends on m s + j r only mod n; reduce it in integers,
        # since j r can be too large for the float phase to be accurate
        phase = (m * s + j * r) % n
        if phase:
            coeff *= cmath.exp(-TWO_PI_I * phase / n)
        pairs.append((hb.z_dual_complex(k, l), hb.z_complex(k, l), coeff))
    return pairs


def belavin_r(n: int, d: int, ctx: ThetaContext, x, y) -> GlTensor2:
    """The elliptic solution on the torus: sum over the Heisenberg index set
    of exp(-2 pi i d k v / n) sigma(d(l - k tau)/n, v) Zdual_{k,l} (x) Z_{k,l}
    with v = y - x."""
    if gcd(n, d) != 1 or not 0 < d < n:
        raise ValueError("need coprime 0 < d < n, got (%d, %d)" % (n, d))
    v = complex(y) - complex(x)
    if not cmath.isfinite(v / ctx.tau.imag):
        raise ValueError(
            "y - x = %r is not finite or too large for Im(tau) = %g" % (v, ctx.tau.imag)
        )
    return tensor_from_pairs(n, _belavin_terms(n, d, ctx, v), ring=COMPLEX)


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
