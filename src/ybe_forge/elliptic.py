"""The odd theta function, the elliptic kernel and the torus r-matrix.

Everything here is floating-point; the exact modules never import it, and
it loads neither `exact`, the rational tables (`table`) nor `fractions`.
The torus r-matrix weights the entries of the clock-and-shift basis
`lie.heisenberg` (the closed form of `heis`).  The theta-quotient form of
the elliptic kernel is normative; tests/test_elliptic.py cross-checks it
against the double-series form where that converges.  The even theta
functions, the classical (2,1) solution zoo and the residual checks of the
elliptic solution live in `residuals`, the elliptic route of `verify`.
"""

from __future__ import annotations

import cmath
import math
import sys
from functools import lru_cache
from math import gcd

from .lie import COMPLEX, GlTensor2, cybe_residual_two_variable, heisenberg, tensor_from_pairs

TWO_PI_I = 2j * math.pi
# |sin(x + iy)| reaches the largest float once |y| exceeds about this
_LOG_MAX = math.log(sys.float_info.max)
# |theta| or |sin| below this counts as a zero: the point is refused as a
# pole.  theta1 is compared relative to its prefactor |2 q^(1/4)|, which
# falls as exp(-pi Im(tau) / 4): at tau = 30i, theta1(0.1) is about 4e-11.
POLE_GUARD = 1e-8
# tolerance of every theta evaluation: a `ThetaContext` whose first dropped
# series term is not below a tenth of it is refused
THETA_TOL = 1e-12
# Most theta series terms a `ThetaContext` admits.  Each requested term
# costs about 1 us once per context (its coefficient and its share of
# theta1'(0)), also past the point where the coefficients underflow, and the
# overflow check alone admits about 709 / (pi Im(tau)) terms, without bound
# as Im(tau) -> 0.  At this bound a context's table takes about 10 ms (one
# CPU of a 2-core Intel Xeon, at tau = 0.02i and at 0.0001i).
THETA_TERMS_MAX = 10_000


class PoleProximityError(ArithmeticError):
    """Evaluation point too close to a zero of theta / a pole of the kernel."""


class ThetaContext:
    """Modulus and series truncation for all elliptic evaluation.  Equal
    contexts hash alike, so they share the tables cached per context."""

    __slots__ = ("tau", "terms")

    def __init__(self, tau: complex, terms: int = 60):
        self.tau = tau
        self.terms = terms
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
        if self.terms > THETA_TERMS_MAX:
            raise ValueError("need at most %d theta series terms" % THETA_TERMS_MAX)
        if (2 * self.terms - 1) * math.pi * self.tau.imag / 2 > _LOG_MAX:
            # fewer than 3 terms never reach tol (the bound below), so past
            # the Im(tau) at which 3 terms overflow no truncation is left
            if 5 * math.pi * self.tau.imag / 2 > _LOG_MAX:
                raise ValueError(
                    "no theta series truncation works for Im(tau) = %g: 3 or more "
                    "terms overflow, fewer cannot reach tol=%g" % (self.tau.imag, THETA_TOL)
                )
            raise ValueError(
                "%d theta series terms overflow on the strip |Im z| <= Im(tau)/2 "
                "for Im(tau) = %g; use fewer terms" % (self.terms, self.tau.imag)
            )
        # log of the first dropped term of the odd theta series,
        # |q|^(N(N+1)) e^((2N+1) pi |Im z|), at the largest |Im z| theta1 is
        # summed at: 1.5 Im(tau), where `belavin_r` evaluates theta1(u + v)
        # with |Im u| < Im(tau) and |Im v| <= Im(tau)/2; compared as a log,
        # since the term itself overflows for few terms at large Im(tau)
        n = self.terms
        drop = -math.pi * self.tau.imag * (n * (n + 1) - 1.5 * (2 * n + 1))
        if drop >= math.log(THETA_TOL / 10):
            raise ValueError(
                "truncation at %d terms cannot reach tol=%g for this modulus"
                % (self.terms, THETA_TOL)
            )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.tau, self.terms) == (other.tau, other.terms)

    def __hash__(self):
        return hash((self.tau, self.terms))

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
    prefactor = 2 * q ** 0.25
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


def kronecker_sigma(u: complex, z: complex, ctx: ThetaContext, *,
                    tu: complex | None = None, tz: complex | None = None) -> complex:
    """The elliptic kernel in its theta-quotient form:
    theta1'(0) theta1(u+z) / (theta1(u) theta1(z)).  A caller that has
    already summed theta1(u, ctx) or theta1(z, ctx) passes it as `tu` or
    `tz`.  theta1'(0) is the term-wise derivative of the series at 0,
    summed once per context into its theta table."""
    if tu is None:
        tu = theta1(u, ctx)
    if tz is None:
        tz = theta1(z, ctx)
    prefactor, _, deriv = _theta_table(ctx)
    guard = POLE_GUARD * abs(prefactor)
    if abs(tu) < guard or abs(tz) < guard:
        raise PoleProximityError("kernel argument too close to the zero lattice")
    return deriv * theta1(u + z, ctx) / (tu * tz)


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
    for (k, l), _, _ in heisenberg(n, d):
        r, s = d * k % n, d * l % n
        u = (1 / n) * (s - r * ctx.tau)
        out.append((r, s, u, theta1(u, ctx)))
    return tuple(out)


def belavin_coefficients(n: int, d: int, ctx: ThetaContext, x, y) -> list:
    """The coefficients of r(x, y) = sum c_{k,l} Zdual_{k,l} (x) Z_{k,l}, in
    the order of the Heisenberg index set: c_{k,l} = exp(-2 pi i d k v / n)
    sigma(d(l - k tau)/n, v) with v = y - x.

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
    x, y = complex(x), complex(y)
    if not cmath.isfinite((y - x) / ctx.tau.imag):
        raise ValueError(
            "y - x = %r is not finite or too large for Im(tau) = %g" % (y - x, ctx.tau.imag)
        )
    # Re x and Re y are reduced by the period 1 each, by the exact
    # `math.remainder`, and the integer shifts are kept as ints: far from the
    # origin the float y - x would round away the fraction of Re(y - x)
    rx, ry = math.remainder(x.real, 1), math.remainder(y.real, 1)
    v = complex(ry - rx, y.imag - x.imag)
    j = int(y.real - ry) - int(x.real - rx)
    # Quasi-periodicity (DLMF 20.2(ii)): with v = v0 + m tau + j,
    # |Im v0| <= Im tau / 2 and |Re v0| <= 1/2, every coefficient is
    # exp(-2 pi i (m s + j r) / n) times its value at v0: the tau terms of
    # the prefactor and the kernel cancel, and sigma(u, v + 1) = sigma(u, v).
    m = round(v.imag / ctx.tau.imag)
    if m:
        # y - x and m tau each round by up to an ulp of their size, and the
        # reduced v0 inherits both errors
        if (abs(v) + abs(m * ctx.tau)) * sys.float_info.epsilon > THETA_TOL:
            raise ValueError("y - x is too far from the real axis to reduce by the periods "
                             "within tol=%g" % THETA_TOL)
        v = v - m * ctx.tau
    k = round(v.real)
    if k:
        v = v - k
        j += k
    tv = theta1(v, ctx)
    if abs(tv) < POLE_GUARD * abs(_theta_table(ctx)[0]):
        raise PoleProximityError(
            "difference of spectral points is on the period lattice"
        )
    coeffs = []
    for r, s, u, tu in _lattice_thetas(n, d, ctx):
        coeff = cmath.exp(-TWO_PI_I * r * v / n) * kronecker_sigma(u, v, ctx, tu=tu, tz=tv)
        # the phase depends on m s + j r only mod n; reduce it in integers,
        # since j r can be too large for the float phase to be accurate
        phase = (m * s + j * r) % n
        if phase:
            coeff *= cmath.exp(-TWO_PI_I * phase / n)
        coeffs.append(coeff)
    return coeffs


def belavin_r(n: int, d: int, ctx: ThetaContext, x, y) -> GlTensor2:
    """The elliptic solution on the torus, sum c_{k,l} Zdual_{k,l} (x)
    Z_{k,l} over the Heisenberg index set, with the `belavin_coefficients`."""
    coeffs = belavin_coefficients(n, d, ctx, x, y)
    pairs = ((z_dual, z, c) for (_, z_dual, z), c in zip(heisenberg(n, d), coeffs))
    return tensor_from_pairs(n, pairs, ring=COMPLEX)


def belavin_cybe_residual(n: int, d: int, ctx: ThetaContext, pts) -> float:
    """Max-norm of the CYBE left-hand side at a triple of spectral points."""
    return cybe_residual_two_variable(lambda x, y: belavin_r(n, d, ctx, x, y), pts).norm()
