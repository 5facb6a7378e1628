"""Theta numerics, the elliptic kernel, the torus solution, and the zoo."""

import cmath
import json
import math
import random
from fractions import Fraction as F
from math import gcd

import pytest

from ybe_forge.elliptic import (
    THETA_TOL,
    TWO_PI_I,
    PoleProximityError,
    ThetaContext,
    belavin_cybe_residual,
    belavin_r,
    belavin_residue_fit,
    belavin_unitarity_residual,
    jacobi_sn_cn_dn,
    _lattice_thetas,
    _theta_table,
    kronecker_sigma,
    theta1,
    theta1_deriv0,
    theta3,
    theta_half_shift_identity_residual,
    v_sign_convention,
    zoo_baxter,
    zoo_cherednik,
    zoo_stolin_rat,
)
from ybe_forge.lie import (
    COMPLEX,
    casimir,
    cybe_lhs,
    cybe_residual_difference,
    heisenberg,
    swap_tensor,
    _dual_sum,
)
from test_lie import dense_tensor_from_pairs, z_matrices

CTX = ThetaContext(tau=0.3 + 1j)


def kronecker_sigma_series(u: complex, z: complex, ctx: ThetaContext) -> complex:
    """Double-series form of the kernel, with the exponent read as a - n tau
    (a commonly reproduced variant of the exponent is dimensionally
    inconsistent).  Converges only for -Im(tau) < Im(z) < 0, where it
    cross-checks the quotient form `kronecker_sigma`."""
    if not -ctx.tau.imag < z.imag < 0:
        raise ValueError("series form needs -Im(tau) < Im(z) < 0")
    acc = 0j
    for n in range(-ctx.terms, ctx.terms + 1):
        acc += cmath.exp(-TWO_PI_I * n * z) / (1 - cmath.exp(-TWO_PI_I * (u - n * ctx.tau)))
    return TWO_PI_I * acc
CTX_I = ThetaContext(tau=1j)


# ---------------------------------------------------------------------------
# reference oracle: every one of the `terms` series terms, summed per call
# ---------------------------------------------------------------------------

def theta1_series_reference(z, ctx: ThetaContext) -> complex:
    q = ctx.q
    acc = 0j
    for n in range(ctx.terms):
        acc += (-1) ** n * q ** (n * (n + 1)) * cmath.sin((2 * n + 1) * math.pi * z)
    return 2 * q ** F(1, 4) * acc


def theta1_reference(z, ctx: ThetaContext) -> complex:
    """The full series, or its value at z - m tau where a term overflows."""
    try:
        return theta1_series_reference(z, ctx)
    except OverflowError:
        m = round(z.imag / ctx.tau.imag)
        z = z - m * ctx.tau
        scale = (-1) ** m * ctx.q ** (-m * m) * cmath.exp(-TWO_PI_I * m * z)
        return scale * theta1_series_reference(z, ctx)


def theta1_deriv0_reference(ctx: ThetaContext) -> complex:
    q = ctx.q
    acc = 0j
    for n in range(ctx.terms):
        acc += (-1) ** n * q ** (n * (n + 1)) * (2 * n + 1) * math.pi
    return 2 * q ** F(1, 4) * acc


def belavin_reference(n: int, d: int, ctx: ThetaContext, x, y):
    """The Belavin tensor with every theta value summed afresh by the
    reference series, in the order of operations of `belavin_r`."""
    hb = heisenberg(n, d)
    x, y = complex(x), complex(y)
    rx, ry = math.remainder(x.real, 1), math.remainder(y.real, 1)
    v = complex(ry - rx, y.imag - x.imag)
    j = int(y.real - ry) - int(x.real - rx)
    m = round(v.imag / ctx.tau.imag)
    if m:
        v = v - m * ctx.tau
    k = round(v.real)
    if k:
        v = v - k
        j += k
    tv = theta1_reference(v, ctx)
    pairs = []
    for (k, l) in hb.index_set:
        r, s = d * k % n, d * l % n
        u = (1 / n) * (s - r * ctx.tau)
        sigma = theta1_deriv0_reference(ctx) * theta1_reference(u + v, ctx) / (
            theta1_reference(u, ctx) * tv)
        coeff = cmath.exp(-TWO_PI_I * r * v / n) * sigma
        phase = (m * s + j * r) % n
        if phase:
            coeff *= cmath.exp(-TWO_PI_I * phase / n)
        pairs.append((*z_matrices(hb, k, l), coeff))
    return dense_tensor_from_pairs(n, pairs, ring=COMPLEX)


ORACLE_TAUS = [1j, 0.3 + 1j, 1.1j, 0.1 + 2j, 0.05j, 0.5 + 0.2j]


def oracle_points(tau: complex, seed: int, count: int = 40) -> list:
    """Seeded points with |Im z| up to 4 Im(tau), past the overflow point of
    the series for the larger moduli, plus points on both axes."""
    rng = random.Random(seed)
    h = tau.imag
    pts = [complex(rng.uniform(-2, 2), rng.uniform(-4 * h, 4 * h)) for _ in range(count)]
    pts += [complex(rng.uniform(-2, 2), 0.0) for _ in range(8)]
    pts += [rng.uniform(-2, 2) for _ in range(4)]
    pts += [complex(0.0, rng.uniform(-4 * h, 4 * h)) for _ in range(8)]
    pts += [complex(-0.0, rng.uniform(-4 * h, 4 * h)) for _ in range(4)]
    return pts + [0, 0.0, -0.0, complex(-0.0, -0.0), 0.5, 1, tau, (1 + tau) / 2, 3.5 * tau]


class TestReferenceOracle:
    """theta1 sums only the nonzero terms of a per-context table and reads
    theta1(u) from a per-(n, d, context) table; every value must still be
    the full series' value to the bit, signed zeros included."""

    @pytest.mark.parametrize("tau", ORACLE_TAUS)
    def test_theta1_repr_identical(self, tau):
        ctx = ThetaContext(tau=tau)
        for z in oracle_points(tau, seed=int(100 * abs(tau))):
            assert repr(theta1(z, ctx)) == repr(theta1_reference(z, ctx)), z

    @pytest.mark.parametrize("tau,terms", [(tau, 60) for tau in ORACLE_TAUS] + [
        (1j, 7), (1j, 200), (0.3 + 1j, 7), (0.3 + 1j, 200), (1.1j, 7), (0.1 + 2j, 7),
        (0.05j, 200), (0.5 + 0.2j, 200),
    ])
    def test_deriv0_repr_identical(self, tau, terms):
        ctx = ThetaContext(tau=tau, terms=terms)
        assert repr(theta1_deriv0(ctx)) == repr(theta1_deriv0_reference(ctx))

    @pytest.mark.parametrize("n,d", [(2, 1), (3, 1), (3, 2), (4, 1), (5, 2)])
    @pytest.mark.parametrize("tau", ORACLE_TAUS)
    def test_belavin_terms_repr_identical(self, n, d, tau):
        ctx = ThetaContext(tau=tau)
        rng = random.Random(7 * n + d)
        h = tau.imag
        points = [(0.1, 0.35), (0.0, 0.25 + 0.0j), (0.2, 0.2 + 1.3 * tau), (1e3 + 0.1, 0.35)] + [
            (complex(rng.uniform(-1, 1), rng.uniform(-h, h)),
             complex(rng.uniform(-1, 1), rng.uniform(-h, h))) for _ in range(3)
        ]
        for x, y in points:
            got = sorted(belavin_r(n, d, ctx, x, y).terms.items())
            want = sorted(belavin_reference(n, d, ctx, x, y).terms.items())
            assert repr(got) == repr(want), (x, y)

    def test_overflow_of_a_dropped_term_is_seen(self):
        """At this point the sine of the last series term is finite but that
        of an earlier dropped term overflows, so the full series takes the
        quasi-periodicity path; theta1 must take it too."""
        ctx = ThetaContext(tau=0.05j, terms=4500)
        z = complex(-0.8256144841552209, 0.025138381494675864)
        assert len(_theta_table(ctx)[1]) < ctx.terms
        cmath.sin((2 * ctx.terms - 1) * math.pi * z)
        with pytest.raises(OverflowError):
            theta1_series_reference(z, ctx)
        assert repr(theta1(z, ctx)) == repr(theta1_reference(z, ctx))

    def test_terms_past_underflow_cost_nothing(self):
        """At tau = 0.05i the coefficients underflow to 0.0 near n = 70, so
        4500 requested terms leave a short table, and the CLI document is
        the reference's."""
        from conftest import invoke

        ctx = ThetaContext(tau=0.05j, terms=4500)
        assert len(_theta_table(ctx)[1]) < 100
        res = invoke(["elliptic", "3", "1", "--tau", "0.05i", "--terms", "4500", "--x=0",
                      "--y=0.003"])
        assert res.exit_code == 0, res.output
        want = [[list(key), [c.real, c.imag]]
                for key, c in sorted(belavin_reference(3, 1, ctx, 0.0, 0.003).terms.items())]
        got = [[[t[a] for a in "ijkl"], t["coeff"]] for t in json.loads(res.stdout)["terms"]]
        assert repr(got) == repr(want)


class TestTheta:
    def test_odd_theta_vanishes_at_zero(self):
        assert abs(theta1(0, CTX)) == 0

    def test_parity(self, rng):
        for _ in range(5):
            z = complex(rng.uniform(-1, 1), rng.uniform(-0.4, 0.4))
            assert abs(theta1(-z, CTX) + theta1(z, CTX)) < THETA_TOL
            assert abs(theta3(-z, CTX) - theta3(z, CTX)) < THETA_TOL

    def test_half_shift_relation(self, rng):
        for ctx in (CTX, CTX_I):
            for _ in range(10):
                z = complex(rng.uniform(-1, 1), rng.uniform(-0.3, 0.3))
                assert theta_half_shift_identity_residual(z, ctx) < 1e-12

    def test_deriv_against_finite_difference(self):
        h = 1e-6
        fd = (theta1(h, CTX) - theta1(-h, CTX)) / (2 * h)
        assert abs(theta1_deriv0(CTX) - fd) < 1e-8

    def test_deriv_deterministic_and_nonzero(self):
        assert theta1_deriv0(CTX_I) == theta1_deriv0(CTX_I)
        assert abs(theta1_deriv0(CTX_I)) > 0

    def test_bad_modulus_rejected(self):
        with pytest.raises(ValueError):
            ThetaContext(tau=0.5 - 0.1j)

    @pytest.mark.parametrize("tau", [complex(0, math.nan), complex(math.nan, 1),
                                     complex(0, math.inf), complex(-math.inf, 1)])
    def test_non_finite_modulus_rejected(self, tau):
        """NaN compares False with every bound, so it is refused by name."""
        with pytest.raises(ValueError, match="finite") as info:
            ThetaContext(tau=tau)
        assert "\n" not in str(info.value)

    def test_float_terms_rejected(self):
        """60.0 == 60, so a float count would read the tables of the int."""
        with pytest.raises(ValueError, match="integer"):
            ThetaContext(tau=1j, terms=60.0)

    def test_equal_contexts_share_tables(self):
        """A context is the cache key of its theta tables: equal contexts
        hash alike and read one table, another truncation reads its own."""
        a, b = ThetaContext(tau=0.3 + 1j), ThetaContext(0.3 + 1j, 60)
        assert a is not b and a == b and hash(a) == hash(b)
        assert _theta_table(a) is _theta_table(b)
        assert _lattice_thetas(3, 1, a) is _lattice_thetas(3, 1, b)
        c = ThetaContext(0.3 + 1j, 61)
        assert c != a and _theta_table(c) is not _theta_table(a)

    @pytest.mark.parametrize("terms", [0, -5])
    def test_nonpositive_terms_rejected(self, terms):
        with pytest.raises(ValueError, match="at least 1"):
            ThetaContext(tau=1j, terms=terms)

    @pytest.mark.parametrize("tau,terms", [(5j, 60), (1j, 1000)])
    def test_overflowing_series_rejected(self, tau, terms):
        with pytest.raises(ValueError, match="overflow"):
            ThetaContext(tau=tau, terms=terms)

    def test_truncation_bound_covers_im_z(self):
        """theta1 is summed at |Im z| up to 1.5 Im(tau), where the first
        dropped term grows by e^((2N+1) pi 1.5 Im(tau)): at tau = 0.0027i it
        is 1.5e-13, although q^(N(N+1)) alone reads 3.3e-14 < tol/10."""
        with pytest.raises(ValueError, match="truncation"):
            ThetaContext(tau=0.0027j)
        ThetaContext(tau=0.003j)

    @pytest.mark.parametrize("m", [1, 2])
    def test_quasi_periodic_beyond_overflow(self, m):
        """Where the series overflows, theta1 sums it at z - m tau instead:
        theta1(z + m tau) = (-1)^m q^(-m^2) exp(-2 pi i m z) theta1(z)
        (DLMF 20.2.9)."""
        ctx = ThetaContext(tau=0.1 + 2j)
        z = 0.3 + 0.2j
        want = (-1) ** m * ctx.q ** (-m * m) * cmath.exp(-2j * cmath.pi * m * z) * theta1(z, ctx)
        assert abs(theta1(z + m * ctx.tau, ctx) - want) < 1e-12 * abs(want)


class TestKernel:
    def test_simple_pole_normalization(self):
        u = 0.37 + 0.21j
        val = 1e-4 * kronecker_sigma(u, 1e-4, CTX_I)
        assert abs(val - 1) < 1e-3

    def test_symmetry(self):
        u, z = 0.37 + 0.21j, 0.3
        assert abs(kronecker_sigma(u, z, CTX) - kronecker_sigma(z, u, CTX)) < 1e-12

    def test_periodicity(self):
        u = 0.37 + 0.21j
        a = kronecker_sigma(u, 0.33 + 1, CTX)
        b = kronecker_sigma(u, 0.33, CTX)
        assert abs(a - b) < 1e-10

    def test_series_cross_check_in_strip(self):
        u = 0.37 + 0.21j
        z = 0.15 - 0.2j
        assert abs(kronecker_sigma_series(u, z, CTX) - kronecker_sigma(u, z, CTX)) < 1e-10

    def test_pole_guard(self):
        with pytest.raises(PoleProximityError):
            kronecker_sigma(0.0, 0.3, CTX)


    def test_theta1_of_v_summed_once(self, monkeypatch):
        """belavin_r sums theta1(v) once, for the pole check, and hands it to
        every kernel call; theta1(u) at the n^2 - 1 lattice points is read
        from a table kept per (n, d, context).  The first call at a context
        fills the table, then sums theta1(v) and the n^2 - 1 theta1(u + v);
        a second call sums only the latter."""
        from ybe_forge import elliptic

        calls = []

        def counting(z, ctx):
            calls.append(z)
            return real(z, ctx)

        real = elliptic.theta1
        monkeypatch.setattr(elliptic, "theta1", counting)
        elliptic._lattice_thetas.cache_clear()
        n = 3
        elliptic.belavin_r(n, 1, CTX, 0.1, 0.35 + 0.2j)
        assert len(calls) == (n * n - 1) + 1 + (n * n - 1)
        del calls[:]
        elliptic.belavin_r(n, 1, CTX, 0.2, 0.45 - 0.1j)
        assert len(calls) == 1 + (n * n - 1)

    def test_given_theta_of_z_is_used(self):
        u, z = 0.37 + 0.21j, 0.3
        from ybe_forge.elliptic import theta1

        assert kronecker_sigma(u, z, CTX, tz=theta1(z, CTX)) == kronecker_sigma(u, z, CTX)


class TestBelavin:
    def test_sign_convention_resolved(self):
        assert v_sign_convention() == "y-x"

    def test_sign_convention_derivation(self):
        """Of the candidates v = y - x and v = x - y, exactly one satisfies the
        CYBE and the pole normalization (residue +Casimir in y - x), and it
        is the fixed convention v = y - x."""
        x1, x2, x3 = (0.11, 0.27, 0.40)
        radius = 1e-4
        passing = []
        for sign in (+1, -1):
            # belavin_r uses v = y - x; swapping its points gives v = x - y
            def r(x, y):
                return belavin_r(3, 1, CTX, x, y) if sign > 0 else belavin_r(3, 1, CTX, y, x)

            if cybe_lhs(r(x1, x2), r(x1, x3), r(x2, x3)).norm() >= 1e-9:
                continue
            fitted = r(0.0, radius).scale(radius).add(r(0.0, -radius).scale(-radius)).scale(0.5)
            if fitted.sub(casimir(3).to_complex()).norm() >= 1e-5:
                continue
            passing.append(sign)
        assert passing == [+1]

    @pytest.mark.parametrize("n,d", [(2, 1), (3, 1), (3, 2)] + [
        (n, d) for n in range(4, 7) for d in range(1, n) if gcd(n, d) == 1
    ])
    @pytest.mark.parametrize("tau", [1j, 0.3 + 1j, 2j])
    def test_cybe_unitarity_residue(self, n, d, tau):
        ctx = ThetaContext(tau=tau)
        assert belavin_cybe_residual(n, d, ctx, (0.11, 0.27, 0.40)) < 1e-9
        assert belavin_unitarity_residual(n, d, ctx, 0.13, 0.29) < 1e-9
        assert belavin_residue_fit(n, d, ctx) < 1e-5

    @pytest.mark.parametrize("n,d", [(2, 1), (3, 1), (3, 2)])
    def test_dual_family_is_casimir(self, n, d):
        assert _dual_sum(heisenberg(n, d)) == casimir(n)

    def test_lattice_point_rejected(self):
        with pytest.raises(PoleProximityError):
            belavin_r(2, 1, CTX, 0.1, 0.1)

    @pytest.mark.parametrize("n,d", [(2, 1), (3, 1), (3, 2), (5, 2)])
    @pytest.mark.parametrize("v", [0.2 + 0.7j, 0.1 - 0.8j, 0.3 + 1.2j, 1.7 + 0.2j, -2.6 + 1.2j])
    def test_reduction_matches_direct_sum(self, n, d, v):
        """The reduced (k, l) and v give the unreduced Belavin sum, evaluated
        here term by term."""
        hb = heisenberg(n, d)
        direct = dense_tensor_from_pairs(n, [
            (*z_matrices(hb, k, l),
             cmath.exp(-2j * cmath.pi * d * k * v / n)
             * kronecker_sigma((d / n) * (l - k * CTX.tau), v, CTX))
            for (k, l) in hb.index_set
        ], ring=COMPLEX)
        got = belavin_r(n, d, CTX, 0.05, 0.05 + v)
        assert got.sub(direct).norm() < 1e-12 * direct.norm()

    @pytest.mark.parametrize("n,d", [(2, 1), (3, 1), (3, 2), (5, 2)])
    @pytest.mark.parametrize("ctx", [CTX, CTX_I], ids=["tau=0.3+i", "tau=i"])
    @pytest.mark.parametrize("x,y", [
        (0.1, 0.2), (0.0, 0.5 + 0.5j), (0.5, 0.0), (0.25, -0.2 - 0.45j), (-0.1, 0.3 - 0.5j),
    ])
    def test_fundamental_domain_unreduced(self, n, d, ctx, x, y):
        """With |Re(y - x)| <= 1/2 and |Im(y - x)| <= Im tau / 2 neither
        period is subtracted: the tensor is the bare formula bit for bit."""
        hb = heisenberg(n, d)
        v = complex(y) - complex(x)
        pairs = []
        for (k, l) in hb.index_set:
            r, s = d * k % n, d * l % n
            coeff = cmath.exp(-TWO_PI_I * r * v / n) * kronecker_sigma(
                (1 / n) * (s - r * ctx.tau), v, ctx)
            pairs.append((*z_matrices(hb, k, l), coeff))
        assert belavin_r(n, d, ctx, x, y).terms == dense_tensor_from_pairs(n, pairs, ring=COMPLEX).terms

    @pytest.mark.parametrize("ctx", [CTX, CTX_I], ids=["tau=0.3+i", "tau=i"])
    def test_large_real_difference(self, ctx):
        """Re(y - x) is reduced by the real period 1 as well: far from the
        fundamental domain the residuals stay at rounding level."""
        assert belavin_unitarity_residual(2, 1, ctx, 1e12 + 0.1, 0.2) < 1e-9
        pts = (-1e12 + 0.125, 0.25, 1e12 + 0.375)  # differences exact in binary
        assert belavin_cybe_residual(3, 1, ctx, pts) < 1e-9
        assert belavin_cybe_residual(5, 2, ctx, pts) < 1e-9

    @pytest.mark.parametrize("shift", [10**6, 10**15], ids=["1e6", "1e15"])
    @pytest.mark.parametrize("n,d", [(2, 1), (4, 3), (5, 2)])
    @pytest.mark.parametrize("ctx", [CTX, CTX_I], ids=["tau=0.3+i", "tau=i"])
    def test_far_point_keeps_tolerance(self, ctx, n, d, shift):
        """Moving x by a multiple of n, a real period of every coefficient,
        leaves r unchanged within tol: each point's real part is reduced on
        its own, before the float y - x can round the fraction away (at
        x = 1e6 + 0.25 + 0.1i it once drifted by 3e-10 relative)."""
        x, y = 0.25 + 0.1j, 0.3
        want = belavin_r(n, d, ctx, x, y)
        got = belavin_r(n, d, ctx, x + shift, y)
        assert got.sub(want).norm() <= THETA_TOL * want.norm()

    @pytest.mark.parametrize("k, refused", [(100, False), (400, False), (460, True)])
    def test_far_imaginary_point_is_refused(self, k, refused):
        """An imaginary shift by m tau rounds by about an ulp of |m tau|: an
        accepted one keeps tol, one that may not is refused."""
        n, d, x, y = 5, 2, 0.25 + 0.1j, 0.3
        want = belavin_r(n, d, CTX, x, y)
        moved = x + n * k * CTX.tau
        if refused:
            with pytest.raises(ValueError, match="too far from the real axis"):
                belavin_r(n, d, CTX, moved, y)
        else:
            assert belavin_r(n, d, CTX, moved, y).sub(want).norm() <= THETA_TOL * want.norm()

    @pytest.mark.parametrize("n,d", [
        (n, d) for n in range(2, 8) for d in range(1, n) if gcd(n, d) == 1][:12])
    def test_invariant_under_tau_plus_n(self, n, d):
        """r(tau + n) = r(tau), each side summed by the reference series at
        its own modulus, and belavin_r leaves |Re tau| = n/2 unreduced."""
        x, y = 0.11, 0.37 + 0.1j
        base = belavin_r(n, d, CTX, x, y)
        for shift in (n, -n, 2 * n):
            moved = belavin_reference(n, d, ThetaContext(CTX.tau + shift), x, y)
            assert moved.sub(base).norm() <= 1e-14 * base.norm()
        for re_tau in (-n / 2, n / 2):
            ctx = ThetaContext(complex(re_tau, 1))
            assert repr(belavin_r(n, d, ctx, x, y)) == repr(belavin_reference(n, d, ctx, x, y))

    @pytest.mark.parametrize("re_tau", [1e4, -1e4, 1e15, -1e15, 1e300])
    def test_large_real_tau_reduced(self, re_tau):
        """Far from the real period the float phase of q and of the lattice
        points would decay (CYBE 14 at Re tau = 1e15); Re tau is reduced mod
        n exactly, so the residuals stay at rounding level."""
        ctx = ThetaContext(complex(re_tau, 1))
        for n, d in ((2, 1), (3, 1), (5, 2)):
            reduced = ThetaContext(complex(math.remainder(re_tau, n), 1))
            assert belavin_r(n, d, ctx, 0.13, 0.41).terms == belavin_r(
                n, d, reduced, 0.13, 0.41).terms
            assert belavin_cybe_residual(n, d, ctx, (0.11, 0.27, 0.40)) < 1e-12
            assert belavin_unitarity_residual(n, d, ctx, 0.13, 0.29) < 1e-12

    def test_non_finite_difference_rejected(self):
        with pytest.raises(ValueError, match="not finite"):
            belavin_r(2, 1, CTX_I, 1e308, -1e308)

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            belavin_r(4, 2, CTX, 0.1, 0.2)

    def test_truncation_stability(self):
        c60 = ThetaContext(tau=0.3 + 1j, terms=60)
        c120 = ThetaContext(tau=0.3 + 1j, terms=120)
        drift = belavin_r(2, 1, c60, 0.1, 0.2).sub(belavin_r(2, 1, c120, 0.1, 0.2)).norm()
        assert drift < 1e-12

    def test_nondegenerate_away_from_poles(self):
        from test_lie import nondegenerate

        assert nondegenerate(belavin_r(3, 1, CTX, 0.13, 0.37))


class TestZoo:
    def test_rational_exact(self):
        res = cybe_residual_difference(zoo_stolin_rat, F(1, 3), F(1, 5))
        assert res.is_zero()

    def test_rational_unitary_in_difference_form(self):
        r = zoo_stolin_rat(F(2, 7))
        r_neg = zoo_stolin_rat(F(-2, 7))
        assert r_neg == swap_tensor(r).scale(-1)

    def test_rational_pole(self):
        with pytest.raises(ZeroDivisionError):
            zoo_stolin_rat(F(0))

    def test_cherednik(self):
        res = cybe_residual_difference(zoo_cherednik, 0.2, 0.3).norm()
        assert res < 1e-9

    def test_cherednik_pole_guard(self):
        with pytest.raises(PoleProximityError):
            zoo_cherednik(0.0)

    def test_baxter(self):
        ctx = ThetaContext(tau=1.1j)
        rng = random.Random(5)
        for _ in range(3):
            x = rng.uniform(0.1, 0.5)
            y = rng.uniform(0.1, 0.5)
            res = cybe_residual_difference(lambda z: zoo_baxter(z, ctx), x, y).norm()
            assert res < 1e-8

    def test_jacobi_identity_sn2_cn2(self):
        ctx = ThetaContext(tau=1.1j)
        sn, cn, dn = jacobi_sn_cn_dn(0.23, ctx)
        assert abs(sn * sn + cn * cn - 1) < 1e-12
