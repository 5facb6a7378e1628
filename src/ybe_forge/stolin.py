"""Rational r-matrices from Frobenius parabolic data.

One route assembles the solution from the block decomposition equations
("dec" solves) attached to a cocycle matrix K on the parabolic subalgebra;
the other realizes the same solution through a Lagrangian subalgebra of the
loop algebra and its dual basis series.  The two routes are verified against
each other and against the geometric pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .cuspidal import NonCoprimeError, build_j, region
from .exact import (
    LinearAlgebraError,
    MatrixPoly,
    ONE,
    ZERO,
    det,
    eval_matrix_poly,
    freeze,
    mat_add,
    mat_bracket,
    mat_is_zero,
    mat_neg,
    mat_scale,
    mat_unit,
    mat_zero,
    matrix_poly_from_coeffs,
    rat,
    solve_multi,
)
from .lie import (
    GlTensor2,
    apply_gauge,
    basis_matrix,
    cartan_dual,
    casimir,
    dual_matrix,
    sl_basis,
    tensor_from_pairs,
    trace_form,
    transpose_negate_map,
)


class DegenerateFormError(RuntimeError):
    """The cocycle matrix does not define a Frobenius pairing on the parabolic."""


class TruncationError(RuntimeError):
    """A truncated Laurent window is too small to certify the requested value."""


@dataclass(frozen=True)
class StolinTriple:
    """Rational-solution datum (subalgebra, parabolic index e, cocycle K).

    Only triples whose subalgebra is the whole of sl(n) are implemented;
    general subalgebras are rejected at construction (their classification
    contains a representation-wild subproblem and has no canonical normal
    form to compute with)."""

    n: int
    e: int
    K: tuple
    subalgebra: str = "full"

    def __post_init__(self):
        if self.subalgebra != "full":
            raise NotImplementedError(
                "only triples over the full algebra are supported; general "
                "subalgebras are out of scope"
            )
        if not 0 < self.e < self.n:
            raise ValueError("parabolic index out of range")
        if gcd(self.n, self.e) != 1:
            raise NonCoprimeError(
                "the Frobenius route needs gcd(n, e) = 1, got (%d, %d)"
                % (self.n, self.e)
            )
        object.__setattr__(self, "K", freeze(rational_k_matrix(self.K)))

    @property
    def d(self) -> int:
        return self.n - self.e

    def form(self) -> "FrobeniusForm":
        return frobenius_gram(self.K, self.e, self.n)

    def solution(self, x, y):
        return assemble_stolin_r(self.e, self.d, self.K, x, y)


def parabolic_labels(e: int, n: int) -> tuple:
    """Ordered basis labels of the parabolic p_e: Cartan elements first, then
    the units outside the lower-left block."""
    if not 1 <= e <= n - 1:
        raise ValueError("parabolic index out of range: e=%d for n=%d" % (e, n))
    labels = [("cartan", l) for l in range(1, n)]
    labels += [
        ("unit", i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j and region(i, j, e, n) != "III"
    ]
    return tuple(labels)


def parabolic_basis(e: int, n: int) -> tuple:
    return tuple(basis_matrix(lbl, n) for lbl in parabolic_labels(e, n))


def omega_pairing(K, a, b) -> Fraction:
    """omega_K(a, b) = tr(K^t [a, b])."""
    br = mat_bracket(a, b)
    n = len(K)
    return sum(K[i][j] * br[i][j] for i in range(n) for j in range(n))


@dataclass(frozen=True)
class FrobeniusForm:
    """Gram matrix of omega_K on the parabolic p_e, with its determinant."""

    K: tuple
    e: int
    n: int
    labels: tuple
    gram: tuple
    determinant: Fraction

    @property
    def nondegenerate(self) -> bool:
        return self.determinant != 0


def _label_units(lbl) -> tuple:
    """basis_matrix(lbl) as (i, j, sign) terms sign * e_{i,j}: a unit, or
    h_l = e_{l,l} - e_{l+1,l+1}."""
    if lbl[0] == "unit":
        return ((lbl[1], lbl[2], ONE),)
    l = lbl[1]
    return ((l, l, ONE), (l + 1, l + 1, -ONE))


def _bracket_kt_label(K, lbl, n):
    """[K^t, B] for a basis label B, exploiting the sparsity of both: the
    result is returned as a dense row-list built from O(n) updates."""
    out = [[ZERO] * n for _ in range(n)]

    def add_unit_bracket(i, j, scale):
        # [K^t, e_{i,j}]: column j receives K[i-1][:], row i loses K[:][j-1]
        for r in range(n):
            v = K[i - 1][r]
            if v:
                out[r][j - 1] += scale * v
        for c in range(n):
            v = K[c][j - 1]
            if v:
                out[i - 1][c] -= scale * v

    for i, j, sign in _label_units(lbl):
        add_unit_bracket(i, j, sign)
    return out


def frobenius_gram(K, e: int, n: int) -> FrobeniusForm:
    """Gram matrix of (a, b) |-> tr(K^t [a, b]) on the parabolic basis.

    Uses tr(K^t [a, b]) = tr([K^t, a] b) with sparse basis elements.
    A degenerate K is a valid query and is reported, not raised.
    """
    K = freeze(K)
    labels = parabolic_labels(e, n)
    brackets = [_bracket_kt_label(K, lbl, n) for lbl in labels]

    def pair(C, lbl):
        if lbl[0] == "unit":
            _, k, l = lbl
            return C[l - 1][k - 1]
        l = lbl[1]
        return C[l - 1][l - 1] - C[l][l]

    gram = tuple(
        tuple(pair(C, lbl_b) for lbl_b in labels) for C in brackets
    )
    return FrobeniusForm(K, e, n, labels, gram, det(gram))


def rational_k_matrix(K) -> tuple:
    return tuple(tuple(rat(v) for v in row) for row in K)


def neg_j_matrix(e: int, d: int) -> tuple:
    return tuple(tuple(-rat(v) for v in row) for row in build_j(e, d).matrix)


def j_matrix_rat(e: int, d: int) -> tuple:
    return tuple(tuple(rat(v) for v in row) for row in build_j(e, d).matrix)


@lru_cache(maxsize=None)
def _split_solver(K: tuple, e: int, n: int):
    """Coordinates for G = [K^t, P] + N with P in p_e, N in the upper-right
    nilpotent block: returns (labels, nilpotent positions, matrix rows)."""
    labels = parabolic_labels(e, n)
    cols = [_bracket_kt_label(K, lbl, n) for lbl in labels]
    nil_pos = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if region(i, j, e, n) == "I"
    ]
    for (i, j) in nil_pos:
        cols.append(mat_unit(n, i, j))
    rows = [
        [c[i][j] for c in cols] for i in range(n) for j in range(n)
    ]
    return labels, tuple(nil_pos), rows


def frobenius_split(G, K, e: int) -> tuple[tuple, tuple]:
    """The unique (P, N) with G = [K^t, P] + N, P in p_e and N in the
    upper-right block.  Exists and is unique exactly when omega_K is
    non-degenerate on p_e."""
    return frobenius_splits([G], K, e)[0]


def frobenius_splits(Gs, K, e: int) -> list[tuple[tuple, tuple]]:
    """`frobenius_split` of every G in sl(n) in `Gs`, from one elimination.

    The elimination decides degeneracy: (P, N) |-> [K^t, P] + N maps p_e plus
    the upper-right block into sl(n), of the same dimension n^2 - 1.  Its
    kernel is the radical of omega_K on p_e, since tr([K^t, P] b) = 0 for all
    b in p_e iff [K^t, P] lies in p_e^perp in sl(n), the upper-right block.
    So the solve fails, raising DegenerateFormError, exactly when omega_K is
    degenerate."""
    n = len(Gs[0])
    K = freeze(K)
    labels, nil_pos, rows = _split_solver(K, e, n)
    rhs = [[G[i][j] for i in range(n) for j in range(n)] for G in Gs]
    try:
        sols = solve_multi(rows, rhs)
    except LinearAlgebraError as exc:
        raise DegenerateFormError("omega_K is degenerate on p_%d" % e) from exc
    out = []
    for coeffs in sols:
        P = [[ZERO] * n for _ in range(n)]
        for c, lbl in zip(coeffs, labels):
            if c != 0:
                for i, j, sign in _label_units(lbl):
                    P[i - 1][j - 1] += sign * c
        N = [[ZERO] * n for _ in range(n)]
        for c, (i, j) in zip(coeffs[len(labels):], nil_pos):
            N[i - 1][j - 1] = c
        out.append((freeze(P), freeze(N)))
    return out


@dataclass(frozen=True)
class WElementSet:
    """The degree <= 1 current-algebra elements w_{(label; k)} assembled from
    the dec solves, including the prescribed zeros (lower-left block labels
    vanish identically; order 1 vanishes outside the upper-right block)."""

    e: int
    d: int
    K: tuple
    elements: dict  # (label, k) -> MatrixPoly

    @property
    def n(self) -> int:
        return self.e + self.d

    def w(self, label, k: int) -> MatrixPoly:
        return self.elements[(label, k)]


def _dual_pair(label, n: int) -> tuple:
    """(first-slot element, its trace dual) for an sl(n) basis label:
    (e_{i,j}, e_{j,i}), or (the dual-Cartan of h_l, h_l)."""
    pair = (basis_matrix(label, n), dual_matrix(label, n))
    return pair if label[0] == "unit" else pair[::-1]


@lru_cache(maxsize=None)
def solve_dec(e: int, d: int, K: tuple) -> WElementSet:
    """Solve the block decomposition equations for every basis label.

    Region III labels get zero; region II/IV and Cartan labels get a single
    order-0 element; region I labels get order-0 and order-1 elements.  Each
    is the unique Frobenius splitting (P, N) of a target against K^t: w is P
    with its upper-right block replaced by -N, plus z times that block of P.
    All of them come from one batched solve, which raises DegenerateFormError
    for a degenerate omega_K and verifies every solution by exact
    re-substitution.
    """
    if gcd(e, d) != 1:
        raise NonCoprimeError("need coprime (e, d), got (%d, %d)" % (e, d))
    n = e + d
    K = freeze(K)
    targets: dict = {}  # (label, order) -> splitting target
    for label in sl_basis(n):
        reg = region(label[1], label[2], e, n) if label[0] == "unit" else "cartan"
        dual = _dual_pair(label, n)[1]
        if reg == "I":
            # order 0 splits -[K^t, e_{j,i}]; order 1 splits e_{j,i}
            targets[(label, 0)] = mat_neg(_bracket_kt_label(K, ("unit", label[2], label[1]), n))
            targets[(label, 1)] = dual
        elif reg != "III":
            targets[(label, 0)] = dual
    zero_poly = matrix_poly_from_coeffs([mat_zero(n)])
    elements = dict.fromkeys(((lbl, k) for lbl in sl_basis(n) for k in (0, 1)), zero_poly)
    for key, (P, N) in zip(targets, frobenius_splits(list(targets.values()), K, e)):
        const = [list(row) for row in P]
        lin = [[ZERO] * n for _ in range(n)]
        for i in range(e):
            for j in range(e, n):
                const[i][j], lin[i][j] = -N[i][j], P[i][j]
        elements[key] = matrix_poly_from_coeffs([const, lin])
    return WElementSet(e, d, K, elements)


def assemble_stolin_r(e: int, d: int, K, x, y) -> GlTensor2:
    """c/(y-x) + sum e_{i,j} (x) w_{(i,j;0)}(y) + sum dual-Cartan (x) w_{(l;0)}(y)
    + x sum e_{i,j} (x) w_{(i,j;1)}(y)."""
    x, y = rat(x), rat(y)
    if x == y:
        raise ValueError("need x != y")
    n = e + d
    K = freeze(rational_k_matrix(K))
    ws = solve_dec(e, d, K)
    pairs = []
    for label in sl_basis(n):
        first = _dual_pair(label, n)[0]
        w0 = eval_matrix_poly(ws.w(label, 0), y)
        if not mat_is_zero(w0):
            pairs.append((first, w0, ONE))
        w1 = eval_matrix_poly(ws.w(label, 1), y)
        if not mat_is_zero(w1):
            pairs.append((first, w1, x))
    tail = tensor_from_pairs(n, pairs)
    return casimir(n).scale(ONE / (y - x)).add(tail)


def closed_form_d1(n: int, x, y) -> GlTensor2:
    """Direct transcription of the closed formula for the pair (n-1, 1).

    A frequently quoted short n=2 variant ends in h (x) e_{2,1}; that reading
    is not unitary and matches neither construction route, so the last factor
    here is h (x) e_{1,2} as the general-n form dictates.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    x, y = rat(x), rat(y)
    terms = []  # (first, second, coeff)

    def unit(i, j):
        return mat_unit(n, i, j)

    def hdual(l):
        return cartan_dual(l, n)

    def chain(j):
        # sum over k of e_{j+k-1, k+1}, the shifted lower chains
        m = mat_zero(n)
        for k in range(1, n - j + 2):
            m = mat_add(m, unit(j + k - 1, k + 1))
        return m

    def chain2(j):
        # sum over k of e_{j+k, k+1}
        m = mat_zero(n)
        for k in range(1, n - j + 1):
            m = mat_add(m, unit(j + k, k + 1))
        return m

    # x [ e_{1,2} (x) h1-dual - sum_{j>=3} e_{1,j} (x) chain(j) ]
    terms.append((unit(1, 2), hdual(1), x))
    for j in range(3, n + 1):
        terms.append((unit(1, j), chain(j), -x))
    # -y [ h1-dual (x) e_{1,2} - sum_{j>=3} chain(j) (x) e_{1,j} ]
    terms.append((hdual(1), unit(1, 2), -y))
    for j in range(3, n + 1):
        terms.append((chain(j), unit(1, j), y))
    # constant blocks
    for j in range(2, n):
        terms.append((unit(1, j), chain2(j), ONE))
    for i in range(2, n):
        terms.append((unit(i, i + 1), hdual(i), ONE))
    for j in range(2, n):
        terms.append((chain2(j), unit(1, j), -ONE))
    for i in range(2, n):
        terms.append((hdual(i), unit(i, i + 1), -ONE))
    for i in range(2, n - 1):
        for k in range(2, n - i + 1):
            m = mat_zero(n)
            for l in range(1, n - i - k + 2):
                m = mat_add(m, unit(i + k + l - 1, l + i))
            terms.append((m, unit(i, i + k), ONE))
            terms.append((unit(i, i + k), m, -ONE))

    tail = tensor_from_pairs(n, terms)
    return casimir(n).scale(ONE / (y - x)).add(tail)


def compare_pipelines(e: int, d: int, x, y) -> bool:
    """Exact equality of the transpose-negation image of the geometric tensor
    with the parabolic assembly at cocycle matrix -J_(e,d)."""
    from .cuspidal import assemble_r

    n = e + d
    phi = transpose_negate_map(n)
    lhs = apply_gauge(phi, phi, assemble_r(e, d, x, y))
    rhs = assemble_stolin_r(e, d, neg_j_matrix(e, d), x, y)
    return lhs == rhs


# ---------------------------------------------------------------------------
# truncated Laurent series with gl(n) coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LaurentMatrixSeries:
    """gl(n)-valued Laurent polynomial/series on an explicit degree window.

    Coefficients above `hi` are zero by contract.  If `exact_below` is False
    the element is a truncation: degrees below `lo` are unknown rather than
    zero, and pairings must certify they cannot contribute.
    """

    n: int
    lo: int
    hi: int
    coeffs: dict  # degree -> matrix
    exact_below: bool = True

    def __post_init__(self):
        for k in self.coeffs:
            if not self.lo <= k <= self.hi:
                raise ValueError("coefficient degree %d outside window" % k)

    def coeff(self, k: int):
        m = self.coeffs.get(k)
        return m if m is not None else mat_zero(self.n)


def laurent_from_coeffs(n, entries: dict, lo: int, hi: int, exact_below=True) -> LaurentMatrixSeries:
    clean = {k: freeze(m) for k, m in entries.items() if not mat_is_zero(m)}
    return LaurentMatrixSeries(n, lo, hi, clean, exact_below)


def kac_pairing(a: LaurentMatrixSeries, b: LaurentMatrixSeries) -> Fraction:
    """Residue at z = 0 of tr(a b): the degree -1 coefficient of the product.

    Raises TruncationError when an unknown (truncated) region of either
    factor could pair against a potentially nonzero coefficient of the other.
    """
    if a.n != b.n:
        raise ValueError("size mismatch")
    if not a.exact_below and -1 - a.lo >= b.lo:
        raise TruncationError("left factor truncated below degree %d" % a.lo)
    if not b.exact_below and -1 - b.lo >= a.lo:
        raise TruncationError("right factor truncated below degree %d" % b.lo)
    total = ZERO
    for p, mp in a.coeffs.items():
        mq = b.coeffs.get(-1 - p)
        if mq is not None:
            total += trace_form(mp, mq)
    return total


def poly_current(n, mats: dict) -> LaurentMatrixSeries:
    """Element of g[z] given by {degree: matrix}; exact everywhere."""
    hi = max(mats, default=0)
    return laurent_from_coeffs(n, mats, min(0, min(mats, default=0)), max(hi, 0))


# ---------------------------------------------------------------------------
# Lagrangian subalgebra attached to (g, e, omega_K) and its dual-basis series
# ---------------------------------------------------------------------------

def _eta_shift(e: int, n: int, M, base_degree: int) -> dict:
    """Degrees of eta^{-1} (z^base M) eta for eta = diag(1_e, z 1_d):
    diagonal blocks keep the degree, the upper-right block gains one, the
    lower-left loses one."""
    out: dict = {}
    for i in range(n):
        for j in range(n):
            v = M[i][j]
            if v == 0:
                continue
            reg = region(i + 1, j + 1, e, n)
            k = base_degree + (1 if reg == "I" else -1 if reg == "III" else 0)
            m = out.setdefault(k, [[ZERO] * n for _ in range(n)])
            m[i][j] = v
    return {k: freeze(m) for k, m in out.items()}


@dataclass(frozen=True)
class OrderBasis:
    """Truncated basis of a Lagrangian subalgebra complementary to g[z].

    `elements` are exact Laurent polynomials supported inside the window;
    `clipped` are the window projections of deeper tail members, marked as
    truncated, and are used only for spanning checks.
    """

    n: int
    window: tuple[int, int]
    elements: tuple
    clipped: tuple
    provenance: str


def _clip_entries(entries: dict, lo: int, hi: int):
    kept = {k: m for k, m in entries.items() if lo <= k <= hi}
    clipped_away = any(k < lo for k in entries)
    return kept, clipped_away


def build_order(K, e: int, n: int, window: tuple[int, int] = (-3, 1)) -> OrderBasis:
    """Basis of the eta-conjugated subalgebra W within a degree window.

    Spanning set: the twisted span of alpha + z^{-1}[K^t, alpha] over the
    sl(n) basis, plus the twisted deep-tail z^{-m} monomials.  Tails whose
    conjugates fit inside the window are exact; the two deepest layers that
    still touch the window enter as truncated projections.
    """
    lo, hi = window
    if lo > -3 or hi < 1:
        raise TruncationError("window must contain [-3, 1], got %r" % (window,))
    K = freeze(rational_k_matrix(K))
    form = frobenius_gram(K, e, n)
    if not form.nondegenerate:
        raise DegenerateFormError("omega_K is degenerate on p_%d" % e)
    Kt = tuple(zip(*K))
    elements = []
    for lbl in sl_basis(n):
        alpha = basis_matrix(lbl, n)
        chi = mat_bracket(Kt, alpha)
        entries: dict = {}
        for k, m in _eta_shift(e, n, alpha, 0).items():
            entries[k] = m
        for k, m in _eta_shift(e, n, chi, -1).items():
            cur = entries.get(k)
            entries[k] = mat_add(cur, m) if cur is not None else m
        elements.append(laurent_from_coeffs(n, entries, lo, hi))
    clipped = []
    for m_deg in range(2, -lo + 2):
        for lbl in sl_basis(n):
            alpha = basis_matrix(lbl, n)
            entries = _eta_shift(e, n, alpha, -m_deg)
            kept, cut = _clip_entries(entries, lo, hi)
            if not kept:
                continue
            series = laurent_from_coeffs(n, kept, lo, hi, exact_below=not cut)
            (clipped if cut else elements).append(series)
    return OrderBasis(n, window, tuple(elements), tuple(clipped), "parabolic e=%d" % e)


def yang_order(n: int, window: tuple[int, int] = (-3, 1)) -> OrderBasis:
    """The order z^{-1} g[[z^{-1}]] truncated to the window: the fixture whose
    series reproduces the pure Casimir pole."""
    lo, hi = window
    elements = []
    for m_deg in range(1, -lo + 1):
        for lbl in sl_basis(n):
            alpha = basis_matrix(lbl, n)
            elements.append(laurent_from_coeffs(n, {-m_deg: alpha}, lo, hi))
    return OrderBasis(n, window, tuple(elements), (), "yang")


@dataclass(frozen=True)
class SeriesResult:
    """Truncated dual-basis series of an order: the evaluated partial sum and
    the polynomial parts of the dual elements."""

    n: int
    k_max: int
    tensor: GlTensor2
    poly_parts: dict  # (label, k) -> MatrixPoly


def series_r(order: OrderBasis, k_max: int, x, y) -> SeriesResult:
    """Partial sum over k <= k_max of x^k sum_l alpha_l (x) beta_{l,k}(y).

    The dual element beta_{l,k} is found inside the truncated span as the
    unique combination equal to z^{-k-1} alpha_l-dual plus a polynomial; the
    negative window degrees pin it down and the complementarity of the order
    with g[z] makes it unique.
    """
    x, y = rat(x), rat(y)
    if y == 0:
        raise ValueError("need y != 0 for the pole part")
    n = order.n
    lo, hi = order.window
    if lo > -(k_max + 3):
        # the dual of z^k needs tail depth k + 2 inside the window
        raise TruncationError(
            "window %r too small for k_max=%d" % (order.window, k_max)
        )
    labels = sl_basis(n)
    # rows: all (negative degree, matrix position) coordinates of the window
    neg_degs = list(range(lo, 0))
    rows = []
    for deg in neg_degs:
        for i in range(n):
            for j in range(n):
                rows.append([w.coeff(deg)[i][j] for w in order.elements])
    rhs_cols = []
    wanted = []
    for k in range(k_max + 1):
        for lbl in labels:
            dual = _dual_pair(lbl, n)[1]
            col = []
            for deg in neg_degs:
                for i in range(n):
                    for j in range(n):
                        col.append(dual[i][j] if deg == -k - 1 else ZERO)
            rhs_cols.append(col)
            wanted.append((lbl, k))
    try:
        sols = solve_multi(rows, rhs_cols)
    except Exception as exc:
        raise TruncationError("dual element not solvable in window") from exc

    poly_parts = {}
    terms = []
    for (lbl, k), coeffs in zip(wanted, sols):
        poly_mats = [mat_zero(n), mat_zero(n)]
        for c, w in zip(coeffs, order.elements):
            if c == 0:
                continue
            for deg in (0, 1):
                m = w.coeffs.get(deg)
                if m is not None:
                    poly_mats[deg] = mat_add(poly_mats[deg], mat_scale(c, m))
        poly_parts[(lbl, k)] = matrix_poly_from_coeffs(poly_mats)
    for k in range(k_max + 1):
        xk = x**k
        pole_coeff = xk * y ** (-k - 1)
        for lbl in labels:
            first, dual = _dual_pair(lbl, n)
            terms.append((first, dual, pole_coeff))
            wpoly = eval_matrix_poly(poly_parts[(lbl, k)], y)
            if not mat_is_zero(wpoly):
                terms.append((first, wpoly, xk))
    return SeriesResult(n, k_max, tensor_from_pairs(n, terms), poly_parts)


def geometric_pole_partial(n: int, k_max: int, x, y) -> GlTensor2:
    """The first k_max + 1 terms of the geometric expansion of c/(y-x)."""
    x, y = rat(x), rat(y)
    coeff = sum((x**k * y ** (-k - 1) for k in range(k_max + 1)), ZERO)
    return casimir(n).scale(coeff)
