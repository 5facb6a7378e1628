"""Rational r-matrices from Frobenius parabolic data.

One route assembles the solution from the block decomposition equations
("dec" solves) attached to a cocycle matrix K on the parabolic subalgebra;
the other realizes the same solution through a Lagrangian subalgebra of the
loop algebra and its dual basis series.  The two routes are verified against
each other and against the geometric pipeline.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd

from .cuspidal import G_ELEMENTS_CACHE_MAX, NonCoprimeError, build_j, region
from .exact import (
    LinearAlgebraError,
    ONE,
    ZERO,
    det,
    freeze,
    rat,
    solve_multi,
)
from .lie import (
    GlTensor2,
    TensorTable,
    apply_gauge,
    basis_terms,
    casimir,
    dual_terms,
    sl_basis,
    tensor_from_pairs,
    tensor_table,
    transpose_negate_map,
)


class DegenerateFormError(RuntimeError):
    """The cocycle matrix does not define a Frobenius pairing on the parabolic."""


class TruncationError(RuntimeError):
    """A truncated Laurent window is too small to certify the requested value."""


def parabolic_labels(e: int, n: int) -> tuple:
    """Ordered basis labels of the parabolic p_e: Cartan elements first, then
    the units outside the lower-left block."""
    if not 1 <= e <= n - 1:
        raise ValueError("parabolic index out of range: e=%d for n=%d" % (e, n))
    return tuple(
        lbl for lbl in sl_basis(n)
        if lbl[0] == "cartan" or region(lbl[1], lbl[2], e, n) != "III"
    )


class FrobeniusForm:
    """Gram matrix of omega_K on the parabolic p_e, with its determinant."""

    __slots__ = ("K", "e", "n", "labels", "rows", "determinant")

    def __init__(self, K: tuple, e: int, n: int, labels: tuple, rows: tuple,
                 determinant: Fraction):
        self.K = K
        self.e = e
        self.n = n
        self.labels = labels
        self.rows = rows  # the Gram rows as {column: nonzero entry} dicts
        self.determinant = determinant

    @property
    def gram(self) -> tuple:
        """The Gram matrix as a dense nested tuple."""
        cols = range(len(self.labels))
        return tuple(tuple(row.get(c, ZERO) for c in cols) for row in self.rows)


def _k_nonzeros(K) -> tuple:
    """The nonzero entries of K as (rows, columns): rows[i - 1] lists the
    (j, entry) of row i and columns[j - 1] the (i, entry) of column j,
    1-based and in ascending order."""
    rows = tuple(tuple((c, v) for c, v in enumerate(row, 1) if v) for row in K)
    cols: list = [[] for _ in K]
    for r, row in enumerate(rows, 1):
        for c, v in row:
            cols[c - 1].append((r, v))
    return rows, tuple(map(tuple, cols))


def _bracket_kt_terms(kn, lbl) -> dict:
    """[K^t, B] for a basis label B as {(i, j): nonzero entry}, 1-based,
    from the nonzeros `kn` of K (`_k_nonzeros`)."""
    rows, cols = kn
    out: dict = {}

    def add(key, v):
        out[key] = out[key] + v if key in out else v

    for (i, j), sign in basis_terms(lbl, len(rows)).items():
        # [K^t, e_{i,j}]: column j receives row i of K, row i loses column j
        for r, v in rows[i - 1]:
            add((r, j), v if sign > 0 else -v)
        for c, v in cols[j - 1]:
            add((i, c), -v if sign > 0 else v)
    return {key: v for key, v in out.items() if v}


def frobenius_gram(K, e: int, n: int) -> FrobeniusForm:
    """Gram matrix of (a, b) |-> tr(K^t [a, b]) on the parabolic basis.

    Uses tr(K^t [a, b]) = tr([K^t, a] b): entry (r, c) of [K^t, a] pairs
    with e_{c,r}, and a diagonal entry (l, l) with h_l (+) and h_(l-1) (-),
    so each Gram row is filled from the nonzero entries of its bracket.
    A degenerate K is a valid query and is reported, not raised.
    """
    K = freeze(K)
    kn = _k_nonzeros(K)
    labels = parabolic_labels(e, n)
    index = {lbl: p for p, lbl in enumerate(labels)}
    rows = []
    for lbl in labels:
        row: dict = {}
        for (r, c), v in _bracket_kt_terms(kn, lbl).items():
            if r != c:
                p = index.get(("unit", c, r))
                if p is not None:  # no Gram column for e_{c,r} outside p_e
                    row[p] = v
                continue
            if r < n:
                p = index["cartan", r]
                row[p] = row.get(p, ZERO) + v
            if r > 1:
                p = index["cartan", r - 1]
                row[p] = row.get(p, ZERO) - v
        rows.append({p: v for p, v in row.items() if v})
    rows = tuple(rows)
    return FrobeniusForm(K, e, n, labels, rows, det(rows, len(labels)))


def rational_k_matrix(K) -> tuple:
    return tuple(tuple(rat(v) for v in row) for row in K)


def neg_j_matrix(e: int, d: int) -> tuple:
    return tuple(tuple(-rat(v) for v in row) for row in build_j(e, d).matrix)


def j_matrix_rat(e: int, d: int) -> tuple:
    return tuple(tuple(rat(v) for v in row) for row in build_j(e, d).matrix)


def _split_solver(K: tuple, e: int, n: int):
    """Coordinates for G = [K^t, P] + N with P in p_e, N in the upper-right
    nilpotent block: returns (labels, nilpotent positions, matrix rows).
    Row i n + j holds entry (i, j) of the coordinate matrices, as a
    {column: nonzero entry} dict."""
    labels = parabolic_labels(e, n)
    nil_pos = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if region(i, j, e, n) == "I"
    ]
    kn = _k_nonzeros(K)
    rows: list = [{} for _ in range(n * n)]
    for p, lbl in enumerate(labels):
        for (i, j), v in _bracket_kt_terms(kn, lbl).items():
            rows[(i - 1) * n + j - 1][p] = v
    for q, (i, j) in enumerate(nil_pos, len(labels)):
        rows[(i - 1) * n + j - 1][q] = 1
    return labels, tuple(nil_pos), rows


def frobenius_split(G: dict, K, e: int) -> tuple[dict, dict]:
    """The unique (P, N) with G = [K^t, P] + N, P in p_e and N in the
    upper-right block, all three as {(i, j): nonzero entry}.  Exists and is
    unique exactly when omega_K is non-degenerate on p_e."""
    return frobenius_splits([G], K, e)[0]


def frobenius_splits(targets, K, e: int) -> list[tuple[dict, dict]]:
    """The splits (P, N) of every G in sl(n) in `targets` from one
    elimination; G, P and N are {(i, j): nonzero entry}, 1-based, and P and
    N are read off the nonzero coordinates.

    The elimination decides degeneracy: (P, N) |-> [K^t, P] + N maps p_e plus
    the upper-right block into sl(n), of the same dimension n^2 - 1.  Its
    kernel is the radical of omega_K on p_e, since tr([K^t, P] b) = 0 for all
    b in p_e iff [K^t, P] lies in p_e^perp in sl(n), the upper-right block.
    So the solve fails, raising DegenerateFormError, exactly when omega_K is
    degenerate."""
    K = freeze(K)
    n = len(K)
    labels, nil_pos, rows = _split_solver(K, e, n)
    rhs = [{(i - 1) * n + j - 1: v for (i, j), v in G.items()} for G in targets]
    try:
        sols = solve_multi(rows, rhs, len(labels) + len(nil_pos))
    except LinearAlgebraError as exc:
        raise DegenerateFormError("omega_K is degenerate on p_%d" % e) from exc
    out = []
    for coeffs, den in sols:
        P: dict = {}  # (i, j) -> numerator over den
        N = {}
        for c, a in coeffs.items():
            if c < len(labels):
                for ij, sign in basis_terms(labels[c], n).items():
                    P[ij] = P.get(ij, 0) + (a if sign > 0 else -a)
            else:
                N[nil_pos[c - len(labels)]] = Fraction(a, den)
        out.append(({ij: Fraction(a, den) for ij, a in P.items() if a}, N))
    return out


class WElementSet:
    """The degree <= 1 current-algebra elements w_{(label; k)} of the dec
    solves, each as its parts {m: {(i, j): nonzero z^m coefficient}},
    1-based, with no empty part.  Only the nonzero elements are stored: the
    lower-left block labels vanish identically, and order 1 vanishes outside
    the upper-right block."""

    def __init__(self, e: int, d: int, K: tuple, parts: dict):
        self.e = e
        self.d = d
        self.K = K
        self.parts = parts  # (label, k) -> {m: {(i, j): coefficient}}

    @property
    def n(self) -> int:
        return self.e + self.d

    @cached_property
    def table(self) -> TensorTable:
        """r(x, y) for every x and y, built on first use.  Each w has degree
        <= 1 in z, so r = c/(y-x) + A + y B + x C + x y D: A and B are the
        z^0 and z^1 parts of sum first(b) (x) w_(b;0), C and D those of
        sum first(b) (x) w_(b;1), first(b) e_{i,j} for a unit b = e_{i,j}
        and the dual-Cartan element of h_l for b = h_l."""
        n = self.n
        pairs = []
        for (label, k), parts in self.parts.items():
            first = basis_terms(label, n) if label[0] == "unit" else dual_terms(label, n)
            pairs += [(first, second, (0, k, m)) for m, second in parts.items()]
        return tensor_table(n, pairs)


@lru_cache(maxsize=G_ELEMENTS_CACHE_MAX)
def solve_dec(e: int, d: int, K: tuple) -> WElementSet:
    """Solve the block decomposition equations for every basis label.

    Region III labels get zero; region II/IV and Cartan labels get a single
    order-0 element; region I labels get order-0 and order-1 elements.  Each
    is the unique Frobenius splitting (P, N) of a target against K^t: w is P
    with its upper-right block replaced by -N, plus z times that block of P.
    All of them come from one batched solve, which raises DegenerateFormError
    for a degenerate omega_K and verifies every solution by exact
    re-substitution.  Targets and parts are built from the nonzero
    entries only.
    """
    if gcd(e, d) != 1:
        raise NonCoprimeError("need coprime (e, d), got (%d, %d)" % (e, d))
    n = e + d
    K = freeze(K)
    kn = _k_nonzeros(K)
    targets: dict = {}  # (label, order) -> splitting target
    for label in sl_basis(n):
        if label[0] == "cartan":  # the trace dual of h_l's dual-Cartan: h_l itself
            targets[label, 0] = basis_terms(label, n)
            continue
        _, i, j = label
        reg = region(i, j, e, n)
        dual = {(j, i): 1}
        if reg == "I":
            # order 0 splits -[K^t, e_{j,i}]; order 1 splits e_{j,i}
            bracket = _bracket_kt_terms(kn, ("unit", j, i))
            targets[label, 0] = {key: -v for key, v in bracket.items()}
            targets[label, 1] = dual
        elif reg != "III":
            targets[label, 0] = dual
    parts = {}
    for key, (P, N) in zip(targets, frobenius_splits(list(targets.values()), K, e)):
        split: dict = {0: {ij: -v for ij, v in N.items()}, 1: {}}
        for (i, j), v in P.items():  # region I is i <= e < j
            split[1 if i <= e < j else 0][i, j] = v
        if w := {m: terms for m, terms in split.items() if terms}:  # a zero target splits to 0
            parts[key] = w
    return WElementSet(e, d, K, parts)


def assemble_stolin_r(e: int, d: int, K, x, y) -> GlTensor2:
    """c/(y-x) + sum e_{i,j} (x) w_{(i,j;0)}(y) + sum dual-Cartan (x) w_{(l;0)}(y)
    + x sum e_{i,j} (x) w_{(i,j;1)}(y), read off the table of `solve_dec`."""
    x, y = rat(x), rat(y)
    if x == y:
        raise ValueError("need x != y")
    return solve_dec(e, d, _normal_k(K)).table.at(x, y)


class _NormalK(tuple):
    """A cocycle matrix after `rational_k_matrix` and `freeze`, as the
    `solve_dec` cache key: it hashes its n^2 Fractions once."""

    def __hash__(self):
        h = self.__dict__.get("hash")
        if h is None:
            h = self.__dict__["hash"] = tuple.__hash__(self)
        return h


# The last K object that `_normal_k` normalised, with its normal form.  Only
# a tuple of tuples is kept: it cannot change, so a caller that evaluates
# many points at one K normalises and hashes it once, not at every point.
_last_k: tuple = (None, None)


def _normal_k(K) -> _NormalK:
    global _last_k
    if K is _last_k[0]:
        return _last_k[1]
    normal = _NormalK(freeze(rational_k_matrix(K)))
    if type(K) is tuple and all(type(row) is tuple for row in K):
        _last_k = (K, normal)
    return normal


def closed_form_d1(n: int) -> TensorTable:
    """Direct transcription of the closed formula for the pair (n-1, 1), as
    the table of r(x, y).

    A frequently quoted short n=2 variant ends in h (x) e_{2,1}; that reading
    is not unitary and matches neither construction route, so the last factor
    here is h (x) e_{1,2} as the general-n form dictates.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    X, Y, C = (0, 1, 0), (0, 0, 1), (0, 0, 0)
    pairs = []  # (first, second, monomial), each factor {(i, j): entry}

    def unit(i, j, v=ONE):
        return {(i, j): v}

    def hdual(l):
        return dual_terms(("cartan", l), n)

    def chain(j):
        # sum over k of e_{j+k-1, k+1}, the shifted lower chains
        return {(j + k - 1, k + 1): ONE for k in range(1, n - j + 2)}

    def chain2(j):
        # sum over k of e_{j+k, k+1}
        return {(j + k, k + 1): ONE for k in range(1, n - j + 1)}

    # x [ e_{1,2} (x) h1-dual - sum_{j>=3} e_{1,j} (x) chain(j) ]
    pairs.append((unit(1, 2), hdual(1), X))
    for j in range(3, n + 1):
        pairs.append((unit(1, j, -ONE), chain(j), X))
    # -y [ h1-dual (x) e_{1,2} - sum_{j>=3} chain(j) (x) e_{1,j} ]
    pairs.append((hdual(1), unit(1, 2, -ONE), Y))
    for j in range(3, n + 1):
        pairs.append((chain(j), unit(1, j), Y))
    # constant blocks
    for j in range(2, n):
        pairs.append((unit(1, j), chain2(j), C))
    for i in range(2, n):
        pairs.append((unit(i, i + 1), hdual(i), C))
    for j in range(2, n):
        pairs.append((chain2(j), unit(1, j, -ONE), C))
    for i in range(2, n):
        pairs.append((hdual(i), unit(i, i + 1, -ONE), C))
    for i in range(2, n - 1):
        for k in range(2, n - i + 1):
            m = {(i + k + l - 1, l + i): ONE for l in range(1, n - i - k + 2)}
            pairs.append((m, unit(i, i + k), C))
            pairs.append((unit(i, i + k), {ij: -v for ij, v in m.items()}, C))
    return tensor_table(n, pairs)


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
# Lagrangian subalgebra attached to (g, e, omega_K) and its dual-basis series
# ---------------------------------------------------------------------------

def _eta_shift(e: int, n: int, parts) -> dict:
    """The sum of eta^{-1} (z^base M) eta over the (M, base) in `parts`, each
    M given as {(i, j): nonzero entry}, for eta = diag(1_e, z 1_d): diagonal
    blocks keep the degree, the upper-right block gains one, the lower-left
    loses one.  The sum comes as {degree: {(i, j): nonzero entry}}, with no
    empty degree."""
    out: dict = {}
    for terms, base_degree in parts:
        for (i, j), v in terms.items():
            reg = region(i, j, e, n)
            k = base_degree + (1 if reg == "I" else -1 if reg == "III" else 0)
            m = out.setdefault(k, {})
            m[i, j] = m.get((i, j), 0) + v
    out = {k: {ij: v for ij, v in m.items() if v} for k, m in out.items()}
    return {k: m for k, m in out.items() if m}


class OrderBasis:
    """Truncated basis of a Lagrangian subalgebra complementary to g[z]:
    `elements` are exact Laurent polynomials supported inside the window,
    each as {degree: {(i, j): nonzero z^degree coefficient}}, 1-based."""

    __slots__ = ("n", "window", "elements")

    def __init__(self, n: int, window: tuple[int, int], elements: tuple):
        self.n = n
        self.window = window
        self.elements = elements


def build_order(K, e: int, n: int, window: tuple[int, int] = (-3, 1)) -> OrderBasis:
    """Basis of the eta-conjugated subalgebra W within a degree window.

    Spanning set: the twisted span of alpha + z^{-1}[K^t, alpha] over the
    sl(n) basis, plus the twisted deep-tail z^{-m} monomials whose
    conjugates fit inside the window.
    """
    lo, hi = window
    if lo > -3 or hi < 1:
        raise TruncationError("window must contain [-3, 1], got %r" % (window,))
    K = freeze(rational_k_matrix(K))
    frobenius_splits([], K, e)  # DegenerateFormError unless omega_K is nondegenerate
    kn = _k_nonzeros(K)
    alphas = {lbl: basis_terms(lbl, n) for lbl in sl_basis(n)}
    elements = [_eta_shift(e, n, [(alpha, 0), (_bracket_kt_terms(kn, lbl), -1)])
                for lbl, alpha in alphas.items()]
    for m_deg in range(2, -lo + 2):
        for alpha in alphas.values():
            # a basis matrix lies in one block, so its conjugate has one
            # degree: the window holds all of it or none
            w = _eta_shift(e, n, [(alpha, -m_deg)])
            if min(w) >= lo:
                elements.append(w)
    return OrderBasis(n, window, tuple(elements))


def yang_order(n: int, window: tuple[int, int] = (-3, 1)) -> OrderBasis:
    """The order z^{-1} g[[z^{-1}]] truncated to the window: the fixture whose
    series reproduces the pure Casimir pole."""
    elements = [{-m_deg: basis_terms(lbl, n)}
                for m_deg in range(1, -window[0] + 1) for lbl in sl_basis(n)]
    return OrderBasis(n, window, tuple(elements))


class SeriesResult:
    """Truncated dual-basis series of an order: the evaluated partial sum and
    the polynomial parts of the dual elements."""

    __slots__ = ("n", "tensor", "parts")

    def __init__(self, n: int, tensor: GlTensor2, parts: dict):
        self.n = n
        self.tensor = tensor
        self.parts = parts  # (label, k) -> {m: {(i, j): coefficient}}, as `WElementSet`


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
    pairs = {}  # label -> (first-slot element, its trace dual)
    for lbl in labels:
        basis, dual = basis_terms(lbl, n), dual_terms(lbl, n)
        # (e_{i,j}, e_{j,i}), or (the dual-Cartan of h_l, h_l)
        pairs[lbl] = (basis, dual) if lbl[0] == "unit" else (dual, basis)
    # rows: all (negative degree, matrix position) coordinates of the
    # window, row (deg - lo) n^2 + (i - 1) n + j - 1; column p is element p
    rows: list = [{} for _ in range(-lo * n * n)]
    poly_terms = []  # per element, its (degree, (i, j), entry) in degrees 0, 1
    for p, w in enumerate(order.elements):
        own = []
        for deg, m in w.items():
            for (i, j), v in m.items():
                if lo <= deg < 0:
                    rows[((deg - lo) * n + i - 1) * n + j - 1][p] = v
                elif deg <= 1:
                    own.append((deg, (i, j), v))
        poly_terms.append(own)
    rhs_cols = []
    wanted = []
    for k in range(k_max + 1):
        base = (-k - 1 - lo) * n * n
        for lbl in labels:
            rhs_cols.append({base + (i - 1) * n + j - 1: v for (i, j), v in pairs[lbl][1].items()})
            wanted.append((lbl, k))
    try:
        sols = solve_multi(rows, rhs_cols, len(order.elements))
    except LinearAlgebraError as exc:
        raise TruncationError("dual element not solvable in window") from exc

    parts = {}
    terms = []
    for key, (coeffs, den) in zip(wanted, sols):
        acc: dict = {}  # m -> {(i, j): z^m coefficient times den}
        for p, a in coeffs.items():
            for deg, ij, v in poly_terms[p]:
                slot = acc.setdefault(deg, {})
                slot[ij] = slot.get(ij, ZERO) + a * v
        w: dict = {}
        for m, slot in acc.items():
            for ij, v in slot.items():
                if v:
                    w.setdefault(m, {})[ij] = v / den
        parts[key] = w
    for k in range(k_max + 1):
        xk = x**k
        pole_coeff = xk * y ** (-k - 1)
        for lbl in labels:
            first, dual = pairs[lbl]
            terms.append((first.items(), dual.items(), pole_coeff))
            value: dict = {}  # w_(lbl;k)(y)
            for m, coeffs in parts[lbl, k].items():
                for ij, v in coeffs.items():
                    value[ij] = value.get(ij, ZERO) + v * y**m
            terms.append((first.items(), value.items(), xk))
    return SeriesResult(n, tensor_from_pairs(n, terms), parts)


def geometric_pole_partial(n: int, k_max: int, x, y) -> GlTensor2:
    """The first k_max + 1 terms of the geometric expansion of c/(y-x)."""
    x, y = rat(x), rat(y)
    coeff = sum((x**k * y ** (-k - 1) for k in range(k_max + 1)), ZERO)
    return casimir(n).scale(coeff)
