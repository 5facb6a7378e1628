"""Rational r-matrices from Frobenius parabolic data.

One route assembles the solution from the block decomposition equations
("dec" solves) attached to a cocycle matrix K on the parabolic subalgebra;
the other realizes the same solution through a Lagrangian subalgebra of the
loop algebra and its dual basis series.  The two routes are verified against
each other and against the geometric pipeline.  A `stolin` request needs
only J (`jmat`), not the geometric pipeline.  The closed formula for d = 1
and the Yang order, which only `verify` compares with, live in `verify`.

A cocycle matrix K is n row tuples of ints or Fractions, used as given: +J
is `jmat.build_j(e, d)` and -J `neg_j_matrix`, in J's integers, and a K
file gives Fractions; n is len(K).  Equal values hash alike: one
`solve_dec` entry.  The split e + d enters as `jmat.twist`, the z-degree of
eta^-1 e_ij eta: p_e is spanned by the labels of twist >= 0, the nilpotent
block is twist 1, and the order is twisted by eta = diag(1_e, z 1_d).  An
order for k_max + 1 series terms spans the degrees -(k_max + 3) .. 1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache

from .exact import (
    LinearAlgebraError,
    ZERO,
    det,
    rat,
    solve_multi,
)
from .jmat import G_ELEMENTS_CACHE_MAX, _check_coprime, build_j, twist
from .lie import (
    GlTensor2,
    TensorTable,
    apply_gauge,
    basis_terms,
    dual_terms,
    sl_basis,
    tensor_from_pairs,
    tensor_table,
    transpose_negate_map,
)


class DegenerateFormError(RuntimeError):
    """The cocycle matrix does not define a Frobenius pairing on the parabolic."""


class TruncationError(RuntimeError):
    """A dual element of an order has no solution inside its degree window."""


def parabolic_labels(e: int, n: int) -> tuple:
    """Ordered basis labels of the parabolic p_e: Cartan elements first, then
    the units outside the lower-left block."""
    if not 1 <= e <= n - 1:
        raise ValueError("parabolic index out of range: e=%d for n=%d" % (e, n))
    return tuple(
        lbl for lbl in sl_basis(n)
        if lbl[0] == "cartan" or twist(lbl[1], lbl[2], e) >= 0
    )


class FrobeniusForm:
    """Gram matrix of omega_K on the parabolic p_e, with its determinant."""

    __slots__ = ("labels", "rows", "determinant")

    def __init__(self, labels: tuple, rows: tuple, determinant: Fraction):
        self.labels = labels
        self.rows = rows  # the Gram rows as {column: nonzero entry} dicts
        self.determinant = determinant


def _k_nonzeros(K) -> tuple:
    """The nonzero entries of K as (rows, columns): rows[i - 1] lists the
    (j, entry) of row i and columns[j - 1] the (i, entry) of column j,
    1-based and in ascending order.  A K that is not square raises
    ValueError."""
    if any(len(row) != len(K) for row in K):
        raise ValueError("K must be square, got rows of lengths %s" % [len(row) for row in K])
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


def frobenius_gram(K, e: int) -> FrobeniusForm:
    """Gram matrix of (a, b) |-> tr(K^t [a, b]) on the parabolic basis of
    sl(n), n = len(K).

    Uses tr(K^t [a, b]) = tr([K^t, a] b): entry (r, c) of [K^t, a] pairs
    with e_{c,r}, and a diagonal entry (l, l) with h_l (+) and h_(l-1) (-),
    so each Gram row is filled from the nonzero entries of its bracket; an
    integer K gives integer rows.  A degenerate K is a valid query and is
    reported, not raised.
    """
    n = len(K)
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
                row[p] = row.get(p, 0) + v
            if r > 1:
                p = index["cartan", r - 1]
                row[p] = row.get(p, 0) - v
        rows.append({p: v for p, v in row.items() if v})
    rows = tuple(rows)
    return FrobeniusForm(labels, rows, det(rows, len(labels)))


def neg_j_matrix(e: int, d: int) -> tuple:
    """The cocycle matrix -J_(e,d), in J's integers."""
    return tuple(tuple(-v for v in row) for row in build_j(e, d))


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
    degenerate.

    Row (i - 1) n + j - 1 of the system holds entry (i, j) of the
    coordinate matrices, [K^t, b] for the labels b of p_e and e_ab for the
    positions (a, b) of the upper-right block, as {column: nonzero entry}."""
    n = len(K)
    labels = parabolic_labels(e, n)
    nil_pos = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if twist(i, j, e) == 1]
    kn = _k_nonzeros(K)
    rows: list = [{} for _ in range(n * n)]
    for p, lbl in enumerate(labels):
        for (i, j), v in _bracket_kt_terms(kn, lbl).items():
            rows[(i - 1) * n + j - 1][p] = v
    for q, (i, j) in enumerate(nil_pos, len(labels)):
        rows[(i - 1) * n + j - 1][q] = 1
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

    def __init__(self, n: int, parts: dict):
        self.n = n
        self.parts = parts  # (label, k) -> {m: {(i, j): coefficient}}

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

    Units of twist -1 (the lower-left block) get zero; Cartan labels and
    units of twist 0 get a single order-0 element; units of twist 1 get
    order-0 and order-1 elements.  Each
    is the unique Frobenius splitting (P, N) of a target against K^t: w is P
    with its upper-right block replaced by -N, plus z times that block of P.
    All of them come from one batched solve, which raises DegenerateFormError
    for a degenerate omega_K and verifies every solution by exact
    re-substitution.  Targets and parts are built from the nonzero
    entries only.  A K that is not (e + d) x (e + d) raises ValueError.
    """
    _check_coprime(e, d)
    n = e + d
    if len(K) != n or any(len(row) != n for row in K):
        raise ValueError("K must be %d x %d for (e, d) = (%d, %d)" % (n, n, e, d))
    kn = _k_nonzeros(K)
    targets: dict = {}  # (label, order) -> splitting target
    for label in sl_basis(n):
        if label[0] == "cartan":  # the trace dual of h_l's dual-Cartan: h_l itself
            targets[label, 0] = basis_terms(label, n)
            continue
        _, i, j = label
        t = twist(i, j, e)
        dual = {(j, i): 1}
        if t == 1:
            # order 0 splits -[K^t, e_{j,i}]; order 1 splits e_{j,i}
            bracket = _bracket_kt_terms(kn, ("unit", j, i))
            targets[label, 0] = {key: -v for key, v in bracket.items()}
            targets[label, 1] = dual
        elif t == 0:
            targets[label, 0] = dual
    parts = {}
    for key, (P, N) in zip(targets, frobenius_splits(list(targets.values()), K, e)):
        split: dict = {0: {ij: -v for ij, v in N.items()}, 1: {}}
        for (i, j), v in P.items():  # P lies in p_e: twist 0 or 1 is its z-degree
            split[twist(i, j, e)][i, j] = v
        if w := {m: terms for m, terms in split.items() if terms}:  # a zero target splits to 0
            parts[key] = w
    return WElementSet(n, parts)


def assemble_stolin_r(e: int, d: int, K: tuple, x, y) -> GlTensor2:
    """c/(y-x) + sum e_{i,j} (x) w_{(i,j;0)}(y) + sum dual-Cartan (x) w_{(l;0)}(y)
    + x sum e_{i,j} (x) w_{(i,j;1)}(y), read off the table of `solve_dec`.
    K is a tuple of int or Fraction row tuples, used with no copy.
    `TensorTable.at` refuses x == y."""
    return solve_dec(e, d, K).table.at(rat(x), rat(y))


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

def _eta_shift(e: int, parts) -> dict:
    """The sum of eta^{-1} (z^base M) eta over the (M, base) in `parts`, each
    M given as {(i, j): nonzero entry}, for eta = diag(1_e, z 1_d): diagonal
    blocks keep the degree, the upper-right block gains one, the lower-left
    loses one.  The sum comes as {degree: {(i, j): nonzero entry}}, with no
    empty degree."""
    out: dict = {}
    for terms, base_degree in parts:
        for (i, j), v in terms.items():
            m = out.setdefault(base_degree + twist(i, j, e), {})
            m[i, j] = m.get((i, j), 0) + v
    out = {k: {ij: v for ij, v in m.items() if v} for k, m in out.items()}
    return {k: m for k, m in out.items() if m}


class OrderBasis:
    """Truncated basis of a Lagrangian subalgebra complementary to g[z]:
    `elements` are exact Laurent polynomials of degrees -(k_max + 3) .. 1,
    each as {degree: {(i, j): nonzero z^degree coefficient}}, 1-based."""

    __slots__ = ("n", "k_max", "elements")

    def __init__(self, n: int, k_max: int, elements: tuple):
        self.n = n
        self.k_max = k_max
        self.elements = elements


def build_order(K, e: int, k_max: int) -> OrderBasis:
    """Basis of the eta-conjugated subalgebra W of sl(n), n = len(K), within
    the window [-(k_max + 3), 1].

    Spanning set: the twisted span of alpha + z^{-1}[K^t, alpha] over the
    sl(n) basis, plus the twisted deep-tail z^{-m} monomials whose
    conjugates fit inside the window.
    """
    if k_max < 0:
        raise ValueError("need k_max >= 0, got %d" % k_max)
    lo = -(k_max + 3)
    frobenius_splits([], K, e)  # DegenerateFormError unless omega_K is nondegenerate
    n = len(K)
    kn = _k_nonzeros(K)
    alphas = {lbl: basis_terms(lbl, n) for lbl in sl_basis(n)}
    elements = [_eta_shift(e, [(alpha, 0), (_bracket_kt_terms(kn, lbl), -1)])
                for lbl, alpha in alphas.items()]
    for m_deg in range(2, -lo + 2):
        for alpha in alphas.values():
            # a basis matrix lies in one block, so its conjugate has one
            # degree: the window holds all of it or none
            w = _eta_shift(e, [(alpha, -m_deg)])
            if min(w) >= lo:
                elements.append(w)
    return OrderBasis(n, k_max, tuple(elements))


class SeriesResult:
    """Truncated dual-basis series of an order: the evaluated partial sum and
    the polynomial parts of the dual elements."""

    __slots__ = ("tensor", "parts")

    def __init__(self, tensor: GlTensor2, parts: dict):
        self.tensor = tensor
        self.parts = parts  # (label, k) -> {m: {(i, j): coefficient}}, as `WElementSet`


def series_r(order: OrderBasis, x, y) -> SeriesResult:
    """Partial sum over k <= order.k_max of x^k sum_l alpha_l (x) beta_{l,k}(y).

    The dual element beta_{l,k} is found inside the truncated span as the
    unique combination equal to z^{-k-1} alpha_l-dual plus a polynomial; the
    negative window degrees pin it down and the complementarity of the order
    with g[z] makes it unique.
    """
    x, y = rat(x), rat(y)
    if y == 0:
        raise ValueError("need y != 0 for the pole part")
    n, k_max = order.n, order.k_max
    lo = -(k_max + 3)  # the dual of z^k needs tail depth k + 2 inside the window
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
    return SeriesResult(tensor_from_pairs(n, terms), parts)
