"""The exact route of `verify`, which its `rational` and `stolin` suites
load and no CLI request does: the CYBE and unitarity proof of a table
(`_proof`), the gauges and transports that it, `psi_transport` and the Gram
determinants use (`flip_transpose_gauge` is twisted by J's support
colouring, `j_support_coloring`), and the fixtures of the exact checks.
"""

from __future__ import annotations

from fractions import Fraction

from . import cuspidal, jmat, stolin
from .cybe import cybe_lhs_sum
from .exact import ONE, kernel
from .lie import RATIONAL, GlTensor2, is_unitary_pair, signed_permutation_map
from .table import POLE, TensorTable, basis_terms, casimir, dual_terms, sl_basis, tensor_table

# --- exact identities on the tables r = c/(y-x) + sum x^a y^b T_ab ---------
#
# `table.tensor_table` holds each T_ab as integer numerators over one
# denominator; the monomial (0, a, b) is x^a y^b and `table.POLE` is 1/(y-x).
# Its tables are canonical, and `_gauge_table` keeps them so: two tables
# are the same r(x, y) iff they are ==.

# the polynomial monomials a table may hold, as T00, T10, T01, T11
_TAIL = ((0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1))
# the position in _TAIL of each monomial's swap x^b y^a
_SWAP = (0, 2, 1, 3)
# the cuspidal ansatz c/(y-x) + A + xB + yC has no x y part
_CUSPIDAL_TAIL = _TAIL[:3]


def _columns(table: TensorTable) -> dict:
    """monomial -> {key: nonzero numerator} over `table.den`."""
    out: dict = {m: {} for m in table.monomials}
    for key, row in table.terms.items():
        for c, v in row:
            out[table.monomials[c]][key] = v
    return out


def _gauge_table(phi: dict, table: TensorTable) -> TensorTable:
    """The table of (phi (x) phi) r(x, y) for a gauge phi of the table's n:
    a signed permutation of the keys, so a canonical table stays
    canonical."""
    terms = {}
    for (i, j, k, l), row in table.terms.items():
        a, b, s = phi[i, j]
        p, q, t = phi[k, l]
        terms[a, b, p, q] = row if s == t else tuple((c, -v) for c, v in row)
    return TensorTable(table.n, table.monomials, table.den, terms)


def _broken_premise(table: TensorTable, tail) -> str | None:
    """The first premise of `cybe_polynomial` that the table breaks, or
    None: its pole part is casimir(n), its other monomials are in `tail`,
    and T_ab = -swap(T_ba), which is unitarity r(y, x) = -swap(r(x, y))
    at every x and y."""
    extra = set(table.monomials) - {POLE, *tail}
    if extra:
        return "monomials %s outside the ansatz" % sorted(extra)
    cols = _columns(table)
    if cols.get(POLE) != {k: v * table.den for k, v in casimir(table.n).terms.items()}:
        return "pole part is not the Casimir"
    parts = [cols.get(m, {}) for m in _TAIL]
    for q, part in enumerate(parts):
        swapped = parts[_SWAP[q]]
        if len(part) != len(swapped) or any(
            swapped.get((k, l, i, j)) != -v for (i, j, k, l), v in part.items()
        ):
            return "T_ab != -swap(T_ba)"
    return None


def cybe_polynomial(table: TensorTable, x1, x2, x3) -> dict:
    """den^2 Q(x1, x2, x3) as {six indices: nonzero value}, summed in one
    `cybe_lhs_sum` (the last bracket as -[(T01 + x1 T11)_12, c23]), where

        Q = CYBE(p) + [c12, (T10 + x3 T11)_23] + [c13, (T01 + x2 T11)_23]
            + [c23, (T01 + x1 T11)_12]

    for the table's polynomial part p = sum x^a y^b T_ab and its pole part
    c, in the conventions of `lie.cybe_lhs` (r12 = r(x1, x2), ...).

    Lemma: if c = casimir(n), a, b <= 1 and T_ab = -swap(T_ba), then
    CYBE(r) = Q at every triple of distinct points.  The c c terms cancel
    as for c/(y-x) alone.  Each c p term uses [c12, X_1 + X_2] = 0 for X in
    gl(n) (c is invariant) to move p's factor out of the pole's slots, and
    then its pole divides a difference of p: u12 [c12, p13 + p23] is
    [c12, (p(x2, x3) - p(x1, x3))_23] / (x2 - x1); u13 [p12, c13] +
    u13 [c13, p23] is [c13, (p(x2, x3) - p(x2, x1))_23] / (x3 - x1) once
    unitarity turns swap(p(x1, x2)) into -p(x2, x1); and u23 [p12 + p13,
    c23] is [c23, (p(x1, x3) - p(x1, x2))_12] / (x3 - x2).

    So the CYBE holds for all x, y iff Q = 0 as a polynomial.  Q has
    degree <= 2 in each variable.  Each bracket of two tensors adds at most
    2 |u| |w| to the sum of the absolute values of the integer coefficients
    of den^2 Q, |.| being that sum for its arguments' numerators; with S
    the sum of the table's |numerators|, S_c its pole part's and S_p its
    polynomial part's, CYBE(p) adds at most 6 S_p^2 and the three c terms
    at most 2 S_c (3 S_p), so every coefficient is at most 6 S^2."""
    n = table.n
    cols = _columns(table)
    t00, t10, t01, t11 = (cols.get(m, {}) for m in _TAIL)

    def tensor(*weighted) -> GlTensor2:
        acc: dict = {}
        for w, part in weighted:
            if w:
                for key, v in part.items():
                    acc[key] = acc.get(key, 0) + w * v
        return GlTensor2(n, RATIONAL, {key: v for key, v in acc.items() if v})

    def p(x, y) -> GlTensor2:
        return tensor((1, t00), (x, t10), (y, t01), (x * y, t11))

    c, zero = tensor((1, cols.get(POLE, {}))), GlTensor2(n, RATIONAL, {})
    return cybe_lhs_sum([
        (p(x1, x2), p(x1, x3), p(x2, x3)),
        (c, zero, tensor((1, t10), (x3, t11))),
        (zero, c, tensor((1, t01), (x2, t11))),
        (tensor((-1, t01), (-x1, t11)), zero, c),
    ]).terms


def _is_automorphism(g: dict) -> bool:
    """Whether the signed permutation g of the units is, for a permutation
    p and signs t, either e_ij |-> t_i t_j e_p(i)p(j), conjugation by a
    signed permutation matrix, or e_ij |-> -t_i t_j e_p(j)p(i), that map
    after X |-> -X^t.  Both are Lie algebra automorphisms of gl(n).  The
    diagonal gives p and the form (its images are +-e_p(i)p(i)), the first
    row gives t up to one overall sign, and every image is compared: O(n^2)
    against n^4 brackets.  n is read off g's n^2 keys."""
    n = max(i for i, _ in g)
    idx = range(1, n + 1)
    form = g[1, 1][2]
    p = [0] + [g[i, i][0] for i in idx]
    if sorted(p) != list(range(n + 1)):
        return False
    t = [0] + [g[1, j][2] * form for j in idx]
    return g == {
        (i, j): ((p[i], p[j]) if form > 0 else (p[j], p[i])) + (form * t[i] * t[j],)
        for i in idx for j in idx}


def _transports(g: dict, src: TensorTable, table: TensorTable) -> bool:
    """g is an automorphism and (g (x) g) carries `src` to `table`.

    Lemma: for an automorphism g, CYBE((g (x) g) r) = (g (x) g (x) g)
    CYBE(r) term by term ([g a, g b] = g [a, b] in each slot), and g (x) g
    commutes with the slot swap.  So the CYBE and unitarity of r for all
    x, y carry over to (g (x) g) r."""
    return _is_automorphism(g) and _gauge_table(g, src) == table


# proofs of `_proof`, {(route, e, d): (table, failed, via)}: one entry per
# route and pair, a finite set like the keys of the integer-keyed caches
_PROOFS: dict = {}


def _proof(route: str, e: int, d: int) -> tuple[TensorTable, str | None, str]:
    """(table, failed, via) for the (e, d) table of `route`, "cuspidal" or
    "stolin" (the +J table): `failed` is None when the CYBE and unitarity of
    r(x, y) hold for every x and y, else the first premise of
    `cybe_polynomial` that the table breaks or "Q(B, B^3, B^9) != 0"; `via`
    names the chain of transports down to the table proved on its own.

    The premises run on the table itself.  Its one source edge: the +J
    table of (e, d) is the flip_map image of the cuspidal (d, e) table, and
    for e > d the cuspidal (e, d) table is the flip_transpose_gauge(d, e)
    image of it.  When the automorphism carries the source table to this
    one and the source is proved, the proof carries over.  Otherwise, and
    whenever the source fails, the table gets its own Kronecker proof:
    given the premises, den^2 Q has integer coefficients of size at most
    M = 6 S^2 in front of the monomials x1^i x2^j x3^k, i, j, k <= 2.  At
    the Kronecker point (B, B^3, B^9), B = 2^(bits(M) + 1) > 2 M, they
    become the digits of den^2 Q in base B at the distinct exponents
    i + 3j + 9k; a lowest nonzero digit, at B^k, would leave a remainder
    of size below B^(k+1), so the value is 0 iff every coefficient is (von
    zur Gathen and Gerhard, Modern Computer Algebra, section 8.4).  Memoised
    per table object: an entry is read only for the very object it was
    computed for."""
    cusp = route == "cuspidal"
    table = (cuspidal.sol_family(e, d) if cusp
             else stolin.solve_dec(e, d, jmat.build_j(e, d))).table
    hit = _PROOFS.get((route, e, d))
    if hit is not None and hit[0] is table:
        return hit
    failed, via = _broken_premise(table, _CUSPIDAL_TAIL if cusp else _TAIL), ""
    if failed is None:
        if not cusp or e > d:
            g, name = ((flip_transpose_gauge(d, e), "flip_transpose_gauge") if cusp
                       else (flip_map(e + d), "flip_map"))
            if _transports(g, cuspidal.sol_family(d, e).table, table):
                _, src_failed, src_via = _proof("cuspidal", d, e)
                if src_failed is None:
                    via = " = %s image of cuspidal (%d,%d)%s" % (name, d, e, src_via)
        if not via:
            s = sum(abs(v) for row in table.terms.values() for _, v in row)
            b = 1 << (6 * s * s).bit_length() + 1
            if cybe_polynomial(table, b, b**3, b**9):
                failed = "Q(B, B^3, B^9) != 0"
    _PROOFS[route, e, d] = table, failed, via
    return table, failed, via


def _cybe_verdict(route: str, e: int, d: int, pair, tail: str) -> tuple[bool, str]:
    """The verdict of a CYBE check: the proof's failure, or the one pair
    evaluated end to end through `TensorTable.at`, or the proof with its
    tail and, when the table was transported, the chain of images `via`
    down to the table that has Q(B, B^3, B^9) = 0."""
    table, failed, via = _proof(route, e, d)
    if failed:
        return False, failed
    x, y = pair
    if not is_unitary_pair(table.at(x, y), table.at(y, x)):
        return False, "not unitary at (%s, %s)" % (x, y)
    q = "table%s, Q(B, B^3, B^9) = 0 there" % via if via else "Q(B, B^3, B^9) = 0"
    return True, ("CYBE and unitarity for all x, y: pole c, tail %s, T_ab = -swap(T_ba), "
                  "%s; unitary at 1 pair" % (tail, q))


def flip_j(J: tuple) -> tuple:
    """Index-reversal of J in the form it enters the pairing tr(J^t [a,b]):
    the transpose along the antidiagonal, position (i,j) -> (n+1-j, n+1-i).
    This is the map under which J_(e,d) goes to J_(d,e); reversing both
    indices without the transpose does not (already false for (1,1))."""
    n = len(J)
    return tuple(
        tuple(J[n - 1 - c][n - 1 - r] for c in range(n)) for r in range(n)
    )


def flip_map(n: int) -> dict:
    """e_{i,j} |-> e_{n+1-i, n+1-j}, conjugation by the antidiagonal."""
    return signed_permutation_map(n, lambda i, j: (n + 1 - i, n + 1 - j, 1))


def j_support_coloring(e: int, d: int) -> tuple[int, ...]:
    """Signs s_1..s_n with s_i s_j = -1 on every unit entry (i,j) of J_(e,d).

    The support of J is a forest (each recursion step attaches a matching to
    fresh indices), so the 2-coloring always exists; components start at +1.
    """
    n = e + d
    J = jmat.build_j(e, d)
    adj: dict[int, list[int]] = {i: [] for i in range(n)}
    for i in range(n):
        for jj in range(n):
            if J[i][jj]:
                adj[i].append(jj)
                adj[jj].append(i)
    s = [0] * n
    for v in range(n):
        if s[v]:
            continue
        s[v] = 1
        stack = [v]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if s[w] == 0:
                    s[w] = -s[u]
                    stack.append(w)
                elif s[w] != -s[u]:
                    raise RuntimeError("J support graph is not 2-colorable")
    return tuple(s)


def flip_transpose_gauge(e: int, d: int) -> dict:
    """The involutive automorphism realizing r_(e,d) ~ r_(d,e):
    A |-> -D (antitranspose of A) D, with D the sign diagonal from the
    2-coloring of the support of J_(d,e).

    The antitranspose alone is an anti-automorphism that carries the shaped
    space of (e,d) onto that of (d,e) and J_(e,d) to J_(d,e); the overall
    minus makes it an automorphism and the sign twist absorbs the bracket
    sign against J.  The bare index-reversal e_{i,j} -> e_{n+1-i,n+1-j} does
    NOT transport the solutions (it does not even preserve the shape space).
    """
    n = e + d
    s = j_support_coloring(d, e)
    # antitranspose sends e_{i,j} to e_{n+1-j, n+1-i}
    return signed_permutation_map(
        n, lambda i, j: (n + 1 - j, n + 1 - i, -s[n - j] * s[n - i])
    )


def point_sol_space(e: int, d: int, x) -> tuple:
    """Sol((e,d), x) from one `kernel` elimination of the rows at a Fraction
    x, without `cuspidal.sol_family`: the reference of `check_ansatz`.  Its
    basis is the residue-dual one exactly when the residue map is an
    isomorphism at x."""
    # A0 and A1 share no column within a row
    rows = [{**r0, **{c: x * v for c, v in r1.items() if x}}
            for r0, r1 in zip(*cuspidal._sol_rows(e, d))]
    ncols = len(cuspidal._ved_coords(e, d))
    return tuple(tuple(Fraction(vec.get(c, 0), den) for c in range(ncols))
                 for vec, den in kernel(rows, ncols))


def _label_image(g: dict, lbl):
    """The basis label that g sends `lbl` to up to sign, or None: e_ij goes
    to +-e_ab, and h_l = e_ll - e_(l+1)(l+1) to s e_aa - t e_bb, which is
    +-h_min(a,b) when |a - b| = 1 and s = t."""
    if lbl[0] == "unit":
        a, b, _ = g[lbl[1:]]
        return ("unit", a, b) if a != b else None
    l = lbl[1]
    (a, a2, s), (b, b2, t) = g[l, l], g[l + 1, l + 1]
    return ("cartan", min(a, b)) if a == a2 and b == b2 and abs(a - b) == 1 and s == t else None


def _maps_labels(g: dict, src: tuple, dst: tuple) -> bool:
    """g sends the basis labels `src` one to one onto +- the labels `dst`."""
    return len(src) == len(dst) and {_label_image(g, lbl) for lbl in src} == set(dst)


def _gram_transports(e: int, d: int) -> bool:
    """The three facts that carry det Gram(d, e) to det Gram(e, d), Gram(e, d)
    the Gram matrix of omega_J(e,d)(a, b) = tr(J(e,d)^t [a, b]) on p_e:
    flip_j(J(d,e)) = J(e,d); sigma = -antitranspose is an automorphism; and
    sigma maps the labels of p_d onto +- those of p_e (h_l to h_(n-l))."""
    n = e + d
    if flip_j(jmat.build_j(d, e)) != jmat.build_j(e, d):
        return False
    sigma = signed_permutation_map(n, lambda i, j: (n + 1 - j, n + 1 - i, -1))
    return _is_automorphism(sigma) and _maps_labels(
        sigma, stolin.parabolic_labels(d, n), stolin.parabolic_labels(e, n))


def _gram_determinants(first, pairs) -> dict:
    """{(e, d): (det Gram(e, d), eliminated)} for the coprime `pairs`, which
    hold (1, 1) and, with each pair, its flip; `first` is det Gram(1, 1).

    The Gram matrix is eliminated for e <= d.  For e > d, when
    `_gram_transports(e, d)` holds, with tau the antitranspose,
    tr(A^t tau B) = tr((tau A)^t B) and sigma = -tau an automorphism give
    omega_J(e,d)(sigma a, sigma b) = -tr(J(e,d)^t tau [a, b])
    = -omega_J(d,e)(a, b), so det Gram(e, d) = (-1)^N det Gram(d, e),
    N = dim p_d.  Otherwise it is eliminated too."""
    out = {(1, 1): (first, True)}
    # e <= d first, so that each transport finds its source
    for e, d in sorted(pairs, key=lambda pair: pair[0] > pair[1]):
        if (e, d) in out:
            continue
        n = e + d
        if e > d and _gram_transports(e, d):
            sign = (-1) ** len(stolin.parabolic_labels(d, n))
            out[e, d] = (sign * out[d, e][0], False)
        else:
            # J's 0/1 integers give integer Gram rows, cheaper to eliminate than Fractions
            out[e, d] = (stolin.frobenius_gram(jmat.build_j(e, d), e)[1], True)
    return out


# --- fixtures of the stolin checks --------------------------------------------

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


def yang_order(n: int, k_max: int) -> tuple:
    """The order z^{-1} g[[z^{-1}]] truncated to the window of k_max, as
    `stolin.build_order` truncates: the fixture whose series reproduces the
    pure Casimir pole."""
    elements = [{-m_deg: basis_terms(lbl, n)}
                for m_deg in range(1, k_max + 4) for lbl in sl_basis(n)]
    return n, k_max, tuple(elements)


def _closed_form_n2() -> TensorTable:
    """The reference short formula for n = 2, c/(y-x) + (x/2) e12 (x) h
    - (y/2) h (x) e12, with the last factor that `closed_form_d1` explains."""
    h, e12 = {(1, 1): ONE, (2, 2): -ONE}, {(1, 2): ONE / 2}
    return tensor_table(2, [(e12, h, (0, 1, 0)), (h, {(1, 2): -ONE / 2}, (0, 0, 1))])
