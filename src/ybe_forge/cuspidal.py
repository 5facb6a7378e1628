"""Rational r-matrices from the geometric pipeline on the cuspidal cubic.

The construction is driven by a 0/1 matrix J built by a Euclidean recursion
from the coprime pair (e, d), a shaped space V_{e,d} of matrix polynomials in
z, and its subspace Sol((e, d), x) cut out by [F_0, J] + x F_0 + F_eps = 0.
Evaluation maps res/ev through Sol produce the tensor, whose pole part is
always the Casimir element.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .exact import (
    MatrixPoly,
    ONE,
    ZERO,
    eval_matrix_poly,
    interpolate,
    kernel,
    mat_is_zero,
    matrix_poly_from_coeffs,
    rat,
)
from .lie import (
    GlTensor2,
    RATIONAL,
    apply_gauge,
    casimir,
    dual_matrix,
    signed_permutation_map,
    sl_basis,
    tensor_from_pairs,
)


class NonCoprimeError(ValueError):
    """The pair (e, d) must be coprime positive integers."""


class ShapeError(ValueError):
    """A matrix polynomial violates the V_{e,d} degree mask."""


class SolDimensionError(RuntimeError):
    """dim Sol((e,d), x) != n^2 - 1; downstream formulas would be meaningless."""


class AnsatzError(RuntimeError):
    """The polynomial-plus-Casimir-pole Ansatz failed to certify."""


def _check_coprime(e: int, d: int):
    if e < 1 or d < 1 or gcd(e, d) != 1:
        raise NonCoprimeError("need coprime positive integers, got (%d, %d)" % (e, d))


@dataclass(frozen=True)
class JMatrix:
    """The 0/1 matrix attached to a coprime pair (e, d), block-upper-triangular
    with respect to the split e + d."""

    e: int
    d: int
    matrix: tuple

    @property
    def n(self) -> int:
        return self.e + self.d


@lru_cache(maxsize=None)
def build_j(e: int, d: int) -> JMatrix:
    """The recursively defined matrix J_(e,d).

    Descend (e,d) -> ... -> (1,1) by the Euclidean step, then extend back up
    with the two block rules (identity block on top for growth on the left,
    identity block on the right for growth on the right).
    """
    _check_coprime(e, d)
    path = [(e, d)]
    while path[-1] != (1, 1):
        a, b = path[-1]
        path.append((a - b, b) if a > b else (a, b - a))
    mat = [[0, 1], [0, 0]]
    for (p, q) in reversed(path[:-1]):
        a, b = (p - q, q) if p > q else (p, q - p)
        size = a + b
        if p == a:  # grew on the right: q = a + b
            new = [[0] * (p + q) for _ in range(p + q)]
            for i in range(a):
                new[i][a + i] = 1
            for i in range(size):
                for j in range(size):
                    new[a + i][a + j] = mat[i][j]
        else:  # q == b, grew on the left: p = a + b
            new = [[0] * (p + q) for _ in range(p + q)]
            for i in range(size):
                for j in range(size):
                    new[i][j] = mat[i][j]
            for i in range(b):
                new[a + i][size + i] = 1
        mat = new
    return JMatrix(e, d, tuple(tuple(row) for row in mat))


def flip_j(j: JMatrix) -> tuple:
    """Index-reversal of J in the form it enters the pairing tr(J^t [a,b]):
    the transpose along the antidiagonal, position (i,j) -> (n+1-j, n+1-i).
    This is the map under which J_(e,d) goes to J_(d,e); reversing both
    indices without the transpose does not (already false for (1,1))."""
    n = j.n
    m = j.matrix
    return tuple(
        tuple(m[n - 1 - c][n - 1 - r] for c in range(n)) for r in range(n)
    )


def j_support_coloring(e: int, d: int) -> tuple[int, ...]:
    """Signs s_1..s_n with s_i s_j = -1 on every unit entry (i,j) of J_(e,d).

    The support of J is a forest (each recursion step attaches a matching to
    fresh indices), so the 2-coloring always exists; components start at +1.
    """
    n = e + d
    J = build_j(e, d).matrix
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


def region(i: int, j: int, e: int, n: int) -> str:
    """Quadrant of the (i, j) entry for the split e + (n - e):
    upper-left IV, upper-right I, lower-left III, lower-right II."""
    if i <= e:
        return "IV" if j <= e else "I"
    return "III" if j <= e else "II"


# degree caps of the shaped space: constant e x d upper-right block, linear
# diagonal blocks, quadratic d x e lower-left block
def _degree_cap(i: int, j: int, e: int, n: int) -> int:
    reg = region(i, j, e, n)
    if reg == "I":
        return 0
    if reg == "III":
        return 2
    return 1


def ved_matrix_poly(e: int, d: int, coeff_mats) -> MatrixPoly:
    """Member of V_{e,d} from constant/linear/quadratic coefficient matrices.

    Raises ShapeError on a degree-mask violation or if the constant or linear
    part fails to be traceless.
    """
    _check_coprime(e, d)
    n = e + d
    F = matrix_poly_from_coeffs(coeff_mats, block_split=(e, d))
    validate_ved_shape(F, e, d)
    return F


def validate_ved_shape(F: MatrixPoly, e: int, d: int):
    n = e + d
    if F.n != n:
        raise ShapeError("size mismatch: %d vs %d" % (F.n, n))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            p = F.entries[i - 1][j - 1]
            if len(p) - 1 > _degree_cap(i, j, e, n):
                raise ShapeError(
                    "degree %d exceeds cap at entry (%d, %d) in region %s"
                    % (len(p) - 1, i, j, region(i, j, e, n))
                )
    for k in (0, 1):
        tr = sum(
            (F.entries[a][a][k] if k < len(F.entries[a][a]) else ZERO)
            for a in range(n)
        )
        if tr != 0:
            raise ShapeError("z^%d part has nonzero trace" % k)


def _cells(n: int) -> list:
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]


def extract_f0_feps(F: MatrixPoly) -> tuple[tuple, tuple]:
    """The two constant matrices read off F in V_{e,d}: F_0 holds each
    entry's z^cap coefficient and F_eps its z^(cap-1) coefficient, cap being
    the entry's degree cap.  So the constant upper-right block enters F_0
    only and the constant lower-left block enters neither."""
    if F.block_split is None:
        raise ShapeError("matrix polynomial carries no block split")
    e, d = F.block_split
    n = F.n
    validate_ved_shape(F, e, d)

    def layer(shift: int) -> tuple:  # each entry's z^(cap - shift) coefficient
        out = [[ZERO] * n for _ in range(n)]
        for i, j in _cells(n):
            p = F.entries[i - 1][j - 1]
            k = _degree_cap(i, j, e, n) - shift
            if 0 <= k < len(p):
                out[i - 1][j - 1] = p[k]
        return tuple(map(tuple, out))

    return layer(0), layer(1)


# Coordinates of V_{e,d}: (i, j, k) is the coefficient of (z - x)^k in entry
# (i, j), for every k up to the entry's degree cap.  The n^2 residue
# coordinates (k = 0) come last, in row-major order, so that the kernel of the
# defining constraint comes out dual to the residues (see `sol_space`).
@lru_cache(maxsize=None)
def _ved_coords(e: int, d: int) -> tuple:
    n = e + d
    cells = _cells(n)
    return tuple(
        (i, j, k) for i, j in cells for k in range(1, _degree_cap(i, j, e, n) + 1)
    ) + tuple((i, j, 0) for i, j in cells)


def _coords_to_matrix_poly(e: int, d: int, x: Fraction, vec) -> MatrixPoly:
    """The member of V_{e,d} with (z - x)-coordinates `vec`, in powers of z.
    The coordinates past the end of a shorter `vec` are zero."""
    n = e + d
    # (z - x)^k in powers of z, for k = 0, 1, 2
    expand = ((ONE,), (-x, ONE), (x * x, -2 * x, ONE))
    coeffs = [[[ZERO] * n for _ in range(n)] for _ in range(3)]
    for (i, j, k), v in zip(_ved_coords(e, d), vec):
        if v:
            for m, c in enumerate(expand[k]):
                coeffs[m][i - 1][j - 1] += c * v
    mats = [tuple(map(tuple, c)) for c in coeffs]
    return matrix_poly_from_coeffs(mats, block_split=(e, d))


@dataclass(frozen=True)
class SolBasis:
    """Exact basis of Sol((e,d), x) inside V_{e,d}, dual to the residues:
    member m is the one with residue e_ij - delta_ij e_11, for the m-th
    (i, j) != (1, 1) in row-major order."""

    e: int
    d: int
    x: Fraction
    basis: tuple  # of MatrixPoly
    vectors: tuple  # the members' (z - x)-coordinates, as `kernel` returned them

    @property
    def n(self) -> int:
        return self.e + self.d


def sol_constraint_violation(F: MatrixPoly, x: Fraction) -> tuple:
    """[F_0, J] + x F_0 + F_eps as a matrix; zero iff F solves the constraint."""
    e, d = F.block_split
    J = build_j(e, d).matrix
    f0, feps = extract_f0_feps(F)
    n = F.n
    out = [[x * a + b for a, b in zip(r0, reps)] for r0, reps in zip(f0, feps)]
    for c in range(n):
        for b in range(n):
            if J[c][b]:  # J is 0/1: add F_0 e_cb - e_cb F_0
                for a in range(n):
                    out[a][b] += f0[a][c]
                    out[c][a] -= f0[b][a]
    return tuple(map(tuple, out))


@lru_cache(maxsize=None)
def sol_space(e: int, d: int, x: Fraction) -> SolBasis:
    """Kernel of the defining constraint inside V_{e,d}.

    In (z - x)-coordinates c_k, an entry with degree cap `cap` has
    F_0 = c_cap and F_eps = c_(cap-1) - cap x c_cap, so row (a, b) of the
    constraint is [c_cap, J] + (1 - cap) x c_cap + c_(cap-1), and the trace
    rows are sum c1_aa = 0 and sum c0_aa = 0.  With the residue coordinates
    last, the residue map Sol -> sl(n) is an isomorphism iff the kernel's
    free columns are the residue coordinates other than (1, 1, 0); the
    kernel vector of the free column (i, j, 0) then has residue
    e_ij - delta_ij e_11.  Anything else aborts hard: every downstream
    formula assumes that isomorphism.
    """
    _check_coprime(e, d)
    x = rat(x)
    n = e + d
    coords = _ved_coords(e, d)
    col = {c: idx for idx, c in enumerate(coords)}
    # (i, j) -> the column of its top coefficient c_cap
    top = {(i, j): col[i, j, _degree_cap(i, j, e, n)] for i, j in _cells(n)}
    J = build_j(e, d).matrix

    rows = []
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            row = [ZERO] * len(coords)
            cap = _degree_cap(a, b, e, n)
            row[top[a, b]] += (1 - cap) * x
            if cap:
                row[col[a, b, cap - 1]] += ONE
            for c in range(1, n + 1):
                if J[c - 1][b - 1]:
                    row[top[a, c]] += ONE
                if J[a - 1][c - 1]:
                    row[top[c, b]] -= ONE
            rows.append(row)
    for k in (1, 0):
        row = [ZERO] * len(coords)
        for a in range(1, n + 1):
            row[col[a, a, k]] = ONE
        rows.append(row)

    vecs = kernel(rows)
    cells = _cells(n)
    dual = [
        tuple(int(c == (i, j)) - int(i == j and c == (1, 1)) for c in cells)
        for i, j in cells[1:]
    ]
    if [v[-n * n:] for v in vecs] != dual:
        raise SolDimensionError(
            "residue map Sol((%d,%d), %s) -> sl(%d) is not an isomorphism "
            "(dim Sol = %d, expected %d)" % (e, d, x, n, len(vecs), n * n - 1)
        )
    basis = tuple(_coords_to_matrix_poly(e, d, x, v) for v in vecs)
    for F in basis:
        if not mat_is_zero(sol_constraint_violation(F, x)):
            raise SolDimensionError("kernel member fails the defining constraint")
    return SolBasis(e, d, x, basis, tuple(vecs))


def res_map(F: MatrixPoly, x) -> tuple:
    """F(x)."""
    return eval_matrix_poly(F, rat(x))


def ev_map(F: MatrixPoly, x, y) -> tuple:
    """F(y) / (y - x)."""
    x, y = rat(x), rat(y)
    if x == y:
        raise ValueError("evaluation point must differ from the residue point")
    inv = ONE / (y - x)
    val = eval_matrix_poly(F, y)
    return tuple(tuple(inv * v for v in row) for row in val)


@dataclass(frozen=True)
class GElements:
    """For each sl(n) basis element B, the unique correction G in V_{e,d} with
    B + G in Sol((e,d), x) and G(x) = 0."""

    e: int
    d: int
    x: Fraction
    corrections: dict  # BasisIndex -> MatrixPoly

    @property
    def n(self) -> int:
        return self.e + self.d


@lru_cache(maxsize=None)
def g_elements(e: int, d: int, x: Fraction) -> GElements:
    """The corrections, read off the residue-dual basis of `sol_space`.

    B = sum over (i, j) != (1, 1) of B_ij (e_ij - delta_ij e_11), so
    B + G_B is the same combination of the members (i, j), and G_B is that
    combination with its residue coordinates dropped.
    """
    x = rat(x)
    sol = sol_space(e, d, x)
    n = e + d
    head = len(sol.vectors[0]) - n * n  # coordinates before the residue ones
    member = {c: v[:head] for c, v in zip(_cells(n)[1:], sol.vectors)}
    member[1, 1] = (ZERO,) * head
    corrections = {}
    for label in sl_basis(n):
        if label[0] == "unit":
            vec = member[label[1:]]
        else:  # h_l = e_ll - e_(l+1)(l+1)
            l = label[1]
            vec = tuple(a - b for a, b in zip(member[l, l], member[l + 1, l + 1]))
        G = _coords_to_matrix_poly(e, d, x, vec)
        if not mat_is_zero(eval_matrix_poly(G, x)):
            raise SolDimensionError("correction fails G(x) = 0 at %r" % (label,))
        corrections[label] = G
    return GElements(e, d, x, corrections)


def assemble_r(e: int, d: int, x, y) -> GlTensor2:
    """The rational solution of the geometric pipeline at exact points:
    (1/(y-x)) [ c + sum dual(B) (x) G_B(y) ] over the sl(n) basis."""
    x, y = rat(x), rat(y)
    if x == y:
        raise ValueError("need x != y")
    _check_coprime(e, d)
    n = e + d
    g = g_elements(e, d, x)
    inv = ONE / (y - x)
    pairs = []
    for label, G in g.corrections.items():
        val = eval_matrix_poly(G, y)
        if mat_is_zero(val):
            continue
        pairs.append((dual_matrix(label, n), val, inv))
    correction = tensor_from_pairs(n, pairs)
    return casimir(n).scale(inv).add(correction)


def flip_transpose_gauge(e: int, d: int):
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


def psi_transport(e: int, d: int, x, y) -> GlTensor2:
    """Image of the assembled tensor under the flip-transpose gauge in both
    slots; equals assemble_r(d, e, x, y) exactly."""
    g = flip_transpose_gauge(e, d)
    return apply_gauge(g, g, assemble_r(e, d, x, y))


# ---------------------------------------------------------------------------
# certification of the polynomial Ansatz r = c/(y-x) + s(x, y)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnsatzResult:
    """Bivariate polynomial tail s(x,y): per tensor coefficient, an array of
    coefficients indexed by (x-degree, y-degree)."""

    e: int
    d: int
    degree_bound: int
    coefficients: dict  # (i,j,k,l) -> tuple of tuples of Fraction

    def eval_tail(self, x, y) -> GlTensor2:
        x, y = rat(x), rat(y)
        n = self.e + self.d
        terms = {}
        for key, grid in self.coefficients.items():
            acc = ZERO
            for p, row in enumerate(grid):
                xp = x**p
                for q, cpq in enumerate(row):
                    if cpq != 0:
                        acc += cpq * xp * y**q
            if acc != 0:
                terms[key] = acc
        return GlTensor2(n, RATIONAL, terms)

    def eval(self, x, y) -> GlTensor2:
        """c/(y-x) + s(x, y)."""
        x, y = rat(x), rat(y)
        n = self.e + self.d
        return casimir(n).scale(ONE / (y - x)).add(self.eval_tail(x, y))


def _tail_tensor(e: int, d: int, x: Fraction, y: Fraction) -> GlTensor2:
    n = e + d
    return assemble_r(e, d, x, y).sub(casimir(n).scale(ONE / (y - x)))


# largest degree bound `r_ansatz` tries before it gives up
ANSATZ_MAX_BOUND = 8


def r_ansatz(e: int, d: int) -> AnsatzResult:
    """Reconstruct the polynomial tail by exact interpolation, doubling the
    degree bound up to ANSATZ_MAX_BOUND until the spare-point checks pass.

    An interpolation inconsistency at the maximal bound aborts loudly: the
    tail of a geometric solution must be polynomial.
    """
    _check_coprime(e, d)
    bound = 1
    while True:
        try:
            return _try_ansatz(e, d, bound)
        except AnsatzError:
            if 2 * bound > ANSATZ_MAX_BOUND:
                raise
            bound *= 2


def _try_ansatz(e: int, d: int, bound: int) -> AnsatzResult:
    npts = bound + 2
    xs = [Fraction(p, 1) for p in range(npts)]
    ys = [Fraction(2 * npts + 3 * q, 2) for q in range(npts)]
    samples = {}
    keys = set()
    for x in xs:
        for y in ys:
            t = _tail_tensor(e, d, x, y)
            samples[(x, y)] = t
            keys.update(t.terms)
    coefficients = {}
    try:
        for key in sorted(keys):
            # interpolate in y for each x, then across x per y-degree
            per_x = []
            for x in xs:
                pts = [(y, samples[(x, y)].terms.get(key, ZERO)) for y in ys]
                per_x.append(interpolate(pts, bound))
            ydeg = max((len(p) for p in per_x), default=0)
            grid = []
            for q in range(ydeg):
                pts = [
                    (x, per_x[ix][q] if q < len(per_x[ix]) else ZERO)
                    for ix, x in enumerate(xs)
                ]
                grid.append(interpolate(pts, bound))
            xdeg = max((len(p) for p in grid), default=0)
            coefficients[key] = tuple(
                tuple(grid[q][p] if p < len(grid[q]) else ZERO for q in range(ydeg))
                for p in range(xdeg)
            )
    except Exception as exc:
        raise AnsatzError(
            "tail of ((%d,%d)) not polynomial at degree bound %d" % (e, d, bound)
        ) from exc
    result = AnsatzResult(e, d, bound, coefficients)
    # spare-point validation away from the sampling grid
    spare = (Fraction(-7, 3), Fraction(9, 4))
    if result.eval(*spare) != assemble_r(e, d, *spare):
        raise AnsatzError("spare-point validation failed for ((%d,%d))" % (e, d))
    return result
