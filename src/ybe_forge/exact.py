"""Exact rational linear algebra: fraction-free elimination, polynomials
in the loop variable z, and interpolation.  `elliptic` never loads it.

All arithmetic in this module is exact.  Scalars are `fractions.Fraction`,
or ints where a matrix is integral.  An n x n matrix of the package is a
{(i, j): nonzero entry} dict, 1-based, and a matrix polynomial one of
{(i, j): nonzero polynomial}.  Only J and the cocycle matrix K, which keys
the `solve_dec` cache, are nested tuples, of ints or Fractions, and each
`sol_space` member is a flat tuple of Fraction coordinates; the exact
layer wraps none of them.

The solvers `kernel`, `solve_multi` and `det` take a matrix as
its rows, each a {column: entry} dict with Fraction or int entries, and
its column count `ncols`; `solve_multi` takes each right-hand side as a
{row: entry} dict.  The systems here (Sol((e,d), x), the Frobenius Gram matrices and splits, the
order series) have a few nonzeros per row, and their builders write only
those.  The solvers work in integers: the stored entries of each row are
cleared of denominators, one sparse fraction-free (Bareiss) elimination
runs on them, back-substitution yields numerators over one common
denominator per solution, and every solution is re-checked in integers
against the cleared rows.  `kernel` and `solve_multi` return each
solution as it comes out, ({column: nonzero numerator}, positive den) in
lowest terms: no Fraction is built.  Each pivot step rewrites only the
rows nonzero in its column and rescales the others lazily, when they are
next touched; back-substitution and the re-check touch only the nonzero
values of each solution.
"""

from __future__ import annotations

import heapq
import math
import re
from collections.abc import Iterable, Sequence
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)
# Largest decimal exponent `rat` parses: Fraction("1e999999999") is legal
# text whose value has a billion digits, and building it takes hours.
RAT_EXPONENT_MAX = 1000
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*$")  # digits may be grouped by "_"


class LinearAlgebraError(Exception):
    """Base class for exact-solver failures."""


class SingularSystemError(LinearAlgebraError):
    """Square system with a rank-deficient coefficient matrix."""


class InconsistentSystemError(LinearAlgebraError):
    """No solution: elimination produced 0 = nonzero."""


class InterpolationError(Exception):
    """Samples are not consistent with a polynomial of the stated degree."""


def rat(v) -> Fraction:
    """Coerce ints, strings like '3/4' and Fractions to an exact rational."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, float):
        raise TypeError("refusing to coerce float to exact rational: %r" % (v,))
    if isinstance(v, str):
        exponent = _EXPONENT.search(v)
        if exponent and abs(int(exponent.group(1))) > RAT_EXPONENT_MAX:
            raise ValueError("decimal exponent beyond %d: %r" % (RAT_EXPONENT_MAX, v))
    return Fraction(v)


# ---------------------------------------------------------------------------
# sparse fraction-free elimination (Bareiss) and integer back-substitution
# ---------------------------------------------------------------------------

def _check_columns(rows: Sequence[dict], ncols: int):
    """ValueError unless every column of the {column: entry} rows lies in
    0 .. ncols - 1."""
    for row in rows:
        if row and not (0 <= min(row) and max(row) < ncols):
            raise ValueError("column index outside 0 .. %d" % (ncols - 1))


def _integer_rows(rows: Sequence[dict], ncols: int) -> tuple[list[dict[int, int]], list[int]]:
    """Clear denominators row by row, over the stored entries only; row
    scaling preserves kernels and solution sets of homogeneous/augmented
    systems.  Returns the rows as {column: nonzero integer} dicts, stored
    zeros dropped, and the multiplier of each row: 1 for a row of ints,
    which is passed on as it is, with no lcm and no per-entry division."""
    _check_columns(rows, ncols)
    out, dens = [], []
    for row in rows:
        nonzero = {c: x for c, x in row.items() if x}
        ints = all(type(x) is int for x in nonzero.values())
        den = 1 if ints else math.lcm(*(x.denominator for x in nonzero.values()))
        out.append(nonzero if ints else {c: x.numerator * (den // x.denominator)
                                         for c, x in nonzero.items()})
        dens.append(den)
    return out, dens


def _exact_div(a: int, b: int) -> int:
    q, rem = divmod(a, b)
    if rem:
        raise LinearAlgebraError("fraction-free division failed")
    return q


def _bareiss_echelon(m: list[dict[int, int]], ncols: int) -> tuple[list[dict[int, int]], list[int], list[int]]:
    """Sparse fraction-free forward elimination of the {column: entry} rows
    `m`, in place.  Returns (pivot rows, pivot columns, the index in `m` of
    each pivot row), in pivot order.

    Columns are taken left to right.  Among the rows nonzero in the column,
    the pivot is the one with the smallest |entry|, then the fewest
    nonzeros, then the lowest index, which keeps the integers small in
    practice.  Step k with pivot p_k rewrites only those rows, as
    (p_k row - f pivot row) / p_(k-1), found through an index from each
    column to the rows nonzero in it.  Bareiss would also multiply every
    other row by p_k / p_(k-1); here a row keeps the step s at which it was
    last rewritten and is rescaled by p_(k-1) / p_s only when it is next
    touched.  A pivot row is current when it is chosen and the rows left
    over are zero, so the echelon needs no rescaling.  Every value is the
    one dense Bareiss computes with the same pivot rows, a minor of the
    matrix, so every division is exact; each is checked, so a broken
    divisibility invariant can never truncate silently.
    """
    in_col: list[set[int]] = [set() for _ in range(ncols)]
    for i, row in enumerate(m):
        for c in row:
            in_col[c].add(i)
    stage = [0] * len(m)  # pivot steps each row is current to
    pivots = [1]  # pivots[k] is the pivot of step k
    echelon: list[dict[int, int]] = []
    piv_cols: list[int] = []
    order: list[int] = []
    for c in range(ncols):
        touched = in_col[c]
        if not touched:
            continue
        in_col[c] = set()
        k = len(echelon)
        prev = pivots[k]
        for i in touched:
            den = pivots[stage[i]]
            if den != prev:  # rescaling by prev / prev would be the identity
                m[i] = {j: _exact_div(a * prev, den) for j, a in m[i].items()}
            stage[i] = k
        best = (min(touched, key=lambda i: (abs(m[i][c]), len(m[i]), i)) if len(touched) > 1
                else next(iter(touched)))
        touched.discard(best)
        prow = m[best]
        piv = prow[c]
        tail = [(j, b) for j, b in prow.items() if j != c]
        for j, _ in tail:
            in_col[j].discard(best)
        for i in touched:
            row = m[i]
            f = row.pop(c)
            acc = {j: piv * a for j, a in row.items()}
            for j, b in tail:
                if j in acc:
                    acc[j] -= f * b
                else:  # -f b is nonzero: the row gains column j
                    acc[j] = -f * b
                    in_col[j].add(i)
            out = {}
            for j, v in acc.items():
                if v:  # `_exact_div` inlined: this loop does nearly all divisions
                    q, rem = divmod(v, prev)
                    if rem:
                        raise LinearAlgebraError("fraction-free division failed")
                    out[j] = q
                else:
                    in_col[j].discard(i)
            m[i] = out
            stage[i] = k + 1
        pivots.append(piv)
        echelon.append(prow)
        piv_cols.append(c)
        order.append(best)
        if len(echelon) == len(m):
            break
    return echelon, piv_cols, order


def _back_substitute(m, piv_cols, free_cols) -> list[dict[int, int]]:
    """Integer back-substitution through the sparse echelon rows `m`.

    For each free column f, returns den times the null vector that is 1 at f
    and 0 at the other free columns, as {column: nonzero integer}, den being
    the last pivot.  Each pivot value is solved once its row has received
    every later value, and is then scattered into the rows above it that
    are nonzero in its column; a zero value is neither stored nor
    scattered.  Bareiss pivots are leading minors, so by Cramer's rule every
    division here is exact; it is checked anyway.
    """
    rank = len(piv_cols)
    den = m[rank - 1][piv_cols[rank - 1]] if rank else 1
    above: dict = {}  # column -> (row, entry) off the pivots, in every row
    for r, (row, p) in enumerate(zip(m, piv_cols)):
        for c, a in row.items():
            if c != p:
                above.setdefault(c, []).append((r, a))
    out = []
    for f in free_cols:
        v = {f: den}
        # a max-heap of the pending rows: a pivot column meets only rows
        # above its own, so each row is solved after every value it needs
        acc = {r: -den * a for r, a in above.get(f, ())}
        heap = [-r for r in acc]
        heapq.heapify(heap)
        while heap:
            r = -heapq.heappop(heap)
            s = acc.pop(r)
            if s:
                p = piv_cols[r]
                val = v[p] = _exact_div(s, m[r][p])
                for r2, a in above.get(p, ()):
                    if r2 not in acc:
                        heapq.heappush(heap, -r2)
                    acc[r2] = acc.get(r2, 0) - a * val
        out.append(v)
    return out


def _null_vectors(ints, m, piv_cols, free_cols, what: str) -> list[tuple[dict[int, int], int]]:
    """`_back_substitute` in lowest terms, as ({column: nonzero numerator},
    positive denominator), each vector re-checked exactly, in integers,
    against every row of `ints`, the rows that `m` is the echelon form of.
    The check runs column-wise over the vector's nonzeros, so it reads only
    the columns where the vector is nonzero (for `solve_multi`, A's columns
    and the solution's own right-hand side); every row it does not reach
    is zero on the vector."""
    cols: dict = {}
    for r, row in enumerate(ints):
        for c, a in row.items():
            cols.setdefault(c, []).append((r, a))
    out = []
    for f, v in zip(free_cols, _back_substitute(m, piv_cols, free_cols)):
        g = math.gcd(*v.values()) * (1 if v[f] > 0 else -1)
        v = {c: a // g for c, a in v.items()}
        image: dict = {}
        for c, a in v.items():
            for r, b in cols.get(c, ()):
                image[r] = image.get(r, 0) + a * b
        if any(image.values()):
            raise LinearAlgebraError("%s verification failed" % what)
        out.append((v, v[f]))
    return out


def kernel(rows: Sequence[dict], ncols: int) -> list[tuple[dict[int, int], int]]:
    """Exact basis of the null space of the matrix with {column: entry} rows
    `rows` and `ncols` columns: one vector per non-pivot column f, 1 at f and
    0 at the other non-pivot columns.

    Each vector comes as ({column: nonzero numerator}, positive den) in
    lowest terms, so its entry at f is den.  Every vector is re-checked as
    A.num == 0 against the denominator-cleared rows.
    """
    ints, _ = _integer_rows(rows, ncols)
    m, piv_cols, _ = _bareiss_echelon([dict(r) for r in ints], ncols)
    free_cols = sorted(set(range(ncols)).difference(piv_cols))
    return _null_vectors(ints, m, piv_cols, free_cols, "kernel")


def solve_multi(rows: Sequence[dict], rhs_cols: Sequence[dict], ncols: int) -> list[tuple[dict[int, int], int]]:
    """Solve A x = b for several right-hand sides at once: A has the
    {column: entry} rows `rows` and `ncols` columns, and each b is a
    {row: entry} dict.  Each x comes as ({column: nonzero numerator},
    positive den) in lowest terms.

    Accepts square or overdetermined-consistent systems.  Raises
    SingularSystemError if A has deficient column rank and
    InconsistentSystemError if elimination yields 0 = nonzero.  One
    elimination serves every right-hand side.  x is the null vector
    (x, -1) of [A | b], so it is re-checked as A.num == b.den against the
    denominator-cleared rows, and its numerators are those of that null
    vector negated, off the right-hand-side column.
    """
    nrows = len(rows)
    _check_columns(rows, ncols)
    aug = [dict(row) for row in rows]
    for k, b in enumerate(rhs_cols):
        for i, v in b.items():
            if not 0 <= i < nrows:
                raise ValueError("right-hand side row %r outside 0 .. %d" % (i, nrows - 1))
            aug[i][ncols + k] = v
    width = ncols + len(rhs_cols)
    ints, _ = _integer_rows(aug, width)
    m, piv_cols, _ = _bareiss_echelon([dict(r) for r in ints], width)
    if piv_cols and piv_cols[-1] >= ncols:
        # a pivot in the rhs block is a row 0 = nonzero
        raise InconsistentSystemError("no solution: 0 = nonzero after elimination")
    if len(piv_cols) < ncols:
        raise SingularSystemError("coefficient matrix is rank-deficient")
    vecs = _null_vectors(ints, m, piv_cols, range(ncols, width), "solve")
    return [({c: -a for c, a in v.items() if c < ncols}, den) for v, den in vecs]


def det(rows: Sequence[dict], ncols: int) -> Fraction:
    """Exact determinant of the square matrix with {column: entry} rows
    `rows`: Bareiss on the denominator-cleared rows, whose last pivot is
    their determinant up to the sign of the pivot-row order."""
    n = len(rows)
    if ncols != n:
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return ONE
    ints, dens = _integer_rows(rows, n)
    m, piv, order = _bareiss_echelon(ints, n)
    if len(piv) < n:
        return ZERO
    sign = 1  # the parity of the pivot-row order, sorted by swaps
    for i in range(n):
        while order[i] != i:
            j = order[i]
            order[i], order[j] = order[j], j
            sign = -sign
    return Fraction(sign * m[n - 1][n - 1], math.prod(dens))


# ---------------------------------------------------------------------------
# univariate polynomials over the rationals, ascending coefficients
# ---------------------------------------------------------------------------

POLY_ZERO: tuple = ()


def poly_trim(coeffs: Iterable[Fraction]) -> tuple:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_add(p, q):
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return poly_trim(out)


def poly_scale(c, p):
    c = rat(c)
    if c == 0:
        return POLY_ZERO
    return tuple(c * a for a in p)


def poly_mul(p, q):
    if not p or not q:
        return POLY_ZERO
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly_trim(out)


def poly_eval(p, x: Fraction) -> Fraction:
    if not p:
        return ZERO
    coeffs = reversed(p)
    acc = next(coeffs)
    for c in coeffs:
        acc = acc * x + c
    return acc


def interpolate(samples: Sequence[tuple[Fraction, Fraction]], degree_bound: int) -> tuple:
    """Unique polynomial of degree <= degree_bound through the samples.

    Requires at least degree_bound + 2 distinct points; the points beyond the
    first degree_bound + 1 act as consistency checks and must re-validate.
    """
    xs = [s[0] for s in samples]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation points must be distinct")
    need = degree_bound + 2
    if len(samples) < need:
        raise ValueError("need at least %d samples for degree bound %d" % (need, degree_bound))
    base = samples[: degree_bound + 1]
    # Newton divided differences, expanded to the monomial basis
    n = len(base)
    coef = [y for _, y in base]
    pts = [x for x, _ in base]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (pts[i] - pts[i - j])
    poly = POLY_ZERO
    basis = (ONE,)
    for i in range(n):
        poly = poly_add(poly, poly_scale(coef[i], basis))
        basis = poly_mul(basis, (-pts[i], ONE))
    for x, y in samples[degree_bound + 1:]:
        if poly_eval(poly, x) != y:
            raise InterpolationError("samples are not polynomial of degree <= %d" % degree_bound)
    return poly


# ---------------------------------------------------------------------------
# matrix polynomials in z
# ---------------------------------------------------------------------------

def eval_matrix_poly(F: dict, x: Fraction) -> dict:
    """Entry-wise evaluation at z = x of a matrix polynomial given as
    {(i, j): nonzero polynomial}, as {(i, j): nonzero value}."""
    x = rat(x)
    out = {}
    for ij, p in F.items():
        if v := poly_eval(p, x):
            out[ij] = v
    return out
