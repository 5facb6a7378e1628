"""The CYBE kernel: the sum of [r12, r13] + [r13, r23] + [r12, r23] over
triples of tensors, in gl(n)^(x3), in the slot conventions of
`lie.cybe_lhs`.  Only `verify` and `lie.cybe_lhs` load it; no CLI request
that builds a solution runs it.

One sparse pass per commutator; rational inputs are summed as integer
numerators over their common denominator D and divided by D^2 once.  Each
input hands over the numerators it holds (`GlTensor2.numerators`), so a
point evaluation reaches the kernel with no Fraction.  The passes run once
per row v of the first output slot, so only the partial sums of that row
are held at a time: that row is the row of the first factor of an r12 or
an r13 term, so each join restricts one side to the terms of row v.

Each commutator takes its two inputs with the shared slot moved first, and
there the identity I is central: [I, b] = 0.  So for rational inputs each
of the six arrangements drops mu_u I (x) u for each second factor u
(`_drop_central`), which changes no commutator and removes the dense
diagonal rows that the Casimir's -1/n block and the dual Cartan elements
put into a table evaluation.  At the Stolin (1,6) solution at (0, 1, 2)
the joins form 56,294 products without the drop and 29,154 with it.
Complex inputs skip the drop, which would change their rounding.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import lcm

from .lie import RATIONAL, GlTensor3, _scaled, _swapped


def _drop_central(terms: dict, n: int) -> None:
    """Subtract mu_u I (x) u from `terms` in place for each second factor u,
    I the identity sum_a e_{a,a} and mu_u the most common coefficient of
    e_{a,a} (x) u over a = 1..n, zeros counted (a tie with zero leaves u
    alone).  e_{a,a} (x) u then vanishes wherever its coefficient was mu_u,
    which is at least as common as zero, so no u gains diagonal terms."""
    diag: dict = {}
    for (i, j, k, l), c in terms.items():
        if i == j:
            diag.setdefault((k, l), []).append(c)
    for (k, l), cs in diag.items():
        mu, count = Counter(cs).most_common(1)[0]
        if count <= n - len(cs):
            continue
        for a in range(1, n + 1):
            key = (a, a, k, l)
            c = terms.get(key, 0) - mu
            if c:
                terms[key] = c
            else:
                del terms[key]


def _by_slot(terms: dict, slot: int, weights: tuple) -> dict:
    """Terms (i, j, k, l) -> c grouped by the row (slot 0) or the column
    (slot 1) of their first factor; each group lists (the dot product of
    `weights` with (i, j, k, l), c)."""
    wi, wj, wk, wl = weights
    out: dict = {}
    for key, c in terms.items():
        i, j, k, l = key
        out.setdefault(key[slot], []).append((wi * i + wj * j + wk * k + wl * l, c))
    return out


def _join(total: dict, xs: dict, ys: dict, sign: int) -> None:
    """total[kx + ky] += sign c c' over the pairs of terms (kx, c) of xs and
    (ky, c') of ys in groups of equal index."""
    get = total.get
    for idx, xgroup in xs.items():
        ygroup = ys.get(idx)
        if ygroup is None:
            continue
        for kx, c in xgroup:
            if sign < 0:
                c = -c
            for ky, c2 in ygroup:
                key = kx + ky
                total[key] = get(key, 0) + c * c2


def _bracket_joins(slots, powers) -> tuple:
    """The two joins that add the bracket of x and y in their first factors:
    terms c a (x) u of x and c' b (x) w of y give c c' [a, b], u and w in
    slots slots[0], slots[1] and slots[2] of gl(n)^(x3).  An output key is
    the dot product of the six indices with `powers`, the powers of a base
    > n.  As [e_ab, e_pq] = delta_bp e_aq - delta_qa e_pb, x is joined with
    y once on x's column = y's row, and once on x's row = y's column.  Each
    join is ((slot, weights) of x, (slot, weights) of y, sign) for
    `_by_slot` and `_join`; a's row is the output row in the first join
    and b's row in the second."""
    row, col, u_row, u_col, w_row, w_col = (powers[2 * s + i] for s in slots for i in (0, 1))
    return (((1, (row, 0, u_row, u_col)), (0, (0, col, w_row, w_col)), 1),
            ((0, (0, col, u_row, u_col)), (1, (row, 0, w_row, w_col)), -1))


def _by_row(terms: dict, slot: int) -> dict:
    """Terms (i, j, k, l) -> c split by the row of their first (slot 0) or
    second (slot 2) factor."""
    out: dict = {}
    for key, c in terms.items():
        out.setdefault(key[slot], {})[key] = c
    return out


def cybe_lhs_sum(triples) -> GlTensor3:
    """The sum of `lie.cybe_lhs(r12, r13, r23)` over the triples, from one pass
    per row v over all of them: a term that cancels between triples is
    never decoded."""
    tensors = [t for triple in triples for t in triple]
    for t in tensors[1:]:
        tensors[0]._check_compatible(t)
    n = tensors[0].n
    rational = tensors[0].ring == RATIONAL
    forms = [t.numerators() for t in tensors]
    den = lcm(*(d for _, d in forms))  # 1 for complex tensors
    # new dicts, also where den // d = 1: `_drop_central` changes them in place
    coeffs = [_scaled(nums, den // d) for nums, d in forms]

    base = n + 1
    powers = [base ** p for p in range(5, -1, -1)]
    (x1, y1, _), (x2, y2, _) = _bracket_joins((0, 1, 2), powers)
    in_slot3 = _bracket_joins((2, 0, 1), powers)
    in_slot2 = _bracket_joins((1, 0, 2), powers)
    groups = []
    for c12, c13, c23 in zip(*[iter(coeffs)] * 3):
        # the bracket acts on each tensor's first factor; swapping moves the
        # shared slot there.  [r12, r13] lands in slot 1 and takes c12 and
        # c13, [r13, r23] in slot 3 and [r12, r23] in slot 2 take swapped
        # tensors; those two carry the first factor of r13 and of r12 into
        # slot 1, so their rows v are those of the second factor after the
        # swap.
        s12, s13, s23 = _swapped(c12), _swapped(c13), _swapped(c23)
        if rational:
            for t in (c12, c13, s13, s23, s12, c23):
                _drop_central(t, n)
        # the unrestricted side of each join, grouped once, then the rows
        groups.append((
            _by_slot(c13, *y1), _by_slot(c12, *x2),
            [(x, _by_slot(s23, *y), sign) for x, y, sign in in_slot3],
            [(x, _by_slot(c23, *y), sign) for x, y, sign in in_slot2],
            _by_row(c12, 0), _by_row(c13, 0), _by_row(s13, 2), _by_row(s12, 2),
        ))
    sq = den * den
    unit = [divmod(q, base) for q in range(base * base)]  # (row, col) of a packed slot
    terms: dict = {}
    for v in range(1, n + 1):
        packed: dict = {}
        for r13_y1, r12_x2, r23_slot3, r23_slot2, rows12, rows13, srows13, srows12 in groups:
            _join(packed, _by_slot(rows12.get(v, {}), *x1), r13_y1, 1)
            _join(packed, r12_x2, _by_slot(rows13.get(v, {}), *y2), -1)
            v13, v12 = srows13.get(v, {}), srows12.get(v, {})
            for x, ys, sign in r23_slot3:
                _join(packed, _by_slot(v13, *x), ys, sign)
            for x, ys, sign in r23_slot2:
                _join(packed, _by_slot(v12, *x), ys, sign)
        # lexicographic order of the six indices
        for key in sorted([key for key, c in packed.items() if c]):
            c = packed[key]
            first, rest = divmod(key, powers[1])
            second, third = divmod(rest, powers[3])
            terms[unit[first] + unit[second] + unit[third]] = Fraction(c, sq) if rational else c
    return GlTensor3(n, tensors[0].ring, terms)
