"""The 0/1 matrix J_(e,d) of a coprime pair and the block split e + d.

J drives both exact pipelines: the geometric one (`cuspidal`) pairs with
it in the constraint of Sol((e,d), x), the parabolic one (`stolin`) takes
+-J as its cocycle matrix.  `jmatrix` loads it beside `cli` and `document`.
J is handed out as its n row tuples; the 2-colouring of its support, which
only the flip gauge reads, is `proofs.j_support_coloring`.  The split is one integer per entry,
`twist`: the z-degree of eta^-1 e_ij eta, from which `cuspidal` reads the
degree caps of V_{e,d} and `stolin` the parabolic p_e, the nilpotent block
and the twist of the order.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

# Most residue points whose corrections `cuspidal.g_elements` keeps.  At
# n = 12 one entry holds about 0.35 MB (measured with tracemalloc at (1, 11)
# and (5, 7)), so the cache stays under about 34 MB; no assembly reads it.
# `stolin.solve_dec` keeps as many cocycle matrices: `verify --n-max 12`
# asks it for J and -J at each of the 45 pairs, 90 in all, so it loses
# none (at 64 it re-solved about 30).
G_ELEMENTS_CACHE_MAX = 96


class NonCoprimeError(ValueError):
    """The pair (e, d) must be coprime positive integers."""


def _check_coprime(e: int, d: int):
    if e < 1 or d < 1 or gcd(e, d) != 1:
        raise NonCoprimeError("need coprime positive integers, got (%d, %d)" % (e, d))


@lru_cache(maxsize=None)
def build_j(e: int, d: int) -> tuple:
    """The recursively defined matrix J_(e,d), as its n row tuples of 0/1
    ints: block-upper-triangular with respect to the split e + d.

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
    return tuple(tuple(row) for row in mat)


def twist(i: int, j: int, e: int) -> int:
    """The z-degree of eta^-1 e_ij eta for eta = diag(1_e, z 1_d): 1 on the
    upper-right e x d block, -1 on the lower-left d x e block, 0 on the
    diagonal blocks."""
    return (i <= e) - (j <= e)
