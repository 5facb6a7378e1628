"""Bit-for-bit goldens of the exact pipelines.

For every coprime (e, d) with e + d <= 7 and each residue point x in
`POINTS`, the sha256 of the `sol_space` kernel vectors, of the `g_elements`
corrections, and of the JSON documents of `assemble_r` and
`assemble_stolin_r(..., neg_j)` at y = `Y` must equal the digests recorded in
`goldens/exact_digests.json`.  Any change to the elimination, the
back-substitution or the assembly that moves a single coefficient fails here.
"""

import hashlib
import json
from fractions import Fraction
from math import gcd
from pathlib import Path

from ybe_forge import cuspidal, stolin
from ybe_forge.document import document_from_tensor, dumps

GOLDEN = Path(__file__).parent / "goldens" / "exact_digests.json"
N_MAX = 7
# 0, 1, a small fraction and a rational with 30-digit numerator and
# denominator (the most digits the CLI accepts)
POINTS = (
    Fraction(0),
    Fraction(1),
    Fraction(-3, 7),
    Fraction(123456789012345678901234567891, 987654321098765432109876543217),
)
Y = Fraction(5, 2)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _poly_text(G: dict, n: int) -> str:
    """The n x n matrix polynomial G, {(i, j): polynomial}, as the text of
    its dense grid: every entry in row-major order, the zero ones empty."""
    return ";".join(",".join(map(str, G.get((i, j), ())))
                    for i in range(1, n + 1) for j in range(1, n + 1))


def entries_text(items, n: int) -> str:
    """(key, n x n matrix polynomial) pairs as text, sorted by key, entries
    only."""
    return "|".join("%r:%s" % (key, _poly_text(G, n)) for key, G in sorted(items))


def compute_digests() -> dict:
    out = {}
    for n in range(2, N_MAX + 1):
        for e in range(1, n):
            d = n - e
            if gcd(e, d) != 1:
                continue
            neg_j = stolin.neg_j_matrix(e, d)
            for x in POINTS:
                sol = cuspidal.sol_space(e, d, x)
                g = cuspidal.g_elements(e, d, x)
                out["%d,%d,%s" % (e, d, x)] = {
                    "sol_space": _sha("|".join(",".join(map(str, v)) for v in sol.vectors)),
                    "g_elements": _sha("|".join(
                        "%r:%s" % (label, _poly_text(G, n)) for label, G in g.corrections.items()
                    )),
                    "assemble_r": _sha(dumps(document_from_tensor(
                        cuspidal.assemble_r(e, d, x, Y)))),
                    "assemble_stolin_r": _sha(dumps(document_from_tensor(
                        stolin.assemble_stolin_r(e, d, neg_j, x, Y)))),
                }
    return out


def test_exact_pipelines_bit_for_bit():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = compute_digests()
    assert got.keys() == expected.keys()
    for key, digests in expected.items():
        assert got[key] == digests, key
