"""Lossless serialization of coefficient tensors with provenance.

Exact rationals serialize as strings, never floats, so goldens stay
bit-exact; complex coefficients serialize as [re, im] pairs.  The term list
is ordered lexicographically by (i, j, k, l) for deterministic output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .exact import rat
from .lie import COMPLEX, GlTensor2, RATIONAL

SCHEMA = "tensor-document/1"


class DocumentError(ValueError):
    """Malformed or unsupported document payload."""


@dataclass(frozen=True)
class TensorDocument:
    n: int
    scalar: str
    terms: tuple  # ((i, j, k, l), coeff) sorted
    provenance: dict = field(default_factory=dict)

    def to_tensor(self) -> GlTensor2:
        return GlTensor2(self.n, self.scalar, dict(self.terms))


def document_from_tensor(t: GlTensor2, provenance: dict | None = None) -> TensorDocument:
    terms = tuple(sorted(t.terms.items()))
    return TensorDocument(t.n, t.ring, terms, dict(provenance or {}))


def _coeff_to_json(c, scalar: str):
    if scalar == RATIONAL:
        return str(c)
    return [c.real, c.imag]


def _coeff_from_json(v, scalar: str):
    if scalar == RATIONAL:
        if not isinstance(v, str):
            raise DocumentError("rational coefficients must be strings, got %r" % (v,))
        return rat(v)
    if not (isinstance(v, list) and len(v) == 2):
        raise DocumentError("complex coefficients must be [re, im], got %r" % (v,))
    return complex(v[0], v[1])


def _int_from_json(v, what: str) -> int:
    if type(v) is not int:
        raise DocumentError("%s must be an integer, got %r" % (what, v))
    return v


def document_to_json(doc: TensorDocument) -> dict:
    return {
        "schema": SCHEMA,
        "n": doc.n,
        "scalar": doc.scalar,
        "terms": [
            {"i": i, "j": j, "k": k, "l": l, "coeff": _coeff_to_json(c, doc.scalar)}
            for (i, j, k, l), c in doc.terms
        ],
        "provenance": doc.provenance,
    }


def document_from_json(payload: dict) -> TensorDocument:
    if not isinstance(payload, dict):
        raise DocumentError("document must be a JSON object, got %s" % type(payload).__name__)
    if payload.get("schema") != SCHEMA:
        raise DocumentError("unsupported schema %r" % payload.get("schema"))
    scalar = payload.get("scalar")
    if scalar not in (RATIONAL, COMPLEX):
        raise DocumentError("unknown scalar kind %r" % scalar)
    try:
        n = _int_from_json(payload["n"], "n")
        terms = {}
        for item in payload["terms"]:
            key = tuple(_int_from_json(item[c], c) for c in "ijkl")
            if not all(1 <= v <= n for v in key):
                raise DocumentError("term index out of range: %r" % (key,))
            if key in terms:
                raise DocumentError("duplicate term %r" % (key,))
            terms[key] = _coeff_from_json(item["coeff"], scalar)
        provenance = dict(payload.get("provenance", {}))
    except DocumentError:
        raise
    except KeyError as exc:
        raise DocumentError("missing key %s" % exc) from exc
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise DocumentError("malformed document: %s" % exc) from exc
    return TensorDocument(n, scalar, tuple(sorted(terms.items())), provenance)


def dumps(doc: TensorDocument) -> str:
    return json.dumps(document_to_json(doc), indent=2, sort_keys=True)


def loads(text: str) -> TensorDocument:
    return document_from_json(json.loads(text))


def _coeff_text(c, scalar):
    if scalar == RATIONAL:
        return str(c)
    return "(%.12g%+.12gi)" % (c.real, c.imag)


def render_text(doc: TensorDocument) -> str:
    lines = ["n=%d scalar=%s terms=%d" % (doc.n, doc.scalar, len(doc.terms))]
    for (i, j, k, l), c in doc.terms:
        lines.append(
            "  %s  e(%d,%d) (x) e(%d,%d)" % (_coeff_text(c, doc.scalar), i, j, k, l)
        )
    if doc.provenance:
        lines.append("provenance: %s" % json.dumps(doc.provenance, sort_keys=True))
    return "\n".join(lines)


def _latex_coeff(c, scalar):
    if scalar == RATIONAL:
        if c.denominator == 1:
            return str(c.numerator)
        sign = "-" if c < 0 else ""
        return r"%s\frac{%d}{%d}" % (sign, abs(c.numerator), c.denominator)
    return r"\left(%.12g%+.12gi\right)" % (c.real, c.imag)


def render_latex(doc: TensorDocument) -> str:
    """A compilable tensor expression; terms in (i,j,k,l) lexicographic order."""
    if not doc.terms:
        return "0"
    parts = []
    for (i, j, k, l), c in doc.terms:
        coeff = _latex_coeff(c, doc.scalar)
        term = r"%s\, e_{%d,%d}\otimes e_{%d,%d}" % (coeff, i, j, k, l)
        parts.append(term)
    out = parts[0]
    for p in parts[1:]:
        out += " + " + p if not p.startswith("-") else " " + p
    return out
