"""Lossless serialization of coefficient tensors with provenance.

Exact rationals serialize as strings, never floats, so goldens stay
bit-exact; complex coefficients serialize as [re, im] pairs.  The term list
is ordered lexicographically by (i, j, k, l) for deterministic output.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii

from . import COMPLEX, RATIONAL

SCHEMA = "tensor-document/1"


class DocumentError(ValueError):
    """Malformed or unsupported document payload."""


class TensorDocument:
    __slots__ = ("n", "scalar", "terms", "provenance")

    def __init__(self, n: int, scalar: str, terms: tuple, provenance: dict | None = None):
        self.n = n
        self.scalar = scalar
        self.terms = terms  # ((i, j, k, l), coeff) sorted
        self.provenance = {} if provenance is None else provenance

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.scalar, self.terms, self.provenance) == (
            other.n, other.scalar, other.terms, other.provenance)

    def to_tensor(self):
        from .lie import GlTensor2  # writing a document leaves `lie` unloaded

        return GlTensor2(self.n, self.scalar, dict(self.terms))


def document_from_tensor(t, provenance: dict | None = None) -> TensorDocument:
    terms = tuple(sorted(t.terms.items()))
    return TensorDocument(t.n, t.ring, terms, dict(provenance or {}))


def _coeff_from_json(v, scalar: str, rat):
    if scalar == RATIONAL:
        if not isinstance(v, str):
            raise DocumentError("rational coefficients must be strings, got %r" % (v,))
        return rat(v)
    if not (isinstance(v, list) and len(v) == 2):
        raise DocumentError("complex coefficients must be [re, im], got %r" % (v,))
    c = complex(v[0], v[1])
    if not (math.isfinite(c.real) and math.isfinite(c.imag)):
        raise DocumentError("complex coefficients must be finite, got %r" % (v,))
    return c


def _int_from_json(v, what: str) -> int:
    if type(v) is not int:
        raise DocumentError("%s must be an integer, got %r" % (what, v))
    return v


def document_from_json(payload: dict) -> TensorDocument:
    from .exact import rat  # writing a document leaves `exact` unloaded

    if not isinstance(payload, dict):
        raise DocumentError("document must be a JSON object, got %s" % type(payload).__name__)
    if payload.get("schema") != SCHEMA:
        raise DocumentError("unsupported schema %r" % payload.get("schema"))
    scalar = payload.get("scalar")
    if scalar not in (RATIONAL, COMPLEX):
        raise DocumentError("unknown scalar kind %r" % scalar)
    try:
        n = _int_from_json(payload["n"], "n")
        if n < 1:
            raise DocumentError("n must be positive, got %d" % n)
        terms = {}
        for item in payload["terms"]:
            key = tuple(_int_from_json(item[c], c) for c in "ijkl")
            if not all(1 <= v <= n for v in key):
                raise DocumentError("term index out of range: %r" % (key,))
            if key in terms:
                raise DocumentError("duplicate term %r" % (key,))
            terms[key] = _coeff_from_json(item["coeff"], scalar, rat)
        provenance = payload.get("provenance", {})
        if not isinstance(provenance, dict):
            raise DocumentError("provenance must be a JSON object, got %r" % (provenance,))
        json.dumps(provenance, allow_nan=False)  # ValueError for NaN or an infinity at any depth
    except DocumentError:
        raise
    except KeyError as exc:
        raise DocumentError("missing key %s" % exc) from exc
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise DocumentError("malformed document: %s" % exc) from exc
    return TensorDocument(n, scalar, tuple(sorted(terms.items())), dict(provenance))


# One entry of the "terms" array as json.dumps(indent=2, sort_keys=True)
# writes it, for a rational and for a complex coefficient; the indices are
# ints (`document_from_json` refuses anything else)
_RATIONAL_TERM = (
    '    {\n      "coeff": %s,\n      "i": %d,\n      "j": %d,\n      "k": %d,\n'
    '      "l": %d\n    }'
)
_COMPLEX_TERM = (
    '    {\n      "coeff": [\n        %s,\n        %s\n      ],\n      "i": %d,\n'
    '      "j": %d,\n      "k": %d,\n      "l": %d\n    }'
)


def _json_number(v) -> str:
    """json.dumps(v), without the encoder for a finite float."""
    if type(v) is float and math.isfinite(v):
        return float.__repr__(v)
    return json.dumps(v)


def dumps(doc: TensorDocument) -> str:
    """The document as json.dumps(payload, indent=2, sort_keys=True) writes
    it.  With an indent json encodes in pure Python, so only the head goes
    through it and the term array, most of a document, is written from a
    template."""
    head = json.dumps(
        {"schema": SCHEMA, "n": doc.n, "scalar": doc.scalar, "terms": [],
         "provenance": doc.provenance},
        indent=2, sort_keys=True,
    )
    if not doc.terms:
        return head
    if doc.scalar == RATIONAL:
        body = [_RATIONAL_TERM % (encode_basestring_ascii(str(c)), i, j, k, l)
                for (i, j, k, l), c in doc.terms]
    else:
        body = [_COMPLEX_TERM % (_json_number(c.real), _json_number(c.imag), i, j, k, l)
                for (i, j, k, l), c in doc.terms]
    # "terms" sorts last among the keys: the head ends with '"terms": []\n}'
    return "%s[\n%s\n  ]\n}" % (head[: -len("[]\n}")], ",\n".join(body))


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
