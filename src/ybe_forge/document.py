"""Lossless serialization of coefficient tensors with provenance.

Exact rationals serialize as strings, never floats, so goldens stay
bit-exact; complex coefficients serialize as [re, im] pairs.  The term list
is ordered lexicographically by (i, j, k, l) for deterministic output.

A rational document stays integers over one denominator from the tensor to
its JSON text and back: `document_from_tensor` takes the numerators of an
integer-form tensor (`lie.GlTensor2.over`) as they are, `dumps` writes each
coefficient from its numerator and the denominator, `loads` parses the
canonical spellings `-?[0-9]+(/[0-9]+)?` straight to integers, and `==`
compares the integers, so a round trip of an evaluation builds no Fraction.
Every other spelling goes through the per-item checks and `exact.rat`.
"""

from __future__ import annotations

import json
import math
import re

from . import COMPLEX, RATIONAL

SCHEMA = "tensor-document/1"

_CANONICAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?").fullmatch


class DocumentError(ValueError):
    """Malformed or unsupported document payload."""


class TensorDocument:
    """A tensor's terms, sorted by (i, j, k, l), with its size, scalar kind
    and provenance.  A rational document holds (key, integer numerator)
    pairs over one positive denominator, the lcm of the coefficients'
    reduced denominators, so equal values give equal forms and `==`
    compares integers; `terms` builds the (key, Fraction) pairs on each
    read.  A complex document holds its (key, complex) pairs as given."""

    __slots__ = ("n", "scalar", "_pairs", "_den", "provenance")

    def __init__(self, n: int, scalar: str, terms: tuple, provenance: dict | None = None):
        self.n = n
        self.scalar = scalar
        self.provenance = {} if provenance is None else provenance
        # terms: ((i, j, k, l), coeff) sorted
        if scalar == RATIONAL:
            den = math.lcm(*(c.denominator for _, c in terms))
            self._pairs = tuple((key, c.numerator * (den // c.denominator)) for key, c in terms)
            self._den = den
        else:
            self._pairs, self._den = terms, None

    @classmethod
    def _over(cls, n: int, nums: dict, den: int, provenance: dict) -> "TensorDocument":
        """The rational document of the coefficients nums[key] / den, den
        the lcm of their reduced denominators."""
        doc = cls.__new__(cls)
        doc.n, doc.scalar, doc._den, doc.provenance = n, RATIONAL, den, provenance
        doc._pairs = tuple(sorted(nums.items()))
        return doc

    @property
    def terms(self) -> tuple:
        den = self._den
        if den is None:
            return self._pairs
        from fractions import Fraction  # writing a document leaves `fractions` unloaded

        return tuple((key, Fraction(v, den)) for key, v in self._pairs)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.scalar, self._den, self._pairs, self.provenance) == (
            other.n, other.scalar, other._den, other._pairs, other.provenance)

    def to_tensor(self):
        from .lie import GlTensor2  # writing a document leaves `lie` unloaded

        return GlTensor2(self.n, self.scalar, dict(self.terms))


def document_from_tensor(t, provenance: dict | None = None) -> TensorDocument:
    """The document of tensor `t`.  An integer-form tensor hands over its
    numerators as they are, put in lowest terms with its denominator by one
    gcd; a tensor of Fractions keeps every term, explicit zeros too."""
    provenance = dict(provenance or {})
    nums, den = t._nums, t._den  # the integer form of `GlTensor2.over`, else None
    if nums is None:
        return TensorDocument(t.n, t.ring, tuple(sorted(t.terms.items())), provenance)
    g = math.gcd(den, *nums.values())
    if g > 1:
        nums, den = {key: v // g for key, v in nums.items()}, den // g
    return TensorDocument._over(t.n, nums, den, provenance)


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


def _term_from_json(item, n: int, seen, scalar: str, rat) -> tuple:
    """(key, coefficient) of one item of "terms", checked field by field;
    `seen` holds the keys of the items before it."""
    key = tuple(_int_from_json(item[c], c) for c in "ijkl")
    if not all(1 <= v <= n for v in key):
        raise DocumentError("term index out of range: %r" % (key,))
    if key in seen:
        raise DocumentError("duplicate term %r" % (key,))
    return key, _coeff_from_json(item["coeff"], scalar, rat)


def _rational_terms(items, n: int, rat) -> tuple:
    """(nums, den) of a rational "terms" array: each coefficient is
    nums[key] / den, den the lcm of the reduced denominators.  An item with
    int indices in 1..n, a new key and a coefficient spelled
    -?[0-9]+(/[0-9]+)? over a nonzero denominator is read straight to
    integers, parsed and reduced once per distinct spelling; any other item
    goes through `_term_from_json`, which raises the per-item error or gives
    the Fraction of another spelling.  Over the lcm of the reduced
    denominators the numerators have no factor in common with it, so the
    document needs no gcd of its own: over many distinct denominators that
    gcd would take one long gcd per term."""
    terms: dict = {}
    spelled: dict = {}  # canonical coefficient text -> (p, q) in lowest terms
    for item in items:
        try:
            key = item["i"], item["j"], item["k"], item["l"]
            i, j, k, l = key
            c = item["coeff"]
            pq = spelled.get(c)
            if pq is None and (m := _CANONICAL(c)):
                p, q = m.groups()
                p, q = int(p), 1 if q is None else int(q)
                if q:
                    g = math.gcd(p, q)
                    pq = spelled[c] = (p // g, q // g)
            if (pq and type(i) is type(j) is type(k) is type(l) is int and 0 < i <= n
                    and 0 < j <= n and 0 < k <= n and 0 < l <= n and key not in terms):
                terms[key] = pq
                continue
        except (KeyError, TypeError, ValueError):  # ValueError: past the int-string limit
            pass
        key, c = _term_from_json(item, n, terms, RATIONAL, rat)
        terms[key] = c.numerator, c.denominator
    den = math.lcm(*(q for _, q in terms.values()))
    return {key: p * (den // q) for key, (p, q) in terms.items()}, den


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
        if scalar == RATIONAL:
            nums, den = _rational_terms(payload["terms"], n, rat)
        else:
            terms = {}
            for item in payload["terms"]:
                key, c = _term_from_json(item, n, terms, scalar, rat)
                terms[key] = c
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
    if scalar == RATIONAL:
        return TensorDocument._over(n, nums, den, dict(provenance))
    return TensorDocument(n, scalar, tuple(sorted(terms.items())), dict(provenance))


# One entry of the "terms" array as json.dumps(indent=2, sort_keys=True)
# writes it, for a rational and for a complex coefficient; the indices are
# ints (`document_from_json` refuses anything else)
_RATIONAL_TERM = (
    '    {\n      "coeff": "%s",\n      "i": %d,\n      "j": %d,\n      "k": %d,\n'
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
    if not doc._pairs:
        return head
    if doc.scalar == RATIONAL:
        # each coefficient as str(Fraction(v, den)) spells it, from one gcd
        # per distinct numerator
        den, body, texts = doc._den, [], {}
        for (i, j, k, l), v in doc._pairs:
            c = texts.get(v)
            if c is None:
                g = math.gcd(v, den)
                c = texts[v] = "%d" % (v // g) if g == den else "%d/%d" % (v // g, den // g)
            body.append(_RATIONAL_TERM % (c, i, j, k, l))
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
    terms = doc.terms
    lines = ["n=%d scalar=%s terms=%d" % (doc.n, doc.scalar, len(terms))]
    for (i, j, k, l), c in terms:
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
    terms = doc.terms
    if not terms:
        return "0"
    parts = []
    for (i, j, k, l), c in terms:
        coeff = _latex_coeff(c, doc.scalar)
        term = r"%s\, e_{%d,%d}\otimes e_{%d,%d}" % (coeff, i, j, k, l)
        parts.append(term)
    out = parts[0]
    for p in parts[1:]:
        out += " + " + p if not p.startswith("-") else " " + p
    return out
