"""Lossless serialization of coefficient tensors with provenance.

Exact rationals serialize as strings, never floats, so goldens stay
bit-exact; complex coefficients serialize as [re, im] pairs.  The term list
is ordered lexicographically by (i, j, k, l) for deterministic output.

A document holds its tensor (`lie.GlTensor2`) as given: the tensor is
read-only, and a rational one holds integer numerators in lowest terms over
one positive denominator.  `dumps` writes each coefficient from its
numerator and the denominator, and `loads` parses the canonical spellings
`-?[0-9]+(/[0-9]+)?` straight to integers over the lcm of the reduced
denominators, the held form, so a round trip of an evaluation builds no
Fraction.  Every other spelling goes through the per-item checks and
`exact.rat`.
"""

from __future__ import annotations

import json
import math
import re

from . import COMPLEX, RATIONAL

SCHEMA = "tensor-document/1"
# Most decimal digits in the common denominator of a rational document's
# coefficients.  `loads` refuses a larger one as soon as the lcm passes it,
# so many distinct large denominators cost no quadratic work.  The CLI
# writes fewer: every cuspidal and +-J table up to n = 12 has at most 2
# digits, and 30-digit points add at most 120.  Dense n = 12 K-matrix files
# at the `cli.K_EXTRA_DIGITS_MAX` bound gave tables of up to 161 digits and
# documents of up to 279 (`stolin 12 e`, e = 1, 5, 7, 11, at 30-digit
# points: 3.8-5.1 s a request on one CPU of an Intel Xeon).
DEN_DIGITS_MAX = 1000
_DEN_LIMIT = 10**DEN_DIGITS_MAX

_CANONICAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?").fullmatch


class DocumentError(ValueError):
    """Malformed or unsupported document payload."""


class TensorDocument:
    """A tensor (`lie.GlTensor2`) with its provenance.  The tensor is
    read-only and its rational form canonical, so a document holds it as
    given and `==` compares the held forms; `terms` lists its coefficients
    sorted by (i, j, k, l)."""

    __slots__ = ("_tensor", "provenance")

    def __init__(self, tensor, provenance: dict | None = None):
        self._tensor = tensor
        self.provenance = {} if provenance is None else provenance

    @property
    def n(self) -> int:
        return self._tensor.n

    @property
    def scalar(self) -> str:
        return self._tensor.ring

    @property
    def terms(self) -> tuple:
        return tuple(sorted(self._tensor.terms.items()))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._tensor, self.provenance) == (other._tensor, other.provenance)

    def to_tensor(self):
        return self._tensor


def document_from_tensor(t, provenance: dict | None = None) -> TensorDocument:
    """The document of tensor `t`, held as given, with a copy of `provenance`."""
    return TensorDocument(t, dict(provenance or {}))


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
    form is canonical with no gcd of its own: over many distinct
    denominators that gcd would take one long gcd per term.  The lcm is
    refused as soon as it passes `DEN_DIGITS_MAX` digits."""
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
    den = 1
    for q in {q for _, q in terms.values()}:
        den = math.lcm(den, q)
        if den >= _DEN_LIMIT:
            raise DocumentError("the coefficients' common denominator has more than %d digits"
                                % DEN_DIGITS_MAX)
    return {key: p * (den // q) for key, (p, q) in terms.items()}, den


def document_from_json(payload: dict) -> TensorDocument:
    from .exact import rat  # writing a document loads neither `exact` nor `lie`
    from .lie import GlTensor2

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
            coeffs, den = _rational_terms(payload["terms"], n, rat)
        else:
            coeffs, den = {}, 1
            for item in payload["terms"]:
                key, c = _term_from_json(item, n, coeffs, scalar, rat)
                coeffs[key] = c
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
    return TensorDocument(GlTensor2._held(n, scalar, coeffs, den), dict(provenance))


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
    nums, den = doc.to_tensor().numerators()
    if not nums:
        return head
    if doc.scalar == RATIONAL:
        # each coefficient as str(Fraction(v, den)) spells it, from one gcd
        # per distinct numerator
        body, texts = [], {}
        for (i, j, k, l), v in sorted(nums.items()):
            c = texts.get(v)
            if c is None:
                g = math.gcd(v, den)
                c = texts[v] = "%d" % (v // g) if g == den else "%d/%d" % (v // g, den // g)
            body.append(_RATIONAL_TERM % (c, i, j, k, l))
    else:
        body = [_COMPLEX_TERM % (_json_number(c.real), _json_number(c.imag), i, j, k, l)
                for (i, j, k, l), c in sorted(nums.items())]
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
