"""Lossless serialization of coefficient tensors with provenance.

Exact rationals serialize as strings, never floats, so goldens stay
bit-exact; complex coefficients serialize as [re, im] pairs.  The term list
is ordered lexicographically by (i, j, k, l) for deterministic output.

A document holds its tensor (`lie.GlTensor2`) as given: the tensor is
read-only, and a rational one holds integer numerators in lowest terms over
one positive denominator.  `dumps` writes each coefficient from its
numerator and the denominator.  This module holds what every document
request runs, the writer; the reader behind `loads` and the text and
LaTeX renderings are `formats`, which loads on first use.
"""

from __future__ import annotations

import json
import math

from . import RATIONAL

SCHEMA = "tensor-document/1"


class DocumentError(ValueError):
    """Malformed or unsupported document payload: raised by the reader,
    `formats`, and so by `loads`."""


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


# One entry of the "terms" array as json.dumps(indent=2, sort_keys=True)
# writes it, for a rational and for a complex coefficient; the indices are
# ints (`formats.document_from_json` refuses anything else)
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
    """The document that `dumps` wrote as `text`, read by
    `formats.document_from_json`; DocumentError for a malformed one."""
    from .formats import document_from_json

    return document_from_json(json.loads(text))


