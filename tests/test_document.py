"""Serialization round-trips and rendered output stability."""

import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from ybe_forge.document import (
    SCHEMA,
    DocumentError,
    TensorDocument,
    document_from_json,
    document_from_tensor,
    dumps,
    loads,
    render_latex,
    render_text,
)
from ybe_forge.lie import COMPLEX, GlTensor2, RATIONAL, casimir

GOLDENS = Path(__file__).parent / "goldens"


def document_to_json(doc: TensorDocument) -> dict:
    """Reference payload of a document: rationals as strings, complex
    coefficients as [re, im]; `dumps` must write exactly
    json.dumps(document_to_json(doc), indent=2, sort_keys=True)."""
    def coeff(c):
        return str(c) if doc.scalar == RATIONAL else [c.real, c.imag]

    return {
        "schema": SCHEMA,
        "n": doc.n,
        "scalar": doc.scalar,
        "terms": [
            {"i": i, "j": j, "k": k, "l": l, "coeff": coeff(c)}
            for (i, j, k, l), c in doc.terms
        ],
        "provenance": doc.provenance,
    }


def reference_dumps(doc: TensorDocument) -> str:
    return json.dumps(document_to_json(doc), indent=2, sort_keys=True)


class TestRoundTrip:
    def test_rational(self):
        doc = document_from_tensor(casimir(3), {"pipeline": "test"})
        again = loads(dumps(doc))
        assert again == doc
        assert again.to_tensor() == casimir(3)

    def test_equality_reads_every_field(self):
        """The round trip is checked by equality, so documents that differ in
        provenance alone compare unequal."""
        doc = document_from_tensor(casimir(2), {"pipeline": "test"})
        assert loads(dumps(doc)) == doc
        assert TensorDocument(doc.n, doc.scalar, doc.terms, {"pipeline": "other"}) != doc
        assert TensorDocument(doc.n, doc.scalar, doc.terms) != doc
        assert TensorDocument(doc.n, doc.scalar, doc.terms[1:], doc.provenance) != doc

    def test_rational_exactness(self):
        t = GlTensor2(2, RATIONAL, {(1, 2, 2, 1): F(355, 113)})
        doc = document_from_tensor(t)
        payload = document_to_json(doc)
        assert payload["terms"][0]["coeff"] == "355/113"
        assert loads(dumps(doc)).to_tensor() == t

    def test_complex(self):
        t = GlTensor2(2, COMPLEX, {(1, 2, 2, 1): 0.125 - 3.25j, (1, 1, 2, 2): 1e-17 + 1j})
        doc = document_from_tensor(t, {"pipeline": "elliptic"})
        assert loads(dumps(doc)).to_tensor() == t

    def test_bad_schema(self):
        with pytest.raises(DocumentError):
            document_from_json({"schema": "nope", "n": 2, "scalar": "rational", "terms": []})

    @pytest.mark.parametrize("text", ["[1]", '"x"', "3", "null"])
    def test_non_object_rejected(self, text):
        with pytest.raises(DocumentError, match="JSON object"):
            loads(text)

    def test_float_coefficient_rejected_for_rational(self):
        payload = {
            "schema": "tensor-document/1",
            "n": 2,
            "scalar": "rational",
            "terms": [{"i": 1, "j": 1, "k": 1, "l": 1, "coeff": 0.5}],
        }
        with pytest.raises(DocumentError):
            document_from_json(payload)

    @pytest.mark.parametrize(
        "change",
        [
            {"n": None},
            {"terms": None},
            {"terms": [{"i": 1, "j": 1, "k": 1, "coeff": "1"}]},
            {"terms": [{"i": 1, "j": 1, "k": 1, "l": 1, "coeff": "1/0"}]},
            {"terms": [[1, 1, 1, 1, "1"]]},
            {"n": "x"},
            {"n": 2.9},
            {"terms": [{"i": 1.7, "j": True, "k": 1, "l": "2", "coeff": "1"}]},
            {"terms": [{"i": 1, "j": 1, "k": 1, "l": 1, "coeff": "1e999999999"}]},
        ],
        ids=["missing-n", "missing-terms", "missing-term-key", "zero-denominator",
             "list-term", "non-integer-n", "float-n", "non-integer-index", "huge-exponent"],
    )
    def test_malformed_payload_rejected(self, change):
        payload = {
            "schema": "tensor-document/1",
            "n": 2,
            "scalar": "rational",
            "terms": [{"i": 1, "j": 1, "k": 1, "l": 1, "coeff": "1"}],
        }
        payload.update(change)
        payload = {key: v for key, v in payload.items() if v is not None}
        with pytest.raises(DocumentError):
            document_from_json(payload)

    def test_repeated_term_rejected(self):
        payload = {
            "schema": "tensor-document/1",
            "n": 2,
            "scalar": "complex",
            "terms": [{"i": 1, "j": 1, "k": 1, "l": 1, "coeff": [c, 0.0]} for c in (1.0, 2.0)],
        }
        with pytest.raises(DocumentError, match="duplicate term"):
            document_from_json(payload)

    def test_index_range_checked(self):
        payload = {
            "schema": "tensor-document/1",
            "n": 2,
            "scalar": "rational",
            "terms": [{"i": 1, "j": 3, "k": 1, "l": 1, "coeff": "1"}],
        }
        with pytest.raises(DocumentError):
            document_from_json(payload)


INF, NAN = float("inf"), float("nan")


class TestDumps:
    """`dumps` writes the term array from a template; every document must
    read exactly as json.dumps of its payload does."""

    @pytest.mark.parametrize("doc", [
        document_from_tensor(casimir(3), {"pipeline": "rational", "x": "1/3"}),
        document_from_tensor(GlTensor2(3, RATIONAL, {(1, 2, 3, 1): F(-355, 113),
                                                     (3, 3, 2, 2): F(10**40, 7)})),
        document_from_tensor(GlTensor2(2, COMPLEX, {(1, 2, 2, 1): 0.125 - 3.25j,
                                                    (1, 1, 2, 2): 1e-17 + 1j,
                                                    (2, 2, 1, 1): complex(-0.0, 0.0),
                                                    (2, 1, 1, 2): 1e300 - 5e-324j}),
                             {"pipeline": "elliptic", "tau": [0.3, 1.0], "terms": 60}),
        document_from_tensor(GlTensor2(2, COMPLEX, {(1, 1, 1, 1): complex(NAN, INF),
                                                    (1, 2, 1, 2): complex(-INF, NAN)})),
        document_from_tensor(GlTensor2(2, RATIONAL, {})),
        document_from_tensor(GlTensor2(2, COMPLEX, {}), {"pipeline": "elliptic"}),
        document_from_tensor(casimir(2), {"note": "caf\u00e9 \u2603 \"quoted\"\n",
                                          "nested": {"b": [1, None, True], "a": NAN}}),
    ], ids=["rational", "large-rational", "complex", "nan-inf", "empty-rational",
            "empty-complex", "non-ascii-provenance"])
    def test_equals_json_dumps(self, doc):
        assert dumps(doc) == reference_dumps(doc)

    def test_cli_sized_documents(self):
        """A Stolin (1,6) assembly (275 terms) and a Belavin (4,1) tensor."""
        from ybe_forge.elliptic import ThetaContext, belavin_r
        from ybe_forge.stolin import assemble_stolin_r, neg_j_matrix

        docs = [
            document_from_tensor(assemble_stolin_r(1, 6, neg_j_matrix(1, 6), F(1, 3), F(2))),
            document_from_tensor(belavin_r(4, 1, ThetaContext(tau=0.3 + 1j), 0.1, 0.35 + 0.02j)),
        ]
        assert len(docs[0].terms) > 200
        for doc in docs:
            assert dumps(doc) == reference_dumps(doc)

    def test_python_spelling_of_nan_differs(self, monkeypatch):
        """Negative control: writing the parts with repr alone ('nan',
        'inf') is not json's spelling, and the comparison sees it."""
        from ybe_forge import document

        doc = document_from_tensor(GlTensor2(2, COMPLEX, {(1, 1, 1, 1): complex(NAN, -INF)}))
        monkeypatch.setattr(document, "_json_number", repr)
        assert dumps(doc) != reference_dumps(doc)


class TestRendering:
    def test_latex_term_order_is_lexicographic(self):
        t = GlTensor2(2, RATIONAL, {(2, 1, 1, 2): F(1), (1, 2, 2, 1): F(1, 2)})
        out = render_latex(document_from_tensor(t))
        assert out.index("e_{1,2}") < out.index("e_{2,1}\\otimes")

    def test_latex_zero(self):
        t = GlTensor2(2, RATIONAL, {})
        assert render_latex(document_from_tensor(t)) == "0"

    def test_text_contains_counts(self):
        out = render_text(document_from_tensor(casimir(2)))
        assert "n=2" in out and "terms=6" in out


class TestGoldens:
    @pytest.mark.parametrize(
        "name", ["stolin_n2_e1_x0_y1.json", "rational_n2_d1_x0_y1.json"]
    )
    def test_document_goldens(self, name):
        golden = json.loads((GOLDENS / name).read_text())
        doc = document_from_json(golden)
        # regenerate from the pipelines and compare exactly
        from ybe_forge.cuspidal import assemble_r
        from ybe_forge.stolin import assemble_stolin_r, j_matrix_rat

        if golden["provenance"]["pipeline"] == "stolin":
            t = assemble_stolin_r(1, 1, j_matrix_rat(1, 1), F(0), F(1))
        else:
            t = assemble_r(1, 1, F(0), F(1))
        assert doc.to_tensor() == t

    def test_latex_golden(self):
        golden = (GOLDENS / "rational_n2_d1_x0_y1.tex").read_text().strip()
        from ybe_forge.cuspidal import assemble_r

        doc = document_from_tensor(assemble_r(1, 1, F(0), F(1)))
        assert render_latex(doc) == golden
