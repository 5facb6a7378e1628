"""Serialization round-trips and rendered output stability."""

import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from ybe_forge.document import (
    DocumentError,
    document_from_json,
    document_from_tensor,
    document_to_json,
    dumps,
    loads,
    render_latex,
    render_text,
)
from ybe_forge.lie import COMPLEX, GlTensor2, RATIONAL, casimir

GOLDENS = Path(__file__).parent / "goldens"


class TestRoundTrip:
    def test_rational(self):
        doc = document_from_tensor(casimir(3), {"pipeline": "test"})
        again = loads(dumps(doc))
        assert again == doc
        assert again.to_tensor() == casimir(3)

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
