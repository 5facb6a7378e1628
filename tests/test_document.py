"""Serialization round-trips and rendered output stability."""

import json
import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from test_lie import count_fractions
from ybe_forge import cuspidal, stolin
from ybe_forge.document import (
    DEN_DIGITS_MAX,
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


def _reference_int(v, what):
    if type(v) is not int:
        raise DocumentError("%s must be an integer, got %r" % (what, v))
    return v


def _reference_coeff(v, scalar):
    from ybe_forge.exact import rat

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


def reference_document_from_json(payload) -> TensorDocument:
    """The per-item reader: every field checked in turn and every rational
    coefficient read by `exact.rat`, as one Fraction.  The reader of the
    package must accept the same payloads, with the same values, and
    refuse the others with the same message."""
    if not isinstance(payload, dict):
        raise DocumentError("document must be a JSON object, got %s" % type(payload).__name__)
    if payload.get("schema") != SCHEMA:
        raise DocumentError("unsupported schema %r" % payload.get("schema"))
    scalar = payload.get("scalar")
    if scalar not in (RATIONAL, COMPLEX):
        raise DocumentError("unknown scalar kind %r" % scalar)
    try:
        n = _reference_int(payload["n"], "n")
        if n < 1:
            raise DocumentError("n must be positive, got %d" % n)
        terms = {}
        for item in payload["terms"]:
            key = tuple(_reference_int(item[c], c) for c in "ijkl")
            if not all(1 <= v <= n for v in key):
                raise DocumentError("term index out of range: %r" % (key,))
            if key in terms:
                raise DocumentError("duplicate term %r" % (key,))
            terms[key] = _reference_coeff(item["coeff"], scalar)
        provenance = payload.get("provenance", {})
        if not isinstance(provenance, dict):
            raise DocumentError("provenance must be a JSON object, got %r" % (provenance,))
        json.dumps(provenance, allow_nan=False)
    except DocumentError:
        raise
    except KeyError as exc:
        raise DocumentError("missing key %s" % exc) from exc
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise DocumentError("malformed document: %s" % exc) from exc
    return TensorDocument(GlTensor2(n, scalar, terms), dict(provenance))


def read_outcome(read, payload):
    """("ok", document) or ("error", message) of one reader on a payload."""
    try:
        return "ok", read(payload)
    except DocumentError as exc:
        return "error", str(exc)


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
        tensor = doc.to_tensor()
        assert TensorDocument(tensor, {"pipeline": "other"}) != doc
        assert TensorDocument(tensor) != doc
        fewer = GlTensor2(doc.n, doc.scalar, dict(doc.terms[1:]))
        assert TensorDocument(fewer, doc.provenance) != doc

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
            {"terms": [{"i": 1, "j": 1, "k": 1, "l": 1, "coeff": "1e2_000"}]},
            {"provenance": [["a", 1]]},
            {"provenance": {"a": float("nan"), "b": float("inf")}},
            {"provenance": {"tau": [float("-inf"), 1.0]}},
        ],
        ids=["missing-n", "missing-terms", "missing-term-key", "zero-denominator",
             "list-term", "non-integer-n", "float-n", "non-integer-index", "huge-exponent",
             "grouped-huge-exponent", "list-provenance", "non-finite-provenance",
             "nested-non-finite-provenance"],
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

    @pytest.mark.parametrize("n", [0, -3])
    @pytest.mark.parametrize("scalar", [RATIONAL, COMPLEX])
    def test_non_positive_n_rejected(self, n, scalar):
        """A size below 1 is refused also when no term has an index to
        check against it."""
        payload = {"schema": SCHEMA, "n": n, "scalar": scalar, "terms": []}
        with pytest.raises(DocumentError, match="n must be positive"):
            document_from_json(payload)

    @pytest.mark.parametrize("coeff", ["[1e400, 0]", "[0, -1e400]", "[Infinity, 0]",
                                       "[0, -Infinity]", "[NaN, 0]", "[1, NaN]"])
    def test_non_finite_complex_rejected(self, coeff):
        """An overflowing number and json's Infinity and NaN literals load as
        non-finite floats, which `dumps` would write back as no JSON number;
        a finite coefficient in the same payload loads."""
        text = ('{"schema": "%s", "n": 1, "scalar": "complex", "terms": '
                '[{"i": 1, "j": 1, "k": 1, "l": 1, "coeff": %s}]}' % (SCHEMA, "%s"))
        assert loads(text % "[1e300, -2.5]").terms == (((1, 1, 1, 1), 1e300 - 2.5j),)
        with pytest.raises(DocumentError, match="must be finite"):
            loads(text % coeff)

    @pytest.mark.parametrize("args", [
        ("rational", "3", "1", "--x", "1/3", "--y", "2", "--format", "json"),
        ("stolin", "3", "2", "--k-matrix", "neg-j", "--x", "1/3", "--y", "2", "--format", "json"),
        ("elliptic", "2", "1", "--tau", "0.3+1i", "--x", "0.1", "--y", "0.35+0.02i"),
    ], ids=["rational", "stolin", "elliptic"])
    def test_cli_documents_round_trip(self, args):
        """Every document the CLI writes loads back to itself: its provenance
        holds only JSON values."""
        from conftest import invoke

        res = invoke(args)
        assert res.exit_code == 0
        doc = loads(res.stdout)
        assert doc.provenance and loads(dumps(doc)) == doc
        assert dumps(doc) == res.stdout.rstrip("\n")


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
        from ybe_forge.jmat import build_j
        from ybe_forge.stolin import assemble_stolin_r

        if golden["provenance"]["pipeline"] == "stolin":
            t = assemble_stolin_r(1, 1, build_j(1, 1), F(0), F(1))
        else:
            t = assemble_r(1, 1, F(0), F(1))
        assert doc.to_tensor() == t

    def test_latex_golden(self):
        golden = (GOLDENS / "rational_n2_d1_x0_y1.tex").read_text().strip()
        from ybe_forge.cuspidal import assemble_r

        doc = document_from_tensor(assemble_r(1, 1, F(0), F(1)))
        assert render_latex(doc) == golden


def _payload(*items, n=3, scalar=RATIONAL):
    return {"schema": SCHEMA, "n": n, "scalar": scalar, "terms": list(items),
            "provenance": {"pipeline": "test"}}


def _item(coeff="1/6", i=1, j=2, k=3, l=1):
    return {"i": i, "j": j, "k": k, "l": l, "coeff": coeff}


class TestReaderParity:
    """The reader parses canonical spellings straight to integers and sends
    every other item through the per-item checks; against the reference
    reader it gives the same value or the same `DocumentError` message."""

    @pytest.mark.parametrize("coeff", [
        "3/4", "-3/4", "0", "-0", "007/3", "2/4", "5/1", "+3", " 3/4", "1.5", "1e3",
        "1e1001", "1e2_000", "3/0", "٣/4", "1" * 5000, "-12/5000", "3/-4", "3/4\n",
    ], ids=["3/4", "-3/4", "0", "-0", "007/3", "2/4", "5/1", "+3", "space-3/4", "1.5", "1e3",
            "1e1001", "1e2_000", "3/0", "arabic-indic-3/4", "5000-digits", "-12/5000",
            "negative-denominator", "trailing-newline"])
    def test_spellings(self, coeff):
        payload = _payload(_item("-1/6", 2, 2, 1, 1), _item(coeff))
        got = read_outcome(document_from_json, payload)
        assert got == read_outcome(reference_document_from_json, payload)
        if coeff in ("3/4", "-3/4", "0", "-0", "007/3", "2/4", "5/1", "+3", " 3/4", "1.5", "1e3"):
            assert got[0] == "ok" and dict(got[1].terms)[1, 2, 3, 1] == F(coeff.strip())

    @pytest.mark.parametrize("item", [
        _item(i=True), _item(j=1.0), _item(k="3"), _item(l=False),
        _item(i=0), _item(j=4), _item(l=-1),
        *({key: v for key, v in _item().items() if key != gone} for gone in "ijkl"),
        {"i": 1, "j": 2, "k": 3, "l": 1},
        _item(i=2, j=2, k=1, l=1), _item(i=2, j=2, k=1, l=1, coeff="1/6"),
        [1, 2, 3, 1, "1/6"], "1/6", 7, None, _item(coeff=0.5), _item(coeff=["1", "2"]),
    ], ids=["bool-i", "float-j", "string-k", "bool-l", "index-0", "index-n+1", "negative-l",
            "missing-i", "missing-j", "missing-k", "missing-l", "missing-coeff",
            "duplicate", "duplicate-canonical", "list", "string", "int", "null",
            "float-coeff", "list-coeff"])
    def test_items(self, item):
        payload = _payload(_item("-1/6", 2, 2, 1, 1), item)
        got = read_outcome(document_from_json, payload)
        assert got[0] == "error"
        assert got == read_outcome(reference_document_from_json, payload)

    @pytest.mark.parametrize("terms", [{"a": 1}, "x", 3, None])
    def test_terms_not_a_list(self, terms):
        payload = dict(_payload(), terms=terms)
        assert read_outcome(document_from_json, payload) == read_outcome(
            reference_document_from_json, payload)

    def test_denominators_combine(self):
        """Unreduced and mixed spellings give the value of their Fractions,
        over the lcm of the reduced denominators."""
        payload = _payload(_item("4/6", 1, 1, 1, 1), _item("10/4", 1, 2, 2, 1),
                           _item("-0/9", 2, 1, 1, 2), _item("1e-1", 3, 3, 3, 3))
        got = document_from_json(payload)
        assert got == reference_document_from_json(payload)
        assert dict(got.terms) == {(1, 1, 1, 1): F(2, 3), (1, 2, 2, 1): F(5, 2),
                                   (2, 1, 1, 2): 0, (3, 3, 3, 3): F(1, 10)}


class TestDigitBudget:
    """`loads` refuses a rational document whose common denominator has
    more than `DEN_DIGITS_MAX` digits, in one line, as soon as the lcm of
    the reduced denominators passes it."""

    MESSAGE = "the coefficients' common denominator has more than %d digits" % DEN_DIGITS_MAX

    def test_at_the_budget(self):
        q = 10**DEN_DIGITS_MAX - 1
        payload = _payload(_item("1/%d" % q, 1, 1, 1, 1), _item("-2/%d" % q, 2, 1, 1, 1))
        doc = document_from_json(payload)
        assert doc.to_tensor().numerators()[1] == q
        assert doc == reference_document_from_json(payload)

    def test_past_the_budget(self):
        """Two denominators within the budget whose lcm, 10^DEN_DIGITS_MAX,
        is past it; and many distinct 13-digit denominators."""
        payload = _payload(_item("1/%d" % 2**DEN_DIGITS_MAX, 1, 1, 1, 1),
                           _item("1/%d" % 5**DEN_DIGITS_MAX, 2, 1, 1, 1))
        assert read_outcome(document_from_json, payload) == ("error", self.MESSAGE)
        keys = [(i, j, k, l) for i in range(1, 13) for j in range(1, 13) for k in (1, 2)
                for l in (1, 2)]
        payload = _payload(*(_item("1/%d" % (10**12 + q), *key) for q, key in enumerate(keys)),
                           n=12)
        assert read_outcome(document_from_json, payload) == ("error", self.MESSAGE)


def _evaluations():
    """(tensor, x, y) of integer-form table evaluations on both routes at
    x = 0, y = 1 and at seeded points, y < x among them, and, last, one
    with integer coefficients."""
    rng = random.Random(35)
    out = []
    for e, d in ((1, 1), (2, 3), (1, 6)):
        K = stolin.neg_j_matrix(e, d)
        points = [(F(0), F(1))]
        points += [tuple(F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in "xy")
                   for _ in range(3)]
        for x, y in points:
            if x == y:
                continue
            out.append((cuspidal.assemble_r(e, d, x, y), x, y))
            out.append((stolin.assemble_stolin_r(e, d, K, x, y), x, y))
    # integer-valued: an evaluation's numerators, each over 1, held over a
    # denominator that divides them all
    t, x, y = out[-1]
    nums, den = t.numerators()
    out.append((GlTensor2.over(t.n, {k: 6 * v for k, v in nums.items()}, 6), x, y))
    return out


class TestIntegerForm:
    def test_evaluations(self):
        evaluations = _evaluations()
        assert any(y < x for _, x, y in evaluations)
        nums, den = evaluations[-1][0].numerators()
        assert all(v % den == 0 for v in nums.values())
        for t, x, y in evaluations:
            doc = document_from_tensor(t, {"x": str(x), "y": str(y)})
            text = dumps(doc)
            assert text == reference_dumps(doc)
            assert loads(text) == doc
            assert loads(text).to_tensor() == t
            again = GlTensor2(doc.n, doc.scalar, dict(doc.terms))
            assert TensorDocument(again, doc.provenance) == doc

    def test_explicit_zero_kept(self):
        """A tensor built from Fractions keeps an explicit zero as a "0"
        term, and the document reads back to that tensor."""
        t = GlTensor2(2, RATIONAL, {(1, 1, 2, 2): F(0), (1, 2, 2, 1): F(-3, 4)})
        doc = document_from_tensor(t)
        payload = json.loads(dumps(doc))
        assert [term["coeff"] for term in payload["terms"]] == ["0", "-3/4"]
        assert dumps(doc) == reference_dumps(doc)
        assert loads(dumps(doc)) == doc and loads(dumps(doc)).to_tensor() == t

    def test_equal_values_equal_documents(self):
        """A document's form is canonical: a tensor over a non-reduced
        denominator, its Fraction form and the document read back are ==,
        and a changed coefficient is not."""
        nums, den = {(1, 2, 2, 1): 6, (2, 1, 1, 2): -9}, 12
        doc = document_from_tensor(GlTensor2.over(2, nums, den))
        assert doc == document_from_tensor(GlTensor2(2, RATIONAL, {(1, 2, 2, 1): F(1, 2),
                                                                   (2, 1, 1, 2): F(-3, 4)}))
        assert doc == loads(dumps(doc))
        assert doc != document_from_tensor(GlTensor2.over(2, {**nums, (1, 2, 2, 1): 5}, den))

    def test_source_changed_later(self):
        """The tensor a document holds cannot be changed through its
        numerators, so the document stays as it was."""
        t = stolin.assemble_stolin_r(2, 3, stolin.neg_j_matrix(2, 3), F(1, 2), F(-3))
        doc = document_from_tensor(t)
        text = dumps(doc)
        nums, _ = t.numerators()
        for key in list(nums)[:5]:
            with pytest.raises(TypeError):
                nums[key] += 7
        assert dumps(doc) == text and loads(text) == doc

    def test_round_trip_builds_no_fraction(self, monkeypatch):
        """Stolin (1,6) at -J: from tensor to document, text, document read
        back and the comparison build no Fraction; the first read of the
        loaded document's terms builds one per term."""
        K = stolin.neg_j_matrix(1, 6)
        x, y = F(1, 3), F(-4, 7)
        stolin.assemble_stolin_r(1, 6, K, x, y)
        count = count_fractions(monkeypatch)
        doc = document_from_tensor(stolin.assemble_stolin_r(1, 6, K, x, y), {"source": "stolin"})
        again = loads(dumps(doc))
        assert again == doc
        assert count[0] == 0
        terms = again.terms
        assert count[0] == len(terms) > 200
