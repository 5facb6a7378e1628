"""Property tests of the input boundary: every CLI request ends with exit 0,
2 or 3 and no traceback, and every document payload either loads or raises
DocumentError."""

import json
import math
import os
import tempfile
from fractions import Fraction as F

from conftest import invoke
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_document import read_outcome, reference_document_from_json, reference_dumps
from ybe_forge.document import (
    DocumentError,
    TensorDocument,
    document_from_json,
    document_from_tensor,
    dumps,
    loads,
)
from ybe_forge.lie import RATIONAL, GlTensor2

SETTINGS = settings(derandomize=True, max_examples=40, deadline=None)


def mostly(valid, junk):
    """Draw from `valid` about three times in four, else from `junk`."""
    return st.integers(0, 3).flatmap(lambda i: junk if i == 0 else valid)


def requests(*args):
    """Argument tuples: each entry of `args` is a (valid, junk) pair of
    strategies; a tuple is all valid about half the time, else each entry is
    drawn from `mostly(valid, junk)`."""
    return st.one_of(st.tuples(*(v for v, _ in args)), st.tuples(*(mostly(v, j) for v, j in args)))


JUNK = st.text(alphabet="0123456789/+-.eijx ", max_size=8)
INT_JUNK = st.one_of(st.integers(min_value=-2, max_value=14).map(str), JUNK)
RAT = (st.fractions(min_value=-20, max_value=20, max_denominator=30).map(str),
       st.one_of(JUNK, st.sampled_from(["1e999999999", "1e-999999999", "2.5e3", "1/0"])))


def _complex_text(re, im):
    return "%.17g%+.17gi" % (re, im)


COMPLEX = (
    st.one_of(
        st.builds(_complex_text, st.floats(-1, 1), st.floats(-3, 3)),
        st.builds(_complex_text, st.floats(-1, 1), st.floats(-1e6, 1e6)),
    ),
    st.one_of(st.sampled_from(["nan", "1e400i", "-1i", "0", "", "1e308", "-1e308"]), JUNK),
)
TAU = (st.sampled_from(["1i", "0.3+1i", "2i", "0.5+1.5i", "0.1+3.7i"]), COMPLEX[0] | COMPLEX[1])


def _invoke(args):
    res = invoke(args)
    assert res.exit_code in (0, 2, 3), (args, res.exit_code, res.exception)
    assert res.exception is None or isinstance(res.exception, SystemExit), (args, res.exception)
    assert "Traceback" not in res.output
    return res


def _ints(lo, hi):
    return st.integers(lo, hi).map(str), INT_JUNK


@SETTINGS
@given(requests(_ints(2, 4), _ints(1, 3), RAT, RAT))
def test_rational_exit_codes(args):
    n, d, x, y = args
    _invoke(["rational", n, d, "--x", x, "--y", y])


# A K-matrix file of 40 kB that nests 20,000 lists, deeper than the JSON
# parser recurses; the directory is removed when the process exits.
_K_FILES = tempfile.TemporaryDirectory()
NESTED_K = os.path.join(_K_FILES.name, "nested-k.json")
with open(NESTED_K, "w") as fh:
    fh.write("[" * 20000 + "]" * 20000)


@SETTINGS
@given(requests(_ints(2, 4), _ints(1, 3),
                (st.sampled_from(["default", "neg-j"]), st.just("no/such/k-matrix.json")),
                RAT, RAT))
@example(args=("4", "2", "default", "0", "1"))  # the default K of a non-coprime split
@example(args=("3", "1", "default", "1e999999999", "1"))  # a billion-digit rational
@example(args=("3", "1", NESTED_K, "0", "1"))  # a RecursionError in the JSON parser
def test_stolin_exit_codes(args):
    n, e, k, x, y = args
    _invoke(["stolin", n, e, "--k-matrix", k, "--x", x, "--y", y])


@SETTINGS
@given(requests(_ints(2, 6), _ints(1, 5), TAU, COMPLEX, COMPLEX,
                (st.just("60"), st.sampled_from(["1", "0", "-5", "1000", "10000000", "x"]))))
@example(args=("6", "5", "2i", "0", "-0.9i", "60"))  # overflowed before the reduction
@example(args=("2", "1", "1i", "1e308", "-1e308", "60"))  # y - x is not finite
@example(args=("5", "3", "-0.85+0.01i", "2.7+8.8e299i", "0", "60"))  # too far to reduce
@example(args=("2", "1", "1i", "0.1", "0.5", "1" + "0" * 400))  # overflowed the terms checks
def test_elliptic_exit_codes(args):
    n, d, tau, x, y, terms = args
    _invoke(["elliptic", n, d, "--tau", tau, "--x", x, "--y", y, "--terms", terms])


@SETTINGS
@given(requests(_ints(1, 8), _ints(1, 8),
                (st.sampled_from(["text", "json", "both"]), st.just("xml"))))
def test_jmatrix_exit_codes(args):
    e, d, fmt = args
    _invoke(["jmatrix", e, d, "--format", fmt])


JSON_SCALAR = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 5), st.floats(allow_nan=False),
    st.sampled_from(["1/2", "1/0", "x", "0", "-3/4"]), st.text(max_size=4),
)
JSON_VALUE = st.recursive(
    JSON_SCALAR,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=8,
)
COEFF = st.one_of(
    st.fractions(max_denominator=9).map(str),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=2),
)
TERM = st.fixed_dictionaries(
    {c: mostly(st.integers(1, 3), JSON_SCALAR) for c in "ijkl"}
    | {"coeff": mostly(COEFF, JSON_VALUE)}
)
PAYLOAD = mostly(
    st.fixed_dictionaries({
        "schema": mostly(st.just("tensor-document/1"), JSON_SCALAR),
        "n": mostly(st.just(3), JSON_SCALAR),
        "scalar": st.sampled_from(["rational", "complex", "real"]),
        "terms": mostly(st.lists(TERM, max_size=3), JSON_VALUE),
        "provenance": mostly(st.dictionaries(st.text(max_size=3), JSON_SCALAR), JSON_VALUE),
    }),
    JSON_VALUE,
)


@settings(SETTINGS, max_examples=300)
@given(payload=PAYLOAD)
@example(payload={  # a repeated key once made the sort compare complex numbers
    "schema": "tensor-document/1", "n": 2, "scalar": "complex",
    "terms": [{"i": 1, "j": 1, "k": 1, "l": 1, "coeff": [c, 0.0]} for c in (1.0, 2.0)],
})
def test_document_loads_or_raises_document_error(payload):
    try:
        doc = loads(json.dumps(payload))
    except DocumentError:
        return
    assert isinstance(doc, TensorDocument)


SPELLING = st.one_of(
    st.fractions(max_denominator=9).map(str),
    st.builds("{}/{}".format, st.integers(-30, 30), st.integers(0, 12)),
    st.text(alphabet="0123456789/+-_.e ", max_size=6),
)
# an index is junk on one draw in twelve, so most terms reach their coefficient
INDEX = st.integers(0, 11).flatmap(
    lambda i: st.one_of(st.integers(-1, 4), JSON_SCALAR) if i == 5 else st.integers(1, 3))
PARITY_TERM = st.fixed_dictionaries(
    {c: INDEX for c in "ijkl"} | {"coeff": mostly(SPELLING, JSON_VALUE)})


@settings(SETTINGS, max_examples=300)
@given(n=st.sampled_from([3, 1, 2, 4]),
       terms=mostly(st.lists(PARITY_TERM, max_size=4), JSON_VALUE))
def test_document_reader_matches_reference(n, terms):
    """The reader that parses canonical spellings to integers and the
    per-item reference reader give the same document or the same message."""
    payload = {"schema": "tensor-document/1", "n": n, "scalar": "rational", "terms": terms}
    payload = json.loads(json.dumps(payload))
    assert read_outcome(document_from_json, payload) == read_outcome(
        reference_document_from_json, payload)


RATIONAL_TERMS = st.dictionaries(
    st.tuples(*[st.integers(1, 3)] * 4),
    st.one_of(st.just(0), st.integers(-5, 5), st.fractions(max_denominator=60)),
    max_size=6,
)


@settings(SETTINGS, max_examples=200)
@given(terms=RATIONAL_TERMS, m=st.integers(-12, 12).filter(bool))
def test_rational_form_is_canonical(terms, m):
    """Equal terms give equal held forms: Fraction or int terms, explicit
    zeros among them, equal `over` of their numerators over any multiple of
    their lcm, a negative one too; the form is in lowest terms, reads back
    as the terms, and its document writes as the reference writer does and
    reads back equal."""
    t = GlTensor2(3, RATIONAL, terms)
    den = math.lcm(*(F(v).denominator for v in terms.values()))
    assert t == GlTensor2.over(3, {k: m * int(v * den) for k, v in terms.items()}, m * den)
    nums, den = t.numerators()
    assert den > 0 and math.gcd(den, *nums.values()) == 1
    assert dict(t.terms) == terms
    doc = document_from_tensor(t, {"m": m})
    assert dumps(doc) == reference_dumps(doc)
    assert loads(dumps(doc)) == doc
