"""The JSON writer gives the bytes of json.dumps(indent=2, sort_keys=True)."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nla_weaksim import io
from nla_weaksim.cli import main
from nla_weaksim.experiment import SweepResult


def _dumps(doc):
    return json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("args", [
    ["protocol", "--gain", "3", "--signal", "phase-averaged", "--loss", "0.2"],
    ["gain-sweep", "--gains", "3,6", "--inputs", "1e-5,1e-4", "--shots",
     "1000000", "--seed", "9", "--rate-scale", "100"],
    ["gain-vs-phi", "--inputs", "1e-4", "--phis", "0.5,1.5"],
    ["visibility", "--gains", "2,3", "--shots", "1000000", "--seed", "9",
     "--rate-scale", "1e4"],
], ids=lambda args: args[0])
def test_envelopes_are_json_dumps_bytes(args, capsys):
    assert main(args + ["--format", "json"]) == 0
    text = capsys.readouterr().out
    doc = json.loads(text)
    assert text == _dumps(doc) + "\n"
    if args[0] == "protocol":
        row = dict(zip(doc["columns"], doc["rows"][0]))
        # a mixed input has no amplitude gain: its NaN columns are null
        assert row["amplitude_gain_re"] is None
        assert row["amplitude_gain_im"] is None
    if args[0] == "visibility":
        assert all(len(scan["counts"]) == 16 for scan in doc["meta"]["scans"])


_leaves = (st.none() | st.booleans() | st.integers() | st.text()
           | st.floats(allow_nan=True, allow_infinity=True))
_docs = st.recursive(
    _leaves,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(), kids, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(_docs)
@example({"a": [math.nan, math.inf, -math.inf, -0.0], "b": {}, "c": []})
@example([{"été": "☃ snow\n", "": None}, [[], [{}]], True, -7])
@example(-0.0)
def test_json_block_is_json_dumps(doc):
    assert io._json_block(doc, 0) == _dumps(doc)


def _envelope_value(value):
    # a row or meta value as the envelope document holds it: floats rounded
    # to 12 significant digits, NaN as null, complex as [real, imag]
    if isinstance(value, float):
        value = float(f"{value:.12g}")
        return None if math.isnan(value) else value
    if isinstance(value, complex):
        return [value.real, value.imag]
    return value


_floats = st.floats(allow_nan=True, allow_infinity=True)
_values = (st.none() | st.booleans() | st.integers() | st.text() | _floats
           | _floats.map(np.float64)
           | st.complex_numbers(allow_nan=True, allow_infinity=True))


@settings(max_examples=300, deadline=None)
@given(kind=st.text(), columns=st.lists(st.text(), max_size=5),
       rows=st.lists(st.lists(_values, max_size=6), max_size=4),
       meta=st.dictionaries(st.text(), _values | _docs, max_size=4),
       config=st.none() | st.dictionaries(st.text(), _docs, max_size=5))
@example(kind="protocol", columns=["a", "b"],
         rows=[[math.nan, math.inf, -math.inf, -0.0, 1e15, 5e-324], []],
         meta={"z": {"scans": [{"rates": [0.1, math.nan]}]}, "a": 1 + 2j},
         config={"cap": 4, "phi": None, "loss": 0.1 + 0.2})
@example(kind="", columns=[], rows=[], meta={}, config=None)
def test_json_text_is_json_dumps_of_the_envelope(kind, columns, rows, meta,
                                                 config):
    doc = {
        "schema": io.SCHEMA,
        "kind": kind,
        "config": config if config is not None else {},
        "meta": {k: _envelope_value(v) for k, v in meta.items()},
        "columns": columns,
        "rows": [[_envelope_value(v) for v in row] for row in rows],
    }
    text = io.json_text(SweepResult(kind, columns, rows, meta), config)
    assert text == _dumps(doc) + "\n"


@pytest.mark.parametrize("value", [
    0.0, -0.0, 3.0, -123456789012.0, 0.1 + 0.2, 1e-4, 9.99999999999e-5,
    1e-5, 999999999999.5, 1e12, 1.5e15, 9.9999999999995e15, 1e16,
    2.5e300, 1.7976931348623157e308, 2.2250738585072014e-308, 1e-308,
    5e-324, math.inf, -math.inf, math.nan, np.float64(1.0 / 3.0),
])
def test_float_text_is_the_json_of_the_rounded_float(value):
    # the layouts where %.12g and repr part ways: integral fixed forms,
    # exponents 12 to 15, subnormals and the non-finite values
    rounded = float(f"{value:.12g}")
    want = "null" if math.isnan(rounded) else json.dumps(rounded)
    assert io._float_text(value) == want
