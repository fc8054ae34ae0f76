"""The JSON writer gives the bytes of json.dumps(indent=2, sort_keys=True)."""

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nla_weaksim import io
from nla_weaksim.cli import main


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
