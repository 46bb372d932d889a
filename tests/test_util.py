"""Tests for the shared CSV writer: what it writes, read_csv_rows reads
back unchanged."""

import math
import struct
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from crownclass.util import read_csv_rows, write_csv_rows

COLUMNS = ("name", "value", "note")

texts = st.text(st.characters(blacklist_categories=("Cs",))) | st.sampled_from(
    ['a,b', 'say "hi"', '""', ",\r\n,", "naïve épicéa", "松", " padded ", ""]
)
floats = st.floats(allow_nan=False) | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.5e-310, 0.1 + 0.2]
)


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(texts, floats, texts), max_size=6))
def test_round_trip_keeps_text_and_float_bits(rows):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "table.csv"
        write_csv_rows(path, COLUMNS, rows)
        back = read_csv_rows(path, COLUMNS, lambda r: (r[0], float(r[1]), r[2]))
    assert [(name, note) for name, _, note in back] == [
        (name, note) for name, _, note in rows
    ]
    assert [bits(value) for _, value, _ in back] == [bits(value) for _, value, _ in rows]


def test_header_only_for_no_rows(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv_rows(path, COLUMNS, [])
    assert path.read_bytes() == b"name,value,note\r\n"
