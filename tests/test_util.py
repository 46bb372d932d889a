"""Tests for the shared CSV writer (what it writes, read_csv_rows reads
back unchanged) and for parallel_map's forked workers."""

import math
import multiprocessing
import os
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crownclass.util import parallel_map, read_csv_rows, write_csv_rows

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


class Odd(LookupError):
    """An exception type of this module, which a worker can pickle."""


class TestParallelMap:
    def test_workers_return_the_bytes_of_the_inline_map(self):
        weights = np.random.default_rng(3).standard_normal((40, 40))

        def task(k):  # a closure over a parent array: nothing to pickle
            x = np.random.default_rng(k).standard_normal((64, 40))
            return {"k": k, "y": np.tanh(x @ weights).astype(np.float32)}

        def content(results):
            return [(r["k"], r["y"].dtype, r["y"].shape, r["y"].tobytes()) for r in results]

        items = list(range(9))
        inline = parallel_map(task, items, 1)
        assert content(parallel_map(task, items, 2)) == content(inline)
        assert multiprocessing.active_children() == []

    def test_tasks_run_in_forked_workers(self):
        pids = parallel_map(lambda _: os.getpid(), list(range(6)), 2)
        assert os.getpid() not in pids and 1 <= len(set(pids)) <= 2
        assert parallel_map(lambda _: os.getpid(), [0], 2) == [os.getpid()]
        assert multiprocessing.active_children() == []

    def test_each_call_sees_the_parent_state_of_its_own_time(self):
        # Workers are forked per call: a change the parent makes between
        # calls (a flipped label) reaches the next call's workers.
        labels = ["conifer"] * 4
        first = parallel_map(lambda i: labels[i], list(range(4)), 2)
        labels[2] = "deciduous"
        second = parallel_map(lambda i: labels[i], list(range(4)), 2)
        assert first == ["conifer"] * 4
        assert second == ["conifer", "conifer", "deciduous", "conifer"]

    def test_task_exception_reaches_parent_with_type_and_message(self):
        def task(k):
            if k == 3:
                raise Odd(f"item {k} is odd")
            return k

        with pytest.raises(Odd) as caught:
            parallel_map(task, list(range(8)), 2)
        assert str(caught.value) == "item 3 is odd"
        assert "in task" in "".join(caught.value.__notes__)  # the worker's traceback
        assert multiprocessing.active_children() == []

    def test_dead_worker_raises_and_leaves_no_child(self):
        def task(k):
            if k == 1:
                os._exit(7)
            return k

        with pytest.raises(RuntimeError, match="exited with code 7 on item 1"):
            parallel_map(task, list(range(4)), 2)
        assert multiprocessing.active_children() == []
