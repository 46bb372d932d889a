"""Harness tests: smoke-size runs of every workload emit exactly the
metrics BENCHMARK.json names, with their units; the tracer leaves no
wrapper behind; a directory without the sources is refused.

  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from tracer import Tracer, is_wrapped, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_spec_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    done = run_bench(
        ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
        "--trace", str(trace), "--smoke",
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert emitted == expected
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))


def test_bare_directory_is_refused():
    bare = HERE / "_work" / "bare-directory-test"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = run_bench(bare, "--workload", "plot-ingest", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_tracer_wraps_imported_names_and_removes_every_wrapper():
    from crownclass import ensemble, tinynet, util
    from traced import EXCLUDE, FAN_OUT, crownclass_modules

    modules = crownclass_modules()
    originals = {(m.__name__, a): v for m in modules for a, v in vars(m).items()}
    tracer = Tracer(exclude=EXCLUDE, fan_out=FAN_OUT)
    tracer.install(modules, prefix="crownclass.")
    try:
        assert is_wrapped(tinynet.train_network)
        assert ensemble.train_network is tinynet.train_network
        assert is_wrapped(ensemble.parallel_map)
        assert not is_wrapped(sys.modules["crownclass.register"].pair_score)
        squares = ensemble.parallel_map(lambda x: x * x, [1, 2, 3], 2)
    finally:
        tracer.uninstall()
    assert squares == [1, 4, 9]
    leaked = [(m.__name__, a) for m in modules for a, v in vars(m).items() if is_wrapped(v)]
    assert leaked == []
    assert all(vars(m)[a] is originals[(m.__name__, a)] for m in modules for a in vars(m))
    assert util.parallel_map is ensemble.parallel_map

    exported = tracer.export()
    names = [exported["names"][s[1]] for s in exported["spans"]]
    assert names.count("util.parallel_map.task") == 3
    fan_out = next(s for s in exported["spans"] if exported["names"][s[1]] == "util.parallel_map")
    tasks = [s for s in exported["spans"] if exported["names"][s[1]] == "util.parallel_map.task"]
    assert all(task[4] == fan_out[0] for task in tasks)


def test_pool_spans_survive_many_threads():
    from crownclass import util

    tracer = Tracer(fan_out=frozenset({"util.parallel_map"}))
    tracer.install([util], prefix="crownclass.")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        done = util.parallel_map(lambda x: x + 1, list(range(2000)), 8)
    finally:
        sys.setswitchinterval(interval)
        tracer.uninstall()
    assert done == list(range(1, 2001))
    spans = tracer.export()["spans"]
    assert len(spans) == 2001
    assert len({s[0] for s in spans}) == 2001
    root = next(s for s in spans if s[4] == -1)
    assert all(s[4] == root[0] for s in spans if s is not root)
    assert tracer.names == ["util.parallel_map", "util.parallel_map.task"]


def test_self_time_subtracts_the_union_of_child_intervals():
    # parent 0..10 with children 1..4 and 3..6 (overlapping, other thread)
    spans = [[1, 0, 1.0, 4.0, 0, 0], [2, 0, 3.0, 6.0, 0, 1], [0, 0, 0.0, 10.0, -1, 0]]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(5.0)
    assert selfs[1] == pytest.approx(3.0)
