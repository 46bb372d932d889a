#!/usr/bin/env python3
"""crownclass benchmark.

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run from the root of a checkout. The workload's forest is generated from
--seed by the `synth` stage; every stage then runs as its own
`python -m crownclass.cli` process on src/, one after another (closed
loop, one client), with --threads equal to the CPU count and BLAS pinned
to one thread.

--trace 0: set up three times, then repeat the timed stages for at least
two passes and until --seconds have passed; report the end-to-end
metrics (medians).
--trace 1: set up once, time at least one untraced pass, then run every
stage of the workload again in-process under the tracer (traced.py) and
the tinynet layer probes; report the per-layer metrics.

Every stage invocation is checked: exit code 0, its expected files, the
same bytes in every result table on every repeat (traced or not), and,
on training workloads, a balanced accuracy above the workload's floor.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import outputs
from tracer import self_times
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

SETUP_REPS = 3
# A run must end within 180 s; no new pass starts that would not finish
# before this many seconds, and a stage still running then is killed.
RUN_BUDGET_S = 165.0

# BLAS and OpenMP pools pinned to one thread, so that the stages' own
# --threads workers are the only parallelism and never exceed the cores.
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "crowns_per_s": "crowns/s",
    "peak_rss_mb": "MB",
}

_S, _N, _R = "s", "count", "ratio"
PER_LAYER_UNITS = {
    "ingest.read_point_file.s": _S,
    "ingest.read_point_file.rows_per_s": "rows/s",
    "ingest.assemble_crowns.s": _S,
    "ingest.assemble_crowns.calls": _N,
    "ingest.build_dem.s": _S,
    "ingest.height_normalize.s": _S,
    "ingest.write_point_file.s": _S,
    "ingest.crowns_dropped": _N,
    "intensity.fit_all_models.s": _S,
    "intensity.apply_residualization.s": _S,
    "intensity.groups_fitted": _N,
    "intensity.significant_ratio": _R,
    "register.register_crowns.s": _S,
    "register.max_score_assignment.s": _S,
    "register.pairs_scored": _N,
    "register.match_ratio": _R,
    "rasterize.augment_rotations.s": _S,
    "rasterize.rasters_per_s": "rasters/s",
    "rasterize.write_representation_file.s": _S,
    "rasterize.store_bytes": "B",
    "rasterize.read_all_representations.s": _S,
    "rasterize.read_bytes_per_s": "B/s",
    "ensemble.from_representations.s": _S,
    "ensemble.train_ensemble.s": _S,
    "ensemble.networks_trained": _N,
    "ensemble.degenerate_retries": _N,
    "ensemble.mislabel_iteration.s": _S,
    "ensemble.ensemble_predictions.s": _S,
    "ensemble.heldout_pair_ratio": _R,
    "ensemble.untested_crowns": _N,
    "ensemble.flips": _N,
    "util.parallel_map.busy_ratio": _R,
    "util.parallel_map.tasks": _N,
    "tinynet.train_network.s": _S,
    "tinynet.network_gradients.s": _S,
    "tinynet.network_gradients.calls": _N,
    "tinynet.adam_step.s": _S,
    "tinynet.predict_probs.s": _S,
    "tinynet.samples_trained": _N,
    "tinynet.samples_predicted": _N,
    **{
        f"tinynet.{arch}.{probe}": "GFLOP/s" if probe == "conv_gflop_per_s" else "ms"
        for arch in ("views", "dsm")
        for probe in (
            "conv_fwd_ms",
            "conv_bwd_ms",
            "conv0_bwd_ms",
            "pool_fwd_ms",
            "pool_bwd_ms",
            "dense_ms",
            "adam_ms",
            "forward_ms",
            "train_step_ms",
            "forward_b1_f64_ms",
            "conv_gflop_per_s",
        )
    },
    "synthforest.generate_dataset.s": _S,
    **{
        f"cli.{stage}.self_s": _S
        for stage in outputs.STAGE_OUTPUTS
    },
    "trace.overhead_pct": "%",
    # Untraced figures of the stages that only some workloads time, from
    # this run's own passes; 0 where the workload does not run the stage.
    "normalize-intensity_s": _S,
    "register_s": _S,
    "rasterize_s": _S,
    "correct-labels_s": _S,
    "classify_s": _S,
    "train_samples_per_s": "samples/s",
    "balanced_accuracy": _R,
    "ops_failed_ratio": _R,
}


@dataclass
class StageRun:
    stage: str
    wall: float
    rss_mb: float
    warnings: dict
    problems: list[str] = field(default_factory=list)


class Runner:
    """Runs stage processes in one work directory and checks each one."""

    def __init__(self, workload: Workload, seed: int, smoke: bool, start: float):
        self.workload = workload
        self.smoke = smoke
        self.configs = workload.stage_configs(seed, smoke)
        self.start = start
        self.threads = os.cpu_count() or 1
        self.env = dict(
            os.environ,
            **THREAD_ENV,
            PYTHONPATH=os.pathsep.join(
                [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
            ),
        )
        self.hashes: dict[str, dict] = {}
        self.setup_walls: dict[str, list] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def remaining(self) -> float:
        return RUN_BUDGET_S - (time.perf_counter() - self.start)

    def write_configs(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for stage, config in self.configs.items():
            (directory / f"config_{stage}.json").write_text(json.dumps(config, indent=1))

    def launch(self, argv: list[str], directory: Path, log: Path):
        """Start argv, wait for it (killing it past the run budget) and
        return (wall seconds, peak RSS in MB, exit code)."""
        reaped = {}
        with open(log, "wb") as handle:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=directory, env=self.env, stdout=handle, stderr=subprocess.STDOUT
            )

            def reap():
                _, status, usage = os.wait4(proc.pid, 0)
                reaped.update(end=time.perf_counter(), status=status, usage=usage)

            waiter = threading.Thread(target=reap)
            waiter.start()
            try:
                waiter.join(max(self.remaining(), 1.0))
            finally:
                # Past the budget, or the benchmark itself is being stopped.
                if waiter.is_alive():
                    proc.kill()
                    waiter.join()
        proc.returncode = os.waitstatus_to_exitcode(reaped["status"])
        return reaped["end"] - start, reaped["usage"].ru_maxrss / 1024.0, proc.returncode

    def run(self, stage: str, directory: Path, traced: Path | None = None) -> StageRun:
        config = f"config_{stage}.json"
        if traced is None:
            argv = [sys.executable, "-m", "crownclass.cli", stage]
        else:
            argv = [sys.executable, str(HERE / "traced.py"), "stage", stage, "--result", str(traced)]
        argv += ["--config", config, "--out", ".", "--threads", str(self.threads)]
        log = directory / f"{stage}.log"
        wall, rss, code = self.launch(argv, directory, log)
        lines = log.read_text(encoding="utf-8", errors="replace").splitlines()
        result = StageRun(stage, wall, rss, outputs.count_warnings(lines))
        if code != 0:
            tail = " | ".join(lines[-3:])
            result.problems.append(f"{stage} exited {code}: {tail}")
        else:
            self._check_outputs(result, directory)
        self.attempted += 1
        if result.problems:
            self.failed += 1
            self.problems.extend(result.problems)
        return result

    def _check_outputs(self, result: StageRun, directory: Path) -> None:
        stage = result.stage
        missing = outputs.missing_outputs(stage, directory)
        if missing:
            result.problems.append(f"{stage} did not write {', '.join(missing)}")
            return
        hashes = outputs.output_hashes(stage, directory)
        first = self.hashes.setdefault(stage, hashes)
        changed = sorted(name for name in hashes if hashes[name] != first[name])
        if changed:
            result.problems.append(f"{stage} wrote different bytes on a repeat: {', '.join(changed)}")
        if stage == "classify" and self.workload.accuracy_floor is not None:
            # Smoke sizes train too little for the floor; a class with no
            # held-out crown (nan) fails at any size.
            floor = 0.0 if self.smoke else self.workload.accuracy_floor
            accuracy = outputs.balanced_accuracy(directory / "summary.csv")
            if not accuracy >= floor:
                result.problems.append(f"balanced accuracy {accuracy:.3f} below floor {floor}")

    def run_all(self, stages, directory: Path, traced_dir: Path | None = None) -> list[StageRun] | None:
        """Run stages in order; None as soon as one fails."""
        runs = []
        for stage in stages:
            traced = None if traced_dir is None else traced_dir / f"{stage}.json"
            run = self.run(stage, directory, traced)
            runs.append(run)
            if run.problems:
                return None
        return runs

    def training_samples(self, run: StageRun, directory: Path) -> int:
        """Augmented samples stepped by a training stage: networks trained
        (degenerate retries included) x epochs x samples per network."""
        config = self.configs[run.stage]
        rotations = int(config["n_rotations"])
        retries = run.warnings["degenerate_retries"]
        if run.stage == "correct-labels":
            iterations = outputs.count_rows(directory / "history.csv")
            networks = iterations * int(config["correction_networks"]) + retries
            return networks * int(config["correction_epochs"]) * 2 * int(config["correction_per_class"]) * rotations
        networks = int(config["n_networks"]) + retries
        return networks * int(config["epochs"]) * 2 * int(config["per_class"]) * rotations


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def machine_facts(runner: Runner, seed: int) -> dict:
    facts = {
        "nproc": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "threads_env": THREAD_ENV,
        "stage_threads": runner.threads,
        "seed": seed,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    facts["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = (
        "import json, numpy; b = numpy.show_config(mode='dicts')['Build Dependencies']['blas'];"
        "print(json.dumps({k: b.get(k) for k in ('name', 'version')}))"
    )
    try:
        probe = subprocess.run(
            [sys.executable, "-c", blas], env=runner.env, capture_output=True, text=True, timeout=60
        )
        facts["blas"] = json.loads(probe.stdout) if probe.returncode == 0 else "unknown"
    except (subprocess.TimeoutExpired, json.JSONDecodeError):
        facts["blas"] = "unknown"
    return facts


def measure_passes(runner: Runner, work: Path, seconds: float, min_passes: int) -> list[list[StageRun]]:
    """Repeat the timed stages: at least min_passes passes and until
    `seconds` have passed, while another pass still fits the budget."""
    passes: list[list[StageRun]] = []
    start = time.perf_counter()
    while True:
        runs = runner.run_all(runner.workload.measured, work)
        if runs is None:
            break
        passes.append(runs)
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed >= seconds:
            break
        if runner.remaining() < 1.5 * elapsed / len(passes):
            break
    return passes


def summarize(runner: Runner, work: Path, setup_walls: list, passes: list) -> dict:
    """Medians over the run's set-ups and timed passes: the end-to-end
    metrics, and the untraced stage figures reported with the per-layer
    metrics."""
    measured = runner.workload.measured
    walls: dict = defaultdict(list)
    for runs in passes:
        for r in runs:
            walls[r.stage].append(r.wall)
    medians = {stage: median(walls[stage]) for stage in measured}
    crowns = outputs.count_rows(work / "registrations.csv")
    training_rates = []
    for runs in passes:
        training = [r for r in runs if r.stage in ("correct-labels", "classify")]
        if training:
            samples = sum(runner.training_samples(r, work) for r in training)
            training_rates.append(samples / sum(r.wall for r in training))
    stages = {
        # register and rasterize are set-up stages on the training workloads;
        # a stage the workload never runs reports 0.
        f"{stage}_s": median(walls[stage] or runner.setup_walls[stage])
        for stage in ("normalize-intensity", "register", "rasterize", "correct-labels", "classify")
    }
    stages["train_samples_per_s"] = median(training_rates)
    stages["balanced_accuracy"] = (
        outputs.balanced_accuracy(work / "summary.csv") if "classify" in measured else 0.0
    )
    return {
        "crowns": crowns,
        "end_to_end": {
            "setup_s": median(setup_walls),
            "crowns_per_s": crowns / sum(medians.values()),
            "peak_rss_mb": median([max(r.rss_mb for r in runs) for runs in passes]),
        },
        "stages": stages,
        "timed_wall": sum(medians.values()),
    }


# -- traced run ------------------------------------------------------------


def _without_same_name_ancestor(spans) -> list:
    by_index = {s[0]: s for s in spans}
    kept = []
    for span in spans:
        parent = span[4]
        while parent >= 0 and by_index[parent][1] != span[1]:
            parent = by_index[parent][4]
        if parent < 0:
            kept.append(span)
    return kept


def stage_accounting(trace: dict) -> tuple[float, dict[str, float]]:
    """The stage's root span duration, and its split into self time per
    module. Spans on the stage's own thread nest, so their self times
    tile the root; the part of a fan-out span its pool tasks cover is
    booked as `pool`."""
    names, spans = trace["names"], trace["spans"]
    selfs = self_times(spans)
    root = next(s for s in spans if names[s[1]] == f"cli.{trace['stage']}")
    split: dict = defaultdict(float)
    for span in spans:
        if span[5] != root[5]:
            continue
        name = names[span[1]]
        split[name.split(".")[0]] += selfs[span[0]]
        if name == "util.parallel_map":
            split["pool"] += (span[3] - span[2]) - selfs[span[0]]
    return root[3] - root[2], dict(split)


def per_layer(traces: list[dict], probes: dict) -> tuple[dict, list[str], list[str]]:
    """Per-layer metrics summed over every traced stage; problems; and a
    line per stage splitting its wall time by module."""
    totals: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    counts: dict = defaultdict(float)
    warnings: dict = defaultdict(int)
    busy = capacity = 0.0
    problems, lines = [], []
    metrics = {}
    for trace in traces:
        names, spans, stage = trace["names"], trace["spans"], trace["stage"]
        for key, value in trace["counts"].items():
            counts[key] += value
        for key, value in trace["warnings"].items():
            warnings[key] += value
        for span in spans:
            calls[names[span[1]]] += 1
        for span in _without_same_name_ancestor(spans):
            totals[names[span[1]]] += span[3] - span[2]
        selfs = self_times(spans)
        metrics[f"cli.{stage}.self_s"] = sum(
            selfs[s[0]] for s in spans if names[s[1]].startswith("cli.")
        )
        wall, split = stage_accounting(trace)
        if abs(sum(split.values()) - wall) > 1e-3 or min(selfs.values()) < -1e-6:
            problems.append(f"{stage}: span self times do not add up to its wall time")
        parts = " + ".join(f"{module} {fmt(t)}" for module, t in sorted(split.items(), key=lambda kv: -kv[1]))
        lines.append(f"  traced {stage}: {fmt(wall)} s = {parts}")
        for span in spans:
            if names[span[1]] == "util.parallel_map.task":
                busy += span[3] - span[2]
            elif names[span[1]] == "util.parallel_map":
                capacity += trace["pool_threads"][str(span[0])] * (span[3] - span[2])

    def ratio(a, b):
        return a / b if b else 0.0

    for name in PER_LAYER_UNITS:
        if name.endswith(".s") and not name.startswith("cli."):
            metrics[name] = totals[name[:-2]]
    metrics.update(
        {
            "ingest.read_point_file.rows_per_s": ratio(
                counts["ingest.rows_read"], totals["ingest.read_point_file"]
            ),
            "ingest.assemble_crowns.calls": calls["ingest.assemble_crowns"],
            "ingest.crowns_dropped": warnings["crowns_dropped"],
            "intensity.groups_fitted": counts["intensity.groups_fitted"],
            "intensity.significant_ratio": ratio(
                counts["intensity.groups_significant"], counts["intensity.groups_tested"]
            ),
            "register.pairs_scored": counts["register.pairs_scored"],
            "register.match_ratio": ratio(counts["register.matched"], counts["register.crowns"]),
            "rasterize.rasters_per_s": ratio(
                counts["rasterize.rasters"], totals["rasterize.augment_rotations"]
            ),
            "rasterize.store_bytes": counts["rasterize.store_bytes"],
            "rasterize.read_bytes_per_s": ratio(
                counts["rasterize.bytes_read"], totals["rasterize.read_all_representations"]
            ),
            "ensemble.networks_trained": calls["tinynet.train_network"],
            "ensemble.degenerate_retries": warnings["degenerate_retries"],
            "ensemble.heldout_pair_ratio": ratio(
                counts["ensemble.heldout_pairs"], counts["ensemble.pairs_predicted"]
            ),
            "ensemble.untested_crowns": warnings["untested_crowns"],
            "ensemble.flips": counts["ensemble.flips"],
            "util.parallel_map.busy_ratio": ratio(busy, capacity),
            "util.parallel_map.tasks": calls["util.parallel_map.task"],
            "tinynet.network_gradients.calls": calls["tinynet.network_gradients"],
            "tinynet.samples_trained": counts["tinynet.samples_trained"],
            "tinynet.samples_predicted": counts["tinynet.samples_predicted"],
        }
    )
    metrics.update(probes)
    for name in PER_LAYER_UNITS:
        metrics.setdefault(name, 0.0)
    return metrics, problems, lines


def traced_run(runner: Runner, work: Path) -> tuple[list[StageRun], list[dict], dict]:
    directory = work / "traced"
    runner.write_configs(directory)
    runs = runner.run_all(runner.workload.stages, directory, traced_dir=directory) or []
    traces = []
    for run in runs:
        with open(directory / f"{run.stage}.json", encoding="utf-8") as handle:
            traces.append(json.load(handle))
    probes = {}
    if len(runs) == len(runner.workload.stages):
        result = directory / "probes.json"
        runner.attempted += 1
        _, _, code = runner.launch(
            [sys.executable, str(HERE / "traced.py"), "probes", "--result", str(result)],
            directory,
            directory / "probes.log",
        )
        if code == 0:
            probes = json.loads(result.read_text(encoding="utf-8"))
        else:
            runner.failed += 1
            runner.problems.append(f"tinynet probes exited {code}")
    return runs, traces, probes


# -- main ------------------------------------------------------------------


def fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="crownclass benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the harness test")
    args = parser.parse_args(argv)

    if not (SRC / "crownclass" / "cli.py").is_file():
        print(f"error: no crownclass sources at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2

    # SIGTERM unwinds like an exception, so the running stage is killed
    # and reaped and the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    start = time.perf_counter()
    workload = WORKLOADS[args.workload]
    runner = Runner(workload, args.seed, args.smoke, start)
    work = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        result = execute(runner, work, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report = {"workload": workload.name, "trace": args.trace, "machine": machine_facts(runner, args.seed), **result}
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (WORK / "results" / f"{stem}.json").write_text(json.dumps(report, indent=1))

    print(f"machine: {json.dumps(report['machine'])}")
    for line in result["lines"]:
        print(line)
    for problem in runner.problems:
        print(f"FAILED: {problem}")
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    # A nan (a failed check, already counted) would make the line invalid JSON.
    metrics = {
        name: {"value": value if math.isfinite(value) else 0.0, "unit": units[name]}
        for name in units
        if (value := result["metrics"].get(name)) is not None
    }
    for name, entry in metrics.items():
        print(f"  {name:44s} {fmt(entry['value']):>14s} {entry['unit']}")
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def execute(runner: Runner, work: Path, args) -> dict:
    workload = runner.workload
    runner.write_configs(work)
    lines: list[str] = []
    setup_walls = []
    for _ in range(1 if args.trace else SETUP_REPS):
        runs = runner.run_all(workload.setup, work)
        if runs is None:
            return {"metrics": {}, "lines": lines}
        setup_walls.append(sum(r.wall for r in runs))
        for r in runs:
            runner.setup_walls[r.stage].append(r.wall)
    passes = measure_passes(runner, work, args.seconds, 1 if args.trace else 2)
    if not passes:
        return {"metrics": {}, "lines": lines}
    summary = summarize(runner, work, setup_walls, passes)

    lines.append(
        f"workload {workload.name}: {summary['crowns']} crowns, "
        f"{len(setup_walls)} set-ups, {len(passes)} timed passes"
    )
    lines.append(f"  set-up wall (s): {', '.join(fmt(w) for w in setup_walls)}")
    for stage in workload.stages:
        runs = [r for pass_runs in passes for r in pass_runs if r.stage == stage]
        walls = [r.wall for r in runs] or runner.setup_walls[stage]
        lines.append(
            f"  {stage:20s} n={len(walls)} median {fmt(median(walls))} s max {fmt(max(walls))} s"
            + (f" peak RSS {fmt(max(r.rss_mb for r in runs))} MB" if runs else "")
        )
    per_pass = [
        {key: sum(r.warnings[key] for r in runs) for key in outputs.WARNING_COUNTS}
        for runs in passes
    ]
    lines.append(f"  stage warnings per pass: {json.dumps(per_pass)}")
    report = {
        "lines": lines,
        "setup": setup_walls,
        "passes": [{r.stage: r.wall for r in runs} for runs in passes],
        "warnings": per_pass,
        "stages": summary["stages"],
    }
    if not args.trace:
        return dict(report, metrics=summary["end_to_end"])

    runs, traces, probes = traced_run(runner, work)
    if len(runs) < len(workload.stages):
        return dict(report, metrics={})
    layers, problems, breakdown = per_layer(traces, probes)
    lines.extend(breakdown)
    runner.problems.extend(problems)
    runner.failed += bool(problems)
    traced_wall = sum(r.wall for r in runs if r.stage in workload.measured)
    layers.update(summary["stages"])
    layers["trace.overhead_pct"] = 100.0 * (traced_wall / summary["timed_wall"] - 1.0)
    layers["ops_failed_ratio"] = runner.failed / runner.attempted
    lines.append(f"  traced stage walls (s): {json.dumps({r.stage: round(r.wall, 3) for r in runs})}")
    lines.append(
        f"  timed stages: untraced median {fmt(summary['timed_wall'])} s, traced {fmt(traced_wall)} s"
    )
    return dict(report, metrics=layers)


if __name__ == "__main__":
    sys.exit(main())
