"""Traced child process of the benchmark.

  traced.py stage <stage> --config C --out O --threads N --result R
      Runs one pipeline stage in-process through crownclass.cli.main
      with every public crownclass function wrapped by the tracer, then
      removes the wrappers and writes spans, counts and the stage's
      warning counts to R as JSON. Exits with the stage's exit code, or
      1 if a wrapper was left installed.

  traced.py probes --result R
      Writes the tinynet layer probes of both architectures to R.

crownclass must be importable (run.py puts src/ on PYTHONPATH).
"""

from __future__ import annotations

import argparse
import importlib
import json
import logging
import os
import pkgutil
import sys
from collections import defaultdict

from outputs import count_warnings
from tracer import Tracer, is_wrapped

# pair_score runs once per crown/stem pair; register.pairs_scored counts
# those calls from the sizes instead. The harness opens the cli.<stage>
# span around cli.main itself.
EXCLUDE = frozenset({"cli.main", "register.pair_score"})
FAN_OUT = frozenset({"util.parallel_map"})


def crownclass_modules() -> list:
    import crownclass

    return [
        importlib.import_module(f"crownclass.{info.name}")
        for info in pkgutil.iter_modules(crownclass.__path__)
    ]


class WarningLines(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.lines: list[str] = []

    def emit(self, record):
        self.lines.append(f"{record.levelname} {record.getMessage()}")


def observers(counts: dict, pool_threads: dict) -> dict:
    """Counts taken at the layer boundaries from each call's arguments
    and result. Byte counts are computed from file sizes."""

    def read_points(index, bound, result):
        counts["ingest.rows_read"] += len(result)

    def fit_models(index, bound, result):
        counts["intensity.groups_fitted"] += len(result)

    def residualize(index, bound, result):
        models, alpha = bound.arguments["models"], bound.arguments["alpha"]
        counts["intensity.groups_tested"] += len(models)
        counts["intensity.groups_significant"] += sum(
            m.p1 < alpha and m.p2 < alpha for m in models.values()
        )

    def register(index, bound, result):
        crowns, stems = bound.arguments["crowns"], bound.arguments["stems"]
        counts["register.pairs_scored"] += len(crowns) * len(stems)
        counts["register.crowns"] += len(crowns)
        counts["register.matched"] += len(result)

    def augment(index, bound, result):
        counts["rasterize.rasters"] += bound.arguments["n"] * len(bound.arguments["kinds"])

    def write_store(index, bound, result):
        counts["rasterize.store_bytes"] += os.path.getsize(bound.arguments["tensor_path"])

    def read_store(index, bound, result):
        counts["rasterize.bytes_read"] += os.path.getsize(bound.arguments["tensor_path"])

    def train(index, bound, result):
        counts["tinynet.samples_trained"] += len(bound.arguments["images"]) * bound.arguments["epochs"]

    def predict(index, bound, result):
        counts["tinynet.samples_predicted"] += len(bound.arguments["images"])

    def holdout(index, bound, result):
        networks = bound.arguments["run"].networks
        n = len(bound.arguments["dataset"].instances)
        counts["ensemble.pairs_predicted"] += len(networks) * n
        counts["ensemble.heldout_pairs"] += sum(n - len(net.held) for net in networks)

    def mislabel(index, bound, result):
        holdout(index, bound, result)
        counts["ensemble.flips"] += sum(1 for decision in result if decision.flipped)

    def pool(index, bound, result):
        threads = bound.arguments["threads"]
        pool_threads[index] = threads if threads > 1 and len(bound.arguments["items"]) > 1 else 1

    return {
        "ingest.read_point_file": read_points,
        "intensity.fit_all_models": fit_models,
        "intensity.apply_residualization": residualize,
        "register.register_crowns": register,
        "rasterize.augment_rotations": augment,
        "rasterize.write_representation_file": write_store,
        "rasterize.read_all_representations": read_store,
        "tinynet.train_network": train,
        "tinynet.predict_probs": predict,
        "ensemble.ensemble_predictions": holdout,
        "ensemble.mislabel_iteration": mislabel,
        "util.parallel_map": pool,
    }


def run_stage(args) -> int:
    modules = crownclass_modules()
    cli = sys.modules["crownclass.cli"]
    counts: dict = defaultdict(int)
    pool_threads: dict = {}
    tracer = Tracer(exclude=EXCLUDE, fan_out=FAN_OUT)
    tracer.observers.update(observers(counts, pool_threads))

    warnings = WarningLines()
    stream = logging.StreamHandler(sys.stderr)
    stream.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
    root = logging.getLogger()
    root.setLevel(logging.INFO)
    root.addHandler(stream)
    root.addHandler(warnings)

    argv = [args.stage, "--config", args.config, "--out", args.out, "--threads", str(args.threads)]
    tracer.install(modules, prefix="crownclass.")
    try:
        code = tracer.span(f"cli.{args.stage}", cli.main, argv)
    finally:
        tracer.uninstall()
    leaked = sorted(
        f"{module.__name__}.{attr}"
        for module in modules
        for attr, value in vars(module).items()
        if is_wrapped(value)
    )
    result = {
        "stage": args.stage,
        "leaked": leaked,
        "counts": counts,
        "warnings": count_warnings(warnings.lines),
        "pool_threads": {str(k): v for k, v in pool_threads.items()},
        **tracer.export(),
    }
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    if leaked:
        print(f"error: tracer wrappers left installed: {', '.join(leaked)}", file=sys.stderr)
        return 1
    return code


def run_probes(args) -> int:
    from probes import probe

    metrics = {}
    for arch in ("views", "dsm"):
        metrics.update(probe(arch))
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(metrics, handle)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    stage = sub.add_parser("stage")
    stage.add_argument("stage")
    stage.add_argument("--config", required=True)
    stage.add_argument("--out", required=True)
    stage.add_argument("--threads", type=int, required=True)
    stage.add_argument("--result", required=True)
    probes = sub.add_parser("probes")
    probes.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    return run_stage(args) if args.mode == "stage" else run_probes(args)


if __name__ == "__main__":
    sys.exit(main())
