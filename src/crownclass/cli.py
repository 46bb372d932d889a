"""Command-line pipeline driver.

Every subcommand reads one flat JSON config, writes its outputs plus a
manifest into the output directory, and is deterministic: re-running with
the same config and inputs reproduces byte-identical numeric outputs.
Exit codes: 0 success, 1 configuration or input validation error,
2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import operator
import sys
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import CLASS_INDEX, CONIFER, DECIDUOUS, __version__
from . import ensemble as ens
from .ingest import (
    crowns_from_points,
    read_point_file,
    read_stem_file,
    write_point_file,
    write_stem_file,
)
from .intensity import (
    GRID_CELL,
    SIGNIFICANCE_ALPHA,
    apply_residualization,
    fit_all_models,
    write_models,
)
from .rasterize import (
    rasterize_crown,
    read_all_representations,
    read_manifest,
    write_representation_file,
)
from .register import read_registrations, register_crowns, write_registrations
from .synthforest import SynthParams, generate_dataset, write_truth_file
from .tinynet import ADAM_LR, BATCH_SIZE
from .util import InputError, derive_seed, read_csv_rows, write_csv_rows, write_json

logger = logging.getLogger(__name__)

SUMMARY_COLUMNS = ("label", "accuracy", "ci_half_width", "n")
LABEL_COLUMNS = ("crown_id", "label", "original_label")
FIGURE_COLUMNS = ("figure", "series", "x", "y")

REPRESENTATIONS = ("views4", "dsm4")
ABLATIONS = ens.ABLATION_NAMES

# A rule is (accepts, wanted): the test a key's value must pass and what
# the error says it must be. The rules check type(), not isinstance():
# JSON true and false load as bools, which are ints.


def _count(minimum: int = 1, unset: bool = False) -> tuple:
    """An integer of at least ``minimum`` (1 or 0); null too if ``unset``."""
    wanted = f"a {'positive' if minimum else 'non-negative'} integer{' or null' if unset else ''}"
    return lambda v: (unset and v is None) or (type(v) is int and v >= minimum), wanted


def _number(interval: str) -> tuple:
    """A finite number within ``interval``, written like "[0, 1)" or "(0, inf)"."""
    low, high = map(float, interval[1:-1].split(","))
    above = operator.le if interval[0] == "[" else operator.lt
    below = operator.le if interval[-1] == "]" else operator.lt

    def accepts(v) -> bool:
        # NaN and +-inf fail; abs() since math.isfinite() overflows on a huge int
        finite = type(v) in (int, float) and abs(v) <= sys.float_info.max
        return finite and above(low, v) and below(v, high)

    return accepts, f"a finite number within {interval}"


def _one_of(choices: tuple) -> tuple:
    return lambda v: v in choices, f"one of {choices}"


def _list_of(rule: tuple, non_empty: bool = False) -> tuple:
    accepts, wanted = rule
    wanted = f"a {'non-empty ' if non_empty else ''}list, each {wanted}"
    return lambda v: type(v) is list and (v or not non_empty) and all(map(accepts, v)), wanted


# Synthetic-forest, intensity, training and sweep keys default to the
# library's own values so the two never drift apart.
_SYNTH = SynthParams(seed=0)
_SWEEP = ens.SweepSpec("size")

# The flat config schema, every key but the mandatory seed as
# key: (default, accepts, wanted), in pipeline order; load_config rejects
# a value that fails `accepts` with "<key> must be <wanted>".
CONFIG_KEYS = {
    **dict.fromkeys(
        ("points_file", "stems_file", "registrations_file", "tensor_file", "manifest_file")
        + ("labels_file", "raw_tensor_file", "raw_manifest_file")
        + ("history_file", "summary_file", "sweep_file"),
        (None, lambda v: v is None or type(v) is str, "null or a string"),
    ),
    # synthetic forest, in the ranges SynthParams enforces; a class may be left out
    "n_conifer": (_SYNTH.n_conifer, *_count(0)),
    "n_deciduous": (_SYNTH.n_deciduous, *_count(0)),
    "label_noise": (_SYNTH.label_noise, *_number("[0, 1)")),
    "dome_fraction": (_SYNTH.dome_fraction, *_number("[0, 1]")),
    "jitter_sigma": (_SYNTH.jitter_sigma, *_number("[0, inf)")),
    "leaf_on_density": (_SYNTH.leaf_on_density, *_number("(0, inf)")),
    "conifer_retention": (_SYNTH.conifer_retention, *_number("[0, 1]")),
    "deciduous_retention": (_SYNTH.deciduous_retention, *_number("[0, 1]")),
    "intensity_norm": (True, lambda v: type(v) is bool, "true or false"),
    "grid_cell": (GRID_CELL, *_number("(0, inf)")),
    "significance_alpha": (SIGNIFICANCE_ALPHA, *_number("(0, 1)")),
    "representation": ("views4", *_one_of(REPRESENTATIONS)),
    "n_rotations": (180, *_count()),
    "rotation_step": (2.0, *_number("(-inf, inf)")),
    # mislabel correction, then ensemble classification
    "correction_networks": (100, *_count()),
    "correction_per_class": (80, *_count()),
    "correction_epochs": (3, *_count()),
    "alpha": (1e-8, *_number("(0, 1)")),
    "max_iterations": (20, *_count()),
    "n_networks": (50, *_count()),
    "per_class": (100, *_count()),
    "epochs": (None, *_count(unset=True)),  # unset: 5 for views4, 15 for dsm4
    "lr": (ADAM_LR, *_number("(0, inf)")),
    "batch_size": (BATCH_SIZE, *_count()),
    "ablation": ("none", *_one_of(ABLATIONS)),
    "sweep_variant": ("size", *_one_of(ens.SWEEP_VARIANTS)),
    "fractions": (list(_SWEEP.fractions), *_list_of(_number("(0, 1]"), non_empty=True)),
    "repeats": (_SWEEP.repeats, *_count()),
    "augmentations": (list(_SWEEP.augmentations), *_list_of(_count())),
    "ablations": (list(_SWEEP.ablations), *_list_of(_one_of(ABLATIONS))),
    "threads": (None, *_count(unset=True)),
}
CONFIG_DEFAULTS = {key: default for key, (default, _, _) in CONFIG_KEYS.items()}
# The config keys SynthParams takes under the same name.
SYNTH_KEYS = tuple(key for key in CONFIG_KEYS if key in SynthParams.__dataclass_fields__)


def load_config(path: str, overrides: dict) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except FileNotFoundError:
        raise InputError(f"config file not found: {path}")
    except json.JSONDecodeError as error:
        raise InputError(f"config file {path} is not valid JSON: {error}")
    if not isinstance(raw, dict):
        raise InputError(f"config file {path} must hold a JSON object")
    unknown = set(raw) - set(CONFIG_KEYS) - {"seed"}
    if unknown:
        raise InputError(f"unknown config keys: {', '.join(sorted(unknown))}")
    if "seed" not in raw:
        raise InputError("config must set a seed; runs draw no wall-clock entropy")
    config = dict(CONFIG_DEFAULTS)
    config.update(raw)
    config.update({k: v for k, v in overrides.items() if v is not None})
    if type(config["seed"]) is not int:
        raise InputError(f"seed must be an integer, not {config['seed']!r}")
    for key, (_, accepts, wanted) in CONFIG_KEYS.items():
        if not accepts(config[key]):
            raise InputError(f"{key} must be {wanted}, not {config[key]!r}")
    return config


def effective_epochs(config: dict) -> int:
    if config["epochs"] is not None:
        return config["epochs"]
    return 5 if config["representation"] == "views4" else 15


def training(config: dict, command: str) -> ens.Training:
    """The ensemble recipe a training command reads from the config:
    correct-labels the correction_* sizes, classify and sweep the
    classification ones; the seed derives from the command name."""
    if command == "correct-labels":
        n_networks = config["correction_networks"]
        per_class = config["correction_per_class"]
        epochs = config["correction_epochs"]
    else:
        n_networks, per_class = config["n_networks"], config["per_class"]
        epochs = effective_epochs(config)
    return ens.Training(
        n_networks,
        per_class,
        epochs,
        seed=derive_seed(config["seed"], command),
        lr=float(config["lr"]),
        batch_size=config["batch_size"],
        threads=config["threads"],
    )


def require_input(config: dict, key: str) -> Path:
    value = config.get(key)
    if not value:
        raise InputError(f"config key {key} is required for this command")
    path = Path(value)
    if not path.exists():
        raise InputError(f"{key} does not exist: {path}")
    return path


def write_manifest(out_dir: Path, command: str, config: dict, outputs: tuple[str, ...]) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "config": config,
        "outputs": sorted(outputs),
    }
    write_json(out_dir / f"manifest_{command}.json", manifest)


def write_summary(path: Path, result: ens.ClassifyResult) -> None:
    rows = (astuple(result.accuracies[label]) for label in (CONIFER, DECIDUOUS))
    write_csv_rows(path, SUMMARY_COLUMNS, rows)


def read_summary(path: Path) -> list[tuple[str, float, float, int]]:
    return read_csv_rows(
        path, SUMMARY_COLUMNS, lambda r: (r[0], float(r[1]), float(r[2]), int(r[3]))
    )


# ---------------------------------------------------------------------------
# Subcommands


def cmd_synth(config: dict, out_dir: Path) -> None:
    params = SynthParams(seed=config["seed"], **{k: config[k] for k in SYNTH_KEYS})
    dataset = generate_dataset(params)
    write_point_file(out_dir / "points.csv", dataset.points)
    write_stem_file(out_dir / "stems.csv", dataset.stems)
    write_truth_file(out_dir / "truth.csv", dataset.truth)


def cmd_normalize_intensity(config: dict, out_dir: Path) -> None:
    points, models = read_point_file(Path(config["points_file"])), {}
    if config["intensity_norm"]:
        seed = derive_seed(config["seed"], "intensity")
        models = fit_all_models(points, cell=float(config["grid_cell"]), seed=seed)
        points = apply_residualization(points, models, alpha=float(config["significance_alpha"]))
    else:
        logger.info("intensity normalization bypassed; copying points through")
    write_point_file(out_dir / "points_normalized.csv", points)
    write_models(out_dir / "intensity_models.json", models)


def crowns_from_points_file(config: dict) -> list:
    path = Path(config["points_file"])
    return crowns_from_points(read_point_file(path), f"points_file {path}")


def cmd_register(config: dict, out_dir: Path) -> None:
    crowns = crowns_from_points_file(config)
    registrations = register_crowns(crowns, read_stem_file(Path(config["stems_file"])))
    logger.info("registered %d of %d crowns", len(registrations), len(crowns))
    write_registrations(out_dir / "registrations.csv", registrations)


def cmd_rasterize(config: dict, out_dir: Path) -> None:
    """Rasterize registered crowns one at a time, in sorted order, into the store."""
    crowns = {c.crown_id: c for c in crowns_from_points_file(config)}
    registrations = Path(config["registrations_file"])
    rows = read_registrations(registrations)
    for row in rows:
        if row.crown_id not in crowns:
            raise InputError(
                f"registrations_file {registrations} names crown {row.crown_id}, "
                f"absent from points_file {config['points_file']}"
            )
    rows.sort(key=lambda row: row.crown_id)
    kind, n = config["representation"], config["n_rotations"]
    step = float(config["rotation_step"])

    def rasterized():
        for row in rows:
            crown = crowns[row.crown_id]
            density = len(crown.points) / crown.area  # points per m2, both seasons
            images, scalars = rasterize_crown(crown, kind, n, step)
            yield row.crown_id, row.label, row.crown_class, density, images, scalars

    write_representation_file(
        out_dir / "rasters.bin",
        out_dir / "rasters.json",
        rasterized(),
        kind,
        n_rotations=n,
        step=step,
        n_crowns=len(rows),
    )


def load_dataset(config: dict, tensor_key="tensor_file", manifest_key="manifest_file"):
    """The store the two keys name, relabelled by labels_file when that is
    set. The keys are checked here too, since STAGES does not list the raw store's."""
    tensor_path = require_input(config, tensor_key)
    manifest_path = require_input(config, manifest_key)
    manifest = read_manifest(manifest_path)
    if manifest["kind"] != config["representation"]:
        raise InputError(
            f"{manifest_path} holds {manifest['kind']} rasters but "
            f"representation is {config['representation']}"
        )
    images = read_all_representations(tensor_path, manifest)
    dataset = ens.from_store(images, manifest)
    labels_key, labels_path = manifest_key, manifest_path
    if config["labels_file"]:
        labels_key, labels_path = "labels_file", Path(config["labels_file"])
        stored, seen = {i.crown_id for i in dataset.instances}, set()
        overrides = dict(
            read_csv_rows(
                labels_path,
                LABEL_COLUMNS,
                lambda fields: _parse_label_row(fields, stored, seen),
            )
        )
        for instance in dataset.instances:
            instance.label = overrides.get(instance.crown_id, instance.label)
    for label in (CONIFER, DECIDUOUS):
        if not dataset.pool(label):
            raise InputError(
                f"{labels_key} {labels_path} labels no crown {label}; "
                "ensembles train on both classes"
            )
    return dataset


def _parse_label_row(fields: list[str], stored: set[str], seen: set[str]) -> tuple[str, str]:
    crown_id, label, _ = fields
    if label not in CLASS_INDEX:
        raise ValueError(f"unknown label {label!r}")
    if crown_id not in stored:
        raise ValueError(f"crown {crown_id} is not in the raster store")
    if crown_id in seen:
        raise ValueError(f"crown {crown_id} is labeled twice")
    seen.add(crown_id)
    return crown_id, label


def load_raw_dataset(config: dict):
    """The store rasterized from points without intensity normalization,
    which the raw-intensity ablation trains on."""
    if not config.get("raw_tensor_file"):
        raise InputError(
            "the raw-intensity ablation needs raw_tensor_file and "
            "raw_manifest_file rasterized from unnormalized points"
        )
    return load_dataset(config, "raw_tensor_file", "raw_manifest_file")


def cmd_correct_labels(config: dict, out_dir: Path) -> None:
    dataset, history = ens.correct_mislabels(
        load_dataset(config),
        training(config, "correct-labels"),
        alpha=float(config["alpha"]),
        max_iterations=config["max_iterations"],
    )
    if not history.converged:
        logger.warning("correction hit max_iterations without converging")
    write_csv_rows(
        out_dir / "corrected_labels.csv",
        LABEL_COLUMNS,
        ([i.crown_id, i.label, i.original_label] for i in dataset.instances),
    )
    ens.write_history(out_dir / "history.csv", history)


def cmd_classify(config: dict, out_dir: Path) -> None:
    dataset = load_dataset(config)
    raw = load_raw_dataset(config) if config["ablation"] == "raw-intensity" else None
    dataset = ens.ablate(dataset, config["ablation"], raw)
    result = ens.ensemble_classify(dataset, training(config, "classify"))
    ens.write_predictions(out_dir / "predictions.csv", result.predictions)
    write_summary(out_dir / "summary.csv", result)


def cmd_sweep(config: dict, out_dir: Path) -> None:
    dataset = load_dataset(config)
    spec = ens.SweepSpec(
        variant=config["sweep_variant"],
        fractions=tuple(config["fractions"]),
        repeats=config["repeats"],
        augmentations=tuple(config["augmentations"]),
        ablations=tuple(config["ablations"]),
    )
    swept = {"augmentation": "augmentations", "ablation": "ablations"}.get(spec.variant)
    if swept and not config[swept]:
        raise InputError(f"{swept} must not be empty for the {spec.variant} sweep")
    if any(count > dataset.augmentations for count in spec.augmentations):
        raise InputError(
            f"augmentations must be at most the store's {dataset.augmentations} "
            f"rotations, not {list(spec.augmentations)}"
        )
    raw_ablation = spec.variant == "ablation" and "raw-intensity" in spec.ablations
    raw = load_raw_dataset(config) if raw_ablation else None
    rows = ens.run_sweep(dataset, spec, training(config, "sweep"), raw)
    ens.write_sweep_table(out_dir / "sweep.csv", rows)


def _figure_rows_from_history(rows) -> list[tuple]:
    out = []
    for row in rows:
        for series in ("flips_to_conifer", "flips_to_deciduous", "mean_acc"):
            out.append(("correction", series, row.iteration, getattr(row, series)))
    return out


def _figure_rows_from_sweep(rows) -> list[tuple]:
    out = []
    for index, row in enumerate(rows):
        try:
            x = float(row.param)
        except ValueError:
            x = float(index)
        out.append((f"sweep-{row.variant}", CONIFER, x, row.acc_conifer))
        out.append((f"sweep-{row.variant}", DECIDUOUS, x, row.acc_deciduous))
    return out


def cmd_report(config: dict, out_dir: Path) -> None:
    """Tabulate whatever result tables the config names into one
    plot-ready long-format file."""
    rows: list[tuple] = []
    if config["history_file"]:
        rows.extend(_figure_rows_from_history(ens.read_history(Path(config["history_file"]))))
    if config["summary_file"]:
        for label, accuracy, _, n in read_summary(Path(config["summary_file"])):
            rows.append(("classification", label, n, accuracy))
    if config["sweep_file"]:
        rows.extend(_figure_rows_from_sweep(ens.read_sweep_table(Path(config["sweep_file"]))))
    write_csv_rows(
        out_dir / "figures.csv",
        FIGURE_COLUMNS,
        ([figure, series, float(x), float(y)] for figure, series, x, y in rows),
    )


@dataclass(frozen=True)
class Stage:
    run: Callable[[dict, Path], None]
    requires: tuple[str, ...]  # input keys the command needs
    reads_if_set: tuple[str, ...]  # input keys it reads only when they are set
    writes: tuple[str, ...]  # files it writes into --out, in the order main prints them


# The pipeline graph: each command's inputs and outputs. main checks that
# every required or set input exists before the command starts.
STORE = ("tensor_file", "manifest_file")  # the input keys of a raster store
STAGES = {
    "synth": Stage(cmd_synth, (), (), ("points.csv", "stems.csv", "truth.csv")),
    "normalize-intensity": Stage(
        cmd_normalize_intensity,
        ("points_file",),
        (),
        ("points_normalized.csv", "intensity_models.json"),
    ),
    "register": Stage(cmd_register, ("points_file", "stems_file"), (), ("registrations.csv",)),
    "rasterize": Stage(
        cmd_rasterize, ("points_file", "registrations_file"), (), ("rasters.bin", "rasters.json")
    ),
    "correct-labels": Stage(
        cmd_correct_labels, STORE, ("labels_file",), ("corrected_labels.csv", "history.csv")
    ),
    "classify": Stage(cmd_classify, STORE, ("labels_file",), ("predictions.csv", "summary.csv")),
    "sweep": Stage(cmd_sweep, STORE, ("labels_file",), ("sweep.csv",)),
    "report": Stage(
        cmd_report, (), ("history_file", "summary_file", "sweep_file"), ("figures.csv",)
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crownclass",
        description="Crown classification pipeline: synthetic data, intensity "
        "normalization, crown-stem registration, rasterization, mislabel "
        "correction, ensemble classification, and evaluation sweeps.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in STAGES:
        sub = subparsers.add_parser(name, help=f"run the {name} step")
        sub.add_argument("--config", required=True, help="path to the JSON run config")
        sub.add_argument("--out", default=".", help="output directory")
        sub.add_argument(
            "--threads",
            type=int,
            default=None,
            help="worker processes forked per ensemble fan-out (default: one per CPU)",
        )
        sub.add_argument(
            "--no-intensity-norm",
            action="store_true",
            help="bypass intensity normalization",
        )
        sub.add_argument("--representation", choices=REPRESENTATIONS, default=None)
        sub.add_argument("--ablation", choices=ABLATIONS, default=None)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as error:
        return 0 if error.code in (0, None) else 1
    overrides = {
        "threads": args.threads,
        "representation": args.representation,
        "ablation": args.ablation,
    }
    if args.no_intensity_norm:
        overrides["intensity_norm"] = False
    stage = STAGES[args.command]
    try:
        config = load_config(args.config, overrides)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for key in stage.requires + tuple(k for k in stage.reads_if_set if config[k]):
            require_input(config, key)
        stage.run(config, out_dir)
    except InputError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except Exception as error:  # runtime failure
        logger.exception("command failed")
        print(f"error: {error}", file=sys.stderr)
        return 2
    write_manifest(out_dir, args.command, config, stage.writes)
    for name in stage.writes:
        print(out_dir / name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
