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
import math
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np

from . import CLASS_INDEX, CONIFER, DECIDUOUS, __version__
from . import ensemble as ens
from .ingest import (
    GROUND,
    VEGETATION,
    assemble_crowns,
    build_dem,
    filter_canopy,
    height_normalize,
    read_point_file,
    read_stem_file,
    write_point_file,
    write_stem_file,
)
from .intensity import apply_residualization, fit_all_models, write_models
from .rasterize import (
    rasterize_crown,
    read_all_representations,
    read_manifest,
    write_representation_file,
)
from .register import read_registrations, register_crowns, write_registrations
from .synthforest import SynthParams, generate_dataset, write_truth_file
from .util import (
    InputError,
    default_threads,
    derive_seed,
    read_csv_rows,
    write_csv_rows,
    write_json,
)

logger = logging.getLogger(__name__)

SUMMARY_COLUMNS = ("label", "accuracy", "ci_half_width", "n")
LABEL_COLUMNS = ("crown_id", "label", "original_label")
FIGURE_COLUMNS = ("figure", "series", "x", "y")

REPRESENTATIONS = ("views4", "dsm4")
ABLATIONS = ens.ABLATION_NAMES

# Synthetic-forest keys default to the generator's own values so the two
# never drift apart.
_SYNTH_DEFAULTS = SynthParams(seed=0)

# Flat config schema: every key has a default except the mandatory seed.
CONFIG_DEFAULTS = {
    # file paths
    "points_file": None,
    "stems_file": None,
    "registrations_file": None,
    "tensor_file": None,
    "manifest_file": None,
    "labels_file": None,
    "raw_tensor_file": None,
    "raw_manifest_file": None,
    "history_file": None,
    "summary_file": None,
    "sweep_file": None,
    # synthetic forest
    "n_conifer": _SYNTH_DEFAULTS.n_conifer,
    "n_deciduous": _SYNTH_DEFAULTS.n_deciduous,
    "label_noise": _SYNTH_DEFAULTS.label_noise,
    "dome_fraction": _SYNTH_DEFAULTS.dome_fraction,
    "jitter_sigma": _SYNTH_DEFAULTS.jitter_sigma,
    "leaf_on_density": _SYNTH_DEFAULTS.leaf_on_density,
    "conifer_retention": _SYNTH_DEFAULTS.conifer_retention,
    "deciduous_retention": _SYNTH_DEFAULTS.deciduous_retention,
    # intensity normalization
    "intensity_norm": True,
    "grid_cell": 10.0,
    "significance_alpha": 0.05,
    # crown representations
    "representation": "views4",
    "n_rotations": 180,
    "rotation_step": 2.0,
    # mislabel correction
    "correction_networks": 100,
    "correction_per_class": 80,
    "correction_epochs": 3,
    "alpha": 1e-8,
    "max_iterations": 20,
    # ensemble classification
    "n_networks": 50,
    "per_class": 100,
    "epochs": None,  # unset: 5 for views4, 15 for dsm4
    "lr": 0.01,
    "batch_size": 32,
    "ablation": "none",
    # sweeps
    "sweep_variant": "size",
    "fractions": [0.2, 0.4, 0.6, 0.8, 1.0],
    "repeats": 3,
    "augmentations": [],
    "ablations": list(ABLATIONS),
    # execution
    "threads": None,
}


# Counts and sizes; epochs and threads may also be left unset (null).
POSITIVE_INTEGER_KEYS = (
    "n_rotations",
    "correction_networks",
    "correction_per_class",
    "correction_epochs",
    "max_iterations",
    "n_networks",
    "per_class",
    "epochs",
    "batch_size",
    "repeats",
    "threads",
)
# Forest sizes: a class may be left out.
NON_NEGATIVE_INTEGER_KEYS = ("n_conifer", "n_deciduous")
# Ranges of the numeric keys, as (key, test, allowed range); the
# synthetic-forest ones are those SynthParams enforces.
NUMBER_RANGES = (
    ("label_noise", lambda v: 0 <= v < 1, "within [0, 1)"),
    ("dome_fraction", lambda v: 0 <= v <= 1, "within [0, 1]"),
    ("jitter_sigma", lambda v: v >= 0, "non-negative"),
    ("conifer_retention", lambda v: 0 <= v <= 1, "within [0, 1]"),
    ("deciduous_retention", lambda v: 0 <= v <= 1, "within [0, 1]"),
    ("leaf_on_density", lambda v: v > 0, "positive"),
    ("grid_cell", lambda v: v > 0, "positive"),
    ("significance_alpha", lambda v: 0 < v < 1, "within (0, 1)"),
    ("alpha", lambda v: 0 < v < 1, "within (0, 1)"),
    ("lr", lambda v: v > 0, "positive"),
)


class ConfigError(Exception):
    """Configuration or input validation problem; maps to exit code 1."""


def load_config(path: str, overrides: dict) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as error:
        raise ConfigError(f"config file {path} is not valid JSON: {error}")
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = set(raw) - set(CONFIG_DEFAULTS) - {"seed"}
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    if "seed" not in raw:
        raise ConfigError("config must set a seed; runs draw no wall-clock entropy")
    config = dict(CONFIG_DEFAULTS)
    config.update(raw)
    config.update({k: v for k, v in overrides.items() if v is not None})
    # type() rather than isinstance(): JSON true and false load as bools,
    # which are ints.
    if type(config["seed"]) is not int:
        raise ConfigError(f"seed must be an integer, not {config['seed']!r}")
    for key, default in CONFIG_DEFAULTS.items():
        value = config[key]
        if key in POSITIVE_INTEGER_KEYS:
            unset = value is None and default is None
            if not (unset or type(value) is int and value > 0):
                raise ConfigError(f"{key} must be a positive integer, not {value!r}")
        elif key in NON_NEGATIVE_INTEGER_KEYS:
            if not (type(value) is int and value >= 0):
                raise ConfigError(f"{key} must be a non-negative integer, not {value!r}")
        elif type(default) is bool:
            if type(value) is not bool:
                raise ConfigError(f"{key} must be true or false, not {value!r}")
        elif type(default) in (int, float):
            # JSON NaN and Infinity load as floats.
            if type(value) not in (int, float) or not math.isfinite(value):
                raise ConfigError(f"{key} must be a finite number, not {value!r}")
        elif key.endswith("_file"):
            if not (value is None or type(value) is str):
                raise ConfigError(f"{key} must be null or a string, not {value!r}")
    for key, within, allowed in NUMBER_RANGES:
        if not within(config[key]):
            raise ConfigError(f"{key} must be {allowed}, not {config[key]!r}")
    if config["representation"] not in REPRESENTATIONS:
        raise ConfigError(f"representation must be one of {REPRESENTATIONS}")
    if config["ablation"] not in ABLATIONS:
        raise ConfigError(f"ablation must be one of {ABLATIONS}")
    if config["sweep_variant"] not in ens.SWEEP_VARIANTS:
        raise ConfigError(f"sweep_variant must be one of {ens.SWEEP_VARIANTS}")
    fractions = config["fractions"]
    if not (
        type(fractions) is list
        and fractions
        and all(type(f) in (int, float) and 0 < f <= 1 for f in fractions)
    ):
        raise ConfigError(
            f"fractions must be a non-empty list of numbers in (0, 1], not {fractions!r}"
        )
    augmentations = config["augmentations"]
    if not (
        type(augmentations) is list
        and all(type(a) is int and a > 0 for a in augmentations)
    ):
        raise ConfigError(
            f"augmentations must be a list of positive integers, not {augmentations!r}"
        )
    ablations = config["ablations"]
    if not (type(ablations) is list and all(a in ABLATIONS for a in ablations)):
        raise ConfigError(f"ablations must be a list drawn from {ABLATIONS}")
    return config


def effective_epochs(config: dict) -> int:
    if config["epochs"] is not None:
        return config["epochs"]
    return 5 if config["representation"] == "views4" else 15


def effective_threads(config: dict) -> int:
    return config["threads"] or default_threads()


def require_input(config: dict, key: str) -> Path:
    value = config.get(key)
    if not value:
        raise ConfigError(f"config key {key} is required for this command")
    path = Path(value)
    if not path.exists():
        raise ConfigError(f"{key} does not exist: {path}")
    return path


def write_manifest(out_dir: Path, command: str, config: dict, outputs: list[str]) -> None:
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


def cmd_synth(config: dict, out_dir: Path) -> list[str]:
    params = SynthParams(
        seed=config["seed"],
        n_conifer=config["n_conifer"],
        n_deciduous=config["n_deciduous"],
        label_noise=config["label_noise"],
        dome_fraction=config["dome_fraction"],
        jitter_sigma=config["jitter_sigma"],
        leaf_on_density=config["leaf_on_density"],
        conifer_retention=config["conifer_retention"],
        deciduous_retention=config["deciduous_retention"],
    )
    dataset = generate_dataset(params)
    write_point_file(out_dir / "points.csv", dataset.points)
    write_stem_file(out_dir / "stems.csv", dataset.stems)
    write_truth_file(out_dir / "truth.csv", dataset.truth)
    return ["points.csv", "stems.csv", "truth.csv"]


def cmd_normalize_intensity(config: dict, out_dir: Path) -> list[str]:
    points = read_point_file(require_input(config, "points_file"))
    if not config["intensity_norm"]:
        logger.info("intensity normalization bypassed; copying points through")
        write_point_file(out_dir / "points_normalized.csv", points)
        write_models(out_dir / "intensity_models.json", {})
        return ["points_normalized.csv", "intensity_models.json"]
    models = fit_all_models(
        points,
        cell=float(config["grid_cell"]),
        seed=derive_seed(config["seed"], "intensity"),
    )
    normalized = apply_residualization(
        points, models, alpha=float(config["significance_alpha"])
    )
    write_point_file(out_dir / "points_normalized.csv", normalized)
    write_models(out_dir / "intensity_models.json", models)
    return ["points_normalized.csv", "intensity_models.json"]


def crowns_from_points_file(config: dict) -> list:
    path = require_input(config, "points_file")
    points = read_point_file(path)
    ground = points.select(points.pclass == GROUND)
    if len(ground) == 0:
        raise InputError(f"points_file {path} holds no ground returns; no DEM to build")
    vegetation = points.select(points.pclass == VEGETATION)
    try:
        normalized = height_normalize(vegetation, build_dem(ground))
    except ValueError as error:  # a vegetation point outside the ground's extent
        raise InputError(f"points_file {path}: {error}") from error
    return assemble_crowns(filter_canopy(normalized))


def cmd_register(config: dict, out_dir: Path) -> list[str]:
    crowns = crowns_from_points_file(config)
    stems = read_stem_file(require_input(config, "stems_file"))
    labeled = register_crowns(crowns, stems)
    logger.info("registered %d of %d crowns", len(labeled), len(crowns))
    write_registrations(out_dir / "registrations.csv", labeled)
    return ["registrations.csv"]


def cmd_rasterize(config: dict, out_dir: Path) -> list[str]:
    """Rasterize registered crowns one at a time, in sorted order, into the store."""
    crowns = {c.crown_id: c for c in crowns_from_points_file(config)}
    registrations = require_input(config, "registrations_file")
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
    return ["rasters.bin", "rasters.json"]


def load_dataset(config: dict, tensor_key="tensor_file", manifest_key="manifest_file"):
    tensor_path = require_input(config, tensor_key)
    manifest_path = require_input(config, manifest_key)
    manifest = read_manifest(manifest_path)
    if manifest["kind"] != config["representation"]:
        raise ConfigError(
            f"{manifest_path} holds {manifest['kind']} rasters but "
            f"representation is {config['representation']}"
        )
    images = read_all_representations(tensor_path, manifest)
    dataset = ens.from_store(images, manifest)
    labels_key, labels_path = manifest_key, manifest_path
    if config.get("labels_file"):
        labels_key, labels_path = "labels_file", require_input(config, "labels_file")
        overrides = dict(read_csv_rows(labels_path, LABEL_COLUMNS, _label_override))
        for instance in dataset.instances:
            instance.label = overrides.get(instance.crown_id, instance.label)
    for label in (CONIFER, DECIDUOUS):
        if not dataset.pool(label):
            raise ConfigError(
                f"{labels_key} {labels_path} labels no crown {label}; "
                "ensembles train on both classes"
            )
    return dataset


def _label_override(fields: list[str]) -> tuple[str, str]:
    crown_id, label, _ = fields
    if label not in CLASS_INDEX:
        raise ValueError(f"unknown label {label!r}")
    return crown_id, label


def load_raw_dataset(config: dict):
    """The store rasterized from points without intensity normalization,
    which the raw-intensity ablation trains on."""
    if not config.get("raw_tensor_file"):
        raise ConfigError(
            "the raw-intensity ablation needs raw_tensor_file and "
            "raw_manifest_file rasterized from unnormalized points"
        )
    return load_dataset(config, "raw_tensor_file", "raw_manifest_file")


def load_ablated_dataset(config: dict):
    """The dataset classify trains on under the configured ablation."""
    dataset = load_dataset(config)
    raw = load_raw_dataset(config) if config["ablation"] == "raw-intensity" else None
    return ens.ablate(dataset, config["ablation"], raw)


def cmd_correct_labels(config: dict, out_dir: Path) -> list[str]:
    dataset = load_dataset(config, "tensor_file", "manifest_file")
    correction = ens.CorrectionConfig(
        seed=derive_seed(config["seed"], "correct-labels"),
        n_networks=config["correction_networks"],
        per_class=config["correction_per_class"],
        epochs=config["correction_epochs"],
        alpha=float(config["alpha"]),
        max_iterations=config["max_iterations"],
        lr=float(config["lr"]),
        batch_size=config["batch_size"],
        threads=effective_threads(config),
    )
    dataset, history = ens.correct_mislabels(dataset, correction)
    if not history.converged:
        logger.warning("correction hit max_iterations without converging")
    write_csv_rows(
        out_dir / "corrected_labels.csv",
        LABEL_COLUMNS,
        ([i.crown_id, i.label, i.original_label] for i in dataset.instances),
    )
    ens.write_history(out_dir / "history.csv", history)
    return ["corrected_labels.csv", "history.csv"]


def cmd_classify(config: dict, out_dir: Path) -> list[str]:
    dataset = load_ablated_dataset(config)
    result = ens.ensemble_classify(
        dataset,
        n_networks=config["n_networks"],
        per_class=config["per_class"],
        epochs=effective_epochs(config),
        seed=derive_seed(config["seed"], "classify"),
        lr=float(config["lr"]),
        batch_size=config["batch_size"],
        threads=effective_threads(config),
    )
    ens.write_predictions(out_dir / "predictions.csv", result.predictions)
    write_summary(out_dir / "summary.csv", result)
    return ["predictions.csv", "summary.csv"]


def cmd_sweep(config: dict, out_dir: Path) -> list[str]:
    dataset = load_dataset(config)
    spec = ens.SweepSpec(
        variant=config["sweep_variant"],
        fractions=tuple(config["fractions"]),
        repeats=config["repeats"],
        augmentations=tuple(config["augmentations"]),
        ablations=tuple(config["ablations"]),
    )
    if any(count > dataset.augmentations for count in spec.augmentations):
        raise ConfigError(
            f"augmentations must be at most the store's {dataset.augmentations} "
            f"rotations, not {list(spec.augmentations)}"
        )
    raw = None
    if spec.variant == "ablation" and "raw-intensity" in spec.ablations:
        raw = load_raw_dataset(config)
    rows = ens.run_sweep(
        dataset,
        spec,
        n_networks=config["n_networks"],
        per_class=config["per_class"],
        epochs=effective_epochs(config),
        seed=derive_seed(config["seed"], "sweep"),
        lr=float(config["lr"]),
        batch_size=config["batch_size"],
        threads=effective_threads(config),
        raw=raw,
    )
    ens.write_sweep_table(out_dir / "sweep.csv", rows)
    return ["sweep.csv"]


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


def cmd_report(config: dict, out_dir: Path) -> list[str]:
    """Tabulate whatever result tables the config names into one
    plot-ready long-format file."""
    rows: list[tuple] = []
    history_file = config.get("history_file")
    if history_file and Path(history_file).exists():
        rows.extend(_figure_rows_from_history(ens.read_history(history_file)))
    summary_file = config.get("summary_file")
    if summary_file and Path(summary_file).exists():
        for label, accuracy, _, n in read_summary(Path(summary_file)):
            rows.append(("classification", label, n, accuracy))
    sweep_file = config.get("sweep_file")
    if sweep_file and Path(sweep_file).exists():
        rows.extend(_figure_rows_from_sweep(ens.read_sweep_table(sweep_file)))
    write_csv_rows(
        out_dir / "figures.csv",
        FIGURE_COLUMNS,
        ([figure, series, float(x), float(y)] for figure, series, x, y in rows),
    )
    return ["figures.csv"]


COMMANDS = {
    "synth": cmd_synth,
    "normalize-intensity": cmd_normalize_intensity,
    "register": cmd_register,
    "rasterize": cmd_rasterize,
    "correct-labels": cmd_correct_labels,
    "classify": cmd_classify,
    "sweep": cmd_sweep,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crownclass",
        description="Crown classification pipeline: synthetic data, intensity "
        "normalization, crown-stem registration, rasterization, mislabel "
        "correction, ensemble classification, and evaluation sweeps.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub = subparsers.add_parser(name, help=f"run the {name} step")
        sub.add_argument("--config", required=True, help="path to the JSON run config")
        sub.add_argument("--out", default=".", help="output directory")
        sub.add_argument("--threads", type=int, default=None)
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
    try:
        config = load_config(args.config, overrides)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        outputs = COMMANDS[args.command](config, out_dir)
    except (ConfigError, InputError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except Exception as error:  # runtime failure
        logger.exception("command failed")
        print(f"error: {error}", file=sys.stderr)
        return 2
    write_manifest(out_dir, args.command, config, outputs)
    for name in outputs:
        print(out_dir / name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
