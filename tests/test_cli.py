"""End-to-end tests for the command-line pipeline driver."""

import csv
import json
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crownclass import cli
from crownclass.ensemble import SweepRow, Training, read_history, read_predictions
from crownclass.ingest import LEAF_ON, VEGETATION, PointCloud, write_point_file
from crownclass.rasterize import read_all_representations, read_manifest
from crownclass.util import InputError, derive_seed


BASE_CONFIG = {
    "seed": 7,
    "n_conifer": 6,
    "n_deciduous": 18,
    "label_noise": 0.0,
    "grid_cell": 2.0,
    "n_rotations": 4,
    "rotation_step": 2.0,
    "correction_networks": 2,
    "correction_per_class": 2,
    "correction_epochs": 1,
    "max_iterations": 3,
    "n_networks": 3,
    "per_class": 3,
    "epochs": 1,
    "sweep_variant": "size",
    "fractions": [1.0],
    "repeats": 2,
    "threads": 2,
}


def write_config(path: Path, **extras) -> Path:
    config = dict(BASE_CONFIG)
    config.update(extras)
    path.write_text(json.dumps(config))
    return path


def run(command: str, config: Path, out: Path, *flags: str) -> int:
    return cli.main([command, "--config", str(config), "--out", str(out), *flags])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One tiny pipeline run shared by the read-only assertions below."""
    root = tmp_path_factory.mktemp("cli")
    out = root / "out"
    config = write_config(
        root / "config.json",
        points_file=str(out / "points.csv"),
        stems_file=str(out / "stems.csv"),
        registrations_file=str(out / "registrations.csv"),
        tensor_file=str(out / "rasters.bin"),
        manifest_file=str(out / "rasters.json"),
        history_file=str(out / "history.csv"),
        summary_file=str(out / "summary.csv"),
        sweep_file=str(out / "sweep.csv"),
    )
    for command in cli.STAGES:
        assert run(command, config, out) == 0, command
    return {"root": root, "out": out, "config": config}


@pytest.fixture(scope="module")
def one_class_store(tmp_path_factory):
    """A forest without conifers, through synth, register and rasterize."""
    out = tmp_path_factory.mktemp("one-class")
    config = write_config(
        out / "config.json",
        n_conifer=0,
        n_deciduous=6,
        n_rotations=2,
        points_file=str(out / "points.csv"),
        stems_file=str(out / "stems.csv"),
        registrations_file=str(out / "registrations.csv"),
    )
    for command in ("synth", "register", "rasterize"):
        assert run(command, config, out) == 0, command
    return out


class TestPipelineOutputs:
    def test_all_files_exist(self, pipeline):
        out = pipeline["out"]
        for name in (
            "points.csv",
            "stems.csv",
            "truth.csv",
            "points_normalized.csv",
            "intensity_models.json",
            "registrations.csv",
            "rasters.bin",
            "rasters.json",
            "corrected_labels.csv",
            "history.csv",
            "predictions.csv",
            "summary.csv",
            "sweep.csv",
            "figures.csv",
        ):
            assert (out / name).exists(), name

    def test_predictions_cover_every_crown(self, pipeline):
        predictions = read_predictions(pipeline["out"] / "predictions.csv")
        assert len(predictions) == 24
        assert all(p.predicted in ("conifer", "deciduous", "") for p in predictions)

    def test_summary_round_trips(self, pipeline):
        rows = cli.read_summary(pipeline["out"] / "summary.csv")
        assert [r[0] for r in rows] == ["conifer", "deciduous"]
        for _, accuracy, half_width, n in rows:
            assert 0.0 <= accuracy <= 1.0
            assert half_width >= 0.0
            assert n > 0

    def test_manifest_contents(self, pipeline):
        manifest = json.loads((pipeline["out"] / "manifest_classify.json").read_text())
        assert manifest["command"] == "classify"
        assert manifest["version"]
        assert manifest["config"]["seed"] == 7
        assert sorted(manifest["outputs"]) == ["predictions.csv", "summary.csv"]
        assert "timestamp" not in json.dumps(manifest)

    def test_figures_cover_all_three_tables(self, pipeline):
        with open(pipeline["out"] / "figures.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["figure", "series", "x", "y"]
        figures = {row[0] for row in rows[1:]}
        assert figures == {"correction", "classification", "sweep-size"}

    def test_classify_rerun_is_byte_identical(self, pipeline):
        out = pipeline["out"]
        second = pipeline["root"] / "again"
        assert run("classify", pipeline["config"], second) == 0
        for name in ("predictions.csv", "summary.csv", "manifest_classify.json"):
            assert (out / name).read_bytes() == (second / name).read_bytes(), name

    def test_worker_count_changes_no_table(self, pipeline, tmp_path):
        # A loose alpha makes label correction flip crowns, so later
        # iterations must train on the labels the earlier ones set.
        config = json.loads(pipeline["config"].read_text())
        config.update(alpha=0.99, correction_networks=6)
        config_path = write_config(tmp_path / "config.json", **config)
        tables = {}
        for threads in ("1", "2"):
            out = tmp_path / threads
            for command in ("correct-labels", "classify", "sweep"):
                assert run(command, config_path, out, "--threads", threads) == 0, command
                assert multiprocessing.active_children() == []
                for name in cli.STAGES[command].writes:
                    tables[threads, name] = (out / name).read_bytes()
        assert len(read_history(tmp_path / "1" / "history.csv")) >= 2
        for key in [key for key in tables if key[0] == "1"]:
            assert tables[key] == tables["2", key[1]], key[1]

    def test_corrected_labels_header(self, pipeline):
        with open(pipeline["out"] / "corrected_labels.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["crown_id", "label", "original_label"]
        assert len(rows) == 25

    def test_labels_file_overrides_labels(self, pipeline):
        out = pipeline["out"]
        with open(out / "predictions.csv", newline="") as handle:
            first_crown = list(csv.reader(handle))[1][0]
        flipped = pipeline["root"] / "flipped.csv"
        with open(flipped, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["crown_id", "label", "original_label"])
            writer.writerow([first_crown, "conifer", "deciduous"])
        config = write_config(
            pipeline["root"] / "override.json",
            tensor_file=str(out / "rasters.bin"),
            manifest_file=str(out / "rasters.json"),
            labels_file=str(flipped),
        )
        target = pipeline["root"] / "overridden"
        assert run("classify", config, target) == 0
        predictions = {
            p.crown_id: p for p in read_predictions(target / "predictions.csv")
        }
        assert predictions[first_crown].label == "conifer"

    def test_dsm4_rasterize_flag(self, pipeline):
        target = pipeline["root"] / "dsm"
        assert run(
            "rasterize", pipeline["config"], target, "--representation", "dsm4"
        ) == 0
        manifest = read_manifest(target / "rasters.json")
        images = read_all_representations(target / "rasters.bin", manifest)
        assert manifest["kind"] == "dsm4"
        assert images.shape == (24, 4, 4, 128, 128)
        assert manifest["crown_id"] == sorted(manifest["crown_id"])

    def test_no_intensity_norm_passthrough(self, pipeline):
        out = pipeline["out"]
        target = pipeline["root"] / "raw"
        assert run(
            "normalize-intensity", pipeline["config"], target, "--no-intensity-norm"
        ) == 0
        assert (target / "points_normalized.csv").read_bytes() == (
            out / "points.csv"
        ).read_bytes()
        assert json.loads((target / "intensity_models.json").read_text()) == {}


REQUIRED_INPUTS = [(c, key) for c, stage in cli.STAGES.items() for key in stage.requires]
OPTIONAL_INPUTS = [(c, key) for c, stage in cli.STAGES.items() for key in stage.reads_if_set]
README = Path(__file__).parents[1] / "README.md"


def readme_walkthrough() -> tuple[dict, list[tuple[str, str, str]]]:
    """The README's CLI walkthrough: its configs by file name (the heredoc,
    then each sed copy of it) and its (command, config, out) lines."""
    section = README.read_text(encoding="utf-8").split("## CLI walkthrough", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    name, text = re.search(r"^cat > (\S+) <<'EOF'\n(.*?)\nEOF$", block, re.S | re.M).groups()
    texts = {name: text}
    for old, new, source, target in re.findall(
        r"^sed 's\|([^|]*)\|([^|]*)\|' (\S+) > (\S+)$", block, re.M
    ):
        lines = texts[source].splitlines()
        texts[target] = "\n".join(line.replace(old, new, 1) for line in lines)
    commands = re.findall(r"^crownclass (\S+) +--config (\S+) --out (\S+)$", block, re.M)
    return {name: json.loads(text) for name, text in texts.items()}, commands


class TestStages:
    @pytest.mark.parametrize("command, key", REQUIRED_INPUTS)
    def test_unset_required_input_exits_1_before_reading(self, tmp_path, capsys, command, key):
        # The other inputs name a file that exists but no stage can read.
        config = tmp_path / "config.json"
        others = {k: str(config) for k in cli.STAGES[command].requires if k != key}
        write_config(config, **others)
        out = tmp_path / "out"
        assert run(command, config, out) == 1
        assert f"config key {key} is required for this command" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command, key", OPTIONAL_INPUTS)
    def test_set_but_absent_input_exits_1_before_reading(self, tmp_path, capsys, command, key):
        config = tmp_path / "config.json"
        absent = tmp_path / "absent.csv"
        requires = cli.STAGES[command].requires
        write_config(config, **{k: str(config) for k in requires}, **{key: str(absent)})
        out = tmp_path / "out"
        assert run(command, config, out) == 1
        assert f"error: {key} does not exist: {absent}" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", list(cli.STAGES))
    def test_manifest_lists_the_table_outputs(self, pipeline, command):
        out = pipeline["out"]
        manifest = json.loads((out / f"manifest_{command}.json").read_text())
        writes = cli.STAGES[command].writes
        assert manifest["outputs"] == sorted(writes)
        assert all((out / name).is_file() for name in writes)

    def test_stdout_lists_the_table_outputs_in_order(self, tmp_path, capsys):
        config = write_config(tmp_path / "config.json")
        assert run("synth", config, tmp_path) == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed == [str(tmp_path / name) for name in cli.STAGES["synth"].writes]

    def test_readme_walkthrough_inputs_come_from_earlier_outputs(self, tmp_path):
        configs, commands = readme_walkthrough()
        assert [command for command, _, _ in commands] == list(cli.STAGES)
        written: set[str] = set()
        for command, config_name, out in commands:
            config = configs[config_name]
            (tmp_path / "config.json").write_text(json.dumps(config))
            cli.load_config(str(tmp_path / "config.json"), {})
            stage = cli.STAGES[command]
            inputs = stage.requires + tuple(k for k in stage.reads_if_set if config.get(k))
            for key in inputs:
                assert config.get(key) in written, (command, key, config.get(key))
            written |= {f"{out}/{name}" for name in stage.writes}


# Imports every crownclass module, optionally runs one stage, then prints
# the scipy modules the interpreter has loaded.
STARTUP_SCRIPT = """
import importlib, json, pkgutil, sys
import crownclass
for info in pkgutil.iter_modules(crownclass.__path__):
    importlib.import_module("crownclass." + info.name)
if sys.argv[1:]:
    from crownclass import cli
    assert cli.main(sys.argv[1:]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def scipy_modules_loaded(*argv: str) -> list[str]:
    """The scipy modules a fresh interpreter loads to import crownclass and
    run ``argv`` through the command line; the test process itself has
    already imported scipy."""
    env = dict(os.environ)
    src = str(Path(cli.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", STARTUP_SCRIPT, *argv], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


class TestStartup:
    def test_importing_every_module_loads_no_scipy(self):
        assert scipy_modules_loaded() == []

    @pytest.mark.parametrize("command", ["synth", "register", "rasterize", "classify"])
    def test_stage_loads_no_scipy(self, pipeline, tmp_path, command):
        loaded = scipy_modules_loaded(
            command, "--config", str(pipeline["config"]), "--out", str(tmp_path)
        )
        assert loaded == []

    @pytest.mark.parametrize("command", ["normalize-intensity", "correct-labels"])
    def test_stage_loads_no_spatial_or_optimize(self, pipeline, tmp_path, command):
        loaded = scipy_modules_loaded(
            command, "--config", str(pipeline["config"]), "--out", str(tmp_path)
        )
        assert "scipy.special" in loaded
        assert not [m for m in loaded if m.startswith(("scipy.spatial", "scipy.optimize"))]


class TestErrorPaths:
    def test_unknown_subcommand_exits_1(self, tmp_path, capsys):
        assert cli.main(["frobnicate", "--config", "x.json"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "usage" in capsys.readouterr().out

    def test_missing_config_file(self, tmp_path, capsys):
        assert run("synth", tmp_path / "absent.json", tmp_path) == 1
        assert "absent.json" in capsys.readouterr().err

    def test_missing_input_names_path(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "config.json", points_file=str(tmp_path / "nope.csv")
        )
        assert run("normalize-intensity", config, tmp_path) == 1
        assert "nope.csv" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seed": 1, "bogus": 2}))
        assert run("synth", path, tmp_path) == 1
        assert "bogus" in capsys.readouterr().err

    def test_seed_is_mandatory(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"n_conifer": 4}))
        assert run("synth", path, tmp_path) == 1
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("epochs", -1),
            ("n_networks", 0),
            ("per_class", 2.5),
            ("n_networks", "ten"),
            ("lr", "fast"),
            ("threads", "x"),
            ("per_class", 0),
            ("batch_size", 0),
            ("repeats", True),
            ("grid_cell", None),
            ("seed", "7"),
            ("n_conifer", -1),
            ("n_conifer", 2.5),
            ("n_deciduous", -3),
            ("fractions", [0]),
            ("fractions", [1.5]),
            ("fractions", ["x"]),
            ("fractions", 0.5),
            ("fractions", []),
            ("augmentations", [1.5]),
            ("augmentations", [0]),
            ("ablations", ["nope"]),
            ("sweep_variant", "bogus"),
            ("label_noise", 1.5),
            ("label_noise", 1.0),
            ("label_noise", -0.1),
            ("conifer_retention", 1.2),
            ("deciduous_retention", -0.5),
            ("leaf_on_density", 0),
            ("leaf_on_density", -2.0),
            ("grid_cell", -5),
            ("grid_cell", 0),
            ("rotation_step", float("nan")),
            ("leaf_on_density", float("inf")),
            ("significance_alpha", -1),
            ("significance_alpha", 1),
            ("alpha", 2),
            ("alpha", 0),
            ("lr", -1),
            ("lr", float("nan")),
            ("dome_fraction", 2),
            ("dome_fraction", -1),
            ("jitter_sigma", -1),
            ("intensity_norm", "no"),
            ("intensity_norm", 1),
            ("points_file", 5),
            ("labels_file", ["labels.csv"]),
            pytest.param("lr", 10**400, id="lr-beyond-float-range"),
        ],
    )
    def test_bad_config_value_exits_1_naming_key(self, tmp_path, capsys, key, value):
        config = write_config(tmp_path / "config.json", **{key: value})
        assert run("classify", config, tmp_path) == 1
        assert f"error: {key} must be" in capsys.readouterr().err

    def test_invalid_json_config(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        assert run("synth", path, tmp_path) == 1

    def test_runtime_error_exits_2(self, tmp_path):
        """Thirty points in one row of grid cells, all at one range and
        scan angle: the intensity model's regressors are degenerate, a
        runtime failure, not a malformed file or config value."""
        n = 30
        cloud = PointCloud.from_columns(
            x=np.linspace(0, 58, n),
            y=0.0,
            z=np.linspace(10.0, 15.0, n),
            intensity=100,
            return_number=1,
            scan_angle=0.0,
            range_m=800.0,
            season=LEAF_ON,
            pclass=VEGETATION,
            crown_id="t1",
        )
        write_point_file(tmp_path / "veg.csv", cloud)
        config = write_config(tmp_path / "config.json", points_file=str(tmp_path / "veg.csv"))
        assert run("normalize-intensity", config, tmp_path) == 2

    def test_too_few_grid_samples_exit_1_naming_grid_cell(self, tmp_path, capsys):
        """A small forest leaves a group fewer samples on the default 10 m
        grid than a model needs; a finer grid_cell would fit it."""
        forest = {"seed": 3, "n_conifer": 8, "n_deciduous": 40}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict(forest, points_file=str(tmp_path / "points.csv"))))
        assert run("synth", config, tmp_path) == 0
        capsys.readouterr()
        assert run("normalize-intensity", config, tmp_path) == 1
        err = capsys.readouterr().err
        assert "group off:3 has only 5 samples on the grid_cell 10 m grid" in err
        assert "Traceback" not in err

    def test_points_without_ground_exit_1_naming_file(self, tmp_path, pipeline, capsys):
        lines = (pipeline["out"] / "points.csv").read_text().splitlines()
        points = tmp_path / "points.csv"
        points.write_text("\n".join(line for line in lines if not line.endswith(",ground")))
        config = write_config(
            tmp_path / "config.json",
            points_file=str(points),
            stems_file=str(pipeline["out"] / "stems.csv"),
        )
        assert run("register", config, tmp_path) == 1
        assert f"points_file {points} holds no ground returns" in capsys.readouterr().err

    def test_vegetation_outside_dem_exits_1_naming_file(self, tmp_path, pipeline, capsys):
        points = tmp_path / "points.csv"
        text = (pipeline["out"] / "points.csv").read_text()
        points.write_text(text + "t9999,5000.000,5000.000,30.000,90,1,0.00,800.00,on,vegetation\n")
        config = write_config(
            tmp_path / "config.json",
            points_file=str(points),
            stems_file=str(pipeline["out"] / "stems.csv"),
        )
        assert run("register", config, tmp_path) == 1
        err = capsys.readouterr().err
        assert f"points_file {points}: 1 point(s) outside DEM extent" in err

    def test_registration_of_absent_crown_exits_1_naming_files(
        self, tmp_path, pipeline, capsys
    ):
        registrations = tmp_path / "registrations.csv"
        text = (pipeline["out"] / "registrations.csv").read_text()
        registrations.write_text(text + "zz_absent,s0001,100,conifer,dominant\n")
        config = write_config(
            tmp_path / "config.json",
            points_file=str(pipeline["out"] / "points.csv"),
            registrations_file=str(registrations),
        )
        assert run("rasterize", config, tmp_path) == 1
        err = capsys.readouterr().err
        assert f"registrations_file {registrations} names crown zz_absent" in err
        assert f"points_file {pipeline['out'] / 'points.csv'}" in err

    def test_crown_registered_twice_exits_1_naming_line(self, tmp_path, pipeline, capsys):
        registrations = tmp_path / "registrations.csv"
        lines = (pipeline["out"] / "registrations.csv").read_text().splitlines()
        registrations.write_text("\n".join(lines + [lines[1]]) + "\n")
        config = write_config(
            tmp_path / "config.json",
            points_file=str(pipeline["out"] / "points.csv"),
            registrations_file=str(registrations),
        )
        assert run("rasterize", config, tmp_path) == 1
        crown_id = lines[1].split(",")[0]
        expected = f"registrations.csv:{len(lines) + 1}: crown {crown_id} is registered twice"
        assert expected in capsys.readouterr().err
        assert not (tmp_path / "rasters.bin").exists()

    def test_raw_sweep_needs_raw_files(self, tmp_path, pipeline, capsys):
        out = pipeline["out"]
        config = write_config(
            tmp_path / "config.json",
            tensor_file=str(out / "rasters.bin"),
            manifest_file=str(out / "rasters.json"),
            sweep_variant="ablation",
            ablations=["raw-intensity"],
        )
        assert run("sweep", config, tmp_path) == 1
        assert "raw_tensor_file" in capsys.readouterr().err

    def test_augmentations_beyond_store_rotations_exit_1(
        self, tmp_path, pipeline, capsys
    ):
        out = pipeline["out"]
        config = write_config(
            tmp_path / "config.json",
            tensor_file=str(out / "rasters.bin"),
            manifest_file=str(out / "rasters.json"),
            sweep_variant="augmentation",
            augmentations=[1, 5],
        )
        assert run("sweep", config, tmp_path) == 1
        assert "augmentations must be at most the store's 4 rotations" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "sweep.csv").exists()

    def test_empty_augmentations_sweep_exits_1(self, tmp_path, pipeline, capsys):
        out = pipeline["out"]
        config = write_config(
            tmp_path / "config.json",
            tensor_file=str(out / "rasters.bin"),
            manifest_file=str(out / "rasters.json"),
            sweep_variant="augmentation",
        )
        assert run("sweep", config, tmp_path) == 1
        assert "augmentations must not be empty" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_empty_ablations_sweep_exits_1(self, tmp_path, pipeline, capsys):
        out = pipeline["out"]
        config = write_config(
            tmp_path / "config.json",
            tensor_file=str(out / "rasters.bin"),
            manifest_file=str(out / "rasters.json"),
            sweep_variant="ablation",
            ablations=[],
        )
        assert run("sweep", config, tmp_path) == 1
        assert "ablations must not be empty" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("command", ["correct-labels", "classify", "sweep"])
    def test_store_of_other_representation_exits_1(
        self, tmp_path, pipeline, capsys, command
    ):
        out = pipeline["out"]
        config = write_config(
            tmp_path / "config.json",
            tensor_file=str(out / "rasters.bin"),
            manifest_file=str(out / "rasters.json"),
        )
        assert run(command, config, tmp_path, "--representation", "dsm4") == 1
        assert "representation" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["correct-labels", "classify", "sweep"])
    def test_one_class_store_exits_1_naming_manifest(
        self, tmp_path, one_class_store, capsys, command
    ):
        config = write_config(
            tmp_path / "config.json",
            tensor_file=str(one_class_store / "rasters.bin"),
            manifest_file=str(one_class_store / "rasters.json"),
        )
        assert run(command, config, tmp_path) == 1
        err = capsys.readouterr().err
        assert f"manifest_file {one_class_store / 'rasters.json'}" in err
        assert "labels no crown conifer" in err

    @pytest.mark.parametrize("command", ["correct-labels", "classify", "sweep"])
    def test_one_class_labels_file_exits_1_naming_it(
        self, tmp_path, pipeline, capsys, command
    ):
        out = pipeline["out"]
        crown_ids = read_manifest(out / "rasters.json")["crown_id"]
        labels = tmp_path / "labels.csv"
        labels.write_text(
            "crown_id,label,original_label\n"
            + "".join(f"{cid},deciduous,conifer\n" for cid in crown_ids)
        )
        config = write_config(
            tmp_path / "config.json",
            tensor_file=str(out / "rasters.bin"),
            manifest_file=str(out / "rasters.json"),
            labels_file=str(labels),
        )
        assert run(command, config, tmp_path) == 1
        err = capsys.readouterr().err
        assert f"labels_file {labels} labels no crown conifer" in err

    @pytest.mark.parametrize(
        "spoil",
        [lambda m: dict(m, scaled=False), lambda m: dict(m, kind=["views4"]), lambda m: 5],
        ids=["unscaled", "unhashable-kind", "not-an-object"],
    )
    def test_bad_store_manifest_exits_1_naming_file(self, tmp_path, pipeline, capsys, spoil):
        out = pipeline["out"]
        manifest = tmp_path / "rasters.json"
        manifest.write_text(json.dumps(spoil(json.loads((out / "rasters.json").read_text()))))
        config = write_config(
            tmp_path / "config.json",
            tensor_file=str(out / "rasters.bin"),
            manifest_file=str(manifest),
        )
        assert run("classify", config, tmp_path) == 1
        assert f"error: {manifest}: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "column, spoil, message",
        [
            ("crown_id", lambda m: dict(m, crown_id=5), "column crown_id is not a list"),
            (
                "crown_id",
                lambda m: dict(m, crown_id=[5] + m["crown_id"][1:]),
                "column crown_id, row 0: 5 is not a string",
            ),
            ("scalars", lambda m: dict(m, scalars=m["scalars"][:-1]), "column scalars holds"),
            (
                "scalars",
                lambda m: dict(m, scalars=[m["scalars"][0][:1]] + m["scalars"][1:]),
                "column scalars, row 0: ",
            ),
            (
                "label",
                lambda m: dict(m, label=m["label"][:-1] + ["x"]),
                'column label, row 23: "x" is not conifer or deciduous',
            ),
            (
                "density",
                lambda m: dict(m, density=["dense"] + m["density"][1:]),
                'column density, row 0: "dense" is not a finite number',
            ),
        ],
        ids=[
            "id-not-a-list",
            "id-not-a-string",
            "scalars-row-short",
            "scalars-too-narrow",
            "unknown-label",
            "density-not-a-number",
        ],
    )
    def test_bad_store_column_exits_1_naming_file_and_column(
        self, tmp_path, pipeline, capsys, column, spoil, message
    ):
        out = pipeline["out"]
        manifest = tmp_path / "rasters.json"
        manifest.write_text(json.dumps(spoil(json.loads((out / "rasters.json").read_text()))))
        config = write_config(
            tmp_path / "config.json",
            tensor_file=str(out / "rasters.bin"),
            manifest_file=str(manifest),
        )
        assert run("classify", config, tmp_path) == 1
        err = capsys.readouterr().err
        assert f"error: {manifest}: column {column}" in err and message in err

    def labels_file_config(self, tmp_path, pipeline, crown_ids):
        out = pipeline["out"]
        labels = tmp_path / "labels.csv"
        labels.write_text(
            "crown_id,label,original_label\n"
            + "".join(f"{cid},conifer,conifer\n" for cid in crown_ids)
        )
        config = write_config(
            tmp_path / "config.json",
            tensor_file=str(out / "rasters.bin"),
            manifest_file=str(out / "rasters.json"),
            labels_file=str(labels),
        )
        return labels, config

    def test_labels_file_crown_absent_from_store_exits_1_naming_line(
        self, tmp_path, pipeline, capsys
    ):
        stored = read_manifest(pipeline["out"] / "rasters.json")["crown_id"]
        labels, config = self.labels_file_config(tmp_path, pipeline, stored[:1] + ["zz"])
        assert run("classify", config, tmp_path) == 1
        assert f"{labels}:3: crown zz is not in the raster store" in capsys.readouterr().err

    def test_labels_file_crown_labeled_twice_exits_1_naming_line(
        self, tmp_path, pipeline, capsys
    ):
        stored = read_manifest(pipeline["out"] / "rasters.json")["crown_id"]
        labels, config = self.labels_file_config(tmp_path, pipeline, stored[:2] + stored[:1])
        assert run("classify", config, tmp_path) == 1
        expected = f"{labels}:4: crown {stored[0]} is labeled twice"
        assert expected in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["history_file", "summary_file", "sweep_file"])
    def test_report_of_absent_table_exits_1_naming_key(self, tmp_path, capsys, key):
        absent = tmp_path / "absent.csv"
        config = write_config(tmp_path / "config.json", **{key: str(absent)})
        assert run("report", config, tmp_path) == 1
        assert f"error: {key} does not exist: {absent}" in capsys.readouterr().err
        assert not (tmp_path / "figures.csv").exists()

    def test_store_shape_disagreeing_with_manifest_exits_1(
        self, tmp_path, pipeline, capsys
    ):
        out = pipeline["out"]
        manifest = json.loads((out / "rasters.json").read_text())
        manifest["n_rotations"] = 2
        (tmp_path / "short.json").write_text(json.dumps(manifest))
        config = write_config(
            tmp_path / "config.json",
            tensor_file=str(out / "rasters.bin"),
            manifest_file=str(tmp_path / "short.json"),
        )
        assert run("classify", config, tmp_path) == 1
        assert "rasters.bin" in capsys.readouterr().err

    def test_malformed_point_file_exits_1(self, tmp_path, pipeline, capsys):
        lines = (pipeline["out"] / "points.csv").read_text().splitlines()
        fields = lines[2].split(",")
        fields[4] = "300"  # intensity
        lines[2] = ",".join(fields)
        (tmp_path / "points.csv").write_text("\n".join(lines) + "\n")
        config = write_config(
            tmp_path / "config.json", points_file=str(tmp_path / "points.csv")
        )
        assert run("normalize-intensity", config, tmp_path) == 1
        assert "points.csv:3: intensity 300" in capsys.readouterr().err

    def test_malformed_stem_file_exits_1(self, tmp_path, pipeline, capsys):
        stems = tmp_path / "stems.csv"
        stems.write_text(
            "stem_id,x,y,height,species,crown_class,status\n"
            "s1,1.0,2.0,twenty,conifer,dominant,live\n"
        )
        config = write_config(
            tmp_path / "config.json",
            points_file=str(pipeline["out"] / "points.csv"),
            stems_file=str(stems),
        )
        assert run("register", config, tmp_path) == 1
        assert "stems.csv:2:" in capsys.readouterr().err

    def test_registrations_missing_column_exits_1(self, tmp_path, pipeline, capsys):
        registrations = tmp_path / "registrations.csv"
        registrations.write_text("crown_id,stem_id,score,crown_class\n")
        config = write_config(
            tmp_path / "config.json",
            points_file=str(pipeline["out"] / "points.csv"),
            registrations_file=str(registrations),
        )
        assert run("rasterize", config, tmp_path) == 1
        assert "registrations.csv:1: header" in capsys.readouterr().err


class TestConfigHelpers:
    def test_epochs_default_by_representation(self):
        views = dict(cli.CONFIG_DEFAULTS, seed=1)
        assert cli.effective_epochs(views) == 5
        dsm = dict(views, representation="dsm4")
        assert cli.effective_epochs(dsm) == 15
        explicit = dict(dsm, epochs=2)
        assert cli.effective_epochs(explicit) == 2

    def test_training_reads_each_command_keys(self):
        config = dict(
            cli.CONFIG_DEFAULTS,
            seed=3,
            correction_networks=2,
            correction_per_class=3,
            correction_epochs=4,
            n_networks=11,
            per_class=6,
            epochs=7,
            lr=0.125,
            batch_size=8,
            threads=9,
        )
        shared = dict(lr=0.125, batch_size=8, threads=9)
        assert cli.training(config, "correct-labels") == Training(
            2, 3, 4, derive_seed(3, "correct-labels"), **shared
        )
        for command in ("classify", "sweep"):
            assert cli.training(config, command) == Training(
                11, 6, 7, derive_seed(3, command), **shared
            )
        unset = dict(config, epochs=None, representation="dsm4")
        assert cli.training(unset, "sweep").epochs == cli.effective_epochs(unset) == 15

    def test_unset_epochs_and_threads_accepted(self, tmp_path):
        config = write_config(tmp_path / "config.json", epochs=None, threads=None)
        loaded = cli.load_config(str(config), {})
        assert (loaded["epochs"], loaded["threads"]) == (None, None)

    def test_defaults_match_published_values(self):
        d = cli.CONFIG_DEFAULTS
        assert (d["n_rotations"], d["rotation_step"]) == (180, 2.0)
        assert (
            d["correction_networks"],
            d["correction_per_class"],
            d["correction_epochs"],
        ) == (100, 80, 3)
        assert (d["n_networks"], d["per_class"]) == (50, 100)
        assert (d["lr"], d["batch_size"]) == (0.01, 32)
        assert d["fractions"] == [0.2, 0.4, 0.6, 0.8, 1.0]

    def test_report_ordinal_x_for_text_params(self):
        rows = [
            SweepRow("crown_class", "overstory", 0.9, 0.01, 0.8, 0.02),
            SweepRow("crown_class", "understory", 0.7, 0.01, 0.6, 0.02),
        ]
        figure_rows = cli._figure_rows_from_sweep(rows)
        assert [r[2] for r in figure_rows] == [0.0, 0.0, 1.0, 1.0]

    def test_empty_report_is_header_only(self, tmp_path):
        config = write_config(tmp_path / "config.json")
        assert run("report", config, tmp_path) == 0
        assert (tmp_path / "figures.csv").read_bytes() == b"figure,series,x,y\r\n"


# Any JSON value: NaN and +-inf among the floats, bools, nested lists and objects.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=8,
)


class TestConfigKeys:
    def test_every_default_passes(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 1}))
        assert cli.load_config(str(config), {}) == dict(cli.CONFIG_DEFAULTS, seed=1)

    @settings(max_examples=400, deadline=None)
    @given(key=st.sampled_from(list(cli.CONFIG_KEYS)), value=JSON_VALUES)
    def test_any_value_loads_or_names_its_key(self, tmp_path_factory, key, value):
        path = tmp_path_factory.getbasetemp() / "any-value.json"
        path.write_text(json.dumps({"seed": 1, key: value}))
        try:
            config = cli.load_config(str(path), {})
        except InputError as error:
            assert str(error).startswith(f"{key} must be ")
        else:
            assert json.dumps(config[key]) == json.dumps(value)
