"""Benchmark workloads: the forest each one generates from its seed, the
pipeline stages it runs, and which of those stages it times.

Sizes are scaled so that one run (three set-ups plus at least two timed
passes) takes about half a minute on a 2-CPU machine; the README in this
directory gives the reasoning per workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# normalize-intensity writes points_normalized.csv, which no later stage
# reads, so the training workloads leave it out of their set-up; its cost
# is measured on plot-ingest.
TRAINING_SETUP = ("synth", "register", "rasterize")

# Input paths shared by every stage; stages run with the work directory
# as their working directory.
PATHS = {
    "points_file": "points.csv",
    "stems_file": "stems.csv",
    "registrations_file": "registrations.csv",
    "tensor_file": "rasters.bin",
    "manifest_file": "rasters.json",
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: tuple[str, ...]
    measured: tuple[str, ...]
    config: dict
    # Keys that only one stage's config carries.
    stage_config: dict = field(default_factory=dict)
    # Overrides for the tiny smoke-test sizes.
    smoke: dict = field(default_factory=dict)
    # Lowest balanced accuracy classify may report before the run fails.
    accuracy_floor: float | None = None

    @property
    def stages(self) -> tuple[str, ...]:
        return self.setup + self.measured

    def stage_configs(self, seed: int, smoke: bool = False) -> dict[str, dict]:
        base = dict(PATHS, seed=seed, **self.config)
        if smoke:
            base.update(self.smoke)
        return {
            stage: dict(base, **self.stage_config.get(stage, {})) for stage in self.stages
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="plot-ingest",
            why="a 200-crown plot through intensity, register and rasterize: "
            "ingest and raster writes do the work, tinynet and ensemble none",
            setup=("synth",),
            measured=("normalize-intensity", "register", "rasterize"),
            config={
                "n_conifer": 16,
                "n_deciduous": 184,
                # 10 m cells leave some seeds' plots too few grid samples
                # in the rare fourth-return group.
                "grid_cell": 5.0,
                "representation": "views4",
                "n_rotations": 4,
                "rotation_step": 90.0,
            },
            smoke={"n_conifer": 12, "n_deciduous": 88, "n_rotations": 1, "grid_cell": 4.0},
        ),
        Workload(
            name="correct-views",
            why="label correction whose per-class draw exceeds the labelled "
            "conifers, then classify, on views4: tinynet views training and store reads",
            setup=TRAINING_SETUP,
            measured=("correct-labels", "classify"),
            config={
                "n_conifer": 9,
                "n_deciduous": 101,
                "label_noise": 0.05,
                "representation": "views4",
                "n_rotations": 2,
                "rotation_step": 180.0,
                "correction_networks": 6,
                "correction_per_class": 40,
                # Five epochs, not the default three: with fewer steps some
                # seeds' networks often stay degenerate and are retrained,
                # which makes the timed work swing from seed to seed.
                "correction_epochs": 5,
                "max_iterations": 1,
                "n_networks": 6,
                "per_class": 8,
                "epochs": 10,
            },
            # classify reads the labels correct-labels wrote; correct-labels
            # itself always starts from the registered labels.
            stage_config={"classify": {"labels_file": "corrected_labels.csv"}},
            smoke={
                "n_rotations": 1,
                "correction_networks": 2,
                "correction_per_class": 8,
                "correction_epochs": 1,
                "n_networks": 2,
                "per_class": 4,
                "epochs": 1,
            },
            accuracy_floor=0.6,
        ),
        Workload(
            name="classify-dsm",
            why="classify on dsm4 (128x128 inputs, six conv/pool pairs): "
            "train-heavy tinynet dsm work and a 4x larger raster store per crown",
            setup=TRAINING_SETUP,
            measured=("classify",),
            config={
                "n_conifer": 40,
                "n_deciduous": 40,
                "representation": "dsm4",
                "n_rotations": 2,
                "rotation_step": 180.0,
                "n_networks": 4,
                "per_class": 8,
                "epochs": 15,
            },
            smoke={"n_rotations": 1, "n_networks": 2, "per_class": 4, "epochs": 1},
            accuracy_floor=0.6,
        ),
    )
}
