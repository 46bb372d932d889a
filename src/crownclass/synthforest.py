"""Synthetic forest generator: conifer and deciduous crown clouds with two
seasonal acquisitions, field stems, and a truth table.

The class mechanism is seasonal retention: conifers keep a dense crown in
the leaf-off acquisition while deciduous crowns thin to sparse branch
returns.  Leaf-on appearance is only partly diagnostic: most conifers are
cones, but a configurable fraction grows dome crowns sampled from the
deciduous geometry and brightness distributions themselves, so a
classifier shown only leaf-on data has an irreducible conifer error while
deciduous crowns stay recognizable.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from .ingest import (
    GROUND,
    LEAF_OFF,
    LEAF_ON,
    VEGETATION,
    CROWN_CLASSES,
    FieldStem,
    PointCloud,
)
from . import CONIFER, DECIDUOUS
from .util import derive_seed, read_csv_rows, write_csv_rows

TRUTH_COLUMNS = ("crown_id", "true_label", "recorded_label")

# Return-number draw probabilities; leaf-off pulses rarely split more
# than three ways in spring canopies.
RETURN_PROBS_ON = (0.55, 0.25, 0.14, 0.06)
RETURN_PROBS_OFF = (0.65, 0.25, 0.10)


@dataclass
class SynthParams:
    """Knobs for one synthetic forest; the dataset is a pure function of
    these values."""

    seed: int
    n_conifer: int = 32
    n_deciduous: int = 368
    spacing: float = 10.0  # stem grid pitch, m
    position_jitter: float = 1.5  # max offset of a crown from its slot, m

    conifer_height: tuple[float, float] = (14.0, 28.0)
    conifer_radius: tuple[float, float] = (1.6, 3.0)
    conifer_depth_frac: tuple[float, float] = (0.5, 0.7)
    deciduous_height: tuple[float, float] = (16.0, 30.0)
    deciduous_radius: tuple[float, float] = (2.2, 4.5)
    deciduous_depth: tuple[float, float] = (3.0, 6.0)  # vertical semi-axis

    # Fraction of conifers whose leaf-on crown is drawn from the deciduous
    # distributions above (leaf-off retention still marks them).
    dome_fraction: float = 0.15

    leaf_on_density: float = 10.0  # points per m^2 of crown footprint
    conifer_retention: float = 1.0
    deciduous_retention: float = 0.02

    # Mean/spread of 8-bit intensity before the range and angle effects.
    conifer_intensity_on: tuple[float, float] = (110.0, 12.0)
    deciduous_intensity_on: tuple[float, float] = (200.0, 14.0)
    conifer_intensity_off: tuple[float, float] = (140.0, 10.0)
    deciduous_intensity_off: tuple[float, float] = (50.0, 12.0)

    jitter_sigma: float = 1.0  # stem GPS error, m
    stem_height_sigma: float = 0.5
    label_noise: float = 0.0
    flight_height: float = 800.0
    ground_pitch: float = 0.8
    slope: tuple[float, float] = (0.02, 0.01)
    crown_class_probs: tuple[float, ...] = (0.3, 0.4, 0.2, 0.1)

    def __post_init__(self) -> None:
        if self.leaf_on_density <= 0:
            raise ValueError("leaf_on_density must be positive")
        for r in (self.conifer_retention, self.deciduous_retention):
            if not 0.0 <= r <= 1.0:
                raise ValueError("retention must be within [0, 1]")
        if not 0.0 <= self.label_noise < 1.0:
            raise ValueError("label_noise must be within [0, 1)")
        if not 0.0 <= self.dome_fraction <= 1.0:
            raise ValueError("dome_fraction must be within [0, 1]")
        if not self.jitter_sigma >= 0.0:
            raise ValueError("jitter_sigma must be non-negative")


def _ground_elevation(x, y, params: SynthParams):
    sx, sy = params.slope
    return sx * x + sy * y + 0.3 * np.sin(x / 17.0) * np.cos(y / 23.0)


def _acquisition_geometry(rng, z, params: SynthParams):
    """Scan angle, slant range, and the intensity offset they induce."""
    angle = rng.uniform(-15.0, 15.0, size=len(z))
    rad = np.radians(angle)
    range_m = (params.flight_height - z) / np.cos(rad) + rng.normal(
        0.0, 1.0, size=len(z)
    )
    offset = -14.0 * np.log(range_m / params.flight_height) + 8.0 * (
        np.cos(rad) - 1.0
    )
    return angle, range_m, offset


def _finish_points(
    rng,
    crown_id: str,
    x,
    y,
    z,
    season: int,
    base_intensity: tuple[float, float],
    params: SynthParams,
) -> PointCloud:
    n = len(x)
    angle, range_m, offset = _acquisition_geometry(rng, z, params)
    mean, sigma = base_intensity
    intensity = rng.normal(mean, sigma, size=n) + offset
    intensity = np.clip(np.rint(intensity), 1, 255).astype(np.int64)
    probs = RETURN_PROBS_ON if season == LEAF_ON else RETURN_PROBS_OFF
    returns = rng.choice(np.arange(1, len(probs) + 1), size=n, p=probs)
    return PointCloud.from_columns(
        x=x, y=y, z=z, intensity=intensity, return_number=returns, scan_angle=angle,
        range_m=range_m, season=season, pclass=VEGETATION, crown_id=crown_id,
    )


def _cone_offsets(rng, n, radius, depth):
    """Offsets from the apex, uniform over a downward-opening cone."""
    t = depth * rng.random(n) ** (1.0 / 3.0)
    rho = radius * (t / depth) * np.sqrt(rng.random(n))
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    return rho * np.cos(theta), rho * np.sin(theta), -t


def _ellipsoid_offsets(rng, n, radius, depth):
    """Offsets from the apex, uniform over a full ellipsoid of vertical
    semi-axis ``depth`` whose top touches the apex."""
    u = rng.normal(size=(n, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    u *= rng.random((n, 1)) ** (1.0 / 3.0)
    return radius * u[:, 0], radius * u[:, 1], -depth * (1.0 - u[:, 2])


def _uniform(rng, bounds):
    low, high = bounds
    return rng.uniform(low, high)


def generate_crown(
    crown_id: str,
    species: str,
    center: tuple[float, float],
    params: SynthParams,
    domed: bool = False,
) -> PointCloud:
    """Vegetation points of one crown, both seasons, absolute elevations.

    The apex is placed explicitly at the crown center so the highest
    point is exact by construction.
    """
    rng = np.random.default_rng(derive_seed(params.seed, "crown", crown_id))
    cx, cy = center
    ground = float(_ground_elevation(np.array(cx), np.array(cy), params))

    if species == CONIFER and not domed:
        height = _uniform(rng, params.conifer_height)
        radius = _uniform(rng, params.conifer_radius)
        depth = height * _uniform(rng, params.conifer_depth_frac)
        sample = _cone_offsets
        intensity_on = params.conifer_intensity_on
    elif species in (CONIFER, DECIDUOUS):
        # Dome-crowned conifers draw the whole leaf-on crown from the
        # deciduous distributions, so only the winter crown separates them.
        height = _uniform(rng, params.deciduous_height)
        radius = _uniform(rng, params.deciduous_radius)
        depth = _uniform(rng, params.deciduous_depth)
        sample = _ellipsoid_offsets
        intensity_on = params.deciduous_intensity_on
    else:
        raise ValueError(f"unknown species {species!r}")

    n_on = max(20, int(round(params.leaf_on_density * math.pi * radius**2)))
    dx, dy, dz = sample(rng, n_on, radius, depth)
    # Explicit apex return on top of the sampled bulk.
    dx = np.append(dx, 0.0)
    dy = np.append(dy, 0.0)
    dz = np.append(dz, 0.0)
    on = _finish_points(
        rng,
        crown_id,
        cx + dx,
        cy + dy,
        ground + height + dz,
        LEAF_ON,
        intensity_on,
        params,
    )

    if species == CONIFER:
        retention = params.conifer_retention
        intensity_off = params.conifer_intensity_off
    else:
        retention = params.deciduous_retention
        intensity_off = params.deciduous_intensity_off
    n_off = int(round(retention * (n_on + 1)))
    dx, dy, dz = sample(rng, n_off, radius, depth)
    off = _finish_points(
        rng,
        crown_id,
        cx + dx,
        cy + dy,
        ground + height + dz,
        LEAF_OFF,
        intensity_off,
        params,
    )
    return concat_clouds([on, off])


def concat_clouds(clouds: list[PointCloud]) -> PointCloud:
    """Stack point containers; crown_id is kept when every part has it."""
    if not clouds:
        return PointCloud.empty()
    columns = {}
    for f in fields(PointCloud):
        parts = [getattr(c, f.name) for c in clouds]
        columns[f.name] = None if any(p is None for p in parts) else np.concatenate(parts)
    return PointCloud(**columns)


def _ground_points(params: SynthParams, extent: float) -> PointCloud:
    rng = np.random.default_rng(derive_seed(params.seed, "ground"))
    pitch = params.ground_pitch
    coords = np.arange(0.0, extent + pitch, pitch)
    gx, gy = np.meshgrid(coords, coords)
    gx = gx.ravel() + rng.uniform(-0.2, 0.2, gx.size)
    gy = gy.ravel() + rng.uniform(-0.2, 0.2, gy.size)
    gz = _ground_elevation(gx, gy, params)
    angle, range_m, offset = _acquisition_geometry(rng, gz, params)
    intensity = np.clip(
        np.rint(rng.normal(90.0, 10.0, gx.size) + offset), 1, 255
    ).astype(np.int64)
    return PointCloud.from_columns(
        x=gx, y=gy, z=gz, intensity=intensity, return_number=1, scan_angle=angle,
        range_m=range_m, season=LEAF_OFF, pclass=GROUND, crown_id="",
    )


@dataclass
class TruthRow:
    crown_id: str
    true_label: str
    recorded_label: str


@dataclass
class SynthDataset:
    points: PointCloud  # ground + vegetation, both seasons
    stems: list[FieldStem]
    truth: list[TruthRow]
    params: SynthParams
    extent: float = field(default=0.0)


def generate_dataset(params: SynthParams) -> SynthDataset:
    """Lay crowns on a jittered grid, plant one stem per crown, and flip
    the recorded species of an exact fraction of the stems."""
    rng = np.random.default_rng(derive_seed(params.seed, "forest"))
    n_total = params.n_conifer + params.n_deciduous
    side = math.ceil(math.sqrt(n_total))
    extent = side * params.spacing

    species = np.array(
        [CONIFER] * params.n_conifer + [DECIDUOUS] * params.n_deciduous,
        dtype=object,
    )
    rng.shuffle(species)
    n_domed = int(round(params.dome_fraction * params.n_conifer))
    conifer_order = rng.permutation(np.flatnonzero(species == CONIFER))
    domed = np.zeros(n_total, dtype=bool)
    domed[conifer_order[:n_domed]] = True

    slots = rng.permutation(n_total)
    clouds = []
    centers = []
    for i in range(n_total):
        slot = slots[i]
        base_x = (slot % side + 0.5) * params.spacing
        base_y = (slot // side + 0.5) * params.spacing
        cx = base_x + rng.uniform(-params.position_jitter, params.position_jitter)
        cy = base_y + rng.uniform(-params.position_jitter, params.position_jitter)
        centers.append((cx, cy))
        crown_id = f"t{i + 1:04d}"
        clouds.append(
            generate_crown(crown_id, str(species[i]), (cx, cy), params, domed[i])
        )

    # Exact-count label noise with the truth retained for scoring.
    recorded = species.copy()
    n_flips = int(round(params.label_noise * n_total))
    flip_idx = rng.choice(n_total, size=n_flips, replace=False)
    for i in flip_idx:
        recorded[i] = DECIDUOUS if species[i] == CONIFER else CONIFER

    stems = []
    truth = []
    for i in range(n_total):
        crown_id = f"t{i + 1:04d}"
        cloud = clouds[i]
        cx = float(cloud.x.mean()) + rng.normal(0.0, params.jitter_sigma)
        cy = float(cloud.y.mean()) + rng.normal(0.0, params.jitter_sigma)
        ground = float(
            _ground_elevation(np.array(centers[i][0]), np.array(centers[i][1]), params)
        )
        tree_height = float(cloud.z.max()) - ground
        height = tree_height + rng.normal(0.0, params.stem_height_sigma)
        crown_class = CROWN_CLASSES[
            rng.choice(len(CROWN_CLASSES), p=params.crown_class_probs)
        ]
        stems.append(
            FieldStem(
                stem_id=f"s{i + 1:04d}",
                x=cx,
                y=cy,
                height=height,
                species_class=str(recorded[i]),
                crown_class=crown_class,
                status="live",
            )
        )
        truth.append(TruthRow(crown_id, str(species[i]), str(recorded[i])))

    points = concat_clouds([_ground_points(params, extent)] + clouds)
    return SynthDataset(points, stems, truth, params, extent)


def write_truth_file(path: str | Path, truth: list[TruthRow]) -> None:
    write_csv_rows(path, TRUTH_COLUMNS, map(astuple, truth))


def read_truth_file(path: str | Path) -> list[TruthRow]:
    return read_csv_rows(path, TRUTH_COLUMNS, lambda r: TruthRow(*r))
