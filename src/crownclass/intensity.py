"""Intensity normalization: per-group regression of intensity on range
and emission angle, residualization, and renormalization to 8 bits.

Returns travel different path lengths and leave the scanner at different
angles, so raw intensity mixes geometry with surface reflectance. Fitting
intensity against ln(range) and cos(scan angle) per (season, return
number) group and keeping the residuals removes the geometric part.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .ingest import LEAF_OFF, LEAF_ON, SEASON_NAMES, VEGETATION, PointCloud
from .util import InputError, derive_seed, student_t_cdf, write_json

logger = logging.getLogger(__name__)

# Leaf-off acquisitions carry up to three returns, leaf-on up to four.
GROUPS = tuple((LEAF_OFF, r) for r in (1, 2, 3)) + tuple(
    (LEAF_ON, r) for r in (1, 2, 3, 4)
)

MIN_GROUP_SAMPLES = 10
GRID_CELL = 10.0  # m, pitch of the sampling grid the models are fitted on
SIGNIFICANCE_ALPHA = 0.05  # both p-values must fall below it to normalize


@dataclass
class IntensityModel:
    """OLS fit of intensity on [1, ln(range), cos(angle)] for one group."""

    season: str
    return_number: int
    beta0: float
    beta1: float  # coefficient on ln(range)
    beta2: float  # coefficient on cos(angle)
    p1: float  # two-sided p-value of beta1
    p2: float  # two-sided p-value of beta2
    mean_intensity: float
    n: int

    @property
    def key(self) -> str:
        return f"{self.season}:{self.return_number}"


def group_key(season_code: int, return_number: int) -> str:
    return f"{SEASON_NAMES[season_code]}:{return_number}"


def sample_normalization_grid(
    points: PointCloud, cell: float = GRID_CELL, seed: int = 0
) -> PointCloud:
    """Pick at most one leaf-on and one leaf-off vegetation point per
    ``cell``-meter grid cell, uniformly at random.

    Deterministic for a fixed seed: cells are visited in sorted order and
    one draw is made per non-empty (cell, season) slot, leaf-on first.
    """
    veg = points.select(points.pclass == VEGETATION)
    col = np.floor(veg.x / cell).astype(np.int64)
    row = np.floor(veg.y / cell).astype(np.int64)
    # Slots in sorted (row, col) order, leaf-on (code 0) before leaf-off;
    # the stable sort keeps each slot's points in input order.
    order = np.lexsort((veg.season, col, row))
    slot = np.column_stack([row, col, veg.season])[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = np.any(slot[1:] != slot[:-1], axis=1)
    starts = np.flatnonzero(first)
    counts = np.diff(np.append(starts, len(order)))
    # One draw per slot, in slot order: the same draws as one
    # rng.integers(count) call per slot.
    rng = np.random.default_rng(derive_seed(seed, "normalization-grid"))
    return veg.select(order[starts + rng.integers(counts)])


def _design_matrix(points: PointCloud) -> np.ndarray:
    return np.column_stack(
        [
            np.ones(len(points)),
            np.log(points.range_m),
            np.cos(np.radians(points.scan_angle)),
        ]
    )


def fit_intensity_model(
    samples: PointCloud, season: str, return_number: int
) -> IntensityModel:
    """Ordinary least squares of intensity on [1, ln(range), cos(angle)]
    with two-sided p-values from the coefficient t statistics."""
    n = len(samples)
    if n < MIN_GROUP_SAMPLES:
        raise ValueError(
            f"group {season}:{return_number} has {n} samples, "
            f"needs at least {MIN_GROUP_SAMPLES}"
        )
    x = _design_matrix(samples)
    if np.linalg.matrix_rank(x) < x.shape[1]:
        raise ValueError("degenerate regressors")
    y = samples.intensity.astype(np.float64)
    mean_intensity = float(y.mean())

    if np.ptp(y) == 0:
        # No intensity variation: coefficients are exactly zero and
        # nothing is significant.
        return IntensityModel(
            season, return_number, mean_intensity, 0.0, 0.0, 1.0, 1.0, mean_intensity, n
        )

    xtx_inv = np.linalg.inv(x.T @ x)
    beta = xtx_inv @ (x.T @ y)
    residuals = y - x @ beta
    s2 = float(residuals @ residuals) / (n - 3)
    se = np.sqrt(np.maximum(s2 * np.diag(xtx_inv), 0.0))

    p_values = []
    for j in (1, 2):
        if se[j] == 0.0:
            p_values.append(1.0 if abs(beta[j]) <= 1e-9 else 0.0)
        else:
            t_stat = beta[j] / se[j]
            p_values.append(2.0 * student_t_cdf(-abs(t_stat), n - 3))
    return IntensityModel(
        season=season,
        return_number=return_number,
        beta0=float(beta[0]),
        beta1=float(beta[1]),
        beta2=float(beta[2]),
        p1=float(p_values[0]),
        p2=float(p_values[1]),
        mean_intensity=mean_intensity,
        n=n,
    )


def fit_all_models(
    points: PointCloud, cell: float = GRID_CELL, seed: int = 0
) -> dict[str, IntensityModel]:
    """Grid-sample, then fit one model per (season, return number) group
    that appears in the samples."""
    samples = sample_normalization_grid(points, cell=cell, seed=seed)
    models: dict[str, IntensityModel] = {}
    for season_code, return_number in GROUPS:
        mask = (samples.season == season_code) & (
            samples.return_number == return_number
        )
        count = int(mask.sum())
        if count == 0:
            continue
        season = SEASON_NAMES[season_code]
        if count < MIN_GROUP_SAMPLES:
            raise InputError(
                f"group {season}:{return_number} has only {count} samples on the "
                f"grid_cell {cell:g} m grid, needs at least {MIN_GROUP_SAMPLES}; "
                f"lower grid_cell or enlarge the input"
            )
        model = fit_intensity_model(samples.select(mask), season, return_number)
        models[model.key] = model
    return models


def apply_residualization(
    points: PointCloud,
    models: dict[str, IntensityModel],
    alpha: float = SIGNIFICANCE_ALPHA,
) -> PointCloud:
    """Replace intensities by residual + group mean, rounded and clamped
    to [0, 255], for groups whose model has both p-values below ``alpha``.

    Other groups pass through unchanged. Every group present in the
    points must have a model.
    """
    intensity = points.intensity.astype(np.float64).copy()
    for season_code, return_number in GROUPS:
        mask = (points.season == season_code) & (
            points.return_number == return_number
        )
        if not mask.any():
            continue
        key = group_key(season_code, return_number)
        model = models.get(key)
        if model is None:
            raise ValueError(f"no intensity model for group {key}")
        if not (model.p1 < alpha and model.p2 < alpha):
            continue
        group = points.select(mask)
        predicted = _design_matrix(group) @ np.array(
            [model.beta0, model.beta1, model.beta2]
        )
        residual = group.intensity.astype(np.float64) - predicted
        intensity[mask] = np.clip(
            np.rint(residual + model.mean_intensity), 0, 255
        )
    return points.replace(intensity=intensity.astype(np.int64))


def write_models(path: "str | Path", models: dict[str, IntensityModel]) -> None:
    write_json(path, {key: asdict(model) for key, model in models.items()})


def read_models(path: "str | Path") -> dict[str, IntensityModel]:
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    return {key: IntensityModel(**fields) for key, fields in doc.items()}
