"""Crown-stem co-registration: score candidate pairs from height
agreement and lean angle, then solve the one-to-one assignment that
maximizes total score."""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from . import SPECIES_CLASSES
from .ingest import CrownCloud, FieldStem
from .util import read_csv_rows, write_csv_rows

REGISTRATION_COLUMNS = ("crown_id", "stem_id", "score", "label", "crown_class")

SCORE_TIERS = (
    (0.10, 5.0, 100),
    (0.20, 10.0, 70),
    (0.30, 15.0, 40),
)


@dataclass
class Registration:
    """One crown matched to one field stem: a row of the registration table."""

    crown_id: str
    stem_id: str
    score: int
    label: str  # "conifer" | "deciduous"
    crown_class: str


def pair_score(crown: CrownCloud, stem: FieldStem) -> int:
    """Score a (crown, stem) candidate pair.

    Height agreement is the relative height difference; lean is the angle
    at the apex between vertical and the line down to the stem position.
    All tier thresholds are strict.
    """
    if crown.tree_height <= 0:
        raise ValueError(f"crown {crown.crown_id} has non-positive height")
    if stem.height <= 0:
        raise ValueError(f"stem {stem.stem_id} has non-positive height")
    hdiff = abs(crown.tree_height - stem.height) / stem.height
    horizontal = math.hypot(crown.apex.x - stem.x, crown.apex.y - stem.y)
    lean = math.degrees(math.atan2(horizontal, crown.tree_height))
    for hdiff_limit, lean_limit, score in SCORE_TIERS:
        if hdiff < hdiff_limit and lean < lean_limit:
            return score
    return 0


def max_score_assignment(scores: np.ndarray) -> list[tuple[int, int]]:
    """One-to-one assignment maximizing the total score.

    Zero-score cells are never part of the result. Among equal-total
    assignments a secondary objective prefers pairs early in row-major
    order, keeping the output deterministic.
    """
    # Imported here so only the register stage loads scipy.optimize.
    from scipy.optimize import linear_sum_assignment

    scores = np.asarray(scores, dtype=np.int64)
    if scores.size == 0 or scores.max() == 0:
        return []
    n_rows, n_cols = scores.shape
    cell = np.arange(n_rows * n_cols, dtype=np.int64).reshape(n_rows, n_cols)
    bonus = n_rows * n_cols - cell
    # The primary scale exceeds any achievable bonus sum, so the bonus can
    # never trade away score.
    scale = min(n_rows, n_cols) * n_rows * n_cols + 1
    value = np.where(scores > 0, scores * scale + bonus, 0)
    rows, cols = linear_sum_assignment(value, maximize=True)
    return [(int(i), int(j)) for i, j in zip(rows, cols) if scores[i, j] > 0]


def register_crowns(
    crowns: list[CrownCloud], stems: list[FieldStem]
) -> list[Registration]:
    """Match crowns to live field stems, one-to-one, maximizing total
    pair score. Unmatched crowns and stems are dropped."""
    crowns = sorted(crowns, key=lambda c: c.crown_id)
    stems = sorted(stems, key=lambda s: s.stem_id)
    scores = np.zeros((len(crowns), len(stems)), dtype=np.int64)
    for i, crown in enumerate(crowns):
        for j, stem in enumerate(stems):
            scores[i, j] = pair_score(crown, stem)
    return [
        Registration(
            crowns[i].crown_id,
            stems[j].stem_id,
            int(scores[i, j]),
            stems[j].species_class,
            stems[j].crown_class,
        )
        for i, j in max_score_assignment(scores)
    ]


def write_registrations(path: "str | Path", rows: list[Registration]) -> None:
    write_csv_rows(path, REGISTRATION_COLUMNS, map(astuple, rows))


def _parse_registration_row(fields: list[str], seen: set[str]) -> Registration:
    crown_id, stem_id, score, label, crown_class = fields
    if label not in SPECIES_CLASSES:
        raise ValueError(f"unknown label {label!r}")
    if crown_id in seen:
        raise ValueError(f"crown {crown_id} is registered twice")
    seen.add(crown_id)
    return Registration(crown_id, stem_id, int(score), label, crown_class)


def read_registrations(path: "str | Path") -> list[Registration]:
    """Read a registrations table; a malformed row, or a crown registered
    twice, raises InputError naming path:line."""
    seen: set[str] = set()
    return read_csv_rows(
        path, REGISTRATION_COLUMNS, lambda fields: _parse_registration_row(fields, seen)
    )
