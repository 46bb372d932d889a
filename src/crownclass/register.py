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


def linear_sum_assignment(cost: np.ndarray):
    """Rows and columns of a minimum-cost one-to-one assignment of a
    finite 2-D cost matrix, as two index arrays sorted by row.

    Crouse's shortest augmenting path method ("On implementing 2D
    rectangular assignment algorithms", IEEE TAES 2016), step for step as
    scipy's ``rectangular_lsap.cpp`` takes it, so every tie resolves as
    there: a tall matrix is solved transposed; rows are added in order;
    each path search scans the columns left in a list that starts reversed
    and loses a used column by moving its last entry into that slot; and
    at the shortest length it takes the last free column, else the first.
    """
    cost = np.asarray(cost, dtype=np.float64)
    transpose = cost.shape[1] < cost.shape[0]
    if transpose:
        cost = cost.T
    cost = np.ascontiguousarray(cost)
    n_rows, n_cols = cost.shape
    u, v = np.zeros(n_rows), np.zeros(n_cols)
    shortest = np.empty(n_cols)
    path = np.full(n_cols, -1)
    col4row = np.full(n_rows, -1)
    row4col = np.full(n_cols, -1)
    row_seen = np.zeros(n_rows, dtype=bool)
    col_seen = np.zeros(n_cols, dtype=bool)
    for cur_row in range(n_rows):
        # Shortest augmenting path from cur_row to a free column (sink).
        remaining = np.arange(n_cols - 1, -1, -1)
        n_remaining = n_cols
        row_seen[:] = False
        col_seen[:] = False
        shortest[:] = np.inf
        min_val = 0.0
        row, sink = cur_row, -1
        while sink < 0:
            row_seen[row] = True
            cols = remaining[:n_remaining]
            reduced = min_val + cost[row, cols] - u[row] - v[cols]
            better = reduced < shortest[cols]
            path[cols[better]] = row
            shortest[cols[better]] = reduced[better]
            lengths = shortest[cols]
            min_val = lengths.min()
            at_min = np.flatnonzero(lengths == min_val)
            free = at_min[row4col[cols[at_min]] < 0]
            index = free[-1] if free.size else at_min[0]
            col = remaining[index]
            col_seen[col] = True
            n_remaining -= 1
            remaining[index] = remaining[n_remaining]
            if row4col[col] < 0:
                sink = col
            else:
                row = row4col[col]
        # Update the dual variables.
        u[cur_row] += min_val
        row_seen[cur_row] = False
        seen_rows = np.flatnonzero(row_seen)
        u[seen_rows] += min_val - shortest[col4row[seen_rows]]
        v[col_seen] -= min_val - shortest[col_seen]
        # Augment the assignment along the path.
        col = sink
        while True:
            row = path[col]
            row4col[col] = row
            col4row[row], col = col, col4row[row]
            if row == cur_row:
                break
    if transpose:
        order = np.argsort(col4row)
        return col4row[order], order
    return np.arange(n_rows), col4row


def max_score_assignment(scores: np.ndarray) -> list[tuple[int, int]]:
    """One-to-one assignment maximizing the total score.

    Zero-score cells are never part of the result. Equal-total
    assignments are ranked by a bonus: each pair adds rows * cols minus
    its row-major cell index. That does not rank every tie: a swap such
    as (A-X, B-Y) against (A-Y, B-X) keeps the sum of cell indices, and
    such residual ties fall to the scan order of ``linear_sum_assignment``,
    which this module holds, so they resolve the same on every install.
    """
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
    # Negation is exact on these integers, so the minimum-cost solve of
    # -value is the maximum-value assignment.
    rows, cols = linear_sum_assignment(-value)
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
