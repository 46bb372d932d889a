"""Point and stem ingestion: file parsing, DEM construction, height
normalization, canopy filtering, and per-crown scalar features."""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import logging
import math
import warnings
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from . import SPECIES_CLASSES
from .util import InputError, open_replacing, read_csv_rows, write_csv_rows

logger = logging.getLogger(__name__)

# Season / point-class codes used in the array containers.
LEAF_ON = 0
LEAF_OFF = 1
GROUND = 0
VEGETATION = 1

SEASON_TOKENS = {"on": LEAF_ON, "off": LEAF_OFF}
SEASON_NAMES = {LEAF_ON: "on", LEAF_OFF: "off"}
PCLASS_TOKENS = {"ground": GROUND, "vegetation": VEGETATION}
PCLASS_NAMES = {GROUND: "ground", VEGETATION: "vegetation"}

CROWN_CLASSES = ("dominant", "codominant", "intermediate", "overtopped")
OVERSTORY_CLASSES = ("dominant", "codominant")

# The point file's columns and how each is parsed; text columns become
# Python strings, so no value is cut to a fixed width.
POINT_FILE_DTYPE = np.dtype(
    [("crown_id", object), ("x", "f8"), ("y", "f8"), ("z", "f8"), ("intensity", "i8")]
    + [("return_number", "i8"), ("scan_angle", "f8"), ("range", "f8")]
    + [("season", object), ("pclass", object)]
)
POINT_COLUMNS = POINT_FILE_DTYPE.names
# One point row as write_point_file writes it: the crown id already
# quoted, then each number as "{:.3f}", "{:d}" or "{:.2f}" formats it.
POINT_ROW = "%s,%.3f,%.3f,%.3f,%d,%d,%.2f,%.2f,%s,%s\r\n"
# Python's rule for each column, which a file NumPy's parser refuses is held to.
PYTHON_CONVERTERS = (str, float, float, float, int, int, float, float, str, str)
# The point file's text columns held as codes, and each one's tokens.
TOKEN_CODES = {"season": SEASON_TOKENS, "pclass": PCLASS_TOKENS}
# Records of the point file that read_point_file parses, and rows that
# write_point_file formats, at a time; bounds their transient tables and
# Python objects to a few MB whatever the file's length.
POINT_CHUNK_ROWS = 8192
STEM_COLUMNS = ("stem_id", "x", "y", "height", "species", "crown_class", "status")
# The dtype of each PointCloud field, in field order.
CLOUD_DTYPES = {
    "x": "f8", "y": "f8", "z": "f8", "intensity": "i8", "return_number": "u1",
    "scan_angle": "f8", "range_m": "f8", "season": "u1", "pclass": "u1", "crown_id": object,
}
UNKNOWN_TOKEN = 255


@dataclass
class PointCloud:
    """Column-oriented LiDAR point container.

    All arrays share one length; ``z`` holds elevations on ingestion and
    heights above ground after ``height_normalize``.
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    intensity: np.ndarray
    return_number: np.ndarray
    scan_angle: np.ndarray
    range_m: np.ndarray
    season: np.ndarray
    pclass: np.ndarray
    crown_id: np.ndarray | None = None

    def __post_init__(self) -> None:
        n = len(self.x)
        for f in fields(self):
            arr = getattr(self, f.name)
            if arr is not None and len(arr) != n:
                raise ValueError(f"field {f.name} has length {len(arr)}, expected {n}")

    def __len__(self) -> int:
        return len(self.x)

    def select(self, mask: np.ndarray) -> "PointCloud":
        columns = {f.name: getattr(self, f.name) for f in fields(self)}
        return PointCloud(**{k: None if v is None else v[mask] for k, v in columns.items()})

    def replace(self, **overrides: np.ndarray) -> "PointCloud":
        return dataclasses.replace(self, **overrides)

    @classmethod
    def from_columns(cls, **columns) -> "PointCloud":
        """Build a cloud column by column, each column copied to its
        field's dtype; a scalar is repeated to the length of ``x``."""
        n = len(columns["x"])
        return cls(
            **{
                name: np.array(value, CLOUD_DTYPES[name])
                if np.ndim(value)
                else np.full(n, value, CLOUD_DTYPES[name])
                for name, value in columns.items()
            }
        )

    @classmethod
    def empty(cls) -> "PointCloud":
        return cls(**{name: np.empty(0, dtype) for name, dtype in CLOUD_DTYPES.items()})


@dataclass
class Dem:
    """1-m ground elevation grid; ``elevation[row, col]`` with row along y."""

    origin_x: float
    origin_y: float
    cell: float
    elevation: np.ndarray

    @property
    def height(self) -> int:
        return self.elevation.shape[0]

    @property
    def width(self) -> int:
        return self.elevation.shape[1]

    def cell_index(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # One binning rule everywhere: floor((coord - origin) / cell).
        col = np.floor((np.asarray(x) - self.origin_x) / self.cell).astype(np.int64)
        row = np.floor((np.asarray(y) - self.origin_y) / self.cell).astype(np.int64)
        return row, col


class Apex(NamedTuple):
    """Where a crown's highest point is; ``z`` is its height."""

    x: float
    y: float
    z: float


@dataclass
class CrownCloud:
    """A segmented crown with height-normalized points and scalar features."""

    crown_id: str
    points: PointCloud
    apex: Apex
    tree_height: float
    width: float
    area: float


@dataclass
class FieldStem:
    stem_id: str
    x: float
    y: float
    height: float
    species_class: str  # "conifer" | "deciduous"
    crown_class: str
    status: str = "live"


def build_dem(ground_points: PointCloud, cell: float = 1.0) -> Dem:
    """Average ground elevations per cell, then fill voids from the
    nearest populated cell (ties broken by lowest (row, col))."""
    if len(ground_points) == 0:
        raise ValueError("no ground points")

    origin_x = math.floor(ground_points.x.min())
    origin_y = math.floor(ground_points.y.min())
    col = np.floor((ground_points.x - origin_x) / cell).astype(np.int64)
    row = np.floor((ground_points.y - origin_y) / cell).astype(np.int64)
    n_rows = int(row.max()) + 1
    n_cols = int(col.max()) + 1

    total = np.zeros((n_rows, n_cols), dtype=np.float64)
    count = np.zeros((n_rows, n_cols), dtype=np.int64)
    np.add.at(total, (row, col), ground_points.z)
    np.add.at(count, (row, col), 1)

    elevation = np.zeros((n_rows, n_cols), dtype=np.float64)
    populated = count > 0
    elevation[populated] = total[populated] / count[populated]

    void_rows, void_cols = np.nonzero(~populated)
    if void_rows.size:
        elevation[void_rows, void_cols] = elevation[
            _nearest_populated(populated, void_rows, void_cols)
        ]

    return Dem(origin_x=float(origin_x), origin_y=float(origin_y), cell=cell, elevation=elevation)


# (void, column) pairs that _nearest_populated compares at once; bounds
# its scratch arrays to a few MB.
VOID_CHUNK_CELLS = 1 << 18


def _nearest_populated(
    populated: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(row, col) of the populated cell nearest each cell (rows, cols) by
    squared lattice distance, ties to the lowest (row, col).

    Within one column the nearest populated cell is the one fewest rows
    away, the lower row on a tie; so each cell compares one candidate per
    column, at (distance, row), and the first column wins what is left.
    """
    n_rows, n_cols = populated.shape
    index = np.arange(n_rows)[:, None]
    # Rows of the nearest populated cell at or above, and at or below,
    # each cell of its column; a far sentinel where there is none.
    far = 2 * (n_rows + n_cols)
    above = np.maximum.accumulate(np.where(populated, index, -far), axis=0)
    below = np.minimum.accumulate(np.where(populated, index, far)[::-1], axis=0)[::-1]
    candidate = np.where(index - above <= below - index, above, below)
    near_rows = np.empty(len(rows), dtype=np.int64)
    near_cols = np.empty(len(rows), dtype=np.int64)
    step = max(1, VOID_CHUNK_CELLS // n_cols)
    for start in range(0, len(rows), step):
        chunk = slice(start, start + step)
        row, col = rows[chunk, None], cols[chunk, None]
        row_of = candidate[rows[chunk]]
        # Orders by squared distance, then row; argmin takes the first column.
        key = ((np.arange(n_cols) - col) ** 2 + (row_of - row) ** 2) * far + row_of
        near_cols[chunk] = np.argmin(key, axis=1)
        near_rows[chunk] = np.take_along_axis(row_of, near_cols[chunk, None], axis=1)[:, 0]
    return near_rows, near_cols


def height_normalize(points: PointCloud, dem: Dem) -> PointCloud:
    """Replace each point's elevation by its height above the DEM cell."""
    row, col = dem.cell_index(points.x, points.y)
    outside = (row < 0) | (row >= dem.height) | (col < 0) | (col >= dem.width)
    if outside.any():
        i = int(np.nonzero(outside)[0][0])
        raise ValueError(
            f"{int(outside.sum())} point(s) outside DEM extent, first at "
            f"({points.x[i]:.3f}, {points.y[i]:.3f})"
        )
    return points.replace(z=points.z - dem.elevation[row, col])


def filter_canopy(points: PointCloud, threshold: float = 3.0) -> PointCloud:
    """Keep points with height >= threshold (boundary inclusive)."""
    return points.select(points.z >= threshold)


def _cross(o, a, b):
    """z of (a - o) x (b - o): positive when o, a, b turn counter-clockwise."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull_area(x: np.ndarray, y: np.ndarray) -> float:
    """Area of the 2-D convex hull of the points (x, y). Raises
    ValueError("degenerate crown") for fewer than three distinct points
    or a zero area."""
    coords = np.column_stack([x, y])
    if len(coords) >= 3:
        # Akl-Toussaint: no point strictly inside the polygon of the
        # extreme points along x, x + y, y and y - x is a hull vertex.
        # Minima then maxima of those four directions go round the hull
        # counter-clockwise, from the leftmost point.
        along = (x, x + y, y, y - x)
        ring = coords[[np.argmin(a) for a in along] + [np.argmax(a) for a in along]]
        inside = np.ones(len(coords), dtype=bool)
        for start, end in zip(ring, np.roll(ring, -1, axis=0)):
            if (start != end).any():
                inside &= _cross(start, end, coords.T) > 0
        coords = coords[~inside]
    points = np.unique(coords, axis=0).tolist()
    if len(points) < 3:
        raise ValueError("degenerate crown")
    # Andrew's monotone chain over the points sorted by (x, y).
    lower: list = []
    upper: list = []
    for chain, ordered in ((lower, points), (upper, reversed(points))):
        for p in ordered:
            while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
    # Shoelace formula, about the first vertex to keep the products small.
    hull = np.array(lower[:-1] + upper[:-1])
    hx, hy = hull[:, 0] - hull[0, 0], hull[:, 1] - hull[0, 1]
    area = 0.5 * float(np.dot(hx, np.roll(hy, -1)) - np.dot(hy, np.roll(hx, -1)))
    if not area > 0:
        raise ValueError("degenerate crown")
    return area


def crown_features(points: PointCloud) -> tuple[float, float, float]:
    """Return (tree_height, width, area) of a crown's points.

    Area is the horizontal convex-hull area; width the equivalent-circle
    diameter of that area; tree height the apex height.
    """
    area = _hull_area(points.x, points.y)
    width = math.sqrt(4.0 * area / math.pi)
    tree_height = float(points.z.max())
    return tree_height, width, area


def make_crown_cloud(crown_id: str, points: PointCloud) -> CrownCloud:
    """Assemble a CrownCloud from height-normalized points.

    Raises ValueError("degenerate crown") when the horizontal projection
    has fewer than three distinct non-collinear points.
    """
    tree_height, width, area = crown_features(points)
    top = int(np.argmax(points.z))
    apex = Apex(float(points.x[top]), float(points.y[top]), float(points.z[top]))
    return CrownCloud(crown_id, points, apex, tree_height, width, area)


def assemble_crowns(
    points: PointCloud, min_width: float = 1.5
) -> list[CrownCloud]:
    """Group vegetation points by crown id and build crowns.

    Degenerate crowns and crowns narrower than ``min_width`` are dropped
    (logged), mirroring the noise removal applied upstream of this
    pipeline. Order follows sorted crown ids.
    """
    if points.crown_id is None:
        raise ValueError("points carry no crown ids")
    crowns: list[CrownCloud] = []
    dropped_degenerate = 0
    dropped_narrow = 0
    # One stable sort groups the points by crown and keeps each crown's
    # points in input order; each group is one slice of it.
    order = np.argsort(points.crown_id, kind="stable")
    ids = points.crown_id[order]
    first = np.ones(len(ids), dtype=bool)
    first[1:] = ids[1:] != ids[:-1]
    starts = np.flatnonzero(first)
    for start, stop in zip(starts, np.append(starts[1:], len(ids))):
        crown_id = str(ids[start])
        if not crown_id:
            continue
        group = points.select(order[start:stop])
        try:
            crown = make_crown_cloud(crown_id, group)
        except ValueError:
            dropped_degenerate += 1
            continue
        if crown.width < min_width:
            dropped_narrow += 1
            continue
        crowns.append(crown)
    if dropped_degenerate or dropped_narrow:
        logger.warning(
            "dropped %d degenerate and %d narrow (<%.1f m) crowns",
            dropped_degenerate,
            dropped_narrow,
            min_width,
        )
    return crowns


def crowns_from_points(points: PointCloud, source: str = "points") -> list[CrownCloud]:
    """A plot's crowns: a DEM from its ground returns, the vegetation's
    heights above it, then its canopy grouped by crown. No ground returns,
    or vegetation outside their extent, raise InputError naming ``source``.
    Only the ground and vegetation are kept, so a cloud the caller does not
    hold is freed before the DEM is built."""
    ground = points.select(points.pclass == GROUND)
    canopy = points.select(points.pclass == VEGETATION)
    del points
    if len(ground) == 0:
        raise InputError(f"{source} holds no ground returns; no DEM to build")
    try:
        # Each step's input dies as the next is made, so assembly holds one copy.
        canopy = filter_canopy(height_normalize(canopy, build_dem(ground)))
    except ValueError as error:
        raise InputError(f"{source}: {error}") from error
    return assemble_crowns(canopy)


def _compact(table) -> dict[str, np.ndarray]:
    """The columns of ``table`` (a structured array or a dict of columns)
    in arrays of their own, season and pclass as codes."""
    return {
        name: _token_codes(table[name], TOKEN_CODES[name])
        if name in TOKEN_CODES
        else np.array(table[name])
        for name in POINT_COLUMNS
    }


def _point_columns(path: str | Path) -> tuple[dict[str, np.ndarray], InputError | None]:
    """The point file's columns (season and pclass coded) and None.
    NumPy's parser takes POINT_CHUNK_ROWS records at a time off the open
    file, a quoted line break kept inside its record; where it refuses a
    row, Python's csv and number rules parse the file instead, up to the
    first header, field-count or number error, which is returned with the
    columns of the rows above it."""
    with open(path, newline="", encoding="utf-8") as handle:
        if next(csv.reader(handle), None) == list(POINT_COLUMNS):
            chunks = []
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # no rows
                    # Up to and with the first empty table, which gives a
                    # header-only file its typed empty columns.
                    while not chunks or len(chunks[-1]["x"]):
                        table = np.loadtxt(
                            handle,
                            POINT_FILE_DTYPE,
                            delimiter=",",
                            quotechar='"',
                            comments=None,
                            ndmin=1,
                            max_rows=POINT_CHUNK_ROWS,
                        )
                        chunks.append(_compact(table))
            except ValueError:
                pass
            else:
                # Popping each column's pieces frees them as it goes.
                columns = {
                    name: np.concatenate([chunk.pop(name) for chunk in chunks])
                    for name in POINT_COLUMNS
                }
                return columns, None
    rows: list[list] = []
    failure = None
    try:
        read_csv_rows(
            path,
            POINT_COLUMNS,
            lambda fields: rows.append([f(value) for f, value in zip(PYTHON_CONVERTERS, fields)]),
        )
    except InputError as error:
        failure = error
    table = np.array(rows, dtype=object).reshape(-1, len(POINT_COLUMNS))
    return _compact(dict(zip(POINT_COLUMNS, table.T))), failure


def _token_codes(tokens: np.ndarray, codes: dict[str, int]) -> np.ndarray:
    out = np.full(len(tokens), UNKNOWN_TOKEN, dtype=np.uint8)
    for token, code in codes.items():
        out[tokens == token] = code
    return out


def read_point_file(path: str | Path) -> PointCloud:
    """Read the comma-separated point file; ground rows have an empty
    crown_id. Rows are parsed by a C-level parser a chunk at a time and
    checked column by column; the first malformed row raises InputError
    naming path:line."""
    columns, failure = _point_columns(path)
    season, pclass = columns["season"], columns["pclass"]
    intensity, returns = columns["intensity"], columns["return_number"]
    names = ("x", "y", "z", "scan_angle", "range")
    floats = {name: np.asarray(columns[name], np.float64) for name in names}
    # Each rule and its problem, in the order a row is checked; a problem
    # quotes the broken row's csv fields, by column.
    rules = (
        (season == UNKNOWN_TOKEN, lambda row: f"unknown season {row['season']!r}"),
        (pclass == UNKNOWN_TOKEN, lambda row: f"unknown pclass {row['pclass']!r}"),
        (
            (intensity < 0) | (intensity > 255),
            lambda row: f"intensity {int(row['intensity'])} outside [0,255]",
        ),
        (
            (returns < 1) | (returns > 4),
            lambda row: f"return_number {int(row['return_number'])} outside 1..4",
        ),
        ((season == LEAF_OFF) & (returns > 3), lambda row: "leaf-off return_number > 3"),
        *(
            (~np.isfinite(values), lambda row, k=name: f"{k} {float(row[k])} is not finite")
            for name, values in floats.items()
        ),
        (floats["range"] <= 0, lambda row: "range must be > 0"),
    )
    broken = np.logical_or.reduce([mask for mask, _ in rules])
    if broken.any():
        first = int(np.argmax(broken))
        problem = next(message for mask, message in rules if mask[first])
        rows = itertools.count()

        def check(fields: list[str]) -> None:  # the rows again, for the line
            if next(rows) == first:
                raise ValueError(problem(dict(zip(POINT_COLUMNS, fields))))

        read_csv_rows(path, POINT_COLUMNS, check)
    if failure is not None:
        raise failure
    columns["range_m"] = columns.pop("range")
    # asarray, not from_columns: a column already in its dtype is not copied.
    return PointCloud(
        **{name: np.asarray(columns[name], dtype) for name, dtype in CLOUD_DTYPES.items()}
    )


def _csv_field(value) -> str:
    """``value`` as csv.writer writes the first field of a row: quoted
    where it holds a comma, a quote or a line break."""
    buffer = io.StringIO(newline="")
    csv.writer(buffer).writerow((value, ""))
    return buffer.getvalue()[: -len(",\r\n")]


def write_point_file(path: str | Path, points: PointCloud) -> None:
    """Write the point file POINT_CHUNK_ROWS rows at a time, each row one
    POINT_ROW; the header, and each distinct crown id once, are quoted by
    the csv module."""
    quoted: dict[str, str] = {}
    numbers = (
        points.x, points.y, points.z, points.intensity, points.return_number,
        points.scan_angle, points.range_m,
    )

    def rows(start: int) -> Iterator[tuple]:
        # One chunk's lists, freed once its rows are written.
        chunk = slice(start, start + POINT_CHUNK_ROWS)
        if points.crown_id is None:
            ids = itertools.repeat("")
        else:
            ids = points.crown_id[chunk].tolist()
            for crown_id in set(ids).difference(quoted):
                quoted[crown_id] = _csv_field(crown_id)
            ids = map(quoted.__getitem__, ids)
        return zip(
            ids,
            *(values[chunk].tolist() for values in numbers),
            map(SEASON_NAMES.__getitem__, points.season[chunk].tolist()),
            map(PCLASS_NAMES.__getitem__, points.pclass[chunk].tolist()),
        )

    with open_replacing(path, newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerow(POINT_COLUMNS)
        for start in range(0, len(points), POINT_CHUNK_ROWS):
            handle.writelines(map(POINT_ROW.__mod__, rows(start)))


def _parse_stem_row(fields: list[str]) -> FieldStem:
    stem_id, x, y, height, species, crown_class, status = fields
    stem = FieldStem(
        stem_id, float(x), float(y), float(height), species, crown_class, status
    )
    for name, value in (("x", stem.x), ("y", stem.y), ("height", stem.height)):
        if not math.isfinite(value):
            raise ValueError(f"{name} {value} is not finite")
    if stem.height <= 0:
        raise ValueError("height must be > 0")
    if stem.species_class not in SPECIES_CLASSES:
        raise ValueError(f"unknown species {stem.species_class!r}")
    if stem.crown_class not in CROWN_CLASSES:
        raise ValueError(f"unknown crown_class {stem.crown_class!r}")
    if stem.status not in ("live", "dead"):
        raise ValueError(f"unknown status {stem.status!r}")
    return stem


def read_stem_file(path: str | Path, drop_dead: bool = True) -> list[FieldStem]:
    """Read the stem file; dead stems are dropped on ingestion. A
    malformed row raises InputError naming path:line."""
    stems = read_csv_rows(path, STEM_COLUMNS, _parse_stem_row)
    return [stem for stem in stems if not (drop_dead and stem.status == "dead")]


def write_stem_file(path: str | Path, stems: list[FieldStem]) -> None:
    write_csv_rows(
        path,
        STEM_COLUMNS,
        (
            [
                stem.stem_id,
                f"{stem.x:.3f}",
                f"{stem.y:.3f}",
                f"{stem.height:.3f}",
                stem.species_class,
                stem.crown_class,
                stem.status,
            ]
            for stem in stems
        ),
    )
