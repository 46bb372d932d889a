"""Point and stem ingestion: file parsing, DEM construction, height
normalization, canopy filtering, and per-crown scalar features."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
from scipy.spatial import ConvexHull, QhullError, cKDTree

from .util import read_csv_rows, write_csv_rows

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

POINT_COLUMNS = (
    "crown_id",
    "x",
    "y",
    "z",
    "intensity",
    "return_number",
    "scan_angle",
    "range",
    "season",
    "pclass",
)
STEM_COLUMNS = ("stem_id", "x", "y", "height", "species", "crown_class", "status")


@dataclass
class LidarPoint:
    """One LiDAR return; mirrors a row of the point file."""

    x: float
    y: float
    z: float  # elevation, or height above ground after normalization
    intensity: int
    return_number: int
    scan_angle: float  # degrees from nadir
    range_m: float
    season: str  # "on" | "off"
    pclass: str  # "ground" | "vegetation"
    crown_id: str = ""


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
        kwargs = {}
        for f in fields(self):
            arr = getattr(self, f.name)
            kwargs[f.name] = None if arr is None else arr[mask]
        return PointCloud(**kwargs)

    def replace(self, **overrides: np.ndarray) -> "PointCloud":
        kwargs = {f.name: getattr(self, f.name) for f in fields(self)}
        kwargs.update(overrides)
        return PointCloud(**kwargs)

    def point(self, i: int) -> LidarPoint:
        return LidarPoint(
            x=float(self.x[i]),
            y=float(self.y[i]),
            z=float(self.z[i]),
            intensity=int(self.intensity[i]),
            return_number=int(self.return_number[i]),
            scan_angle=float(self.scan_angle[i]),
            range_m=float(self.range_m[i]),
            season=SEASON_NAMES[int(self.season[i])],
            pclass=PCLASS_NAMES[int(self.pclass[i])],
            crown_id="" if self.crown_id is None else str(self.crown_id[i]),
        )

    @classmethod
    def from_points(cls, points: list[LidarPoint]) -> "PointCloud":
        return cls(
            x=np.array([p.x for p in points], dtype=np.float64),
            y=np.array([p.y for p in points], dtype=np.float64),
            z=np.array([p.z for p in points], dtype=np.float64),
            intensity=np.array([p.intensity for p in points], dtype=np.int64),
            return_number=np.array([p.return_number for p in points], dtype=np.uint8),
            scan_angle=np.array([p.scan_angle for p in points], dtype=np.float64),
            range_m=np.array([p.range_m for p in points], dtype=np.float64),
            season=np.array([SEASON_TOKENS[p.season] for p in points], dtype=np.uint8),
            pclass=np.array([PCLASS_TOKENS[p.pclass] for p in points], dtype=np.uint8),
            crown_id=np.array([p.crown_id for p in points], dtype=object),
        )

    @classmethod
    def empty(cls) -> "PointCloud":
        return cls.from_points([])


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


@dataclass
class CrownCloud:
    """A segmented crown with height-normalized points and scalar features."""

    crown_id: str
    points: PointCloud
    apex: LidarPoint
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
        pop_rc = np.argwhere(populated)
        tree = cKDTree(pop_rc)
        void_rc = np.column_stack([void_rows, void_cols])
        nearest_dist, _ = tree.query(void_rc)
        # Integer lattice distances are well separated, so a small epsilon
        # is safe for collecting every exact tie.
        for (r, c), dist in zip(void_rc, nearest_dist):
            candidates = tree.query_ball_point((r, c), dist + 1e-9)
            best = min(map(tuple, pop_rc[candidates]))
            elevation[r, c] = elevation[best]

    return Dem(origin_x=float(origin_x), origin_y=float(origin_y), cell=cell, elevation=elevation)


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


def _hull_area(x: np.ndarray, y: np.ndarray) -> float:
    coords = np.unique(np.column_stack([x, y]), axis=0)
    if coords.shape[0] < 3:
        raise ValueError("degenerate crown")
    try:
        hull = ConvexHull(coords)
    except QhullError as exc:
        raise ValueError("degenerate crown") from exc
    return float(hull.volume)  # 2-D hull: volume is the polygon area


def crown_features(crown: "CrownCloud | PointCloud") -> tuple[float, float, float]:
    """Return (tree_height, width, area) of a crown.

    Area is the horizontal convex-hull area; width the equivalent-circle
    diameter of that area; tree height the apex height.
    """
    points = crown.points if isinstance(crown, CrownCloud) else crown
    area = _hull_area(points.x, points.y)
    width = math.sqrt(4.0 * area / math.pi)
    tree_height = float(points.z.max())
    return tree_height, width, area


def make_crown_cloud(crown_id: str, points: PointCloud) -> CrownCloud:
    """Assemble a CrownCloud from height-normalized points.

    Raises ValueError("degenerate crown") when the horizontal projection
    has fewer than three distinct non-collinear points.
    """
    if len(points) == 0:
        raise ValueError("degenerate crown")
    tree_height, width, area = crown_features(points)
    apex = points.point(int(np.argmax(points.z)))
    return CrownCloud(
        crown_id=crown_id,
        points=points,
        apex=apex,
        tree_height=tree_height,
        width=width,
        area=area,
    )


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
    ids = np.asarray(points.crown_id, dtype=object)
    for crown_id in sorted({str(i) for i in ids if str(i)}):
        group = points.select(ids == crown_id)
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


def _parse_point_row(fields: list[str]) -> LidarPoint:
    crown_id, x, y, z, intensity, returns, angle, range_m, season, pclass = fields
    point = LidarPoint(
        x=float(x),
        y=float(y),
        z=float(z),
        intensity=int(intensity),
        return_number=int(returns),
        scan_angle=float(angle),
        range_m=float(range_m),
        season=season,
        pclass=pclass,
        crown_id=crown_id,
    )
    if point.season not in SEASON_TOKENS:
        raise ValueError(f"unknown season {point.season!r}")
    if point.pclass not in PCLASS_TOKENS:
        raise ValueError(f"unknown pclass {point.pclass!r}")
    if not 0 <= point.intensity <= 255:
        raise ValueError(f"intensity {point.intensity} outside [0,255]")
    if not 1 <= point.return_number <= 4:
        raise ValueError(f"return_number {point.return_number} outside 1..4")
    if point.season == "off" and point.return_number > 3:
        raise ValueError("leaf-off return_number > 3")
    if point.range_m <= 0:
        raise ValueError("range must be > 0")
    return point


def read_point_file(path: str | Path) -> PointCloud:
    """Read the comma-separated point file; ground rows have an empty
    crown_id. A malformed row raises InputError naming path:line."""
    points = read_csv_rows(path, POINT_COLUMNS, _parse_point_row)
    return PointCloud.from_points(points)


def write_point_file(path: str | Path, points: PointCloud) -> None:
    ids = points.crown_id if points.crown_id is not None else [""] * len(points)
    write_csv_rows(
        path,
        POINT_COLUMNS,
        (
            [
                ids[i],
                f"{points.x[i]:.3f}",
                f"{points.y[i]:.3f}",
                f"{points.z[i]:.3f}",
                int(points.intensity[i]),
                int(points.return_number[i]),
                f"{points.scan_angle[i]:.2f}",
                f"{points.range_m[i]:.2f}",
                SEASON_NAMES[int(points.season[i])],
                PCLASS_NAMES[int(points.pclass[i])],
            ]
            for i in range(len(points))
        ),
    )


def _parse_stem_row(fields: list[str]) -> FieldStem:
    stem_id, x, y, height, species, crown_class, status = fields
    stem = FieldStem(
        stem_id, float(x), float(y), float(height), species, crown_class, status
    )
    if stem.species_class not in ("conifer", "deciduous"):
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
