"""Crown discretization: a four-channel 128x128 surface-model raster and
a four-image 64x64 view stack, rasterized at every rotation of a crown
and scaled for the networks, and the memory-mapped raster store that
feeds network training.

Both representations cover 16x16 m centered on the crown apex. Grid
origins are chosen so the apex falls at the exact center of its pixel;
the half-pixel asymmetry this leaves at the extent edges is accepted.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import Iterable

import numpy as np
from numpy.lib.format import open_memmap, write_array_header_1_0

from . import SPECIES_CLASSES
from .ingest import LEAF_OFF, LEAF_ON, CrownCloud
from .util import InputError, write_json

DSM_SIZE = 128
DSM_CELL = 0.125
VIEW_SIZE = 64
VIEW_CELL = 0.25
PROFILE_HALF_THICKNESS = 0.375

# Affine input scaling for network training (recorded in run manifests).
HEIGHT_SCALE = 50.0
INTENSITY_SCALE = 255.0
AREA_SCALE = 300.0
WIDTH_SCALE = 20.0
# dsm4 channels are [height, intensity, height, intensity].
DSM_CHANNEL_SCALES = np.array(
    [HEIGHT_SCALE, INTENSITY_SCALE, HEIGHT_SCALE, INTENSITY_SCALE], dtype=np.float32
)[:, None, None]

# Per-rotation image shape of each representation kind in the store.
KIND_SHAPES = {"views4": (4, VIEW_SIZE, VIEW_SIZE), "dsm4": (4, DSM_SIZE, DSM_SIZE)}
# Scalar features per crown of each kind (rasterize_crown).
KIND_SCALARS = {"views4": 2, "dsm4": 1}
# Store manifest: these facts plus one list per crown column, row order.
STORE_KEYS = ("kind", "n_rotations", "step", "scaled")
CROWN_COLUMNS = ("crown_id", "label", "crown_class", "density", "scalars")


def rotate_about_apex(crown: CrownCloud, degrees: float) -> CrownCloud:
    """Rotate the cloud horizontally about the vertical axis through the
    apex. Heights, attributes, and scalar crown features are unchanged."""
    theta = math.radians(degrees)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    dx = crown.points.x - crown.apex.x
    dy = crown.points.y - crown.apex.y
    rotated = crown.points.replace(
        x=crown.apex.x + cos_t * dx - sin_t * dy,
        y=crown.apex.y + sin_t * dx + cos_t * dy,
    )
    return dataclasses.replace(crown, points=rotated)


def _pixel_coords(
    dx: np.ndarray, dy: np.ndarray, cell: float, size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map apex-relative offsets to (row, col); row 0 is north."""
    half = size // 2
    col = np.floor(dx / cell + half + 0.5).astype(np.int64)
    row = np.floor(-dy / cell + half + 0.5).astype(np.int64)
    inside = (row >= 0) & (row < size) & (col >= 0) & (col < size)
    return row, col, inside


def _top_per_pixel(
    pix: np.ndarray, height: np.ndarray, intensity: np.ndarray
) -> np.ndarray:
    """Indices of the highest point per pixel; ties prefer larger
    intensity, then earlier input order."""
    order = np.lexsort((np.arange(len(pix)), -intensity, -height, pix))
    first = np.ones(len(pix), dtype=bool)
    first[1:] = pix[order][1:] != pix[order][:-1]
    return order[first]


def make_dsm4(crown: CrownCloud) -> np.ndarray:
    """(4, 128, 128) float32 channels: [leaf-on height, leaf-on
    intensity, leaf-off height, leaf-off intensity] of the highest point
    per 12.5-cm pixel."""
    channels = np.zeros((4, DSM_SIZE, DSM_SIZE), dtype=np.float32)
    points = crown.points
    for season, base in ((LEAF_ON, 0), (LEAF_OFF, 2)):
        season_mask = points.season == season
        row, col, inside = _pixel_coords(
            points.x[season_mask] - crown.apex.x,
            points.y[season_mask] - crown.apex.y,
            DSM_CELL,
            DSM_SIZE,
        )
        row, col = row[inside], col[inside]
        z, intensity = points.z[season_mask][inside], points.intensity[season_mask][inside]
        top = _top_per_pixel(row * DSM_SIZE + col, z, intensity)
        channels[base, row[top], col[top]] = z[top]
        channels[base + 1, row[top], col[top]] = intensity[top]
    return channels


def make_views4(crown: CrownCloud) -> np.ndarray:
    """(4, 64, 64) float32 images: [aerial leaf-on, aerial leaf-off,
    profile leaf-on, profile leaf-off]; aerial pixels carry the intensity
    of the highest point, profile pixels the mean intensity of a 75-cm
    slab through the apex."""
    images = np.zeros((4, VIEW_SIZE, VIEW_SIZE), dtype=np.float32)
    points = crown.points

    for season, aerial_ch, profile_ch in ((LEAF_ON, 0, 2), (LEAF_OFF, 1, 3)):
        season_mask = points.season == season
        dx = points.x[season_mask] - crown.apex.x
        dy = points.y[season_mask] - crown.apex.y
        z, intensity = points.z[season_mask], points.intensity[season_mask]

        row, col, inside = _pixel_coords(dx, dy, VIEW_CELL, VIEW_SIZE)
        row, col, aerial = row[inside], col[inside], intensity[inside]
        top = _top_per_pixel(row * VIEW_SIZE + col, z[inside], aerial)
        images[aerial_ch, row[top], col[top]] = aerial[top]

        # Profile slab: 75 cm thick, through the apex, along the current
        # x-axis; rows count down from the apex height.
        in_plane = np.abs(dy) <= PROFILE_HALF_THICKNESS
        half = VIEW_SIZE // 2
        pcol = np.floor(dx[in_plane] / VIEW_CELL + half + 0.5).astype(np.int64)
        prow = np.floor((crown.tree_height - z[in_plane]) / VIEW_CELL).astype(np.int64)
        ok = (prow >= 0) & (prow < VIEW_SIZE) & (pcol >= 0) & (pcol < VIEW_SIZE)
        prow, pcol = prow[ok], pcol[ok]
        values = intensity[in_plane][ok].astype(np.float64)
        sums = np.zeros((VIEW_SIZE, VIEW_SIZE), dtype=np.float64)
        counts = np.zeros((VIEW_SIZE, VIEW_SIZE), dtype=np.int64)
        np.add.at(sums, (prow, pcol), values)
        np.add.at(counts, (prow, pcol), 1)
        filled = counts > 0
        images[profile_ch][filled] = sums[filled] / counts[filled]

    return images


def rasterize_crown(
    crown: CrownCloud, kind: str, n: int, step: float
) -> tuple[np.ndarray, np.ndarray]:
    """One crown's network inputs at rotations 0, step, ..., (n-1)*step.

    Returns the (n, 4, H, W) float32 images of ``kind``, scaled near
    [0, 1] (heights / 50, intensities / 255), and the float32 scalar
    features, taken from the crown itself and so equal for every
    rotation: (width / 20, tree height / 50) for views4, (area / 300,)
    for dsm4.
    """
    if kind == "views4":
        make, scales = make_views4, INTENSITY_SCALE
        scalars = (crown.width / WIDTH_SCALE, crown.tree_height / HEIGHT_SCALE)
    elif kind == "dsm4":
        make, scales = make_dsm4, DSM_CHANNEL_SCALES
        scalars = (crown.area / AREA_SCALE,)
    else:
        raise ValueError(f"unknown representation kind {kind!r}")
    # Rotation 0 is the crown itself, free of the rotation's rounding.
    images = np.stack(
        [make(rotate_about_apex(crown, k * step) if k else crown) for k in range(n)]
    )
    images /= scales
    return images, np.array(scalars, dtype=np.float32)


def write_representation_file(
    tensor_path: "str | Path",
    manifest_path: "str | Path",
    crowns: Iterable[tuple],
    kind: str,
    n_rotations: int,
    step: float,
    n_crowns: int,
) -> None:
    """Write ``n_crowns`` crowns of one kind as a raster store.

    ``crowns`` yields ``(crown_id, label, crown_class, density, images,
    scalars)`` with the images and scalars of ``rasterize_crown``, in
    strictly increasing crown_id order; each crown is written as it
    arrives, so a generator keeps one crown in memory. The tensor file
    is one .npy float32 array of shape (crowns, rotations, C, H, W); the
    JSON manifest holds the per-crown columns in the same order.
    """
    shape = (n_crowns, n_rotations) + KIND_SHAPES[kind]
    rows = []  # per crown, its values of CROWN_COLUMNS in that order
    with open(tensor_path, "wb") as handle:
        write_array_header_1_0(
            handle, {"descr": "<f4", "fortran_order": False, "shape": shape}
        )
        for crown_id, label, crown_class, density, images, scalars in crowns:
            if rows and crown_id <= rows[-1][0]:
                raise ValueError(
                    f"crown {crown_id} follows {rows[-1][0]}; the store "
                    f"needs crowns in sorted crown_id order, each once"
                )
            if images.shape != shape[1:]:
                raise ValueError(
                    f"{crown_id}: {kind} tensors {images.shape} do not fit "
                    f"the store's {shape[1:]}"
                )
            handle.write(np.ascontiguousarray(images, dtype="<f4"))
            scalars = [float(value) for value in scalars]
            rows.append((crown_id, label, crown_class, density, scalars))
    if len(rows) != n_crowns:
        raise ValueError(f"{len(rows)} crowns written to a store of {n_crowns}")
    manifest = {"kind": kind, "n_rotations": n_rotations, "step": step, "scaled": True}
    for index, column in enumerate(CROWN_COLUMNS):
        manifest[column] = [row[index] for row in rows]
    write_json(manifest_path, manifest)


def _is_number(value) -> bool:
    return type(value) in (int, float) and math.isfinite(value)


def _check_crown_columns(manifest_path, manifest: dict) -> None:
    """Each crown column must be a list with one value per crown_id, of
    the column's kind; the first that is not raises InputError naming
    the file and the column."""
    width = KIND_SCALARS[manifest["kind"]]
    rules = {
        "crown_id": (lambda v: type(v) is str, "a string"),
        "label": (lambda v: v in SPECIES_CLASSES, " or ".join(SPECIES_CLASSES)),
        "crown_class": (lambda v: type(v) is str, "a string"),
        "density": (_is_number, "a finite number"),
        "scalars": (
            lambda v: type(v) is list and len(v) == width and all(map(_is_number, v)),
            f"a list of {width} finite numbers",
        ),
    }
    crowns = manifest["crown_id"]
    for column, (valid, rule) in rules.items():
        values = manifest[column]
        if type(values) is not list:
            raise InputError(f"{manifest_path}: column {column} is not a list")
        if len(values) != len(crowns):
            raise InputError(
                f"{manifest_path}: column {column} holds {len(values)} values "
                f"for {len(crowns)} crowns"
            )
        for row, value in enumerate(values):
            if not valid(value):
                raise InputError(
                    f"{manifest_path}: column {column}, row {row}: "
                    f"{json.dumps(value)[:40]} is not {rule}"
                )


def read_manifest(manifest_path: "str | Path") -> dict:
    """A raster store's manifest; one that is not a JSON object, lacks a
    store key or crown column, names no known kind, holds unscaled
    rasters or a malformed crown column raises InputError naming the
    file."""
    try:
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
    except json.JSONDecodeError as error:
        raise InputError(f"{manifest_path}: not valid JSON: {error}") from error
    if not isinstance(manifest, dict):
        raise InputError(f"{manifest_path}: not a raster store manifest (not a JSON object)")
    missing = [key for key in STORE_KEYS + CROWN_COLUMNS if key not in manifest]
    # type() first: an unhashable kind, such as a list, cannot be looked up
    if missing or type(manifest["kind"]) is not str or manifest["kind"] not in KIND_SHAPES:
        raise InputError(
            f"{manifest_path}: not a raster store manifest "
            f"(missing {', '.join(missing) or 'a known kind'})"
        )
    if not manifest["scaled"]:
        raise InputError(f"{manifest_path}: its rasters are not scaled for the networks")
    _check_crown_columns(manifest_path, manifest)
    return manifest


def read_all_representations(
    tensor_path: "str | Path", manifest: dict
) -> np.ndarray:
    """Memory-map the store read-only: (crowns, rotations, C, H, W)
    float32, rows in the manifest's crown order."""
    try:
        images = open_memmap(tensor_path, mode="r")
    except ValueError as error:
        raise InputError(f"{tensor_path}: not a raster store: {error}") from error
    rows = (len(manifest["crown_id"]), manifest["n_rotations"])
    expected = rows + KIND_SHAPES[manifest["kind"]]
    if images.shape != expected or images.dtype != np.float32:
        raise InputError(
            f"{tensor_path}: {images.dtype} array of shape {images.shape} "
            f"disagrees with its manifest (float32 {expected})"
        )
    return images
