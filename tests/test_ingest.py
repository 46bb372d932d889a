"""Tests for ingestion: DEM build/fill, height normalization, canopy
filtering, crown features, and the text file formats."""

import logging
import math
import tempfile
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crownclass import SPECIES_CLASSES, ingest
from crownclass.ingest import (
    CLOUD_DTYPES,
    CROWN_CLASSES,
    GROUND,
    LEAF_OFF,
    LEAF_ON,
    PCLASS_NAMES,
    PCLASS_TOKENS,
    POINT_CHUNK_ROWS,
    POINT_COLUMNS,
    SEASON_NAMES,
    SEASON_TOKENS,
    STEM_COLUMNS,
    UNKNOWN_TOKEN,
    VEGETATION,
    FieldStem,
    PointCloud,
    _hull_area,
    assemble_crowns,
    build_dem,
    crown_features,
    crowns_from_points,
    filter_canopy,
    height_normalize,
    make_crown_cloud,
    read_point_file,
    read_stem_file,
    write_point_file,
    write_stem_file,
)
from crownclass.synthforest import SynthParams, concat_clouds, generate_dataset
from crownclass.util import InputError, read_csv_rows, write_csv_rows


def ground_cloud(coords):
    x, y, z = np.array(coords, dtype=np.float64).reshape(-1, 3).T
    return PointCloud.from_columns(
        x=x,
        y=y,
        z=z,
        intensity=50,
        return_number=1,
        scan_angle=0.0,
        range_m=1000.0,
        season=LEAF_ON,
        pclass=GROUND,
        crown_id="",
    )


def veg_cloud(coords, crown_id=""):
    x, y, z = np.array(coords, dtype=np.float64).reshape(-1, 3).T
    return PointCloud.from_columns(
        x=x,
        y=y,
        z=z,
        intensity=100,
        return_number=1,
        scan_angle=5.0,
        range_m=1000.0,
        season=LEAF_ON,
        pclass=VEGETATION,
        crown_id=crown_id,
    )


class TestBuildDem:
    def test_single_point_fills_everything(self):
        dem = build_dem(ground_cloud([(0.5, 0.5, 100.0)]))
        np.testing.assert_allclose(dem.elevation, 100.0)

    def test_cell_mean(self):
        coords = [(0.2, 0.2, 1.0), (0.4, 0.4, 3.0), (0.6, 0.6, 1.0), (0.8, 0.8, 3.0)]
        dem = build_dem(ground_cloud(coords))
        assert dem.elevation.shape == (1, 1)
        np.testing.assert_allclose(dem.elevation[0, 0], 2.0)

    def test_corner_fill_tie_rule(self):
        """3x3 grid with only the corners populated.

        Every void is equidistant from two or four corners; ties resolve
        to the lowest (row, col), so the expected grid is fixed:

            row 0: 10 10 20
            row 1: 10 10 20
            row 2: 30 30 40
        """
        coords = [
            (0.5, 0.5, 10.0),
            (2.5, 0.5, 20.0),
            (0.5, 2.5, 30.0),
            (2.5, 2.5, 40.0),
        ]
        dem = build_dem(ground_cloud(coords))
        expected = np.array(
            [
                [10.0, 10.0, 20.0],
                [10.0, 10.0, 20.0],
                [30.0, 30.0, 40.0],
            ]
        )
        np.testing.assert_allclose(dem.elevation, expected)

    def test_empty_input_is_an_error(self):
        with pytest.raises(ValueError, match="no ground points"):
            build_dem(PointCloud.empty())

    def test_fill_leaves_no_voids_and_keeps_populated_cells(self):
        """Post-fill grids are finite everywhere and the fill never touches
        a populated cell."""
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 40))
            coords = [
                (float(x), float(y), float(z))
                for x, y, z in zip(
                    rng.uniform(0, 15, n),
                    rng.uniform(0, 15, n),
                    rng.uniform(90, 110, n),
                )
            ]
            cloud = ground_cloud(coords)
            dem = build_dem(cloud)
            assert np.all(np.isfinite(dem.elevation))

            row, col = dem.cell_index(cloud.x, cloud.y)
            total = np.zeros_like(dem.elevation)
            count = np.zeros(dem.elevation.shape, dtype=int)
            np.add.at(total, (row, col), cloud.z)
            np.add.at(count, (row, col), 1)
            populated = count > 0
            np.testing.assert_allclose(
                dem.elevation[populated], total[populated] / count[populated]
            )


def reference_fill(elevation, populated):
    """Brute-force void fill: each void takes the populated cell of least
    squared lattice distance, the lowest (row, col) on a tie."""
    filled = elevation.copy()
    cells = [tuple(rc) for rc in np.argwhere(populated)]
    for r, c in np.argwhere(~populated):
        best = min(cells, key=lambda rc: ((rc[0] - r) ** 2 + (rc[1] - c) ** 2, rc))
        filled[r, c] = elevation[best]
    return filled


def kdtree_fill(elevation, populated):
    """The same fill through a k-d tree: the nearest distance, then every
    populated cell within it, the lowest (row, col) winning."""
    from scipy.spatial import cKDTree

    filled = elevation.copy()
    pop_rc = np.argwhere(populated)
    tree = cKDTree(pop_rc)
    void_rc = np.argwhere(~populated)
    nearest, _ = tree.query(void_rc)
    for (r, c), dist in zip(void_rc, nearest):
        best = min(map(tuple, pop_rc[tree.query_ball_point((r, c), dist + 1e-9)]))
        filled[r, c] = elevation[best]
    return filled


def sparse_ground(rng, shape, fraction):
    """One ground point in each of a random ``fraction`` of the cells of
    a grid of ``shape``, the two opposite corners always among them so the
    DEM spans the whole grid; returns the cloud and the populated mask."""
    populated = rng.random(shape) < fraction
    populated[0, 0] = populated[-1, -1] = True
    rows, cols = np.nonzero(populated)
    coords = np.column_stack(
        [
            cols + rng.uniform(0.01, 0.99, len(cols)),
            rows + rng.uniform(0.01, 0.99, len(rows)),
            rng.uniform(90, 110, len(rows)),
        ]
    )
    return ground_cloud(coords), populated


class TestDemFill:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.tuples(st.integers(1, 25), st.integers(1, 25)),
        fraction=st.sampled_from([0.0, 0.02, 0.1, 0.5, 0.9]),
    )
    def test_matches_brute_force_nearest_cell(self, seed, shape, fraction):
        rng = np.random.default_rng(seed)
        cloud, populated = sparse_ground(rng, shape, fraction)
        dem = build_dem(cloud)
        elevation = np.where(populated, dem.elevation, 0.0)
        np.testing.assert_array_equal(dem.elevation, reference_fill(elevation, populated))

    @pytest.mark.parametrize("fraction", [0.02, 0.3])
    def test_no_slower_than_the_kdtree_fill(self, fraction):
        """On a 300x300 grid build_dem, cell means included, fills the same
        values as the k-d tree fill in at most half its time (about a sixth
        on an idle Xeon core). The best of three build_dem runs is taken,
        so a load spike on a shared runner cannot fail the check; a spike
        during the one k-d tree run only widens the margin."""
        cloud, populated = sparse_ground(np.random.default_rng(5), (300, 300), fraction)
        numpy_s = []
        for _ in range(3):
            start = time.perf_counter()
            dem = build_dem(cloud)
            numpy_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        expected = kdtree_fill(np.where(populated, dem.elevation, 0.0), populated)
        kdtree_s = time.perf_counter() - start
        np.testing.assert_array_equal(dem.elevation, expected)
        assert min(numpy_s) <= kdtree_s / 2, (numpy_s, kdtree_s)


class TestHeightNormalize:
    def test_height_above_ground(self):
        dem = build_dem(ground_cloud([(0.5, 0.5, 100.0)]))
        out = height_normalize(veg_cloud([(0.5, 0.5, 105.0)]), dem)
        np.testing.assert_allclose(out.z, [5.0])

    def test_point_on_dem_is_zero(self):
        dem = build_dem(ground_cloud([(0.5, 0.5, 100.0)]))
        out = height_normalize(veg_cloud([(0.5, 0.5, 100.0)]), dem)
        np.testing.assert_allclose(out.z, [0.0])

    def test_cell_boundary_goes_to_higher_index_cell(self):
        """x = 1.0 with origin 0 bins to column floor(1.0/1.0) = 1."""
        dem = build_dem(ground_cloud([(0.5, 0.5, 100.0), (1.5, 0.5, 200.0)]))
        out = height_normalize(veg_cloud([(1.0, 0.5, 205.0)]), dem)
        np.testing.assert_allclose(out.z, [5.0])

    def test_other_fields_untouched(self):
        dem = build_dem(ground_cloud([(0.5, 0.5, 100.0)]))
        cloud = veg_cloud([(0.5, 0.5, 103.0)])
        out = height_normalize(cloud, dem)
        np.testing.assert_array_equal(out.intensity, cloud.intensity)
        np.testing.assert_array_equal(out.x, cloud.x)
        np.testing.assert_array_equal(out.season, cloud.season)

    def test_point_outside_extent_is_an_error(self):
        dem = build_dem(ground_cloud([(0.5, 0.5, 100.0)]))
        with pytest.raises(ValueError, match="outside DEM extent"):
            height_normalize(veg_cloud([(5.0, 0.5, 105.0)]), dem)

    def test_idempotent_on_zero_dem(self):
        zero = build_dem(ground_cloud([(0.5, 0.5, 0.0)]))
        cloud = veg_cloud([(0.3, 0.6, 12.0), (0.9, 0.1, 7.5)])
        once = height_normalize(cloud, zero)
        twice = height_normalize(once, zero)
        np.testing.assert_array_equal(once.z, twice.z)


class TestFilterCanopy:
    def test_boundary_is_kept(self):
        cloud = veg_cloud([(0, 0, 2.9), (1, 0, 3.0), (2, 0, 10.0)])
        out = filter_canopy(cloud)
        np.testing.assert_allclose(sorted(out.z), [3.0, 10.0])

    def test_empty_in_empty_out(self):
        assert len(filter_canopy(PointCloud.empty())) == 0

    def test_all_below_is_empty_not_error(self):
        out = filter_canopy(veg_cloud([(0, 0, 1.0), (1, 1, 2.0)]))
        assert len(out) == 0

    def test_subset_and_monotone_in_threshold(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(0, 50))
            coords = [
                (float(x), float(y), float(z))
                for x, y, z in zip(
                    rng.uniform(0, 10, n), rng.uniform(0, 10, n), rng.uniform(0, 30, n)
                )
            ]
            cloud = veg_cloud(coords)
            kept = filter_canopy(cloud)
            assert set(kept.z.tolist()) <= set(cloud.z.tolist())
            sizes = [len(filter_canopy(cloud, threshold=t)) for t in (0.0, 3.0, 10.0, 25.0)]
            assert sizes == sorted(sizes, reverse=True)


class TestCrownFeatures:
    def test_unit_square(self):
        cloud = veg_cloud([(0, 0, 5.0), (1, 0, 5.0), (1, 1, 5.0), (0, 1, 20.0)])
        tree_height, width, area = crown_features(cloud)
        np.testing.assert_allclose(area, 1.0)
        np.testing.assert_allclose(width, math.sqrt(4.0 / math.pi))
        np.testing.assert_allclose(tree_height, 20.0)

    def test_duplicates_leave_hull_unchanged(self):
        base = [(0, 0, 5.0), (2, 0, 5.0), (2, 2, 5.0), (0, 2, 5.0)]
        _, _, area = crown_features(veg_cloud(base))
        _, _, area_dup = crown_features(veg_cloud(base + base + [(1, 1, 4.0)]))
        np.testing.assert_allclose(area_dup, area)

    def test_too_few_points_is_degenerate(self):
        with pytest.raises(ValueError, match="degenerate crown"):
            crown_features(veg_cloud([(0, 0, 5.0), (1, 1, 5.0)]))

    def test_collinear_is_degenerate(self):
        with pytest.raises(ValueError, match="degenerate crown"):
            crown_features(veg_cloud([(0, 0, 5.0), (1, 1, 5.0), (2, 2, 5.0), (3, 3, 9.0)]))

    def test_area_invariant_under_rotation(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(3, 60))
            x = rng.uniform(-5, 5, n)
            y = rng.uniform(-5, 5, n)
            z = rng.uniform(3, 30, n)
            cloud = veg_cloud(list(zip(x, y, z)))
            try:
                _, _, area = crown_features(cloud)
            except ValueError:
                continue
            theta = rng.uniform(0, 2 * math.pi)
            cx, cy = rng.uniform(-10, 10, 2)
            xr = cx + (x - cx) * math.cos(theta) - (y - cy) * math.sin(theta)
            yr = cy + (x - cx) * math.sin(theta) + (y - cy) * math.cos(theta)
            _, _, area_rot = crown_features(veg_cloud(list(zip(xr, yr, z))))
            np.testing.assert_allclose(area_rot, area, rtol=1e-9)


def qhull_area(x, y):
    """Qhull's area of the distinct points, or None where Qhull finds no
    2-D hull."""
    from scipy.spatial import ConvexHull, QhullError

    coords = np.unique(np.column_stack([x, y]), axis=0)
    if len(coords) < 3:
        return None
    try:
        return ConvexHull(coords).volume
    except QhullError:
        return None


class TestHullArea:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(-12, 12), st.integers(-12, 12)), min_size=1, max_size=80)
    )
    def test_lattice_points_match_qhull(self, cells):
        """Points on a 12.5 cm lattice away from the origin, so duplicates,
        collinear runs and points on hull edges are common."""
        cols, rows = np.array(cells).T
        x, y = 4321.0 + 0.125 * cols, 876.5 + 0.125 * rows
        expected = qhull_area(x, y)
        if expected is None:
            with pytest.raises(ValueError, match="degenerate crown"):
                _hull_area(x, y)
        else:
            assert _hull_area(x, y) == pytest.approx(expected, rel=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 2000))
    def test_scattered_points_match_qhull(self, seed, n):
        rng = np.random.default_rng(seed)
        x = rng.normal(512.0, 2.0, n)
        y = rng.uniform(-3.0, 3.0, n) + 2048.0
        assert _hull_area(x, y) == pytest.approx(qhull_area(x, y), rel=1e-9)

    @pytest.mark.parametrize(
        "points",
        [
            [(0.0, 0.0)],
            [(0.0, 0.0), (1.0, 1.0)],
            [(1.0, 2.0)] * 5,
            [(0.0, 0.0), (1.0, 1.0)] * 4,
            [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (0.5, 0.5)],
            [(float(i), 7.0) for i in range(20)],
        ],
        ids=["one", "two", "one-repeated", "two-repeated", "diagonal", "horizontal"],
    )
    def test_fewer_than_three_distinct_or_collinear_is_degenerate(self, points):
        x, y = np.array(points).T
        with pytest.raises(ValueError, match="degenerate crown"):
            _hull_area(x, y)


class TestMakeCrownCloud:
    def test_apex_is_highest_point(self):
        cloud = veg_cloud([(0, 0, 5.0), (3, 0, 5.0), (3, 3, 18.5), (0, 3, 5.0)])
        crown = make_crown_cloud("t1", cloud)
        assert crown.apex.z == 18.5
        assert crown.tree_height == 18.5
        assert crown.crown_id == "t1"

    def test_assemble_drops_narrow_and_degenerate(self):
        wide = veg_cloud(
            [(0, 0, 5.0), (3, 0, 5.0), (3, 3, 12.0), (0, 3, 5.0)], crown_id="wide"
        )
        narrow = veg_cloud(
            [(10, 10, 5.0), (10.5, 10, 5.0), (10.5, 10.5, 8.0), (10, 10.5, 5.0)],
            crown_id="narrow",
        )
        line = veg_cloud([(20, 0, 5.0), (21, 0, 5.0), (22, 0, 9.0)], crown_id="line")
        merged = concat_clouds([wide, narrow, line])
        crowns = assemble_crowns(merged)
        assert [c.crown_id for c in crowns] == ["wide"]

    def test_assemble_sorts_by_crown_id(self):
        square = [(0, 0, 5.0), (3, 0, 5.0), (3, 3, 12.0), (0, 3, 5.0)]
        b = veg_cloud(square, crown_id="b")
        a = veg_cloud([(x + 10, y, z) for x, y, z in square], crown_id="a")
        merged = concat_clouds([b, a])
        crowns = assemble_crowns(merged)
        assert [c.crown_id for c in crowns] == ["a", "b"]


class TestCrownsFromPoints:
    def test_a_temporary_cloud_is_freed_once_split(self):
        """A cloud only the call holds dies after its ground/vegetation
        split: the call's peak, with the cloud, was 3.0 times the cloud
        while it was kept to the end, 2.0 times now (8,433 points)."""
        points = generate_dataset(SynthParams(seed=11, n_conifer=4, n_deciduous=12)).points
        crowns_from_points(points)  # first-call allocations out of the count
        tracemalloc.start()
        try:
            held = [points.select(np.ones(len(points), dtype=bool))]
            cloud = tracemalloc.get_traced_memory()[0]
            crowns = crowns_from_points(held.pop())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [c.crown_id for c in crowns] == [c.crown_id for c in crowns_from_points(points)]
        assert peak < 2.5 * cloud, (peak, cloud)


class TestPointFile:
    def test_round_trip(self, tmp_path):
        cloud = veg_cloud([(1.25, 2.5, 10.0), (3.0, 4.0, 12.0)], crown_id="c7")
        path = tmp_path / "points.csv"
        write_point_file(path, cloud)
        back = read_point_file(path)
        np.testing.assert_allclose(back.x, cloud.x)
        np.testing.assert_allclose(back.z, cloud.z)
        np.testing.assert_array_equal(back.intensity, cloud.intensity)
        assert list(back.crown_id) == ["c7", "c7"]

    def test_golden_bytes(self, tmp_path):
        """Rounding, negative zero, quoting of ids with commas and quotes,
        non-ASCII ids, CRLF row ends."""
        cloud = PointCloud.from_columns(
            x=[0.0005, -0.0004, 1234.5675, 2.5, -1e-9],
            y=[1.0, 2.0, 3.0, 4.0, 5.0],
            z=[0.12345, 10.0, -3.9996, 7.0, 100.0],
            intensity=[0, 255, 17, 100, 1],
            return_number=[1, 2, 3, 4, 1],
            scan_angle=[-2.245, 0.0, 14.999, -0.001, 30.0],
            range_m=[801.815, 800.0, 1000.005, 799.994, 1200.0],
            season=[LEAF_OFF, LEAF_ON, LEAF_OFF, LEAF_ON, LEAF_ON],
            pclass=[GROUND, VEGETATION, VEGETATION, VEGETATION, VEGETATION],
            crown_id=["", "t1", "a,b", 'q"uote', "\u00e9"],
        )
        path = tmp_path / "points.csv"
        write_point_file(path, cloud)
        assert path.read_bytes() == (
            b"crown_id,x,y,z,intensity,return_number,scan_angle,range,season,pclass\r\n"
            b",0.001,1.000,0.123,0,1,-2.25,801.82,off,ground\r\n"
            b"t1,-0.000,2.000,10.000,255,2,0.00,800.00,on,vegetation\r\n"
            b'"a,b",1234.568,3.000,-4.000,17,3,15.00,1000.00,off,vegetation\r\n'
            b'"q""uote",2.500,4.000,7.000,100,4,-0.00,799.99,on,vegetation\r\n'
            b"\xc3\xa9,-0.000,5.000,100.000,1,1,30.00,1200.00,on,vegetation\r\n"
        )

    def test_cloud_without_crown_ids_writes_empty_ids(self, tmp_path):
        cloud = ground_cloud([(1.0, 2.0, 3.0)]).replace(crown_id=None)
        path = tmp_path / "points.csv"
        write_point_file(path, cloud)
        assert path.read_bytes().splitlines()[1] == b",1.000,2.000,3.000,50,1,0.00,1000.00,on,ground"

    @pytest.mark.parametrize("column", ["season", "pclass"])
    def test_unknown_code_raises_and_writes_no_empty_token(self, tmp_path, column):
        """A code without a name in the third point raises part way; the
        file an earlier write left stays as it was, with no temporary file
        beside it."""
        path = tmp_path / "points.csv"
        write_point_file(path, random_cloud(5))
        before = path.read_bytes()
        cloud = veg_cloud([(1.0, 2.0, 3.0), (4.0, 5.0, 6.0), (7.0, 8.0, 9.0)], crown_id="c1")
        codes = getattr(cloud, column).copy()
        codes[2] = UNKNOWN_TOKEN
        with pytest.raises(KeyError):
            write_point_file(path, cloud.replace(**{column: codes}))
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_synth_file_of_several_chunks_round_trips_byte_for_byte(self, tmp_path):
        path = tmp_path / "points.csv"
        forest = generate_dataset(SynthParams(seed=7, n_conifer=6, n_deciduous=40))
        write_point_file(path, forest.points)
        text = path.read_bytes()
        assert text.count(b"\n") > 2 * POINT_CHUNK_ROWS + 1
        write_point_file(tmp_path / "again.csv", read_point_file(path))
        assert (tmp_path / "again.csv").read_bytes() == text

    def test_header_only_file_is_empty(self, tmp_path):
        path = tmp_path / "points.csv"
        write_point_file(path, PointCloud.empty())
        back = read_point_file(path)
        assert len(back) == 0
        for name, dtype in CLOUD_DTYPES.items():
            assert getattr(back, name).dtype == np.dtype(dtype)

    def _write_rows(self, path, rows):
        header = "crown_id,x,y,z,intensity,return_number,scan_angle,range,season,pclass"
        path.write_text("\n".join([header] + rows) + "\n")

    def test_intensity_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        self._write_rows(path, ["c1,0,0,5,300,1,0,1000,on,vegetation"])
        with pytest.raises(InputError, match=r"bad\.csv:2: intensity 300"):
            read_point_file(path)

    def test_leaf_off_fourth_return_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        self._write_rows(path, ["c1,0,0,5,100,4,0,1000,off,vegetation"])
        with pytest.raises(InputError, match=r"bad\.csv:2: leaf-off"):
            read_point_file(path)

    def test_nonpositive_range_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        self._write_rows(path, ["c1,0,0,5,100,1,0,0,on,vegetation"])
        with pytest.raises(InputError, match=r"bad\.csv:2: range"):
            read_point_file(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,z\n1,2,3\n")
        with pytest.raises(InputError, match=r"bad\.csv:1: header"):
            read_point_file(path)

    def test_short_row_names_its_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        self._write_rows(path, ["c1,0,0,5,100,1,0,1000,on,vegetation", "", "c1,0,0"])
        with pytest.raises(InputError, match=r"bad\.csv:4: 3 fields, expected 10"):
            read_point_file(path)

    @pytest.mark.parametrize(
        "n", [0, 1, *(POINT_CHUNK_ROWS + d for d in (-1, 0, 1)), 2 * POINT_CHUNK_ROWS + 1]
    )
    @pytest.mark.parametrize("named", [True, False])
    def test_chunked_write_matches_one_pass(self, tmp_path, n, named):
        cloud = random_cloud(n)
        if not named:
            cloud = cloud.replace(crown_id=None)
        write_point_file(tmp_path / "chunked.csv", cloud)
        reference_write_point_file(tmp_path / "whole.csv", cloud)
        assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()

    @pytest.mark.parametrize("chunk_rows", [1, 2])
    def test_quoted_line_breaks_keep_numpys_parser(self, tmp_path, chunk_rows):
        """A record whose quoted id holds a line break stays in one chunk,
        so a valid file never falls back to Python's csv rules."""
        path = tmp_path / "points.csv"
        written = random_cloud(60)
        write_point_file(path, written)
        with (
            mock.patch.object(ingest, "POINT_CHUNK_ROWS", chunk_rows),
            mock.patch.object(ingest, "read_csv_rows", side_effect=AssertionError("csv path")),
        ):
            cloud = read_point_file(path)
        assert b"line\nbreak" in path.read_bytes()
        assert cloud.crown_id.tolist() == written.crown_id.tolist()

    def test_write_peak_does_not_grow_with_rows(self, tmp_path):
        """Rows are formatted a chunk at a time: the one-pass writer's
        peak doubled from 20,000 to 40,000 rows (4.2 to 8.2 MB)."""
        peaks = []
        for n in (20_000, 40_000):
            cloud = random_cloud(n)
            tracemalloc.start()
            try:
                write_point_file(tmp_path / "points.csv", cloud)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.2 * peaks[0], peaks

    def test_read_transient_is_below_the_cloud_it_returns(self, tmp_path):
        """What a read allocates beyond the cloud it returns, at 40,000
        rows: 2.1 times the cloud when the whole file was one table,
        0.8 times in chunks."""
        path = tmp_path / "points.csv"
        written = random_cloud(40_000)
        write_point_file(path, written)
        tracemalloc.start()
        try:
            cloud = read_point_file(path)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Quoted ids with line breaks straddle chunk ends.
        assert cloud.crown_id.tolist() == written.crown_id.tolist()
        assert peak - kept < 0.9 * kept, (peak, kept)


@st.composite
def valid_stems(draw):
    """A stem whose numbers survive write_stem_file's three decimals."""
    number = st.integers(-10**6, 10**6).map(lambda v: v / 1000)
    return FieldStem(
        draw(st.text(alphabet="s0123456789", min_size=1, max_size=5)),
        draw(number),
        draw(number),
        draw(st.integers(1, 10**5).map(lambda v: v / 1000)),
        draw(st.sampled_from(SPECIES_CLASSES)),
        draw(st.sampled_from(CROWN_CLASSES)),
        draw(st.sampled_from(["live", "dead"])),
    )


@st.composite
def stem_files(draw):
    """(text, line, problem) of a stems file whose first bad row, at
    ``line``, has a non-finite x, y or height or a height of at most 0."""
    rows = [
        [stem.stem_id, f"{stem.x:.3f}", f"{stem.y:.3f}", f"{stem.height:.3f}"]
        + [stem.species_class, stem.crown_class, stem.status]
        for stem in draw(st.lists(valid_stems(), min_size=1, max_size=6))
    ]
    at = draw(st.integers(0, len(rows) - 1))
    column, text = draw(
        st.one_of(
            st.tuples(st.sampled_from(["x", "y", "height"]), NON_FINITE_TEXTS),
            st.tuples(
                st.just("height"),
                st.one_of(
                    st.floats(max_value=0.0, allow_nan=False, allow_infinity=False).map(repr),
                    st.sampled_from(["0", "-0.0", "0e5", "-3"]),
                ),
            ),
        )
    )
    rows[at][STEM_COLUMNS.index(column)] = text
    # A later row may be bad too; the first is named.
    if at + 1 < len(rows):
        rows[at + 1][3] = draw(st.sampled_from(["nan", "0", rows[at + 1][3]]))
    value = float(text)
    problem = "height must be > 0" if math.isfinite(value) else f"{column} {value} is not finite"
    lines = [",".join(STEM_COLUMNS)] + [",".join(row) for row in rows]
    return "\n".join(lines) + "\n", at + 2, problem


class TestStemFile:
    def test_round_trip_drops_dead(self, tmp_path):
        stems = [
            FieldStem("s1", 1.0, 2.0, 15.0, "conifer", "dominant", "live"),
            FieldStem("s2", 3.0, 4.0, 12.0, "deciduous", "overtopped", "dead"),
        ]
        path = tmp_path / "stems.csv"
        write_stem_file(path, stems)
        back = read_stem_file(path)
        assert [s.stem_id for s in back] == ["s1"]
        assert back[0].species_class == "conifer"
        assert back[0].crown_class == "dominant"

    def test_keep_dead_when_asked(self, tmp_path):
        stems = [FieldStem("s2", 3.0, 4.0, 12.0, "deciduous", "overtopped", "dead")]
        path = tmp_path / "stems.csv"
        write_stem_file(path, stems)
        assert len(read_stem_file(path, drop_dead=False)) == 1

    def test_unknown_species_rejected(self, tmp_path):
        path = tmp_path / "stems.csv"
        path.write_text(
            "stem_id,x,y,height,species,crown_class,status\n"
            "s1,0,0,10,shrub,dominant,live\n"
        )
        with pytest.raises(InputError, match=r"stems\.csv:2: unknown species"):
            read_stem_file(path)

    @settings(max_examples=200, deadline=None)
    @given(stem_files())
    def test_bad_position_or_height_names_its_line(self, case):
        text, line, problem = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "stems.csv"
            path.write_text(text)
            with pytest.raises(InputError) as raised:
                read_stem_file(path)
        assert str(raised.value) == f"{path}:{line}: {problem}"

    @settings(max_examples=50, deadline=None)
    @given(st.lists(valid_stems(), max_size=6))
    def test_valid_stems_round_trip(self, stems):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "stems.csv"
            write_stem_file(path, stems)
            assert read_stem_file(path, drop_dead=False) == stems


def reference_parse_point_row(fields):
    """One row, as the row-at-a-time reader parsed and checked it."""
    crown_id, x, y, z, intensity, returns, angle, range_m, season, pclass = fields
    row = (crown_id, float(x), float(y), float(z), int(intensity), int(returns))
    row += (float(angle), float(range_m), season, pclass)
    if season not in SEASON_TOKENS:
        raise ValueError(f"unknown season {season!r}")
    if pclass not in PCLASS_TOKENS:
        raise ValueError(f"unknown pclass {pclass!r}")
    if not 0 <= row[4] <= 255:
        raise ValueError(f"intensity {row[4]} outside [0,255]")
    if not 1 <= row[5] <= 4:
        raise ValueError(f"return_number {row[5]} outside 1..4")
    if season == "off" and row[5] > 3:
        raise ValueError("leaf-off return_number > 3")
    for name, k in (("x", 1), ("y", 2), ("z", 3), ("scan_angle", 6), ("range", 7)):
        if not math.isfinite(row[k]):
            raise ValueError(f"{name} {row[k]} is not finite")
    if row[7] <= 0:
        raise ValueError("range must be > 0")
    return row


def reference_read_point_file(path):
    """The row-at-a-time reader that ``read_point_file`` replaced: csv
    rows parsed by Python's float and int, then stacked into columns."""
    rows = read_csv_rows(path, POINT_COLUMNS, reference_parse_point_row)

    def column(k, dtype):
        return np.array([row[k] for row in rows], dtype=dtype)

    return PointCloud(
        x=column(1, np.float64),
        y=column(2, np.float64),
        z=column(3, np.float64),
        intensity=column(4, np.int64),
        return_number=column(5, np.uint8),
        scan_angle=column(6, np.float64),
        range_m=column(7, np.float64),
        season=np.array([SEASON_TOKENS[row[8]] for row in rows], dtype=np.uint8),
        pclass=np.array([PCLASS_TOKENS[row[9]] for row in rows], dtype=np.uint8),
        crown_id=column(0, object),
    )


def reference_write_point_file(path, points):
    """The one-pass writer that ``write_point_file`` replaced: every
    column formatted at once, then written."""
    ids = [""] * len(points) if points.crown_id is None else points.crown_id.tolist()
    formats = (
        ("{:.3f}".format, points.x), ("{:.3f}".format, points.y), ("{:.3f}".format, points.z),
        (int, points.intensity), (int, points.return_number),
        ("{:.2f}".format, points.scan_angle), ("{:.2f}".format, points.range_m),
        (SEASON_NAMES.__getitem__, points.season), (PCLASS_NAMES.__getitem__, points.pclass),
    )
    columns = [map(format_value, values.tolist()) for format_value, values in formats]
    write_csv_rows(path, POINT_COLUMNS, zip(ids, *columns))


def random_cloud(n):
    """``n`` points with every column drawn; some crown ids need quoting."""
    rng = np.random.default_rng(0)
    names = np.array(["", "c1", "c22", "a,b", 'q"uote', "line\nbreak", "\u00e9"], dtype=object)
    return PointCloud.from_columns(
        x=rng.uniform(-1e3, 1e3, n),
        y=rng.uniform(-1e3, 1e3, n),
        z=rng.uniform(-10.0, 40.0, n),
        intensity=rng.integers(0, 256, n),
        return_number=rng.integers(1, 4, n),
        scan_angle=rng.uniform(-15.0, 15.0, n),
        range_m=rng.uniform(800.0, 1200.0, n),
        season=rng.integers(0, 2, n),
        pclass=rng.integers(0, 2, n),
        crown_id=rng.choice(names, n),
    )


def reference_assemble_crowns(points, min_width=1.5):
    """The mask-per-crown grouping that ``assemble_crowns`` replaced;
    returns the crowns and the (degenerate, narrow) drop counts."""
    ids = np.asarray(points.crown_id, dtype=object)
    crowns, degenerate, narrow = [], 0, 0
    for crown_id in sorted({str(i) for i in ids if str(i)}):
        try:
            crown = make_crown_cloud(crown_id, points.select(ids == crown_id))
        except ValueError:
            degenerate += 1
            continue
        if crown.width < min_width:
            narrow += 1
            continue
        crowns.append(crown)
    return crowns, (degenerate, narrow)


def assert_clouds_bit_equal(got, want):
    for name in CLOUD_DTYPES:
        got_column, want_column = getattr(got, name), getattr(want, name)
        assert got_column.dtype == want_column.dtype, name
        if want_column.dtype == object:
            assert got_column.tolist() == want_column.tolist(), name
        else:
            assert got_column.tobytes() == want_column.tobytes(), name


def read_outcome(reader, text, newline):
    """What ``reader`` makes of a points file holding ``text``: its
    cloud, or its error's type and message with the path left out."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "points.csv"
        with open(path, "w", encoding="utf-8", newline=newline) as handle:
            handle.write(text)
        try:
            return reader(path)
        except Exception as error:  # any error: both readers must raise the same
            return type(error), str(error).replace(str(path), "<path>")


def quoted(field, force=False, bare_quotes=False):
    """``field`` as csv text: quoted when forced or when it holds a comma,
    a quote or a line break; ``bare_quotes`` leaves a quote after the
    first character unquoted, which no csv writer does."""
    specials = ",\r\n" if bare_quotes and not field.startswith('"') else ',"\r\n'
    if force or any(c in field for c in specials):
        return '"' + field.replace('"', '""') + '"'
    return field


# Crown ids with commas, quotes, line breaks, '#' and non-ASCII, and
# ids longer than any fixed string width.
crown_ids = st.one_of(
    st.text(alphabet='ab7 ,"#\u00e9\t\r\n', max_size=6),
    st.text(alphabet="xyz", min_size=40, max_size=300),
)
float_texts = st.one_of(
    st.floats(width=64, allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e4, 1e4).map("{:.3f}".format),
    st.floats(-1e6, 1e6).map("{:.6e}".format),
    st.sampled_from(["+1.5", " 2.25 ", ".5", "5.", "-0"]),
)
range_texts = st.one_of(
    st.floats(min_value=1e-300, allow_nan=False, allow_infinity=False).map(repr),
    st.floats(0.01, 2000.0).map("{:.2f}".format),
    st.sampled_from([" 800 "]),
)
# Texts that Python's float and NumPy's parser both read as nan or +-inf.
NON_FINITE_TEXTS = st.sampled_from(
    ["nan", "-nan", "NaN", "inf", "+inf", "-inf", "-Infinity", " inf ", "1e999", "-1e400"]
)
# Valid (column, value) pairs that Python's float and int read and
# NumPy's parser does not: digit-group underscores, non-ASCII digits and
# spaces.
PYTHON_ONLY = st.one_of(
    st.tuples(st.sampled_from([1, 2, 3, 6, 7]), st.sampled_from(["1_000.5", "\u0663.5", "\u00a02.5"])),
    st.tuples(st.just(4), st.sampled_from(["2_5", "\u0661\u0662", "\u00a07"])),
)


def int_texts(low, high):
    return st.one_of(
        st.integers(low, high).map(str),
        st.integers(low, high).map(lambda v: f"+{v}"),
        st.integers(low, high).map(lambda v: f" 0{v} "),
    )


@st.composite
def point_rows(draw):
    season = draw(st.sampled_from(["on", "off"]))
    return [
        draw(crown_ids),
        draw(float_texts),
        draw(float_texts),
        draw(float_texts),
        draw(int_texts(0, 255)),
        draw(int_texts(1, 3 if season == "off" else 4)),
        draw(float_texts),
        draw(range_texts),
        season,
        draw(st.sampled_from(["ground", "vegetation"])),
    ]


# (column, replacement) faults; some replacements leave the row valid.
FAULTS = st.one_of(
    st.tuples(st.sampled_from([1, 2, 3, 6, 7]), st.sampled_from(["", "abc", "1.5.2", "0x10", "--1"])),
    st.tuples(st.sampled_from([1, 2, 3, 6, 7]), NON_FINITE_TEXTS),
    st.tuples(st.sampled_from([4, 5]), st.sampled_from(["", "1.5", "3e2", "nan", "1 2", "x"])),
    st.tuples(st.just(4), st.sampled_from(["-1", "256", "99999999999999999999", "-9" * 25])),
    st.tuples(st.just(5), st.sampled_from(["0", "4", "5", "-2"])),
    st.tuples(st.just(7), st.sampled_from(["0", "-0.0", "-5", "-inf"])),
    st.tuples(st.just(8), st.sampled_from(["summer", "ON", " on", "offf", "o" * 60, ""])),
    st.tuples(st.just(9), st.sampled_from(["Ground", "veg", "vegetation ", "v" * 60, ""])),
    st.tuples(st.just("short"), st.integers(0, 9)),
    st.tuples(st.just("long"), st.just("x")),
    st.tuples(st.just("blank"), st.sampled_from([" ", "\t", ",,,"])),
)


@st.composite
def point_files(draw, max_faults=0):
    """(file text, newline) of a points file: LF or CRLF rows, blank
    lines, quoting, and up to ``max_faults`` faults."""
    rows = draw(st.lists(point_rows(), max_size=12))
    if rows and draw(st.integers(0, 3)) == 0:
        where, value = draw(PYTHON_ONLY)
        rows[draw(st.integers(0, len(rows) - 1))][where] = value
    for _ in range(draw(st.integers(0, max_faults))):
        if not rows:
            break
        fields = rows[draw(st.integers(0, len(rows) - 1))]
        where, value = draw(FAULTS)
        if where == "short":
            del fields[value:]
        elif where == "long":
            fields.append(value)
        elif where == "blank":
            fields[:] = [value]
        elif where < len(fields):
            fields[where] = value
    # Quote fields only where needed, every text field, every field, at
    # random, or where needed except for a quote inside a crown id.
    quoting = draw(st.sampled_from(["minimal", "text", "all", "random", "bare"]))
    lines = [",".join(POINT_COLUMNS)]
    for fields in rows:
        lines.extend([""] * draw(st.integers(0, 2)))
        force = {
            "minimal": lambda k: False,
            "text": lambda k: k in (0, 8, 9),
            "all": lambda k: True,
            "random": lambda k: draw(st.booleans()),
            "bare": lambda k: False,
        }[quoting]
        lines.append(
            ",".join(
                quoted(field, force(k), quoting == "bare" and k == 0)
                for k, field in enumerate(fields)
            )
        )
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""])), newline


def assert_valid_file_reads_bit_equal(case):
    got = read_outcome(read_point_file, *case)
    want = read_outcome(reference_read_point_file, *case)
    assert isinstance(want, PointCloud), want
    assert isinstance(got, PointCloud), got
    assert_clouds_bit_equal(got, want)


def assert_file_reads_the_same(case):
    got = read_outcome(read_point_file, *case)
    want = read_outcome(reference_read_point_file, *case)
    if isinstance(want, PointCloud):
        assert_clouds_bit_equal(got, want)
    else:
        assert got == want


class TestPointReaderMatchesRowReader:
    @settings(max_examples=300, deadline=None)
    @given(point_files())
    def test_valid_files_give_bit_equal_columns(self, case):
        assert_valid_file_reads_bit_equal(case)

    @settings(max_examples=400, deadline=None)
    @given(point_files(max_faults=3))
    def test_malformed_files_give_the_same_error(self, case):
        assert_file_reads_the_same(case)

    # Chunks of one or two lines: quoted line breaks, blank lines, CRLF,
    # Python-only values and faults fall on chunk ends.
    @pytest.mark.parametrize("chunk_rows", [1, 2])
    @settings(max_examples=200, deadline=None)
    @given(case=point_files())
    def test_valid_files_in_small_chunks(self, chunk_rows, case):
        with mock.patch.object(ingest, "POINT_CHUNK_ROWS", chunk_rows):
            assert_valid_file_reads_bit_equal(case)

    @pytest.mark.parametrize("chunk_rows", [1, 2])
    @settings(max_examples=300, deadline=None)
    @given(case=point_files(max_faults=3))
    def test_malformed_files_in_small_chunks(self, chunk_rows, case):
        with mock.patch.object(ingest, "POINT_CHUNK_ROWS", chunk_rows):
            assert_file_reads_the_same(case)

    @pytest.mark.parametrize(
        "row, problem",
        [
            ("c1,0,0,5,100,1,0,1000,summer,vegetation", "unknown season 'summer'"),
            ("c1,0,0,5,300,1,0,1000,summer,vegetation", "unknown season 'summer'"),
            ("c1,0,0,5,300,5,0,-1,on,shrub", "unknown pclass 'shrub'"),
            ("c1,0,0,5,300,5,0,-1,on,ground", "intensity 300 outside [0,255]"),
            ("c1,0,0,5,-1,5,0,-1,on,ground", "intensity -1 outside [0,255]"),
            ("c1,0,0,5,3,5,0,-1,off,ground", "return_number 5 outside 1..4"),
            ("c1,0,0,5,3,4,0,-1,off,ground", "leaf-off return_number > 3"),
            ("c1,0,0,5,3,4,0,-1,on,ground", "range must be > 0"),
            ("c1,0,0,5,3,4,nan,-1,on,ground", "scan_angle nan is not finite"),
            ("c1,inf,0,5,3,4,nan,-1,on,ground", "x inf is not finite"),
            ("c1,0,-inf,5,3,4,0,1,on,ground", "y -inf is not finite"),
            ("c1,0,0,1e999,3,4,0,1,on,ground", "z inf is not finite"),
            ("c1,0,0,5,3,4,0,nan,on,ground", "range nan is not finite"),
            ("c1,0,0,5,3,4,0,inf,off,ground", "leaf-off return_number > 3"),
            ("c1,0,0,5,3.0,4,0,-1,on,ground", "invalid literal for int() with base 10: '3.0'"),
            ("c1,0,zero,5,3,4,0,1,on,ground", "could not convert string to float: 'zero'"),
        ],
    )
    def test_first_rule_broken_is_named(self, tmp_path, row, problem):
        """A row breaking several rules names the first, as the row
        reader did; the first bad row wins over later ones."""
        path = tmp_path / "bad.csv"
        good = "c0,0,0,5,100,1,0,1000,on,vegetation"
        path.write_text("\r\n".join([",".join(POINT_COLUMNS), good, "", row, row[::-1]]))
        with pytest.raises(InputError) as raised:
            read_point_file(path)
        assert str(raised.value) == f"{path}:4: {problem}"

    @pytest.mark.parametrize("chunk_rows", [1, 2])
    @pytest.mark.parametrize(
        "first, second, problem",
        [
            ("summer,vegetation", "winter,ground", "unknown season 'summer'"),
            ("on,shrub", "off,tree", "unknown pclass 'shrub'"),
        ],
    )
    def test_first_unknown_token_is_named_across_chunks(
        self, tmp_path, chunk_rows, first, second, problem
    ):
        """Lines 3 and 4 hold unknown tokens in different chunks; line 3's is named."""
        path = tmp_path / "bad.csv"
        prefix = "c1,0,0,5,100,1,0,1000,"
        lines = [",".join(POINT_COLUMNS), prefix + "on,vegetation", prefix + first, prefix + second]
        path.write_text("\n".join(lines) + "\n")
        with mock.patch.object(ingest, "POINT_CHUNK_ROWS", chunk_rows):
            with pytest.raises(InputError) as raised:
                read_point_file(path)
        assert str(raised.value) == f"{path}:3: {problem}"


def near_ties(decimals):
    """Floats at or one ulp either side of a rounding tie at ``decimals``
    places (a ``.0005`` boundary at three)."""
    ties = st.integers(-10**9, 10**9).map(lambda k: (k + 0.5) / 10**decimals)
    return st.tuples(ties, st.sampled_from([-math.inf, None, math.inf])).map(
        lambda pair: pair[0] if pair[1] is None else math.nextafter(*pair)
    )


written_floats = st.one_of(
    st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False),
    st.just(-0.0),
    near_ties(3),
    near_ties(2),
)


@st.composite
def written_clouds(draw):
    """A cloud of any finite numbers and codes write_point_file can
    name; crown ids that need quoting, the empty id, or none at all."""
    n = draw(st.integers(0, 7))

    def column(values):
        return draw(st.lists(values, min_size=n, max_size=n))

    cloud = PointCloud.from_columns(
        x=column(written_floats),
        y=column(written_floats),
        z=column(written_floats),
        intensity=column(st.integers(0, 2**62)),
        return_number=column(st.integers(0, 255)),
        scan_angle=column(written_floats),
        range_m=column(written_floats),
        season=column(st.sampled_from([LEAF_ON, LEAF_OFF])),
        pclass=column(st.sampled_from([GROUND, VEGETATION])),
        crown_id=column(st.text(alphabet=',"\r\n éa1', max_size=5)),
    )
    return cloud.replace(crown_id=None) if draw(st.booleans()) else cloud


class TestPointWriterMatchesOnePassWriter:
    @pytest.mark.parametrize("chunk_rows", [1, 2, POINT_CHUNK_ROWS])
    @settings(max_examples=200, deadline=None)
    @given(cloud=written_clouds())
    def test_same_bytes_and_ids_read_back(self, chunk_rows, cloud):
        with tempfile.TemporaryDirectory() as tmp:
            path, reference = Path(tmp) / "points.csv", Path(tmp) / "reference.csv"
            with mock.patch.object(ingest, "POINT_CHUNK_ROWS", chunk_rows):
                write_point_file(path, cloud)
            reference_write_point_file(reference, cloud)
            assert path.read_bytes() == reference.read_bytes()
            ids = read_csv_rows(path, POINT_COLUMNS, lambda fields: fields[0])
        assert ids == ([""] * len(cloud) if cloud.crown_id is None else cloud.crown_id.tolist())


class WarningLines(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.lines = []

    def emit(self, record):
        self.lines.append(record.getMessage())


@st.composite
def crown_point_sets(draw):
    """Points of a few crowns, interleaved in random order: wide, narrow,
    collinear, repeated and single-point crowns, and unlabelled points."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    ids = draw(st.lists(st.text(alphabet="ab\u00e9 ", max_size=3), max_size=6, unique=True))
    x, y, z, labels = [], [], [], []
    for crown_id in ids:
        n = draw(st.integers(1, 12))
        size = draw(st.sampled_from([0.3, 1.0, 4.0]))
        shape = draw(st.sampled_from(["spread", "line", "repeat"]))
        xs = rng.uniform(0, size, n)
        ys = xs.copy() if shape == "line" else rng.uniform(0, size, n)
        if shape == "repeat":
            xs, ys = np.full(n, xs[0]), np.full(n, ys[0])
        x += list(xs)
        y += list(ys)
        z += list(rng.uniform(3.0, 30.0, n).round(draw(st.sampled_from([0, 3]))))
        labels += [crown_id] * n
    order = rng.permutation(len(x))
    return PointCloud.from_columns(
        x=np.array(x)[order],
        y=np.array(y)[order],
        z=np.array(z)[order],
        intensity=rng.integers(0, 256, len(x)),
        return_number=1,
        scan_angle=0.0,
        range_m=1000.0,
        season=rng.integers(0, 2, len(x)),
        pclass=VEGETATION,
        crown_id=np.array(labels, dtype=object)[order],
    )


class TestAssembleMatchesMaskGrouping:
    @settings(max_examples=200, deadline=None)
    @given(crown_point_sets(), st.sampled_from([0.5, 1.5]))
    def test_same_crowns_points_order_and_warning(self, points, min_width):
        logger = logging.getLogger("crownclass.ingest")
        warnings = WarningLines()
        logger.addHandler(warnings)
        try:
            crowns = assemble_crowns(points, min_width=min_width)
        finally:
            logger.removeHandler(warnings)
        want, (degenerate, narrow) = reference_assemble_crowns(points, min_width)
        assert [c.crown_id for c in crowns] == [c.crown_id for c in want]
        for got_crown, want_crown in zip(crowns, want):
            assert_clouds_bit_equal(got_crown.points, want_crown.points)
            assert got_crown.apex == want_crown.apex
            features = (got_crown.tree_height, got_crown.width, got_crown.area)
            assert features == (want_crown.tree_height, want_crown.width, want_crown.area)
        expected = [
            f"dropped {degenerate} degenerate and {narrow} narrow (<{min_width:.1f} m) crowns"
        ]
        assert warnings.lines == (expected if degenerate or narrow else [])
