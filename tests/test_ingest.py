"""Tests for ingestion: DEM build/fill, height normalization, canopy
filtering, crown features, and the text file formats."""

import math

import numpy as np
import pytest

from crownclass.ingest import (
    CrownCloud,
    FieldStem,
    LidarPoint,
    PointCloud,
    assemble_crowns,
    build_dem,
    crown_features,
    filter_canopy,
    height_normalize,
    make_crown_cloud,
    read_point_file,
    read_stem_file,
    write_point_file,
    write_stem_file,
)
from crownclass.util import InputError


def ground_cloud(coords):
    points = [
        LidarPoint(
            x=x,
            y=y,
            z=z,
            intensity=50,
            return_number=1,
            scan_angle=0.0,
            range_m=1000.0,
            season="on",
            pclass="ground",
        )
        for x, y, z in coords
    ]
    return PointCloud.from_points(points)


def veg_cloud(coords, crown_id=""):
    points = [
        LidarPoint(
            x=x,
            y=y,
            z=z,
            intensity=100,
            return_number=1,
            scan_angle=5.0,
            range_m=1000.0,
            season="on",
            pclass="vegetation",
            crown_id=crown_id,
        )
        for x, y, z in coords
    ]
    return PointCloud.from_points(points)


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
        merged = PointCloud.from_points(
            [c.point(i) for c in (wide, narrow, line) for i in range(len(c))]
        )
        crowns = assemble_crowns(merged)
        assert [c.crown_id for c in crowns] == ["wide"]

    def test_assemble_sorts_by_crown_id(self):
        square = [(0, 0, 5.0), (3, 0, 5.0), (3, 3, 12.0), (0, 3, 5.0)]
        b = veg_cloud(square, crown_id="b")
        a = veg_cloud([(x + 10, y, z) for x, y, z in square], crown_id="a")
        merged = PointCloud.from_points(
            [c.point(i) for c in (b, a) for i in range(len(c))]
        )
        crowns = assemble_crowns(merged)
        assert [c.crown_id for c in crowns] == ["a", "b"]


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
