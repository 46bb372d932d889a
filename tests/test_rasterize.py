"""Tests for crown rasterization: rotation, both representations,
rasterizing a crown at every rotation with input scaling, and the
memory-mapped raster store."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crownclass.ensemble import from_store, truncate_augmentations
from crownclass.ingest import SEASON_TOKENS, VEGETATION, Apex, CrownCloud, PointCloud
from crownclass.rasterize import (
    AREA_SCALE,
    DSM_CHANNEL_SCALES,
    HEIGHT_SCALE,
    INTENSITY_SCALE,
    KIND_SHAPES,
    WIDTH_SCALE,
    make_dsm4,
    make_views4,
    rasterize_crown,
    read_all_representations,
    read_manifest,
    rotate_about_apex,
    write_representation_file,
)
from crownclass.util import InputError


def build_crown(pts, crown_id="t", width=3.0, area=7.0):
    """Crown from (x, y, z, intensity, season) tuples; apex = highest."""
    x, y, z, intensity, season = zip(*pts)
    cloud = PointCloud.from_columns(
        x=x,
        y=y,
        z=z,
        intensity=intensity,
        return_number=1,
        scan_angle=0.0,
        range_m=1000.0,
        season=[SEASON_TOKENS[token] for token in season],
        pclass=VEGETATION,
        crown_id=crown_id,
    )
    top = int(np.argmax(cloud.z))
    return CrownCloud(
        crown_id=crown_id,
        points=cloud,
        apex=Apex(float(cloud.x[top]), float(cloud.y[top]), float(cloud.z[top])),
        tree_height=float(cloud.z.max()),
        width=width,
        area=area,
    )


def random_crown(rng, n=80, safe_lattice=False):
    """Random crown around an apex at (10, 10, 26).

    With safe_lattice, horizontal offsets sit 2 cm off the 6.25-cm grid,
    keeping every point at least 1 mm from all pixel boundaries of both
    rasters, before and after 90-degree rotations.
    """
    if safe_lattice:
        # Offsets from the apex (the rotation center) stay 2 cm off the
        # 6.25-cm lattice that carries every pixel boundary, before and
        # after any 90-degree rotation.
        dx = rng.integers(-88, 89, n) * 0.0625 + 0.02
        dy = rng.integers(-88, 89, n) * 0.0625 + 0.02
    else:
        dx = rng.uniform(-5.5, 5.5, n)
        dy = rng.uniform(-5.5, 5.5, n)
    z = rng.uniform(3.0, 25.0, n)
    intensity = rng.integers(1, 256, n)
    season = rng.integers(0, 2, n)
    pts = [
        (10.0 + dx[i], 10.0 + dy[i], z[i], intensity[i], "on" if season[i] == 0 else "off")
        for i in range(n)
    ]
    pts.append((10.0, 10.0, 26.0, 100, "on"))
    return build_crown(pts)


def crown_dataset(labeled, kind="views4", n=1, step=2.0):
    """In-memory dataset over (crown, label, crown_class) triples, rows in
    the given order, with the columns the rasterize stage stores."""
    rasterized = [rasterize_crown(crown, kind, n, step) for crown, _, _ in labeled]
    manifest = {
        "kind": kind,
        "scaled": True,
        "crown_id": [crown.crown_id for crown, _, _ in labeled],
        "label": [label for _, label, _ in labeled],
        "crown_class": [crown_class for _, _, crown_class in labeled],
        "density": [len(crown.points) / crown.area for crown, _, _ in labeled],
        "scalars": [scalars for _, scalars in rasterized],
    }
    return from_store(np.stack([images for images, _ in rasterized]), manifest)


class TestRotate:
    def test_zero_degrees_identity(self):
        crown = random_crown(np.random.default_rng(1))
        out = rotate_about_apex(crown, 0.0)
        np.testing.assert_allclose(out.points.x, crown.points.x, atol=1e-9)
        np.testing.assert_allclose(out.points.y, crown.points.y, atol=1e-9)

    def test_180_negates_offsets(self):
        crown = random_crown(np.random.default_rng(2))
        out = rotate_about_apex(crown, 180.0)
        np.testing.assert_allclose(
            out.points.x - crown.apex.x, -(crown.points.x - crown.apex.x), atol=1e-9
        )
        np.testing.assert_allclose(
            out.points.y - crown.apex.y, -(crown.points.y - crown.apex.y), atol=1e-9
        )

    def test_90_plus_270_is_identity(self):
        crown = random_crown(np.random.default_rng(3))
        out = rotate_about_apex(rotate_about_apex(crown, 90.0), 270.0)
        np.testing.assert_allclose(out.points.x, crown.points.x, atol=1e-9)
        np.testing.assert_allclose(out.points.y, crown.points.y, atol=1e-9)

    def test_attributes_and_features_unchanged(self):
        crown = random_crown(np.random.default_rng(4))
        out = rotate_about_apex(crown, 37.0)
        np.testing.assert_array_equal(out.points.z, crown.points.z)
        np.testing.assert_array_equal(out.points.intensity, crown.points.intensity)
        assert out.tree_height == crown.tree_height
        assert out.width == crown.width
        assert out.area == crown.area


class TestDsm4:
    def test_single_apex_point(self):
        crown = build_crown([(10.0, 10.0, 20.0, 100, "on")])
        dsm = make_dsm4(crown)
        assert (dsm.shape, dsm.dtype) == ((4, 128, 128), np.float32)
        assert dsm[0, 64, 64] == 20.0
        assert dsm[1, 64, 64] == 100.0
        assert np.count_nonzero(dsm) == 2

    def test_highest_point_wins_pixel(self):
        crown = build_crown(
            [(10.0, 10.0, 12.0, 80, "on"), (10.01, 10.01, 10.0, 200, "on")]
        )
        dsm = make_dsm4(crown)
        assert dsm[0, 64, 64] == 12.0
        assert dsm[1, 64, 64] == 80.0

    def test_height_tie_prefers_larger_intensity(self):
        crown = build_crown(
            [
                (13.0, 13.0, 20.0, 50, "on"),
                (10.0, 10.0, 10.0, 100, "on"),
                (10.01, 10.0, 10.0, 200, "on"),
            ]
        )
        dsm = make_dsm4(crown)
        # Tied points sit 3 m west and south of the apex: pixel (88, 40).
        assert dsm[0, 88, 40] == 10.0
        assert dsm[1, 88, 40] == 200.0

    def test_point_beyond_half_extent_excluded(self):
        crown = build_crown(
            [(10.0, 10.0, 20.0, 100, "on"), (18.1, 10.0, 5.0, 50, "on")]
        )
        dsm = make_dsm4(crown)
        assert np.count_nonzero(dsm) == 2  # apex only

    def test_point_just_inside_included(self):
        crown = build_crown(
            [(10.0, 10.0, 20.0, 100, "on"), (17.9, 10.0, 5.0, 50, "on")]
        )
        dsm = make_dsm4(crown)
        assert np.count_nonzero(dsm) == 4

    def test_seasons_fill_their_channels(self):
        crown = build_crown(
            [(10.0, 10.0, 20.0, 100, "on"), (11.0, 10.0, 8.0, 60, "off")]
        )
        dsm = make_dsm4(crown)
        assert dsm[0, 64, 64] == 20.0
        assert np.count_nonzero(dsm[2]) == 1
        assert np.count_nonzero(dsm[0]) == 1

    def test_height_channels_nonnegative_and_max_preserved(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            crown = random_crown(rng)
            dsm = make_dsm4(crown)
            assert dsm[0].min() >= 0
            assert dsm[2].min() >= 0
            on = crown.points.select(crown.points.season == 0)
            np.testing.assert_allclose(
                dsm[0].max(), np.float32(on.z.max())
            )


class TestViews4:
    def test_single_apex_point(self):
        crown = build_crown([(10.0, 10.0, 20.0, 100, "on")], width=2.0)
        views = make_views4(crown)
        assert (views.shape, views.dtype) == ((4, 64, 64), np.float32)
        assert views[0, 32, 32] == 100.0
        assert views[2, 0, 32] == 100.0
        assert np.count_nonzero(views) == 2

    def test_off_plane_point_excluded_from_profile(self):
        crown = build_crown(
            [(10.0, 10.0, 20.0, 100, "on"), (11.0, 10.4, 18.0, 50, "on")]
        )
        views = make_views4(crown)
        assert np.count_nonzero(views[0]) == 2  # both in aerial
        assert np.count_nonzero(views[2]) == 1  # apex only

    def test_slab_edge_point_included(self):
        crown = build_crown(
            [(10.0, 10.0, 20.0, 100, "on"), (11.0, 10.375, 18.0, 50, "on")]
        )
        views = make_views4(crown)
        assert np.count_nonzero(views[2]) == 2

    def test_profile_pixel_is_mean_intensity(self):
        crown = build_crown(
            [
                (10.0, 10.0, 20.0, 80, "on"),
                (11.0, 10.0, 15.0, 100, "on"),
                (11.05, 10.1, 14.95, 200, "on"),
            ]
        )
        views = make_views4(crown)
        assert views[2, 20, 36] == 150.0

    def test_nonzero_aerial_pixels_bounded_by_point_count(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            crown = random_crown(rng)
            views = make_views4(crown)
            n_on = int((crown.points.season == 0).sum())
            n_off = int((crown.points.season == 1).sum())
            assert np.count_nonzero(views[0]) <= n_on
            assert np.count_nonzero(views[1]) <= n_off


def reference_rasterize(crown, kind, n, step):
    """rasterize_crown one rotation at a time: each raster of the rotated
    crown (rotation 0 is the crown itself) divided by its scales."""
    if kind == "views4":
        make, scales = make_views4, INTENSITY_SCALE
        scalars = [crown.width / WIDTH_SCALE, crown.tree_height / HEIGHT_SCALE]
    else:
        make, scales = make_dsm4, DSM_CHANNEL_SCALES
        scalars = [crown.area / AREA_SCALE]
    images = []
    for k in range(n):
        rotated = rotate_about_apex(crown, k * step) if k else crown
        images.append(make(rotated) / scales)
    return np.array(images), np.array(scalars, dtype=np.float32)


class TestAugment:
    def test_rotation_schedule(self):
        crown = random_crown(np.random.default_rng(7), n=10)
        images, _ = rasterize_crown(crown, "views4", n=180, step=2.0)
        assert (images.shape, images.dtype) == ((180, 4, 64, 64), np.float32)
        for k, degrees in ((0, 0.0), (1, 2.0), (179, 358.0)):
            rotated = rotate_about_apex(crown, degrees) if degrees else crown
            expected = make_views4(rotated) / INTENSITY_SCALE
            np.testing.assert_array_equal(images[k], expected)

    def test_single_rotation(self):
        crown = random_crown(np.random.default_rng(8), n=10)
        dsm, dsm_scalars = rasterize_crown(crown, "dsm4", n=1, step=2.0)
        views, views_scalars = rasterize_crown(crown, "views4", n=1, step=2.0)
        assert dsm.shape == (1, 4, 128, 128)
        assert views.shape == (1, 4, 64, 64)
        assert (dsm_scalars.shape, views_scalars.shape) == ((1,), (2,))
        with pytest.raises(ValueError, match="unknown representation kind"):
            rasterize_crown(crown, "pointcloud", n=1, step=2.0)

    def test_scalar_features_exactly_equal_across_rotations(self):
        crown = random_crown(np.random.default_rng(9), n=30)
        for kind in ("dsm4", "views4"):
            _, scalars = rasterize_crown(crown, kind, n=12, step=30.0)
            for k in range(12):
                rotated = rotate_about_apex(crown, 30.0 * k)
                _, rotated_scalars = rasterize_crown(rotated, kind, n=1, step=0.0)
                np.testing.assert_array_equal(bits(rotated_scalars), bits(scalars))

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["views4", "dsm4"]),
        n=st.integers(1, 4),
        step=st.floats(-1e4, 1e4, allow_nan=False),
        width=st.floats(0.1, 20.0),
        area=st.floats(0.1, 300.0),
    )
    def test_matches_one_rotation_at_a_time(self, seed, kind, n, step, width, area):
        crown = random_crown(np.random.default_rng(seed), n=60)
        crown.width, crown.area = width, area
        images, scalars = rasterize_crown(crown, kind, n, step)
        expected_images, expected_scalars = reference_rasterize(crown, kind, n, step)
        assert images.dtype == expected_images.dtype == np.float32
        np.testing.assert_array_equal(bits(images), bits(expected_images))
        np.testing.assert_array_equal(bits(scalars), bits(expected_scalars))


class TestScale:
    def test_known_values(self):
        crown = build_crown(
            [(10.0, 10.0, 25.0, 255, "on")], width=10.0, area=150.0
        )
        dsm, dsm_scalars = rasterize_crown(crown, "dsm4", n=1, step=2.0)
        views, views_scalars = rasterize_crown(crown, "views4", n=1, step=2.0)
        np.testing.assert_allclose(dsm[0, 0, 64, 64], 0.5)
        np.testing.assert_allclose(dsm[0, 1, 64, 64], 1.0)
        np.testing.assert_allclose(dsm_scalars, [0.5])
        np.testing.assert_allclose(views[0, 0, 32, 32], 1.0)
        np.testing.assert_allclose(views_scalars, [0.5, 0.5])  # width, height

    def test_zero_stays_zero(self):
        crown = build_crown([(10.0, 10.0, 25.0, 255, "on")])
        dsm, _ = rasterize_crown(crown, "dsm4", n=1, step=2.0)
        assert dsm[0, 0, 0, 0] == 0.0


def rotated_image_90(image):
    """Image-space version of a 90-degree cloud rotation.

    With the apex at the center of a pixel on an even-size grid, a pixel
    (row, col) maps to (size - col, row); that is rot90 followed by a
    one-row roll. The wrapped row 0 corresponds to pixels that left the
    frame.
    """
    out = np.roll(np.rot90(image, 1), 1, axis=0)
    out[0] = 0
    return out


class TestRotationCommutation:
    def test_dsm_and_aerial_match_rotated_images(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            crown = random_crown(rng, n=120, safe_lattice=True)
            rotated = rotate_about_apex(crown, 90.0)
            dsm, dsm_rot = make_dsm4(crown), make_dsm4(rotated)
            views, views_rot = make_views4(crown), make_views4(rotated)
            for ch in range(4):
                expected = rotated_image_90(dsm[ch])
                agreement = np.mean(dsm_rot[ch] == expected)
                assert agreement >= 0.99
            for ch in range(2):  # aerial images only; profiles track the slab
                expected = rotated_image_90(views[ch])
                agreement = np.mean(views_rot[ch] == expected)
                assert agreement >= 0.99
            assert np.count_nonzero(dsm_rot[0]) > 30


def random_row(rng, crown_id, label, crown_class, density, kind, n_rotations):
    """A store row of one kind with random float32 pixels, signed zeros
    included, and random float32 scalar features."""
    images = rng.standard_normal((n_rotations,) + KIND_SHAPES[kind]).astype(np.float32)
    images[:, 0, :2] = -0.0
    scalars = rng.uniform(0.01, 2.0, 2 if kind == "views4" else 1).astype(np.float32)
    return crown_id, label, crown_class, density, images, scalars


def write_store(directory, rows, kind, n_rotations=3):
    """Write store rows given in any order; like the rasterize stage, the
    caller sorts them by crown_id."""
    tensor = directory / "rasters.bin"
    manifest_path = directory / "rasters.json"
    write_representation_file(
        tensor,
        manifest_path,
        sorted(rows, key=lambda row: row[0]),
        kind,
        n_rotations=n_rotations,
        step=2.0,
        n_crowns=len(rows),
    )
    manifest = read_manifest(manifest_path)
    return read_all_representations(tensor, manifest), manifest


def bits(array):
    return np.asarray(array, dtype=np.float32).view(np.uint32)


crown_rows = st.lists(
    st.tuples(
        st.text("abcdefgh0123456789", min_size=1, max_size=5),
        st.sampled_from(["conifer", "deciduous"]),
        st.sampled_from(["dominant", "codominant", "intermediate", "overtopped"]),
        st.floats(0.1, 100.0),
    ),
    min_size=1,
    max_size=4,
    unique_by=lambda row: row[0],
)


class TestTensorStore:
    def make_rows(self, kind, ids=("b2", "a1")):
        rng = np.random.default_rng(12)
        rows = []
        for crown_id, label in zip(ids, ("deciduous", "conifer")):
            crown = random_crown(rng, n=40)
            density = len(crown.points) / crown.area
            images, scalars = rasterize_crown(crown, kind, n=3, step=120.0)
            rows.append((crown_id, label, "dominant", density, images, scalars))
        return rows

    def test_round_trip(self, tmp_path):
        rows = self.make_rows("dsm4")
        images, manifest = write_store(tmp_path, rows, "dsm4")
        assert isinstance(images, np.memmap) and not images.flags.writeable
        assert images.shape == (2, 3, 4, 128, 128)
        assert manifest["kind"] == "dsm4"
        assert (manifest["n_rotations"], manifest["step"]) == (3, 2.0)
        assert manifest["scaled"] is True
        assert manifest["crown_id"] == ["a1", "b2"]
        assert manifest["label"] == ["conifer", "deciduous"]
        assert manifest["crown_class"] == ["dominant", "dominant"]
        for row, (_, _, _, density, crown_images, scalars) in enumerate(reversed(rows)):
            np.testing.assert_array_equal(images[row], crown_images)
            assert manifest["scalars"][row] == [float(scalars[0])]
            assert manifest["density"][row] == density

    def test_views_only_file(self, tmp_path):
        rows = self.make_rows("views4")
        images, manifest = write_store(tmp_path, rows, "views4")
        assert images.shape == (2, 3, 4, 64, 64)
        np.testing.assert_array_equal(
            np.load(tmp_path / "rasters.bin"), np.asarray(images)
        )
        # random_crown: width 3 m, tree height 26 m.
        assert manifest["scalars"][0] == [
            float(np.float32(3.0 / WIDTH_SCALE)),
            float(np.float32(26.0 / HEIGHT_SCALE)),
        ]

    def test_missing_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="dsm4 tensors .* do not fit"):
            write_store(tmp_path, self.make_rows("views4"), "dsm4")

    def test_shape_disagreeing_with_manifest_names_file(self, tmp_path):
        _, manifest = write_store(tmp_path, self.make_rows("views4"), "views4")
        manifest["n_rotations"] = 4
        with pytest.raises(InputError, match="rasters.bin.*disagrees"):
            read_all_representations(tmp_path / "rasters.bin", manifest)
        manifest["n_rotations"] = 3
        (tmp_path / "rasters.bin").write_bytes(b"CRWN" + bytes(60))
        with pytest.raises(InputError, match="rasters.bin: not a raster store"):
            read_all_representations(tmp_path / "rasters.bin", manifest)

    def test_foreign_manifest_rejected(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"version": 1, "records": {}}))
        with pytest.raises(InputError, match="old.json.*missing kind"):
            read_manifest(path)

    def test_generator_is_consumed_once_in_order(self, tmp_path):
        rows = self.make_rows("views4")
        images, manifest = write_store(tmp_path, rows, "views4")
        expected_images, expected_manifest = np.array(images), manifest
        yielded = []

        def stream():
            for row in sorted(rows, key=lambda row: row[0]):
                yielded.append(row[0])
                yield row

        streamed = tmp_path / "streamed"
        streamed.mkdir()
        write_representation_file(
            streamed / "rasters.bin",
            streamed / "rasters.json",
            stream(),
            "views4",
            n_rotations=3,
            step=2.0,
            n_crowns=2,
        )
        assert yielded == ["a1", "b2"]
        manifest = read_manifest(streamed / "rasters.json")
        assert manifest == expected_manifest
        np.testing.assert_array_equal(
            bits(np.load(streamed / "rasters.bin")), bits(expected_images)
        )

    def test_crown_out_of_order_rejected(self, tmp_path):
        rows = self.make_rows("views4", ids=("b2", "a1"))
        with pytest.raises(ValueError, match="a1 follows b2.*sorted crown_id"):
            write_representation_file(
                tmp_path / "rasters.bin",
                tmp_path / "rasters.json",
                iter(rows),
                "views4",
                n_rotations=3,
                step=2.0,
                n_crowns=2,
            )

    def test_repeated_crown_rejected(self, tmp_path):
        """A crown stored twice could sit in a network's training set and
        its held-out set at once; ids must strictly increase."""
        rows = self.make_rows("views4", ids=("a1", "a1"))
        with pytest.raises(ValueError, match="a1 follows a1.*each once"):
            write_representation_file(
                tmp_path / "rasters.bin",
                tmp_path / "rasters.json",
                iter(rows),
                "views4",
                n_rotations=3,
                step=2.0,
                n_crowns=2,
            )

    def test_crown_count_mismatch_rejected(self, tmp_path):
        rows = self.make_rows("views4", ids=("a1", "b2"))
        with pytest.raises(ValueError, match="2 crowns written to a store of 3"):
            write_representation_file(
                tmp_path / "rasters.bin",
                tmp_path / "rasters.json",
                rows,
                "views4",
                n_rotations=3,
                step=2.0,
                n_crowns=3,
            )

    def test_truncation_is_a_view_of_the_mapped_store(self, tmp_path):
        images, manifest = write_store(tmp_path, self.make_rows("views4"), "views4")
        dataset = from_store(images, manifest)
        cut = truncate_augmentations(dataset, 2)
        assert np.shares_memory(cut.images, images)
        np.testing.assert_array_equal(cut.images, images[:, :2])

    @settings(max_examples=25, deadline=None)
    @given(
        crowns=crown_rows,
        n_rotations=st.integers(1, 4),
        kind=st.sampled_from(["views4", "dsm4"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_round_trip_property(self, crowns, n_rotations, kind, seed):
        rng = np.random.default_rng(seed)
        rows = [random_row(rng, *crown, kind, n_rotations) for crown in crowns]
        with tempfile.TemporaryDirectory() as directory:
            images, manifest = write_store(Path(directory), rows, kind, n_rotations)
            dataset = from_store(images, manifest)
            expected = sorted(rows, key=lambda row: row[0])
            assert [inst.crown_id for inst in dataset.instances] == [
                row[0] for row in expected
            ]
            for index, row in enumerate(expected):
                _, label, crown_class, density, crown_images, scalars = row
                np.testing.assert_array_equal(bits(images[index]), bits(crown_images))
                np.testing.assert_array_equal(bits(dataset.scalars[index]), bits(scalars))
                inst = dataset.instances[index]
                assert (inst.label, inst.original_label) == (label, label)
                assert inst.crown_class == crown_class
                assert inst.density == density
            del dataset, images
