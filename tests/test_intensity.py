"""Tests for intensity normalization: grid sampling, per-group OLS fits,
and residual renormalization."""

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from crownclass.ingest import CLOUD_DTYPES, GROUND, LEAF_OFF, LEAF_ON, VEGETATION, PointCloud
from crownclass.intensity import (
    IntensityModel,
    apply_residualization,
    fit_all_models,
    fit_intensity_model,
    read_models,
    sample_normalization_grid,
    write_models,
)
from crownclass.util import derive_seed


def make_cloud(
    x,
    y,
    intensity,
    range_m,
    scan_angle,
    season=LEAF_ON,
    return_number=1,
    pclass=VEGETATION,
):
    return PointCloud.from_columns(
        x=x,
        y=y,
        z=10.0,
        intensity=intensity,
        range_m=range_m,
        scan_angle=scan_angle,
        season=season,
        return_number=return_number,
        pclass=pclass,
    )


def reference_sample_normalization_grid(points, cell=10.0, seed=0):
    """The per-point loop that ``sample_normalization_grid`` replaced:
    cells in sorted (row, col) order, one ``rng.integers`` call per
    non-empty (cell, season) slot, leaf-on first."""
    veg = points.select(points.pclass == VEGETATION)
    if len(veg) == 0:
        return veg
    col = np.floor(veg.x / cell).astype(np.int64)
    row = np.floor(veg.y / cell).astype(np.int64)
    cells = {}
    for i in range(len(veg)):
        slot = cells.setdefault((int(row[i]), int(col[i])), {LEAF_ON: [], LEAF_OFF: []})
        slot[int(veg.season[i])].append(i)
    rng = np.random.default_rng(derive_seed(seed, "normalization-grid"))
    picked = []
    for key in sorted(cells):
        for season in (LEAF_ON, LEAF_OFF):
            candidates = cells[key][season]
            if candidates:
                picked.append(candidates[int(rng.integers(len(candidates)))])
    return veg.select(np.array(picked, dtype=np.int64))


def synthetic_fit_cloud(n=10000, seed=3, noise=1.0):
    """Intensity 200 - 20 ln(range) + 30 cos(angle) + N(0, noise)."""
    rng = np.random.default_rng(seed)
    range_m = rng.uniform(800.0, 1200.0, n)
    scan_angle = rng.uniform(-30.0, 30.0, n)
    intensity = np.rint(
        200.0
        - 20.0 * np.log(range_m)
        + 30.0 * np.cos(np.radians(scan_angle))
        + rng.normal(0.0, noise, n)
    ).astype(np.int64)
    return make_cloud(
        x=rng.uniform(0, 200, n),
        y=rng.uniform(0, 200, n),
        intensity=intensity,
        range_m=range_m,
        scan_angle=scan_angle,
    )


class TestSampleGrid:
    def test_one_sample_per_cell_and_season(self):
        cloud = make_cloud(
            x=[1, 2, 3, 4, 5],
            y=[1, 2, 3, 4, 5],
            intensity=100,
            range_m=1000.0,
            scan_angle=0.0,
        )
        samples = sample_normalization_grid(cloud, seed=1)
        assert len(samples) == 1

    def test_empty_input(self):
        assert len(sample_normalization_grid(PointCloud.empty(), seed=1)) == 0

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(0, 300),
        extent=st.sampled_from([0.5, 8.0, 40.0, 300.0]),
        cell=st.sampled_from([1.0, 2.5, 10.0]),
        seed=st.integers(0, 2**32),
        data_seed=st.integers(0, 2**32),
    )
    def test_draws_match_per_point_reference(self, n, extent, cell, seed, data_seed):
        """Bit-equal to the per-point loop: same points, same order, for
        slots of one to hundreds of candidates, ground mixed in."""
        rng = np.random.default_rng(data_seed)
        cloud = make_cloud(
            x=rng.uniform(-extent, extent, n),
            y=rng.uniform(-extent, extent, n),
            intensity=rng.integers(0, 256, n),
            range_m=rng.uniform(800.0, 1200.0, n),
            scan_angle=rng.uniform(-30.0, 30.0, n),
            season=rng.integers(0, 2, n),
            return_number=rng.integers(1, 4, n),
            pclass=rng.choice([GROUND, VEGETATION], n, p=[0.2, 0.8]),
        )
        got = sample_normalization_grid(cloud, cell=cell, seed=seed)
        want = reference_sample_normalization_grid(cloud, cell=cell, seed=seed)
        for name in CLOUD_DTYPES:
            got_column, want_column = getattr(got, name), getattr(want, name)
            if want_column is None:
                assert got_column is None
            else:
                assert got_column.dtype == want_column.dtype
                assert got_column.tobytes() == want_column.tobytes(), name

    def test_fixed_seed_is_deterministic(self):
        rng = np.random.default_rng(5)
        cloud = make_cloud(
            x=rng.uniform(0, 50, 200),
            y=rng.uniform(0, 50, 200),
            intensity=rng.integers(0, 256, 200),
            range_m=1000.0,
            scan_angle=0.0,
            season=rng.integers(0, 2, 200),
        )
        a = sample_normalization_grid(cloud, seed=42)
        b = sample_normalization_grid(cloud, seed=42)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.intensity, b.intensity)

    def test_ground_points_ineligible(self):
        cloud = make_cloud(
            x=[1, 2], y=[1, 2], intensity=100, range_m=1000.0, scan_angle=0.0,
            pclass=[GROUND, VEGETATION],
        )
        samples = sample_normalization_grid(cloud, seed=1)
        assert len(samples) == 1
        assert samples.pclass[0] == VEGETATION

    def test_at_most_one_per_cell_and_season(self):
        rng = np.random.default_rng(9)
        n = 500
        cloud = make_cloud(
            x=rng.uniform(0, 40, n),
            y=rng.uniform(0, 40, n),
            intensity=rng.integers(0, 256, n),
            range_m=1000.0,
            scan_angle=0.0,
            season=rng.integers(0, 2, n),
        )
        samples = sample_normalization_grid(cloud, seed=7)
        keys = list(
            zip(
                np.floor(samples.x / 10).astype(int),
                np.floor(samples.y / 10).astype(int),
                samples.season,
            )
        )
        assert len(keys) == len(set(keys))


class TestFitModel:
    def test_recovers_known_coefficients(self):
        cloud = synthetic_fit_cloud()
        model = fit_intensity_model(cloud, "on", 1)
        assert -21.0 <= model.beta1 <= -19.0
        assert 28.0 <= model.beta2 <= 32.0
        assert model.p1 < 1e-4
        assert model.p2 < 1e-4

    def test_direction_of_effects(self):
        """Intensity falls with range and rises with the angle cosine."""
        model = fit_intensity_model(synthetic_fit_cloud(seed=11), "on", 1)
        assert model.beta1 < 0
        assert model.beta2 > 0

    def test_constant_intensity(self):
        rng = np.random.default_rng(2)
        cloud = make_cloud(
            x=rng.uniform(0, 50, 50),
            y=rng.uniform(0, 50, 50),
            intensity=120,
            range_m=rng.uniform(800, 1200, 50),
            scan_angle=rng.uniform(-30, 30, 50),
        )
        model = fit_intensity_model(cloud, "on", 1)
        assert abs(model.beta1) <= 1e-9
        assert abs(model.beta2) <= 1e-9
        assert model.p1 > 0.99
        assert model.p2 > 0.99
        assert model.mean_intensity == 120.0

    def test_degenerate_regressors(self):
        cloud = make_cloud(
            x=np.arange(20.0),
            y=np.arange(20.0),
            intensity=np.arange(20) + 100,
            range_m=1000.0,
            scan_angle=0.0,
        )
        with pytest.raises(ValueError, match="degenerate regressors"):
            fit_intensity_model(cloud, "on", 1)

    def test_too_few_samples(self):
        cloud = synthetic_fit_cloud(n=5)
        with pytest.raises(ValueError, match="at least 10"):
            fit_intensity_model(cloud, "on", 1)

    def test_residuals_sum_to_zero(self):
        cloud = synthetic_fit_cloud(seed=17)
        model = fit_intensity_model(cloud, "on", 1)
        predicted = (
            model.beta0
            + model.beta1 * np.log(cloud.range_m)
            + model.beta2 * np.cos(np.radians(cloud.scan_angle))
        )
        residuals = cloud.intensity - predicted
        assert abs(residuals.sum()) < 1e-6 * len(cloud)


def constant_model(season, return_number, beta0, mean, p=1e-3):
    return IntensityModel(
        season=season,
        return_number=return_number,
        beta0=beta0,
        beta1=0.0,
        beta2=0.0,
        p1=p,
        p2=p,
        mean_intensity=mean,
        n=100,
    )


class TestApplyResidualization:
    def test_non_significant_group_passes_through(self):
        cloud = make_cloud(
            x=[1, 2], y=[1, 2], intensity=[10, 240], range_m=1000.0, scan_angle=0.0
        )
        models = {"on:1": constant_model("on", 1, beta0=0.0, mean=100.0, p=0.5)}
        out = apply_residualization(cloud, models)
        np.testing.assert_array_equal(out.intensity, cloud.intensity)

    def test_point_on_regression_surface(self):
        cloud = make_cloud(
            x=[1], y=[1], intensity=[100], range_m=1000.0, scan_angle=0.0
        )
        models = {"on:1": constant_model("on", 1, beta0=100.0, mean=137.4)}
        out = apply_residualization(cloud, models)
        assert out.intensity[0] == 137

    def test_clamps_to_255(self):
        cloud = make_cloud(
            x=[1], y=[1], intensity=[100], range_m=1000.0, scan_angle=0.0
        )
        models = {"on:1": constant_model("on", 1, beta0=-200.0, mean=200.0)}
        out = apply_residualization(cloud, models)
        assert out.intensity[0] == 255

    def test_clamps_to_0(self):
        cloud = make_cloud(
            x=[1], y=[1], intensity=[0], range_m=1000.0, scan_angle=0.0
        )
        models = {"on:1": constant_model("on", 1, beta0=300.0, mean=10.0)}
        out = apply_residualization(cloud, models)
        assert out.intensity[0] == 0

    def test_missing_model_is_an_error(self):
        cloud = make_cloud(
            x=[1], y=[1], intensity=[100], range_m=1000.0, scan_angle=0.0,
            season=LEAF_OFF,
        )
        with pytest.raises(ValueError, match="no intensity model for group off:1"):
            apply_residualization(cloud, {})

    def test_output_range_and_orthogonality(self):
        """After residualizing a significant group the new intensities are
        8-bit and uncorrelated with both regressors."""
        cloud = synthetic_fit_cloud(seed=29)
        model = fit_intensity_model(cloud, "on", 1)
        out = apply_residualization(cloud, {"on:1": model})
        assert out.intensity.min() >= 0
        assert out.intensity.max() <= 255
        log_range = np.log(out.range_m)
        cos_angle = np.cos(np.radians(out.scan_angle))
        rho_range = np.corrcoef(out.intensity, log_range)[0, 1]
        rho_angle = np.corrcoef(out.intensity, cos_angle)[0, 1]
        assert abs(rho_range) < 0.05
        assert abs(rho_angle) < 0.05


class TestModelIo:
    def test_json_round_trip(self, tmp_path):
        cloud = synthetic_fit_cloud(seed=31)
        model = fit_intensity_model(cloud, "on", 2)
        path = tmp_path / "models.json"
        write_models(path, {model.key: model})
        back = read_models(path)
        assert back.keys() == {"on:2"}
        assert back["on:2"] == model

    def test_fit_all_models_covers_groups(self):
        rng = np.random.default_rng(37)
        n = 20000
        season = rng.integers(0, 2, n)
        max_return = np.where(season == LEAF_OFF, 3, 4)
        return_number = rng.integers(1, max_return + 1)
        cloud = make_cloud(
            x=rng.uniform(0, 300, n),
            y=rng.uniform(0, 300, n),
            intensity=rng.integers(50, 200, n),
            range_m=rng.uniform(800, 1200, n),
            scan_angle=rng.uniform(-30, 30, n),
            season=season,
            return_number=return_number,
        )
        models = fit_all_models(cloud, seed=5)
        assert set(models) == {
            "off:1", "off:2", "off:3", "on:1", "on:2", "on:3", "on:4",
        }
        for model in models.values():
            assert model.n >= 10
