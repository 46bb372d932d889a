"""Tests for the synthetic forest generator and its pipeline interop."""

import numpy as np
import pytest

from crownclass.ingest import LEAF_OFF, LEAF_ON, VEGETATION, crowns_from_points
from crownclass.register import register_crowns
from crownclass.synthforest import (
    SynthParams,
    generate_crown,
    generate_dataset,
    read_truth_file,
    write_truth_file,
)


def small_params(**overrides):
    base = dict(seed=11, n_conifer=4, n_deciduous=12)
    base.update(overrides)
    return SynthParams(**base)


class TestGenerateCrown:
    def test_full_retention_gives_equal_season_counts(self):
        params = small_params(conifer_retention=1.0)
        cloud = generate_crown("t0001", "conifer", (10.0, 10.0), params)
        on = int((cloud.season == LEAF_ON).sum())
        off = int((cloud.season == LEAF_OFF).sum())
        assert on == off

    def test_zero_retention_gives_no_leaf_off(self):
        params = small_params(deciduous_retention=0.0)
        cloud = generate_crown("t0001", "deciduous", (10.0, 10.0), params)
        assert int((cloud.season == LEAF_OFF).sum()) == 0
        assert int((cloud.season == LEAF_ON).sum()) > 0

    def test_fixed_seed_reproduces_cloud(self):
        params = small_params()
        a = generate_crown("t0002", "conifer", (25.0, 30.0), params)
        b = generate_crown("t0002", "conifer", (25.0, 30.0), params)
        for name in ("x", "y", "z", "intensity", "return_number", "scan_angle"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_apex_sits_at_crown_center(self):
        params = small_params()
        cloud = generate_crown("t0003", "deciduous", (42.0, 17.0), params)
        top = int(np.argmax(cloud.z))
        assert cloud.x[top] == 42.0
        assert cloud.y[top] == 17.0

    def test_unknown_species_rejected(self):
        with pytest.raises(ValueError, match="species"):
            generate_crown("t0004", "shrub", (0.0, 0.0), small_params())


class TestGenerateDataset:
    def test_exact_flip_count_and_truth_consistency(self):
        params = SynthParams(seed=7, label_noise=0.1)
        dataset = generate_dataset(params)
        flips = [r for r in dataset.truth if r.true_label != r.recorded_label]
        assert len(flips) == 40
        stems = {s.stem_id: s for s in dataset.stems}
        for i, row in enumerate(dataset.truth):
            assert stems[f"s{i + 1:04d}"].species_class == row.recorded_label

    def test_default_class_ratio(self):
        params = SynthParams(seed=3)
        assert params.n_conifer / (params.n_conifer + params.n_deciduous) == 0.08

    def test_season_count_ratio_separates_classes(self):
        dataset = generate_dataset(small_params(n_conifer=6, n_deciduous=18))
        veg = dataset.points.select(dataset.points.pclass == VEGETATION)
        ratios = {"conifer": [], "deciduous": []}
        for row in dataset.truth:
            mask = veg.crown_id == row.crown_id
            on = int((veg.season[mask] == LEAF_ON).sum())
            off = int((veg.season[mask] == LEAF_OFF).sum())
            ratios[row.true_label].append(off / on)
        assert max(ratios["deciduous"]) < min(ratios["conifer"])

    def test_dataset_is_pure_function_of_params(self):
        a = generate_dataset(small_params())
        b = generate_dataset(small_params())
        for name in ("x", "y", "z", "intensity", "season", "pclass"):
            np.testing.assert_array_equal(
                getattr(a.points, name), getattr(b.points, name)
            )
        assert a.stems == b.stems
        assert a.truth == b.truth

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError, match="retention"):
            SynthParams(seed=1, conifer_retention=1.5)
        with pytest.raises(ValueError, match="label_noise"):
            SynthParams(seed=1, label_noise=1.0)
        with pytest.raises(ValueError, match="dome_fraction"):
            SynthParams(seed=1, dome_fraction=2.0)
        with pytest.raises(ValueError, match="jitter_sigma"):
            SynthParams(seed=1, jitter_sigma=-1.0)


class TestPipelineInterop:
    def test_zero_jitter_registers_every_pair_at_full_score(self):
        params = small_params(jitter_sigma=0.0, stem_height_sigma=0.0)
        dataset = generate_dataset(params)
        crowns = crowns_from_points(dataset.points)
        assert len(crowns) == 16
        registrations = register_crowns(crowns, dataset.stems)
        assert len(registrations) == 16
        assert all(row.score == 100 for row in registrations)

    def test_registered_labels_match_recorded_labels(self):
        dataset = generate_dataset(small_params(seed=29))
        crowns = crowns_from_points(dataset.points)
        registrations = register_crowns(crowns, dataset.stems)
        recorded = {r.crown_id: r.recorded_label for r in dataset.truth}
        assert len(registrations) == len(crowns)
        for row in registrations:
            assert row.label == recorded[row.crown_id]


class TestTruthFile:
    def test_round_trip(self, tmp_path):
        dataset = generate_dataset(small_params(label_noise=0.25))
        path = tmp_path / "truth.csv"
        write_truth_file(path, dataset.truth)
        back = read_truth_file(path)
        assert back == dataset.truth

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(ValueError, match="header"):
            read_truth_file(path)
