"""Tests for resampling, the mislabel t-test loop, ensemble classification,
and the sweep table machinery."""

import json
import math
import multiprocessing
import tracemalloc
from collections import Counter
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crownclass import ensemble
from crownclass.ensemble import (
    ClassAccuracy,
    ClassifyResult,
    EnsembleRun,
    FlipDecision,
    Instance,
    LabeledDataset,
    SweepSpec,
    TrainedNetwork,
    Training,
    accuracies_from_predictions,
    balanced_cyclic_sample,
    binarize_intensity,
    correct_mislabels,
    ensemble_classify,
    ensemble_predictions,
    flip_decision,
    mislabel_iteration,
    read_history,
    read_predictions,
    read_sweep_table,
    run_sweep,
    select_channels,
    student_t_cdf,
    train_ensemble,
    truncate_augmentations,
    write_history,
    write_predictions,
    write_sweep_table,
    CorrectionHistory,
    HistoryRow,
    InstancePrediction,
    SweepRow,
    holdout_probs,
    _pearson,
    _sample_rows,
    _sample_store,
    trained_on,
)
from crownclass.ingest import LEAF_OFF, LEAF_ON, VEGETATION, Apex, CrownCloud, PointCloud
from crownclass.rasterize import read_manifest
from crownclass import tinynet
from crownclass.tinynet import init_params, predict_probs
from crownclass.util import InputError, derive_seed

from test_rasterize import crown_dataset


# Reference values from numerically integrating the t density
# (30-digit quadrature), frozen.
T_CDF_TABLE = [
    (-1.0, 1, 0.25),
    (-1.812, 10, 0.050037631032923609),
    (-1.96, 1000, 0.025136592477874359),
    (0.0, 5, 0.5),
    (2.0, 5, 0.94903026058507082),
    (-2.5, 30, 0.0090578245340333471),
    (1.5, 100, 0.93161747093765557),
    (-4.0, 1, 0.077979130377369325),
    (3.0, 10, 0.99332817248871521),
    (-0.7, 3, 0.26716349915238183),
]


class TestStudentTCdf:
    def test_reference_table(self):
        for t, df, reference in T_CDF_TABLE:
            assert abs(student_t_cdf(t, df) - reference) < 1e-10

    def test_zero_is_half_for_any_df(self):
        for df in (1, 2, 10, 250):
            assert student_t_cdf(0.0, df) == 0.5

    def test_symmetry(self):
        rng = np.random.default_rng(40)
        for _ in range(200):
            t = float(rng.uniform(-8, 8))
            df = int(rng.integers(1, 200))
            total = student_t_cdf(t, df) + student_t_cdf(-t, df)
            assert abs(total - 1.0) < 1e-10

    def test_monotone_in_t(self):
        t = np.linspace(-6, 6, 121)
        values = student_t_cdf(t, 7)
        assert np.all(np.diff(values) >= 0)

    def test_invalid_df_rejected(self):
        with pytest.raises(ValueError, match="df"):
            student_t_cdf(1.0, 0)

    @settings(max_examples=300, deadline=None)
    @given(
        df=st.one_of(st.integers(1, 5000), st.floats(0.5, 50)),
        log_t=st.floats(-1, 3),
    )
    def test_matches_scipy_betainc(self, df, log_t):
        from scipy import special  # an oracle only; crownclass never loads scipy

        t = -(10.0**log_t)
        reference = 0.5 * special.betainc(df / 2, 0.5, df / (df + t * t))
        assert student_t_cdf(t, df) == pytest.approx(reference, rel=1e-11, abs=0)

    def test_near_zero_keeps_digits_that_1_minus_x_loses(self):
        # P(T <= -t) ~ 1/2 - t f(0) for tiny t, f the t density; x =
        # df / (df + t^2) rounds to 1 here, so betainc of x gives 1/2.
        t, df = 1e-8, 5000
        density = math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2)) / math.sqrt(df * math.pi)
        assert student_t_cdf(-t, df) == pytest.approx(0.5 - t * density, rel=1e-15)
        assert student_t_cdf(-t, df) < 0.5


def light_instance(cid, label):
    return Instance(cid, label, "dominant", label, 1.0)


def light_dataset(n_conifer, n_deciduous, aug=1):
    """Featherweight dataset for sampling logic; tensors never touched."""
    instances = [
        light_instance(f"c{i:03d}", "conifer") for i in range(n_conifer)
    ] + [light_instance(f"d{i:03d}", "deciduous") for i in range(n_deciduous)]
    n = len(instances)
    return LabeledDataset(
        "views",
        instances,
        np.zeros((n, aug, 1, 1, 1), dtype=np.float32),
        np.zeros((n, 1), dtype=np.float32),
    )


def blob_images(label, rng, aug, channels):
    """Trainable toy crown: class-specific bright block on 64x64."""
    images = np.zeros((aug, channels, 64, 64), dtype=np.float32)
    r0 = 6 if label == "conifer" else 38
    for a in range(aug):
        c0 = int(rng.integers(6, 46))
        images[a, :, r0 : r0 + 12, c0 : c0 + 12] = 0.8 + rng.uniform(-0.1, 0.1)
    return images


def blob_dataset(n_conifer, n_deciduous, seed=0, aug=2, channels=2, tag="views_reduced"):
    rng = np.random.default_rng(seed)
    ids = [(f"c{i:03d}", "conifer") for i in range(n_conifer)] + [
        (f"d{i:03d}", "deciduous") for i in range(n_deciduous)
    ]
    instances, images = [], []
    for cid, label in ids:
        images.append(blob_images(label, rng, aug, channels))
        density = float(rng.uniform(0.5, 4.0))
        instances.append(Instance(cid, label, "dominant", label, density))
    scalars = np.full((len(ids), 2), 0.5, dtype=np.float32)
    return LabeledDataset(tag, instances, np.stack(images), scalars)


class TestLabeledDataset:
    def test_row_count_mismatch_rejected(self):
        instances = [light_instance("a", "conifer"), light_instance("b", "deciduous")]
        images = np.zeros((3, 2, 1, 1, 1), dtype=np.float32)
        with pytest.raises(ValueError, match="rows"):
            LabeledDataset("views", instances, images, np.zeros((2, 1), np.float32))

    def test_unknown_label_rejected(self):
        images = np.zeros((1, 1, 1, 1, 1), dtype=np.float32)
        with pytest.raises(ValueError, match="label"):
            LabeledDataset(
                "views", [light_instance("a", "shrub")], images, np.zeros((1, 1))
            )

    def test_pools(self):
        dataset = light_dataset(2, 3)
        assert dataset.pool("conifer") == [0, 1]
        assert dataset.pool("deciduous") == [2, 3, 4]


def square_crown(crown_id="t0001"):
    """Small deterministic crown for representation-path tests."""
    offsets = [(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0), (0.0, 0.0)]
    rows = []
    for season in (LEAF_ON, LEAF_OFF):
        for i, (dx, dy) in enumerate(offsets):
            z = 18.0 if (dx, dy) == (0.0, 0.0) else 14.0 + i
            rows.append((10.0 + dx, 10.0 + dy, z, 100 + 10 * i, season))
    x, y, z, intensity, season = zip(*rows)
    points = PointCloud.from_columns(
        x=x,
        y=y,
        z=z,
        intensity=intensity,
        return_number=1,
        scan_angle=0.0,
        range_m=800.0,
        season=season,
        pclass=VEGETATION,
        crown_id=crown_id,
    )
    return CrownCloud(
        crown_id=crown_id,
        points=points,
        apex=Apex(10.0, 10.0, 18.0),
        tree_height=18.0,
        width=2.5,
        area=4.0,
    )


class TestFromRepresentations:
    def build(self, kind):
        labeled = [(square_crown(), "conifer", "codominant")]
        return crown_dataset(labeled, kind, n=3, step=120.0)

    def test_views_tensors_and_scalars(self):
        dataset = self.build("views4")
        assert dataset.tag == "views"
        inst = dataset.instances[0]
        assert dataset.images.shape == (1, 3, 4, 64, 64)
        assert dataset.scalars.shape == (1, 2)
        np.testing.assert_allclose(dataset.scalars[0], [2.5 / 20.0, 18.0 / 50.0])
        assert inst.label == "conifer"
        assert inst.original_label == "conifer"
        assert inst.crown_class == "codominant"

    def test_dsm_tensors_and_scalars(self):
        dataset = self.build("dsm4")
        assert dataset.tag == "dsm"
        assert dataset.images.shape == (1, 3, 4, 128, 128)
        np.testing.assert_allclose(dataset.scalars, np.full((1, 1), 4.0 / 300.0))

    def test_unscaled_rejected(self, tmp_path):
        manifest = tmp_path / "rasters.json"
        manifest.write_text(
            json.dumps(
                {
                    "kind": "views4",
                    "n_rotations": 3,
                    "step": 120.0,
                    "scaled": False,
                    "crown_id": ["c1"],
                    "label": ["conifer"],
                    "crown_class": ["codominant"],
                    "density": [1.0],
                    "scalars": [[0.125, 0.36]],
                }
            )
        )
        with pytest.raises(InputError, match="rasters.json: its rasters are not scaled"):
            read_manifest(manifest)

    def test_missing_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            self.build("pointcloud")


def signed_zero_images(n, aug, channels, hw, seed):
    """Images of +0, -0, negative and positive values, a quarter each."""
    rng = np.random.default_rng(seed)
    values = np.array([0.0, -0.0, -0.5, 0.75], dtype=np.float32)
    return values[rng.integers(0, 4, size=(n, aug, channels, hw, hw))]


class TestDatasetTransforms:
    def test_select_channels_keeps_leaf_on_pair(self):
        dataset = blob_dataset(2, 2, channels=4, tag="views")
        reduced = select_channels(dataset, ensemble.LEAF_ON_CHANNELS)
        assert reduced.tag == "views_reduced"
        np.testing.assert_array_equal(
            reduced.images, dataset.images[:, :, [0, 2]]
        )

    @pytest.mark.parametrize(
        "name, channels", [("no-leaf-off", [0, 2]), ("no-leaf-on", [1, 3])]
    )
    def test_season_ablations_are_views_of_the_store(self, name, channels):
        dataset = blob_dataset(2, 2, seed=3, channels=4, tag="views")
        dataset.images[:] = signed_zero_images(4, 2, 4, 64, seed=3)
        reduced = ensemble.ablate(dataset, name)
        assert np.shares_memory(reduced.images, dataset.images)
        assert reduced.images.tobytes() == dataset.images[:, :, channels].tobytes()
        assert reduced.scalars is dataset.scalars

    def test_select_channels_needs_views(self):
        dataset = blob_dataset(1, 1, channels=4, tag="dsm")
        with pytest.raises(ValueError, match="views"):
            select_channels(dataset, ensemble.LEAF_ON_CHANNELS)

    @pytest.mark.parametrize("tag, channels, hw", [("views", 4, 64), ("dsm", 4, 128)])
    def test_binarize_matches_greater_than_zero(self, tag, channels, hw):
        images = signed_zero_images(3, 2, channels, hw, seed=4)
        before = images.copy()
        instances = [light_instance(f"c{i}", "conifer") for i in range(3)]
        dataset = LabeledDataset(tag, instances, images, np.zeros((3, 1), np.float32))
        if tag == "views":
            reference = (images > 0).astype(np.float32)
        else:
            reference = np.array(images)
            reference[:, :, [1, 3]] = reference[:, :, [1, 3]] > 0
        binary = binarize_intensity(dataset)
        assert binary.images.dtype == np.float32
        assert binary.images.tobytes() == reference.tobytes()
        assert images.tobytes() == before.tobytes()  # the store is untouched

    def test_binarize_views_makes_masks(self):
        dataset = blob_dataset(2, 2, channels=4, tag="views")
        binary = binarize_intensity(dataset)
        values = np.unique(binary.images)
        assert set(values.tolist()) <= {0.0, 1.0}

    def test_binarize_dsm_keeps_heights(self):
        dataset = blob_dataset(1, 1, channels=4, tag="dsm")
        binary = binarize_intensity(dataset)
        original = dataset.images
        transformed = binary.images
        np.testing.assert_array_equal(transformed[:, :, 0], original[:, :, 0])
        np.testing.assert_array_equal(transformed[:, :, 2], original[:, :, 2])
        assert set(np.unique(transformed[:, :, 1]).tolist()) <= {0.0, 1.0}
        assert set(np.unique(transformed[:, :, 3]).tolist()) <= {0.0, 1.0}

    def test_truncate_augmentations(self):
        dataset = blob_dataset(2, 2, aug=3)
        cut = truncate_augmentations(dataset, 2)
        assert cut.augmentations == 2
        np.testing.assert_array_equal(cut.images, dataset.images[:, :2])
        with pytest.raises(ValueError, match="augmentation count"):
            truncate_augmentations(dataset, 4)


def reference_training_tensors(dataset, membership):
    """One copy of the members' samples, membership-major and
    rotation-minor, with their scalars and one-hot labels."""
    aug = dataset.augmentations
    images = np.concatenate([dataset.images[i] for i in membership])
    scalars = np.repeat(dataset.scalars[membership], aug, axis=0)
    classes = [ensemble.CLASS_INDEX[dataset.instances[i].label] for i in membership]
    onehots = np.eye(2, dtype=np.float32)[np.repeat(classes, aug)]
    return images, scalars, onehots


def store_samples(dataset, rows):
    """Images, scalars and one-hot labels at store rows, gathered by
    fancy indexing."""
    index = np.unravel_index(rows, (len(dataset), dataset.augmentations))
    scalars, onehots = _sample_store(dataset)
    return dataset.images[index], scalars[index], onehots[index]


class TestTrainingTensors:
    def test_membership_major_rotation_minor(self):
        dataset = blob_dataset(2, 2, seed=19, aug=3)
        dataset.scalars[:] = np.arange(8).reshape(4, 2)
        membership = [2, 0, 2, 3]
        rows = _sample_rows(dataset, membership)
        np.testing.assert_array_equal(rows, [6, 7, 8, 0, 1, 2, 6, 7, 8, 9, 10, 11])
        images, scalars, onehots = store_samples(dataset, rows)
        np.testing.assert_array_equal(
            images, np.concatenate([dataset.images[i] for i in membership])
        )
        np.testing.assert_array_equal(
            scalars, np.repeat(dataset.scalars[membership], 3, axis=0)
        )
        expected = [[0, 1]] * 3 + [[1, 0]] * 3 + [[0, 1]] * 6
        np.testing.assert_array_equal(onehots, np.array(expected, dtype=np.float32))
        # the scalars beside the store are a view, not a copy per rotation
        assert np.shares_memory(_sample_store(dataset)[0], dataset.scalars)


class TestBalancedCyclicSample:
    def test_each_membership_is_exactly_balanced(self):
        dataset = light_dataset(8, 24)
        memberships = balanced_cyclic_sample(dataset, 4, 10, seed=5)
        assert len(memberships) == 10
        for membership in memberships:
            labels = [dataset.instances[i].label for i in membership]
            assert labels.count("conifer") == 4
            assert labels.count("deciduous") == 4

    def test_cyclic_participation_counting(self):
        # 100 nets x 80 draws from a 214-instance pool: 8000 = 37*214 + 82,
        # so 82 instances participate 38 times and 132 exactly 37.
        dataset = light_dataset(214, 20)
        memberships = balanced_cyclic_sample(dataset, 80, 100, seed=6)
        counts = Counter()
        for membership in memberships:
            for i in membership:
                if dataset.instances[i].label == "conifer":
                    counts[i] += 1
        values = Counter(counts.values())
        assert values == {38: 82, 37: 132}

    def test_draw_spanning_pool_boundary_duplicates_within_membership(self):
        dataset = light_dataset(5, 5)
        memberships = balanced_cyclic_sample(dataset, 8, 10, seed=7)
        for membership in memberships:
            conifers = [i for i in membership if dataset.instances[i].label == "conifer"]
            assert len(conifers) == 8
            # 8 draws from a 5-instance pool must repeat instances.
            assert len(set(conifers)) < len(conifers)
        counts = Counter(i for m in memberships for i in m)
        assert set(counts.values()) == {16}  # 10 nets x 8 = 16 full cycles

    def test_per_class_equal_to_pool_uses_whole_pool(self):
        dataset = light_dataset(4, 6)
        memberships = balanced_cyclic_sample(dataset, 4, 3, seed=8)
        for membership in memberships:
            conifers = {i for i in membership if dataset.instances[i].label == "conifer"}
            assert conifers == {0, 1, 2, 3}

    def test_fixed_seed_reproduces(self):
        dataset = light_dataset(6, 9)
        a = balanced_cyclic_sample(dataset, 3, 5, seed=9)
        b = balanced_cyclic_sample(dataset, 3, 5, seed=9)
        assert a == b

    def test_empty_pool_rejected(self):
        dataset = light_dataset(0, 5)
        with pytest.raises(ValueError, match="conifer"):
            balanced_cyclic_sample(dataset, 2, 2, seed=1)
        with pytest.raises(ValueError, match="per_class"):
            balanced_cyclic_sample(light_dataset(2, 2), 0, 2, seed=1)


class TestTrainEnsemble:
    def test_run_records_memberships_and_accuracies(self):
        dataset = blob_dataset(4, 4, seed=1)
        training = Training(n_networks=3, per_class=2, epochs=1, seed=11)
        run = train_ensemble(dataset, training)
        assert len(run.networks) == 3
        for net in run.networks:
            assert net.params.tag == "views_reduced"
            assert 0.0 <= net.acc_n <= 1.0
            assert len(net.membership) == 4

    @settings(max_examples=6, deadline=None)
    @given(
        aug=st.integers(1, 4),
        extra=st.integers(0, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_train_as_the_copied_membership(self, aug, extra, seed):
        # extra > 0: the dataset is the first rotations of a larger
        # store, a strided view as truncate_augmentations makes.
        dataset = truncate_augmentations(blob_dataset(3, 3, seed % 100, aug + extra), aug)
        memberships = []

        def checking_train(params, images, scalars, onehots, epochs, rows, **kwargs):
            assert images is dataset.images  # the store itself, no copy
            # membership-major and rotation-minor
            membership = list(rows[::aug] // aug)
            np.testing.assert_array_equal(rows, _sample_rows(dataset, membership))
            trained = tinynet.train_network(
                params, images, scalars, onehots, epochs, rows=rows, **kwargs
            )
            reference = tinynet.train_network(
                params, *reference_training_tensors(dataset, membership), epochs, **kwargs
            )
            assert trained[0].flat.tobytes() == reference[0].flat.tobytes()
            assert trained[1] == reference[1]
            memberships.append(membership)
            return trained

        training = Training(2, 2, 1, seed=seed, batch_size=5, threads=1)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ensemble, "train_network", checking_train)
            run = train_ensemble(dataset, training)
        for net in run.networks:
            assert list(net.membership) in memberships

    def test_worker_peak_does_not_grow_with_rotations(self):
        # The task a worker runs, here in this process: its traced
        # allocations must hold no copy of its members' samples.
        base = blob_dataset(4, 4, seed=2, aug=32)
        sample_bytes = base.images[0, 0].nbytes  # 32 KB
        peaks = {}
        for aug in (4, 32):
            # 8 members x 4 rotations fill one batch and one prediction chunk.
            dataset = truncate_augmentations(base, aug)
            training = Training(n_networks=1, per_class=4, epochs=1, seed=3, threads=1)
            tracemalloc.start()
            try:
                train_ensemble(dataset, training)
                peaks[aug] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # A copy of the members' samples would add 7 MB at 32 rotations.
        assert peaks[32] < peaks[4] + sample_bytes, peaks

    def test_same_seed_bit_identical(self):
        dataset = blob_dataset(4, 4, seed=1)
        runs = [
            train_ensemble(dataset, Training(2, 2, 1, seed=12, threads=threads))
            for threads in (1, 4)
        ]
        for a, b in zip(runs[0].networks, runs[1].networks):
            assert a.membership == b.membership
            assert a.acc_n == b.acc_n
            for name in a.params.tensors:
                np.testing.assert_array_equal(
                    a.params.tensors[name], b.params.tensors[name]
                )


class TestFlipDecision:
    def test_all_positive_identical_never_flips(self):
        decision = flip_decision("x", [0.3, 0.3, 0.3], alpha=1e-8)
        assert not decision.flipped
        assert decision.p_value == 1.0

    def test_all_negative_identical_flips_with_zero_p(self):
        decision = flip_decision("x", [-0.2, -0.2, -0.2], alpha=1e-8)
        assert decision.flipped
        assert decision.p_value == 0.0
        assert decision.t_statistic == float("-inf")

    def test_zero_valued_identical_never_flips(self):
        decision = flip_decision("x", [0.0, 0.0, 0.0], alpha=1e-8)
        assert not decision.flipped

    def test_consistent_negative_noisy_flips(self):
        rng = np.random.default_rng(14)
        d = (-0.5 + rng.normal(0.0, 0.02, size=15)).tolist()
        decision = flip_decision("x", d, alpha=1e-8)
        assert decision.flipped
        assert decision.t_statistic < 0

    def test_correctly_labeled_instance_under_strong_ensemble(self):
        # acc_ni near 0.8 against 1 - acc_n near 0.25: d stays positive.
        rng = np.random.default_rng(15)
        d = (0.55 + rng.normal(0.0, 0.05, size=20)).tolist()
        decision = flip_decision("x", d, alpha=1e-8)
        assert not decision.flipped

    def test_p_matches_hand_computed_t(self):
        d = [-0.4, -0.3, -0.5, -0.45, -0.35]
        decision = flip_decision("x", d, alpha=1e-8)
        mean = np.mean(d)
        sd = np.std(d, ddof=1)
        t = mean / (sd / math.sqrt(5))
        assert decision.t_statistic == pytest.approx(t, rel=1e-12)
        assert decision.p_value == pytest.approx(student_t_cdf(t, 4), rel=1e-12)


class TestMislabelIteration:
    def test_instances_without_two_holdouts_are_skipped(self, caplog):
        dataset = blob_dataset(2, 2, seed=3)
        run = train_ensemble(dataset, Training(2, 2, 1, seed=16))
        # per_class == pool: every net trained on every instance.
        with caplog.at_level("WARNING"):
            decisions = mislabel_iteration(run, dataset, alpha=1e-8)
        assert all(not d.flipped for d in decisions)
        assert all(math.isnan(d.p_value) for d in decisions)
        assert "held out" in caplog.text

    def test_pure_function_of_run_and_dataset(self):
        dataset = blob_dataset(4, 4, seed=4)
        run = train_ensemble(dataset, Training(4, 2, 1, seed=17))
        first = mislabel_iteration(run, dataset, alpha=1e-8)
        labels_after = [inst.label for inst in dataset.instances]
        second = mislabel_iteration(run, dataset, alpha=1e-8)
        assert labels_after == [inst.label for inst in dataset.instances]
        assert [d.flipped for d in first] == [d.flipped for d in second]
        for a, b in zip(first, second):
            assert a.d_values == b.d_values


class TestCorrectMislabels:
    def test_clean_separable_data_converges_immediately(self):
        dataset = blob_dataset(6, 6, seed=5, aug=2)
        training = Training(n_networks=6, per_class=4, epochs=3, seed=18)
        dataset, history = correct_mislabels(
            dataset, training, alpha=1e-8, max_iterations=5
        )
        assert history.converged
        assert len(history.rows) == 1
        assert history.rows[0].flips_to_conifer == 0
        assert history.rows[0].flips_to_deciduous == 0
        assert all(inst.label == inst.original_label for inst in dataset.instances)

    def test_non_convergence_returns_state_with_flag(self):
        dataset = blob_dataset(3, 3, seed=6)
        # alpha > 1 forces every tested instance to flip every iteration.
        training = Training(n_networks=4, per_class=2, epochs=1, seed=19)
        dataset, history = correct_mislabels(
            dataset, training, alpha=1.1, max_iterations=2
        )
        assert not history.converged
        assert len(history.rows) == 2
        assert history.rows[0].flips_to_conifer > 0

    def test_worker_count_changes_no_label_or_history(self):
        # alpha > 1 flips every tested crown in every iteration, so each
        # iteration's workers must train on the labels the last one set.
        histories = []
        for threads in (1, 2):
            dataset = blob_dataset(4, 4, seed=9)
            training = Training(n_networks=4, per_class=2, epochs=1, seed=23, threads=threads)
            dataset, history = correct_mislabels(
                dataset, training, alpha=1.1, max_iterations=3
            )
            labels = [inst.label for inst in dataset.instances]
            histories.append((labels, [astuple(row) for row in history.rows]))
        assert histories[0] == histories[1]
        labels, rows = histories[0]
        assert len(rows) == 3 and all(row[1] + row[2] > 0 for row in rows)
        assert multiprocessing.active_children() == []

    def test_mean_accuracy_trend_on_separable_data(self):
        dataset = blob_dataset(8, 8, seed=7, aug=2)
        # Two injected mislabels.
        dataset.instances[0].label = "deciduous"
        dataset.instances[8].label = "conifer"
        training = Training(n_networks=8, per_class=5, epochs=2, seed=20)
        dataset, history = correct_mislabels(
            dataset, training, alpha=1e-8, max_iterations=4
        )
        accs = [row.mean_acc for row in history.rows]
        for earlier, later in zip(accs, accs[1:]):
            assert later >= earlier - 0.02

    def test_each_iteration_trains_under_its_derived_seed(self, monkeypatch):
        dataset = blob_dataset(2, 2, seed=8)
        trained = []

        def fake_train(dataset, training):
            trained.append(training)
            return EnsembleRun([TrainedNetwork(None, 0.9, ())])

        def fake_iteration(run, dataset, alpha, threads):
            # Flip the first crown in the first iteration only.
            flip = len(trained) == 1
            return [FlipDecision(dataset.instances[0].crown_id, [], 0.0, 0.0, flip)]

        monkeypatch.setattr(ensemble, "train_ensemble", fake_train)
        monkeypatch.setattr(ensemble, "mislabel_iteration", fake_iteration)
        training = Training(3, 2, 1, seed=21, lr=0.5, batch_size=7, threads=1)
        _, history = correct_mislabels(dataset, training, alpha=1e-8, max_iterations=5)
        assert history.converged and len(history.rows) == 2
        assert trained == [
            Training(3, 2, 1, derive_seed(21, "correction", i), 0.5, 7, 1)
            for i in (1, 2)
        ]


def identical_network_run(dataset, seed=21):
    params = init_params(dataset.tag, seed=seed)
    networks = [TrainedNetwork(params, 0.9, tuple()) for _ in range(3)]
    return EnsembleRun(networks)


def reference_instance_probs(run, dataset):
    """Every network forwards every crown, training crowns included."""
    n, aug = dataset.images.shape[:2]
    images = dataset.images.reshape(n * aug, *dataset.images.shape[2:])
    scalars = np.repeat(dataset.scalars, aug, axis=0)
    return [
        predict_probs(net.params, images, scalars).reshape(n, aug, 2)
        for net in run.networks
    ]


@st.composite
def membership_runs(draw):
    """A small dsm or views dataset whose scalars carry the crown index,
    and a run of random memberships over it."""
    tag = draw(st.sampled_from(["views_reduced", "dsm"]))
    n = draw(st.integers(1, 6))
    aug = draw(st.integers(1, 3))
    # extra > 0: the images are the first rotations of a larger store, a
    # strided view as truncate_augmentations makes.
    extra = draw(st.integers(0, 2))
    seed = draw(st.integers(0, 2**32 - 1))
    memberships = draw(
        st.lists(
            st.lists(st.integers(0, n - 1), max_size=n, unique=True),
            min_size=1,
            max_size=4,
        )
    )
    rng = np.random.default_rng(seed)
    channels, hw = (2, 64) if tag == "views_reduced" else (4, 128)
    images = rng.uniform(0.0, 1.0, size=(n, aug + extra, channels, hw, hw)).astype(np.float32)
    images[images < 0.6] = 0.0
    images = images[:, :aug]
    scalar_dim = 2 if tag == "views_reduced" else 1
    scalars = np.repeat(np.arange(n, dtype=np.float32)[:, None], scalar_dim, axis=1)
    instances = [light_instance(f"t{i}", "conifer") for i in range(n)]
    dataset = LabeledDataset(tag, instances, images, scalars)
    networks = [
        TrainedNetwork(init_params(tag, seed=seed % 1000 + k), 0.9, tuple(m))
        for k, m in enumerate(memberships)
    ]
    return EnsembleRun(networks), dataset


def checked_holdout_probs(run, dataset):
    """holdout_probs on one worker, checking that each network makes one
    predict_probs call on the store itself, for the rows of its held-out
    crowns, crown-major and rotation-minor."""
    aug = dataset.augmentations
    calls = {}

    def recording_predict(params, images, scalars, rows):
        assert images is dataset.images  # the store itself, no copy
        calls[id(params)] = rows
        return predict_probs(params, images, scalars, rows=rows)

    # One worker, so the calls are made, and recorded, in this process.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ensemble, "predict_probs", recording_predict)
        probs, held = holdout_probs(run, dataset, threads=1)
    assert len(calls) == len(run.networks)
    for j, net in enumerate(run.networks):
        rows = calls[id(net.params)]
        # crown-major, rotation-minor, and never a training crown
        np.testing.assert_array_equal(rows // aug, np.repeat(np.flatnonzero(held[j]), aug))
        np.testing.assert_array_equal(rows % aug, np.tile(np.arange(aug), held[j].sum()))
    return probs, held


class TestHeldOutPrediction:
    @settings(max_examples=25, deadline=None)
    @given(case=membership_runs())
    def test_matches_full_forward_on_held_out_pairs_only(self, case):
        run, dataset = case
        n, aug = dataset.images.shape[:2]
        probs, held = checked_holdout_probs(run, dataset)
        np.testing.assert_array_equal(held, ~trained_on(run, n))
        assert probs.shape == (len(run.networks), n, aug, 2)
        assert probs.dtype == run.networks[0].params.dtype
        reference = reference_instance_probs(run, dataset)
        for j in range(len(run.networks)):
            np.testing.assert_array_equal(probs[j, held[j]], reference[j][held[j]])
            assert np.isnan(probs[j, ~held[j]]).all()

    @pytest.mark.parametrize(
        "crowns, aug, stored, trained",
        # 257 and 513 held-out rows: a one-row tail past 256, from a
        # truncated (strided) store and from a whole one.
        [(3, 257, 258, (0, 1)), (4, 171, 171, (0,))],
    )
    def test_one_row_tail_past_256_rows(self, crowns, aug, stored, trained):
        rng = np.random.default_rng(aug)
        images = rng.uniform(0.0, 1.0, size=(crowns, stored, 2, 64, 64)).astype(np.float32)
        instances = [light_instance(f"t{i}", "conifer") for i in range(crowns)]
        scalars = rng.uniform(0.1, 1.0, size=(crowns, 2)).astype(np.float32)
        dataset = LabeledDataset("views_reduced", instances, images[:, :aug], scalars)
        run = EnsembleRun([TrainedNetwork(init_params(dataset.tag, seed=aug), 0.9, trained)])
        probs, held = checked_holdout_probs(run, dataset)
        assert held.sum() * aug in (257, 513)
        reference = reference_instance_probs(run, dataset)[0]
        np.testing.assert_array_equal(probs[0, held[0]], reference[held[0]])

    def test_network_trained_on_every_crown_has_a_nan_row(self):
        dataset = blob_dataset(2, 2, seed=12, aug=2)
        run = EnsembleRun(
            [
                TrainedNetwork(init_params(dataset.tag, seed=26), 0.9, (0, 1, 2, 3)),
                TrainedNetwork(init_params(dataset.tag, seed=27), 0.9, (1, 2)),
            ]
        )
        probs, held = checked_holdout_probs(run, dataset)
        assert not held[0].any()
        assert np.isnan(probs[0]).all()
        reference = reference_instance_probs(run, dataset)
        np.testing.assert_array_equal(probs[1, [0, 3]], reference[1][[0, 3]])

    @settings(max_examples=50, deadline=None)
    @given(case=membership_runs())
    def test_membership_matrix_agrees_with_held(self, case):
        run, dataset = case
        trained = trained_on(run, len(dataset))
        assert trained.shape == (len(run.networks), len(dataset))
        for j, net in enumerate(run.networks):
            for i in range(len(dataset)):
                assert trained[j, i] == (i in net.held)

    def test_threads_filling_one_table_match_one_thread(self):
        # More workers than cores: the rows each worker returns must
        # land in its own network's row of the table.
        dataset = blob_dataset(5, 5, seed=14, aug=3)
        run = EnsembleRun(
            [
                TrainedNetwork(init_params(dataset.tag, seed=k), 0.9, (k, k + 1, 9 - k))
                for k in range(8)
            ]
        )
        serial, _ = holdout_probs(run, dataset, threads=1)
        pooled, _ = holdout_probs(run, dataset, threads=8)
        assert pooled.tobytes() == serial.tobytes()
        assert multiprocessing.active_children() == []

    def test_one_crown_one_rotation_held_out(self):
        dataset = blob_dataset(2, 1, seed=13, aug=1)
        params = init_params(dataset.tag, seed=25)
        run = EnsembleRun(
            [TrainedNetwork(params, 0.9, (0, 2)), TrainedNetwork(params, 0.9, (1, 2))]
        )
        probs, held = holdout_probs(run, dataset)
        np.testing.assert_array_equal(held, [[False, True, False], [True, False, False]])
        reference = reference_instance_probs(run, dataset)
        np.testing.assert_array_equal(probs[0, 1], reference[0][1])
        np.testing.assert_array_equal(probs[1, 0], reference[1][0])
        assert np.isnan(probs[0, [0, 2]]).all() and np.isnan(probs[1, [1, 2]]).all()


def reference_mislabel_iteration(run, dataset, alpha):
    """Reference for mislabel_iteration: a loop over crowns and their
    held-out networks, on full-forward probabilities."""
    trained = trained_on(run, len(dataset))
    probs = reference_instance_probs(run, dataset)
    decisions = []
    for i, inst in enumerate(dataset.instances):
        label_index = ensemble.CLASS_INDEX[inst.label]
        d_values = []
        for j in np.flatnonzero(~trained[:, i]):
            acc_ni = float(np.mean(np.argmax(probs[j][i], axis=1) == label_index))
            d_values.append(acc_ni - (1.0 - run.networks[j].acc_n))
        if len(d_values) < 2:
            decisions.append(
                FlipDecision(inst.crown_id, d_values, float("nan"), float("nan"), False)
            )
            continue
        decisions.append(flip_decision(inst.crown_id, d_values, alpha))
    return decisions


def reference_ensemble_predictions(run, dataset):
    """Reference for ensemble_predictions: per crown, a stack of its
    held-out networks' rows, on full-forward probabilities."""
    trained = trained_on(run, len(dataset))
    probs = reference_instance_probs(run, dataset)
    predictions = []
    for i, inst in enumerate(dataset.instances):
        holdout = [probs[j][i] for j in np.flatnonzero(~trained[:, i])]
        if not holdout:
            predictions.append(
                InstancePrediction(inst.crown_id, inst.label, "", float("nan"), 0)
            )
            continue
        mean_probs = np.stack(holdout).mean(axis=(0, 1))
        predictions.append(
            InstancePrediction(
                inst.crown_id,
                inst.label,
                ensemble.INDEX_CLASS[int(np.argmax(mean_probs))],
                float(mean_probs[0]),
                len(holdout),
            )
        )
    return predictions


class TestHeldOutTableConsumers:
    @settings(max_examples=25, deadline=None)
    @given(
        case=membership_runs(),
        labels=st.lists(st.sampled_from(["conifer", "deciduous"]), min_size=6, max_size=6),
        acc_n=st.lists(st.floats(0.5, 1.0), min_size=4, max_size=4),
        alpha=st.sampled_from([1e-8, 0.3, 0.9]),
    )
    def test_equal_to_per_crown_loops(self, case, labels, acc_n, alpha):
        run, dataset = case
        for inst, label in zip(dataset.instances, labels):
            inst.label = label
        for net, acc in zip(run.networks, acc_n):
            net.acc_n = acc
        decisions = mislabel_iteration(run, dataset, alpha, threads=2)
        # assert_equal: nan equals nan, and zeros must agree in sign
        np.testing.assert_equal(
            [astuple(d) for d in decisions],
            [astuple(d) for d in reference_mislabel_iteration(run, dataset, alpha)],
        )
        for decision in decisions:
            assert all(type(v) is float for v in decision.d_values)
        predictions = ensemble_predictions(run, dataset, threads=2)
        np.testing.assert_equal(
            [astuple(p) for p in predictions],
            [astuple(p) for p in reference_ensemble_predictions(run, dataset)],
        )


class TestEnsemblePredictions:
    def test_identical_networks_match_single_network_decision(self):
        dataset = blob_dataset(3, 3, seed=8)
        run = identical_network_run(dataset)
        predictions = ensemble_predictions(run, dataset)
        params = run.networks[0].params
        for i, pred in enumerate(predictions):
            scalars = np.repeat(dataset.scalars[i : i + 1], dataset.augmentations, axis=0)
            probs = predict_probs(params, dataset.images[i], scalars).mean(axis=0)
            expected = "conifer" if int(np.argmax(probs)) == 0 else "deciduous"
            assert pred.predicted == expected
            assert pred.p_conifer == pytest.approx(float(probs[0]), abs=1e-7)
            assert pred.held_out_by == 3

    def test_holdout_discipline_and_exclusion(self, caplog):
        dataset = blob_dataset(2, 2, seed=9)
        params = init_params(dataset.tag, seed=22)
        networks = [
            TrainedNetwork(params, 0.9, (0, 1, 2, 3)),  # trained on everything
            TrainedNetwork(params, 0.9, (0, 2)),
            TrainedNetwork(params, 0.9, (0, 3)),
        ]
        run = EnsembleRun(networks)
        predictions = ensemble_predictions(run, dataset)
        assert predictions[0].held_out_by == 0
        assert predictions[0].predicted == ""
        assert predictions[1].held_out_by == 2
        assert predictions[2].held_out_by == 1
        assert predictions[3].held_out_by == 1
        with caplog.at_level("INFO"):
            accuracies = accuracies_from_predictions(predictions)
        assert accuracies["conifer"].n == 1
        assert "excluded" in caplog.text

    def test_interval_matches_binomial_formula(self):
        dataset = blob_dataset(4, 4, seed=10)
        result = ensemble_classify(
            dataset, Training(n_networks=4, per_class=2, epochs=1, seed=23)
        )
        for accuracy in result.accuracies.values():
            if accuracy.n == 0:
                continue
            expected = 1.96 * math.sqrt(
                accuracy.accuracy * (1 - accuracy.accuracy) / accuracy.n
            )
            assert accuracy.ci_half_width == pytest.approx(expected, rel=1e-12)

    def test_classify_deterministic(self):
        dataset = blob_dataset(4, 4, seed=11)
        a = ensemble_classify(dataset, Training(3, 2, 1, seed=24))
        b = ensemble_classify(dataset, Training(3, 2, 1, seed=24))
        assert [(p.crown_id, p.predicted, p.p_conifer) for p in a.predictions] == [
            (p.crown_id, p.predicted, p.p_conifer) for p in b.predictions
        ]


@st.composite
def store_selections(draw):
    """A views dataset of random images and a variant of it that selects
    from its store (season channels, or a subset of its crowns), with the
    same variant built as a copy."""
    n_conifer, n_deciduous = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    aug = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    dataset = blob_dataset(n_conifer, n_deciduous, seed % 100, aug, channels=4, tag="views")
    dataset.images[:] = signed_zero_images(len(dataset), aug, 4, 64, seed)
    dataset.scalars[:] = np.random.default_rng(seed).uniform(size=dataset.scalars.shape)
    if draw(st.booleans()):
        name, channels = draw(
            st.sampled_from([("no-leaf-off", [0, 2]), ("no-leaf-on", [1, 3])])
        )
        copied = dataset.derive("views_reduced", dataset.images[:, :, channels])
        return ensemble.ablate(dataset, name), copied, seed
    pools = [dataset.pool(label) for label in ("conifer", "deciduous")]
    kept = sorted(
        i
        for pool in pools
        for i in draw(st.lists(st.sampled_from(pool), min_size=2, max_size=len(pool), unique=True))
    )
    instances = [dataset.instances[i] for i in kept]
    selected = LabeledDataset("views", instances, dataset.images, dataset.scalars, np.array(kept))
    copied = LabeledDataset("views", instances, dataset.images[kept], dataset.scalars[kept])
    return selected, copied, seed


class TestStoreSelections:
    @settings(max_examples=6, deadline=None)
    @given(case=store_selections())
    def test_classify_bit_equal_to_copied_dataset(self, case):
        selected, copied, seed = case
        training = Training(3, 1, 1, seed=seed, batch_size=3, threads=1)
        results = [ensemble_classify(d, training) for d in (selected, copied)]
        (a, b) = [
            [(p.crown_id, p.label, p.predicted, p.held_out_by) for p in r.predictions]
            for r in results
        ]
        assert a == b
        (a, b) = [np.array([p.p_conifer for p in r.predictions]) for r in results]
        assert a.tobytes() == b.tobytes()


class TestPearson:
    def test_perfect_correlation(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        r, p = _pearson(x, 2 * x + 1)
        assert r == pytest.approx(1.0)
        assert p == pytest.approx(0.0, abs=1e-12)
        r_neg, _ = _pearson(x, -x)
        assert r_neg == pytest.approx(-1.0)

    def test_constant_input_degenerates_to_zero(self):
        r, p = _pearson(np.ones(5), np.arange(5.0))
        assert (r, p) == (0.0, 1.0)

    def test_hand_computed_value(self):
        x = np.array([1.0, 2.0, 4.0, 5.0, 7.0])
        y = np.array([2.0, 1.0, 5.0, 4.0, 8.0])
        cx = x - x.mean()
        cy = y - y.mean()
        r_ref = float((cx * cy).sum() / np.sqrt((cx**2).sum() * (cy**2).sum()))
        t_ref = r_ref * math.sqrt(3 / (1 - r_ref**2))
        p_ref = 2 * student_t_cdf(-abs(t_ref), 3)
        r, p = _pearson(x, y)
        assert r == pytest.approx(r_ref, rel=1e-12)
        assert p == pytest.approx(p_ref, rel=1e-12)


TINY_TRAINING = Training(n_networks=2, per_class=2, epochs=1, seed=30)


class TestRunSweep:
    def test_size_sweep_emits_one_row_per_fraction(self):
        dataset = blob_dataset(4, 6, seed=12)
        spec = SweepSpec(variant="size", fractions=(0.5, 1.0), repeats=2)
        rows = run_sweep(dataset, spec, TINY_TRAINING)
        assert [row.param for row in rows] == ["0.5", "1"]
        for row in rows:
            assert row.variant == "size"
            assert 0.0 <= row.acc_conifer <= 1.0
            assert 0.0 <= row.acc_deciduous <= 1.0

    def test_augmentation_sweep(self):
        dataset = blob_dataset(3, 3, seed=13, aug=3)
        spec = SweepSpec(variant="augmentation", augmentations=(1, 3))
        rows = run_sweep(dataset, spec, TINY_TRAINING)
        assert [row.param for row in rows] == ["1", "3"]

    def test_ablation_sweep_channel_variants(self):
        dataset = blob_dataset(3, 3, seed=14, channels=4, tag="views")
        spec = SweepSpec(
            variant="ablation",
            ablations=("none", "no-leaf-off", "no-leaf-on", "binary-intensity"),
        )
        rows = run_sweep(dataset, spec, TINY_TRAINING)
        assert [row.param for row in rows] == [
            "none",
            "no-leaf-off",
            "no-leaf-on",
            "binary-intensity",
        ]

    def test_raw_intensity_needs_alternate_dataset(self):
        dataset = blob_dataset(3, 3, seed=15, channels=4, tag="views")
        spec = SweepSpec(variant="ablation", ablations=("raw-intensity",))
        with pytest.raises(ValueError, match="normalization"):
            run_sweep(dataset, spec, TINY_TRAINING)
        rows = run_sweep(dataset, spec, TINY_TRAINING, raw=dataset)
        assert rows[0].param == "raw-intensity"

    def test_crown_class_sweep_splits_strata(self):
        dataset = blob_dataset(4, 4, seed=16)
        for i, inst in enumerate(dataset.instances):
            inst.crown_class = ["dominant", "codominant", "intermediate", "overtopped"][
                i % 4
            ]
        spec = SweepSpec(variant="crown_class")
        rows = run_sweep(dataset, spec, TINY_TRAINING)
        assert [row.param for row in rows] == ["overstory", "understory"]

    def test_density_sweep_reports_correlation_and_p(self):
        dataset = blob_dataset(5, 5, seed=17)
        spec = SweepSpec(variant="density")
        rows = run_sweep(dataset, spec, TINY_TRAINING)
        assert len(rows) == 1
        assert rows[0].param == "pearson-r"
        assert -1.0 <= rows[0].acc_conifer <= 1.0
        assert 0.0 <= rows[0].ci_conifer <= 1.0

    def test_unknown_variant_rejected(self):
        dataset = blob_dataset(2, 2, seed=18)
        with pytest.raises(ValueError, match="variant"):
            run_sweep(dataset, SweepSpec(variant="speed"), TINY_TRAINING)

    def test_size_sweep_copies_no_crown(self, monkeypatch):
        instances = [light_instance(f"c{i:03d}", "conifer") for i in range(10)]
        instances += [light_instance(f"d{i:03d}", "deciduous") for i in range(30)]
        images = np.zeros((40, 4, 4, 64, 64), dtype=np.float32)  # 10.5 MB
        dataset = LabeledDataset("views", instances, images, np.zeros((40, 2), np.float32))
        accuracies = {label: ClassAccuracy(label, 1.0, 0.0, 1) for label in ensemble.CLASS_INDEX}
        subsets = []

        def recording_classify(subset, training):
            subsets.append(subset)
            return ClassifyResult([], accuracies)

        monkeypatch.setattr(ensemble, "ensemble_classify", recording_classify)
        spec = SweepSpec(variant="size", fractions=(0.5, 1.0), repeats=2)
        np.random.default_rng(0)  # numpy.random imports its modules on first use
        tracemalloc.start()
        try:
            run_sweep(dataset, spec, TINY_TRAINING)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Each subset names its crowns' store rows; gathering them would
        # copy 262 KB per crown.
        assert peak < images[0].nbytes
        assert [len(subset) for subset in subsets] == [20, 20, 40, 40]
        for subset in subsets:
            assert subset.images is images and subset.scalars is dataset.scalars
            assert subset.instances == [instances[i] for i in subset.crowns]

    def test_variants_train_with_derived_recipes(self, monkeypatch):
        dataset = blob_dataset(4, 6, seed=19)
        trained = []

        def fake_classify(dataset, training):
            trained.append(training)
            accuracies = {
                label: ClassAccuracy(label, 1.0, 0.0, 1)
                for label in ("conifer", "deciduous")
            }
            return ClassifyResult([], accuracies)

        monkeypatch.setattr(ensemble, "ensemble_classify", fake_classify)
        training = Training(2, 4, 1, seed=31, lr=0.5, batch_size=7, threads=1)
        spec = SweepSpec(variant="size", fractions=(0.5, 1.0), repeats=1)
        run_sweep(dataset, spec, training)
        spec = SweepSpec(variant="augmentation", augmentations=(1,))
        run_sweep(dataset, spec, training)
        assert trained == [
            Training(2, 2, 1, derive_seed(31, "size", "0.5", 0), 0.5, 7, 1),
            Training(2, 4, 1, derive_seed(31, "size", "1", 0), 0.5, 7, 1),
            Training(2, 4, 1, derive_seed(31, "augmentation", 1), 0.5, 7, 1),
        ]


class TestTableFiles:
    def test_history_round_trip(self, tmp_path):
        history = CorrectionHistory(
            [HistoryRow(1, 3, 2, 0.71), HistoryRow(2, 0, 0, 0.825)], True
        )
        path = tmp_path / "history.csv"
        write_history(path, history)
        assert read_history(path) == history.rows

    def test_history_bytes(self, tmp_path):
        history = CorrectionHistory(
            [HistoryRow(1, 3, 2, 0.1 + 0.2), HistoryRow(2, 0, 0, 1e-20)], True
        )
        path = tmp_path / "history.csv"
        write_history(path, history)
        assert path.read_bytes() == (
            b"iter,flips_conifer,flips_deciduous,mean_acc\r\n"
            b"1,3,2,0.30000000000000004\r\n"
            b"2,0,0,1e-20\r\n"
        )

    def test_predictions_round_trip(self, tmp_path):
        predictions = [
            InstancePrediction("t0001", "conifer", "conifer", 0.8125, 7),
            InstancePrediction("t0002", "deciduous", "", float("nan"), 0),
        ]
        path = tmp_path / "predictions.csv"
        write_predictions(path, predictions)
        back = read_predictions(path)
        assert back[0] == predictions[0]
        assert back[1].crown_id == "t0002"
        assert math.isnan(back[1].p_conifer)

    def test_sweep_round_trip(self, tmp_path):
        rows = [SweepRow("size", "0.2", 0.7, 0.05, 0.9, 0.0125)]
        path = tmp_path / "sweep.csv"
        write_sweep_table(path, rows)
        assert read_sweep_table(path) == rows

    def test_bad_headers_rejected(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("x,y\n")
        for reader in (read_history, read_predictions, read_sweep_table):
            with pytest.raises(ValueError, match="header"):
                reader(path)
