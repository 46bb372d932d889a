"""Desk-scale quantitative gate for the whole pipeline.

Ten checks, one printed PASS/FAIL line each (run with -s to watch them
live; pytest shows captured output on failure regardless). The training
checks build small synthetic forests and train real ensembles, so the
module takes several minutes on one CPU.
"""

import csv
import json
import time
from pathlib import Path

import numpy as np
import pytest

from gradtools import gradient_errors, max_gradient_error, random_inputs, randomize_biases
from test_intensity import synthetic_fit_cloud
from test_rasterize import crown_dataset, random_crown, rotated_image_90
from test_register import brute_force_total

from crownclass import cli
from crownclass import ensemble as ens
from crownclass.ingest import crowns_from_points
from crownclass.intensity import apply_residualization, fit_intensity_model
from crownclass.rasterize import make_dsm4, make_views4, rotate_about_apex
from crownclass.register import max_score_assignment, register_crowns
from crownclass.synthforest import SynthParams, generate_dataset
from crownclass.tinynet import ARCHITECTURES, init_params, network_forward


def report(index: int, ok: bool, detail: str) -> bool:
    print(f"\n[check {index:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def views4_dataset(crowns, registrations, n_rotations, step):
    by_id = {crown.crown_id: crown for crown in crowns}
    rows = [(by_id[row.crown_id], row.label, row.crown_class) for row in registrations]
    return crown_dataset(rows, "views4", n_rotations, step)


def test_01_analytic_gradients_match_finite_differences():
    t0 = time.time()
    worst = 0.0
    worst_abs = 0.0
    rerolled = 0
    for tag in ("dsm", "views", "views_reduced"):
        clean_draws = 0
        attempt = 0
        while clean_draws < 5:
            assert attempt < 15, f"{tag}: too many rerolls"
            params = init_params(tag, seed=300 + attempt, dtype=np.float64)
            rng = np.random.default_rng(400 + attempt)
            randomize_biases(params, rng)
            attempt += 1
            trials = [random_inputs(tag, rng) for _ in range(3)]
            errs, abs_errs = zip(
                *(
                    gradient_errors(params, images, scalars, onehot, h=1e-5)
                    for images, scalars, onehot in trials
                )
            )
            if max(errs) >= 1e-4:
                # A relu preactivation inside the step window makes the
                # loss nondifferentiable there; central differences then
                # measure the two-sided average. Such a draw may be
                # redrawn only once the mismatch is shown to vanish with
                # the window; a wrong backward pass fails at any step.
                for (images, scalars, onehot), err in zip(trials, errs):
                    if err >= 1e-4:
                        fine = max_gradient_error(
                            params, images, scalars, onehot, h=1e-7
                        )
                        assert fine < 1e-4, f"{tag}: {err:.2e} -> {fine:.2e}"
                rerolled += 1
                continue
            clean_draws += 1
            worst = max(worst, max(errs))
            worst_abs = max(worst_abs, max(abs_errs))
    elapsed = time.time() - t0
    ok = worst < 1e-4 and elapsed < 300
    assert report(
        1,
        ok,
        "gradients vs central differences: worst rel err "
        f"{worst:.2e} (< 1e-4, abs diffs under 1e-7 count as agreeing), "
        f"worst abs err {worst_abs:.2e}, over 5 draws x 3 inputs per architecture, "
        f"{rerolled} kink draws excused, {elapsed:.0f}s (< 300s)",
    )


def test_02_forward_shapes_assert_every_layer():
    checked = []
    for tag, batch in (("dsm", 2), ("views", 2)):
        spec = ARCHITECTURES[tag]
        rng = np.random.default_rng(31)
        images, scalars, _ = random_inputs(tag, rng, batch=batch)
        trace = []
        probs = network_forward(
            init_params(tag, seed=30), images, scalars, trace=trace
        )

        expected = [
            ("input.images", (batch, spec.input_channels, spec.image_hw, spec.image_hw)),
            ("input.scalars", (batch, spec.scalar_dim)),
        ]
        branches = len(spec.branch_channels)
        for b in range(branches):
            prefix = f"img{b}." if branches > 1 else ""
            hw = spec.image_hw
            ch = spec.branch_channels[b]
            for i in range(spec.conv_pairs):
                expected.append((f"{prefix}conv{i}", (batch, ch, hw, hw)))
                hw //= 2
                expected.append((f"{prefix}pool{i}", (batch, ch, hw, hw)))
        expected += [
            ("flatten", (batch, spec.flatten_dim)),
            ("side0", (batch, spec.side_dims[0])),
            ("side1", (batch, spec.side_dims[1])),
            ("concat", (batch, spec.concat_dim)),
            ("head0", (batch, spec.head_dims[0])),
            ("head1", (batch, spec.head_dims[1])),
            ("logits", (batch, 2)),
            ("probs", (batch, 2)),
        ]
        assert trace == expected, tag
        assert probs.shape == (batch, 2)
        shapes = dict(trace)
        if tag == "dsm":
            assert shapes["input.images"] == (batch, 4, 128, 128)
            assert shapes["pool5"] == (batch, 4, 2, 2)
        else:
            for b in range(4):
                assert shapes[f"img{b}.conv0"] == (batch, 1, 64, 64)
                assert shapes[f"img{b}.pool4"] == (batch, 1, 2, 2)
        assert spec.flatten_dim == 16
        checked.append(f"{tag}:{len(expected)} layers")
    assert report(
        2, True, "layer shape chains hold end to end (" + ", ".join(checked) + ")"
    )


def test_03_assignment_total_matches_exhaustive_search():
    t0 = time.time()
    rng = np.random.default_rng(77)
    mismatches = 0
    for _ in range(100):
        rows = int(rng.integers(1, 8))
        cols = int(rng.integers(1, 8))
        scores = rng.choice([0, 40, 70, 100], size=(rows, cols)).astype(np.int64)
        pairs = max_score_assignment(scores)
        total = sum(int(scores[i, j]) for i, j in pairs)
        if total != brute_force_total(scores):
            mismatches += 1
    elapsed = time.time() - t0
    ok = mismatches == 0 and elapsed < 60
    assert report(
        3,
        ok,
        f"assignment vs exhaustive search: {mismatches} mismatches in 100 "
        f"matrices, {elapsed:.1f}s (< 60s)",
    )


def test_04_residualization_recovers_known_coefficients():
    cloud = synthetic_fit_cloud(n=10000, seed=3, noise=1.0)
    model = fit_intensity_model(cloud, "on", 1)
    true_betas = (200.0, -20.0, 30.0)
    fitted = (model.beta0, model.beta1, model.beta2)
    beta_ok = all(
        abs(fit - true) <= 0.10 * abs(true)
        for fit, true in zip(fitted, true_betas)
    )
    out = apply_residualization(cloud, {"on:1": model})
    rho_range = np.corrcoef(out.intensity, np.log(out.range_m))[0, 1]
    rho_angle = np.corrcoef(out.intensity, np.cos(np.radians(out.scan_angle)))[0, 1]
    rho_ok = abs(rho_range) < 0.05 and abs(rho_angle) < 0.05
    ok = beta_ok and rho_ok
    assert report(
        4,
        ok,
        "residualization: betas "
        f"({fitted[0]:.1f}, {fitted[1]:.2f}, {fitted[2]:.2f}) vs "
        f"{true_betas} within 10%, residual correlations "
        f"|{rho_range:.3f}|, |{rho_angle:.3f}| < 0.05",
    )


def test_05_mislabel_correction_recovers_injected_flips():
    t0 = time.time()
    params = SynthParams(
        seed=202,
        label_noise=0.10,
        dome_fraction=0.0,
        jitter_sigma=0.0,
        conifer_height=(12.0, 17.0),
        conifer_radius=(1.5, 2.2),
        deciduous_height=(20.0, 26.0),
        deciduous_radius=(3.0, 4.0),
        deciduous_depth=(4.0, 5.5),
        conifer_intensity_on=(110.0, 8.0),
        deciduous_intensity_on=(200.0, 8.0),
        conifer_intensity_off=(140.0, 8.0),
        deciduous_intensity_off=(50.0, 8.0),
    )
    dataset = generate_dataset(params)
    crowns = crowns_from_points(dataset.points)
    registrations = register_crowns(crowns, dataset.stems)
    truth = {row.crown_id: row.true_label for row in dataset.truth}
    recorded = {row.crown_id: row.recorded_label for row in dataset.truth}
    injected = {cid for cid in truth if truth[cid] != recorded[cid]}
    assert len(registrations) == 400
    assert sum(1 for cid in truth if truth[cid] == "conifer") == 32
    assert len(injected) == 40

    ds = views4_dataset(crowns, registrations, n_rotations=10, step=36.0)
    corrected, history = ens.correct_mislabels(
        ds,
        ens.Training(
            n_networks=20,
            per_class=20,
            epochs=3,
            seed=55,
            lr=0.005,
            batch_size=32,
            threads=1,
        ),
        alpha=1e-6,
        max_iterations=20,
    )
    elapsed = time.time() - t0

    final = {inst.crown_id: inst.label for inst in corrected.instances}
    recovered = sum(1 for cid in injected if final[cid] == truth[cid])
    clean = [cid for cid in final if cid not in injected]
    false_flips = sum(1 for cid in clean if final[cid] != truth[cid])
    ok = (
        recovered >= 0.80 * len(injected)
        and false_flips <= 0.02 * len(clean)
        and len(history.rows) <= 20
        and elapsed < 1800
    )
    assert report(
        5,
        ok,
        f"label correction: recovered {recovered}/{len(injected)} flips "
        f"(>= 80%), {false_flips}/{len(clean)} false flips (<= 2%), "
        f"{len(history.rows)} iterations (<= 20), {elapsed:.0f}s (< 1800s)",
    )


@pytest.fixture(scope="module")
def clean_forest():
    """Noise-free forest shared by the classification and ablation checks."""
    dataset = generate_dataset(SynthParams(seed=101, label_noise=0.0))
    crowns = crowns_from_points(dataset.points)
    ds = views4_dataset(crowns, register_crowns(crowns, dataset.stems), n_rotations=10, step=2.0)
    return ds, ens.select_channels(ds, ens.LEAF_ON_CHANNELS)


def test_06_ensemble_classification_accuracy(clean_forest):
    t0 = time.time()
    ds, _ = clean_forest
    result = ens.ensemble_classify(
        ds, ens.Training(n_networks=10, per_class=20, epochs=5, seed=5, threads=1)
    )
    elapsed = time.time() - t0
    acc = {label: a.accuracy for label, a in result.accuracies.items()}
    ok = acc["conifer"] >= 0.90 and acc["deciduous"] >= 0.90 and elapsed < 1200
    assert report(
        6,
        ok,
        f"cross-validated accuracy: conifer {acc['conifer']:.3f}, "
        f"deciduous {acc['deciduous']:.3f} (both >= 0.90), "
        f"{elapsed:.0f}s (< 1200s)",
    )


def test_07_dropping_leaf_off_inputs_hits_conifers_only(clean_forest):
    ds, leaf_on_only = clean_forest
    full = ens.ensemble_classify(
        ds, ens.Training(n_networks=20, per_class=20, epochs=8, seed=5, threads=1)
    )
    reduced = ens.ensemble_classify(
        leaf_on_only,
        ens.Training(n_networks=20, per_class=20, epochs=8, seed=6, threads=1),
    )
    fa = {label: a.accuracy for label, a in full.accuracies.items()}
    ra = {label: a.accuracy for label, a in reduced.accuracies.items()}
    conifer_drop = fa["conifer"] - ra["conifer"]
    deciduous_change = abs(fa["deciduous"] - ra["deciduous"])
    ok = conifer_drop >= 0.10 and deciduous_change < 0.05
    assert report(
        7,
        ok,
        f"leaf-off ablation: conifer drop {100 * conifer_drop:.1f} pts "
        f"(>= 10), deciduous change {100 * deciduous_change:.1f} pts (< 5)",
    )


def test_08_rotation_scalars_fixed_and_90_degree_commutation():
    rng = np.random.default_rng(21)

    scalar_sets = 0
    for _ in range(5):
        crown = random_crown(rng, n=100)
        rotated = [rotate_about_apex(crown, 45.0 * k) for k in range(8)]
        scalar_sets += len({(r.tree_height, r.width, r.area) for r in rotated})
    scalars_ok = scalar_sets == 5

    worst = 1.0
    for _ in range(5):
        crown = random_crown(rng, n=120, safe_lattice=True)
        rotated = rotate_about_apex(crown, 90.0)
        dsm, dsm_rot = make_dsm4(crown), make_dsm4(rotated)
        views, views_rot = make_views4(crown), make_views4(rotated)
        for ch in range(4):
            expected = rotated_image_90(dsm[ch])
            worst = min(worst, float(np.mean(dsm_rot[ch] == expected)))
        for ch in range(2):  # aerial images; profiles track the slab instead
            expected = rotated_image_90(views[ch])
            worst = min(worst, float(np.mean(views_rot[ch] == expected)))
    commute_ok = worst >= 0.99

    ok = scalars_ok and commute_ok
    assert report(
        8,
        ok,
        "rotation invariants: scalars constant over every rotation "
        f"({'yes' if scalars_ok else 'no'}), 90-degree commutation worst "
        f"pixel agreement {worst:.4f} (>= 0.99)",
    )


def test_09_repeated_classify_runs_are_byte_identical(tmp_path):
    out = tmp_path / "out"
    config = {
        "seed": 7,
        "n_conifer": 6,
        "n_deciduous": 18,
        "grid_cell": 2.0,
        "n_rotations": 4,
        "n_networks": 3,
        "per_class": 3,
        "epochs": 1,
        "threads": 1,
        "points_file": str(out / "points.csv"),
        "stems_file": str(out / "stems.csv"),
        "registrations_file": str(out / "registrations.csv"),
        "tensor_file": str(out / "rasters.bin"),
        "manifest_file": str(out / "rasters.json"),
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))

    def run(command, target):
        code = cli.main(
            [command, "--config", str(config_path), "--out", str(target)]
        )
        assert code == 0, command

    for command in ("synth", "register", "rasterize"):
        run(command, out)
    first, second = tmp_path / "first", tmp_path / "second"
    run("classify", first)
    run("classify", second)

    names = ("predictions.csv", "summary.csv", "manifest_classify.json")
    identical = all(
        (first / name).read_bytes() == (second / name).read_bytes()
        for name in names
    )
    assert report(
        9,
        identical,
        "determinism: repeated classify runs byte-identical across "
        + ", ".join(names),
    )


# CDF of the t distribution at t = -4, -3, -2, -1, -0.5, 0, 0.5, 1, 2, 3, 4,
# from 30-digit quadrature of the density, frozen.
T_GRID = (-4.0, -3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0, 4.0)
T_CDF_REFERENCE = {
    1: (0.07797913037736932, 0.10241638234956672, 0.14758361765043326, 0.25, 0.35241638234956674, 0.5, 0.6475836176504333, 0.75, 0.8524163823495667, 0.8975836176504333, 0.9220208696226306),
    5: (0.005161707740415727, 0.015049623948731286, 0.05096973941492918, 0.1816087338245613, 0.3191494358204645, 0.5, 0.6808505641795355, 0.8183912661754387, 0.9490302605850708, 0.9849503760512687, 0.9948382922595843),
    10: (0.0012591663123683462, 0.006671827511284789, 0.03669401738537018, 0.17044656615102993, 0.31394680287148646, 0.5, 0.6860531971285135, 0.8295534338489701, 0.9633059826146299, 0.9933281724887152, 0.9987408336876317),
    30: (0.00019092281804187843, 0.002694982032825973, 0.02731252248149155, 0.16265430771301495, 0.31036150244256366, 0.5, 0.6896384975574363, 0.8373456922869851, 0.9726874775185085, 0.9973050179671741, 0.9998090771819581),
    100: (6.076182215038084e-05, 0.0017039576716647248, 0.02410608936556684, 0.1598620778920617, 0.3090867829154433, 0.5, 0.6909132170845567, 0.8401379221079384, 0.9758939106344332, 0.9982960423283352, 0.9999392381778496),
}


def test_10_t_distribution_cdf_matches_reference():
    worst = 0.0
    for df, row in T_CDF_REFERENCE.items():
        for t, reference in zip(T_GRID, row):
            worst = max(worst, abs(ens.student_t_cdf(t, df) - reference))
    ok = worst < 1e-6
    assert report(
        10,
        ok,
        f"t distribution CDF: worst abs err {worst:.2e} (< 1e-6) over "
        f"df {sorted(T_CDF_REFERENCE)} and |t| <= 4",
    )
