"""Network ensembles: balanced resampling, iterative mislabel correction
via a one-sided T-test on holdout performance, cross-validated ensemble
classification, and the evaluation sweeps built on top.
"""

from __future__ import annotations

import logging
import math
from dataclasses import astuple, dataclass, replace
from pathlib import Path

import numpy as np

from . import CLASS_INDEX, CONIFER, DECIDUOUS, INDEX_CLASS
from .ingest import OVERSTORY_CLASSES
from .rasterize import KIND_ARCHITECTURES
from .tinynet import (
    ADAM_LR,
    ARCHITECTURES,
    BATCH_SIZE,
    NetworkParams,
    init_params,
    predict_probs,
    train_network,
)
from .util import (
    default_threads,
    derive_seed,
    parallel_map,
    read_csv_rows,
    student_t_cdf,
    write_csv_rows,
)

logger = logging.getLogger(__name__)

HISTORY_COLUMNS = ("iter", "flips_conifer", "flips_deciduous", "mean_acc")
PREDICTION_COLUMNS = ("crown_id", "true_label", "pred_label", "p_conifer", "held_out_by")
SWEEP_COLUMNS = (
    "variant",
    "param",
    "acc_conifer",
    "ci_conifer",
    "acc_deciduous",
    "ci_deciduous",
)

ABLATION_NAMES = (
    "none",
    "no-leaf-off",
    "no-leaf-on",
    "raw-intensity",
    "binary-intensity",
)
SWEEP_VARIANTS = ("size", "augmentation", "ablation", "crown_class", "density")

# Images are stored [aerial on, aerial off, profile on, profile off] and
# DSM channels [on height, on intensity, off height, off intensity], so
# season ablations keep these channel pairs, as strided views.
LEAF_ON_CHANNELS = slice(0, 4, 2)
LEAF_OFF_CHANNELS = slice(1, 4, 2)


# ---------------------------------------------------------------------------
# Dataset of labeled, augmented crown representations


@dataclass
class Instance:
    """One crown's metadata plus its mutable class label."""

    crown_id: str
    label: str
    crown_class: str
    original_label: str
    density: float  # points per m^2 of crown area


@dataclass
class LabeledDataset:
    """Crowns sharing one network architecture and augmentation count;
    row crowns[i] of images and scalars belongs to instances[i]."""

    tag: str  # architecture the tensors fit: dsm | views | views_reduced
    instances: list[Instance]
    images: np.ndarray  # (store crowns, augmentations, channels, size, size) float32
    scalars: np.ndarray  # (store crowns, scalar_dim) float32, equal over augmentations
    crowns: "np.ndarray | None" = None  # instances' store rows; None: all, in order

    def __post_init__(self) -> None:
        if self.crowns is None:
            self.crowns = np.arange(len(self.images))
        if len(self.instances) != len(self.crowns) or len(self.images) != len(self.scalars):
            raise ValueError(
                f"{len(self.instances)} instances of {len(self.crowns)} store rows, "
                f"{len(self.images)} image rows and {len(self.scalars)} scalar rows"
            )
        for inst in self.instances:
            if inst.label not in CLASS_INDEX:
                raise ValueError(f"{inst.crown_id}: unknown label {inst.label!r}")

    def __len__(self) -> int:
        return len(self.instances)

    @property
    def augmentations(self) -> int:
        return self.images.shape[1]

    def pool(self, label: str) -> list[int]:
        return [i for i, inst in enumerate(self.instances) if inst.label == label]

    def derive(self, tag: str, images: np.ndarray) -> "LabeledDataset":
        """Same crowns with other image tensors and copied instances."""
        instances = [replace(inst) for inst in self.instances]
        return LabeledDataset(tag, instances, images, self.scalars, self.crowns)


def from_store(images: np.ndarray, manifest: dict) -> LabeledDataset:
    """Dataset over a raster store's images, (crowns, rotations, C, H, W),
    and the kind and per-crown columns of its manifest (``read_manifest``
    has checked that the images are scaled)."""
    tag = KIND_ARCHITECTURES[manifest["kind"]]
    instances = [
        Instance(crown_id, label, crown_class, label, float(density))
        for crown_id, label, crown_class, density in zip(
            manifest["crown_id"],
            manifest["label"],
            manifest["crown_class"],
            manifest["density"],
        )
    ]
    scalars = np.asarray(manifest["scalars"], dtype=np.float32)
    scalars = scalars.reshape(len(instances), ARCHITECTURES[tag].scalar_dim)
    return LabeledDataset(tag, instances, images, scalars)


def select_channels(dataset: LabeledDataset, channels: slice) -> LabeledDataset:
    """Single-season variant of a views dataset: a view of 2 of its 4
    image channels."""
    images = dataset.images[:, :, channels]
    if dataset.tag != "views" or images.shape[2] != 2:
        raise ValueError("channel selection needs a views dataset and 2 channels")
    return dataset.derive("views_reduced", images)


def binarize_intensity(dataset: LabeledDataset) -> LabeledDataset:
    """Replace intensity values with {0, 1} presence, in one float32
    copy of the images.

    View images are intensity rasters, so every channel binarizes; DSM
    intensity channels (1 and 3) binarize while heights are kept.
    """
    images = np.array(dataset.images, dtype=np.float32)
    intensity = images[:, :, 1::2] if dataset.tag == "dsm" else images
    np.greater(intensity, 0, out=intensity)
    return dataset.derive(dataset.tag, images)


def truncate_augmentations(dataset: LabeledDataset, count: int) -> LabeledDataset:
    """Keep only the first ``count`` rotations of every instance, as a view."""
    if not 1 <= count <= dataset.augmentations:
        raise ValueError(
            f"augmentation count {count} outside 1..{dataset.augmentations}"
        )
    return dataset.derive(dataset.tag, dataset.images[:, :count])


def ablate(
    dataset: LabeledDataset, name: str, raw: "LabeledDataset | None" = None
) -> LabeledDataset:
    """The dataset variant one ablation trains on. raw-intensity trains on
    ``raw``, the same crowns rasterized without intensity normalization."""
    if name == "none":
        return dataset
    if name == "no-leaf-off":
        return select_channels(dataset, LEAF_ON_CHANNELS)
    if name == "no-leaf-on":
        return select_channels(dataset, LEAF_OFF_CHANNELS)
    if name == "binary-intensity":
        return binarize_intensity(dataset)
    if name != "raw-intensity":
        raise ValueError(f"unknown ablation {name!r}")
    if raw is None:
        raise ValueError(
            "raw-intensity ablation needs a dataset built without "
            "intensity normalization"
        )
    return raw


# ---------------------------------------------------------------------------
# Balanced cyclic resampling and ensemble training


def balanced_cyclic_sample(
    dataset: LabeledDataset, per_class: int, n_networks: int, seed: int
) -> list[list[int]]:
    """Training memberships: per network, per_class instances of each class.

    Each class keeps a shuffled pool consumed without replacement; when a
    draw exhausts the pool it is reshuffled and the draw continues across
    the boundary, so participation counts per instance never differ by
    more than one within a class.
    """
    if per_class < 1:
        raise ValueError("per_class must be at least 1")
    rng = np.random.default_rng(derive_seed(seed, "cyclic-sample"))
    pools = {}
    for label in (CONIFER, DECIDUOUS):
        pool = dataset.pool(label)
        if not pool:
            raise ValueError(f"no instances labeled {label}")
        pools[label] = np.array(pool, dtype=np.int64)

    order = {label: rng.permutation(pool) for label, pool in pools.items()}
    position = {label: 0 for label in pools}

    def draw(label: str, k: int) -> list[int]:
        taken: list[int] = []
        while k > 0:
            if position[label] == len(order[label]):
                order[label] = rng.permutation(pools[label])
                position[label] = 0
            take = min(k, len(order[label]) - position[label])
            taken.extend(
                int(i)
                for i in order[label][position[label] : position[label] + take]
            )
            position[label] += take
            k -= take
        return taken

    memberships = []
    for _ in range(n_networks):
        memberships.append(draw(CONIFER, per_class) + draw(DECIDUOUS, per_class))
    return memberships


@dataclass(frozen=True)
class Training:
    """One ensemble recipe: n_networks networks, each trained for epochs
    on per_class crowns of each class, all drawn from seed. Label
    correction and classification both train with it."""

    n_networks: int
    per_class: int
    epochs: int
    seed: int
    lr: float = ADAM_LR
    batch_size: int = BATCH_SIZE
    threads: int | None = None  # forked worker processes; None: one per CPU


@dataclass
class TrainedNetwork:
    params: NetworkParams
    acc_n: float  # training accuracy over the augmented training samples
    membership: tuple[int, ...]

    @property
    def held(self) -> frozenset:
        """The crowns this network trained on, each once (its membership
        without repeats), not the crowns it holds out. The benchmark
        harness (perfbench/traced.py) reads it under this name."""
        return frozenset(self.membership)


@dataclass
class EnsembleRun:
    networks: list[TrainedNetwork]


def _samples(dataset: LabeledDataset, instances) -> tuple[np.ndarray, np.ndarray]:
    """The samples of the instances, crown-major and rotation-minor: their
    rows of the dataset's (store crowns, rotations) images, row
    crown * rotations + rotation with crown the instance's store row, and
    their scalars, one row per sample."""
    aug = dataset.augmentations
    crowns = dataset.crowns[np.asarray(instances, dtype=np.intp)]
    return (
        (crowns[:, None] * aug + np.arange(aug)).reshape(-1),
        np.repeat(dataset.scalars[crowns], aug, axis=0),
    )


# Zero-bias initialization occasionally yields a network whose conv
# chains are dead from the start; it then predicts one class forever and
# scores ~0.5 on its balanced training sample. Such members add large
# opposite-sign outliers to the per-crown holdout statistics, so they are
# retrained from a re-derived seed instead of being kept.
DEGENERATE_ACCURACY = 0.65
DEGENERATE_RETRIES = 3


def train_ensemble(dataset: LabeledDataset, training: Training) -> EnsembleRun:
    """Train the recipe's networks on balanced cyclic resamples of the dataset.

    A member that ends degenerate (training accuracy below
    DEGENERATE_ACCURACY) is deterministically retrained from a fresh
    derived seed, up to DEGENERATE_RETRIES times; the last attempt is
    kept either way.
    """
    seed = training.seed
    memberships = balanced_cyclic_sample(
        dataset, training.per_class, training.n_networks, seed
    )

    def build(index: int) -> TrainedNetwork:
        membership = memberships[index]
        rows, scalars = _samples(dataset, membership)
        labels = [CLASS_INDEX[dataset.instances[i].label] for i in membership]
        onehots = np.repeat(np.eye(2, dtype=np.float32)[labels], dataset.augmentations, axis=0)
        for attempt in range(DEGENERATE_RETRIES + 1):
            if attempt == 0:
                net_seed = derive_seed(seed, "network", index)
            else:
                net_seed = derive_seed(seed, "network", index, "retry", attempt)
            params = init_params(dataset.tag, seed=net_seed)
            params, acc_n = train_network(
                params,
                dataset.images,
                scalars,
                onehots,
                epochs=training.epochs,
                batch_size=training.batch_size,
                seed=net_seed,
                lr=training.lr,
                rows=rows,
            )
            if acc_n >= DEGENERATE_ACCURACY:
                break
            logger.warning(
                "network %d degenerate (accuracy %.2f), attempt %d",
                index,
                acc_n,
                attempt + 1,
            )
        return TrainedNetwork(params, acc_n, tuple(membership))

    threads = training.threads or default_threads()
    return EnsembleRun(parallel_map(build, list(range(training.n_networks)), threads))


# ---------------------------------------------------------------------------
# Holdout evaluation


def trained_on(run: EnsembleRun, n_crowns: int) -> np.ndarray:
    """Boolean (networks, crowns) matrix, True where the network trained
    on the crown."""
    matrix = np.zeros((len(run.networks), n_crowns), dtype=bool)
    for row, net in zip(matrix, run.networks):
        row[list(net.membership)] = True
    return matrix


def holdout_probs(
    run: EnsembleRun, dataset: LabeledDataset, threads: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The run's held-out table: softmax probabilities (networks, crowns,
    rotations, 2) in the networks' dtype, nan where the network trained
    on the crown, and ``held``, the (networks, crowns) matrix True where
    it did not.

    Each network's worker predicts its held-out samples, crown-major and
    rotation-minor, in one predict_probs call that reads them from the
    (mapped) store a chunk at a time, and returns their (held crowns x
    rotations, 2) rows, which fill its row of the table.
    """
    held = ~trained_on(run, len(dataset))
    aug = dataset.augmentations
    probs = np.full((*held.shape, aug, 2), np.nan, run.networks[0].params.dtype)

    def predict(j: int) -> np.ndarray:
        rows, scalars = _samples(dataset, np.flatnonzero(held[j]))
        return predict_probs(run.networks[j].params, dataset.images, scalars, rows=rows)

    jobs = list(range(len(run.networks)))
    for j, held_probs in enumerate(parallel_map(predict, jobs, threads or default_threads())):
        probs[j, held[j]] = held_probs.reshape(-1, aug, 2)
    return probs, held


@dataclass
class FlipDecision:
    crown_id: str
    d_values: list[float]  # acc_ni - (1 - acc_n), holdout networks only
    t_statistic: float
    p_value: float
    flipped: bool


def flip_decision(crown_id: str, d_values: list[float], alpha: float) -> FlipDecision:
    """One-sample, one-sided t-test of mean(d) < 0.

    Zero-variance d flips only when every d is negative (p taken as 0)
    and never flips when every d is nonnegative.
    """
    d = np.asarray(d_values, dtype=np.float64)
    mean = float(d.mean())
    # All-identical d is detected exactly; its sample std carries rounding
    # noise that would otherwise produce an arbitrary huge t.
    if np.ptp(d) == 0.0:
        if d[0] < 0:
            t_stat, p_value = float("-inf"), 0.0
        else:
            t_stat, p_value = float("inf"), 1.0
    else:
        sd = float(d.std(ddof=1))
        t_stat = mean / (sd / math.sqrt(len(d)))
        p_value = float(student_t_cdf(t_stat, len(d) - 1))
    return FlipDecision(crown_id, [float(v) for v in d], t_stat, p_value, p_value < alpha)


def mislabel_iteration(
    run: EnsembleRun, dataset: LabeledDataset, alpha: float, threads: int | None = None
) -> list[FlipDecision]:
    """Test every instance's holdout record against its current label.

    Instances held out by fewer than two networks are skipped (reported
    unflipped with nan statistics) and logged.
    """
    probs, held = holdout_probs(run, dataset, threads)
    labels = np.array([CLASS_INDEX[inst.label] for inst in dataset.instances])
    acc_n = np.array([net.acc_n for net in run.networks])
    # d = acc_ni - (1 - acc_n) per (network, crown); read only where held
    d = np.mean(np.argmax(probs, axis=-1) == labels[:, None], axis=-1)
    d -= 1.0 - acc_n[:, None]
    decisions = []
    for i, inst in enumerate(dataset.instances):
        d_values = d[held[:, i], i].tolist()
        if len(d_values) < 2:
            logger.warning(
                "%s held out by %d networks; skipping its test",
                inst.crown_id,
                len(d_values),
            )
            decisions.append(
                FlipDecision(inst.crown_id, d_values, float("nan"), float("nan"), False)
            )
            continue
        decisions.append(flip_decision(inst.crown_id, d_values, alpha))
    return decisions


@dataclass
class HistoryRow:
    """One correction iteration; flips counted by the label flipped to."""

    iteration: int
    flips_to_conifer: int
    flips_to_deciduous: int
    mean_acc: float


@dataclass
class CorrectionHistory:
    rows: list[HistoryRow]
    converged: bool


def correct_mislabels(
    dataset: LabeledDataset, training: Training, alpha: float, max_iterations: int
) -> tuple[LabeledDataset, CorrectionHistory]:
    """Iteratively retrain, test, and flip labels until no flips remain.

    Labels are corrected in place on the given dataset. Each iteration
    trains a fresh ensemble from new initializations under a derived
    seed. Hitting max_iterations returns the current state with
    converged=False rather than raising.
    """
    rows = []
    converged = False
    for iteration in range(1, max_iterations + 1):
        seed = derive_seed(training.seed, "correction", iteration)
        run = train_ensemble(dataset, replace(training, seed=seed))
        decisions = mislabel_iteration(run, dataset, alpha, training.threads)
        flips = [inst for inst, d in zip(dataset.instances, decisions) if d.flipped]
        to_deciduous = sum(inst.label == CONIFER for inst in flips)
        for inst in flips:
            inst.label = DECIDUOUS if inst.label == CONIFER else CONIFER
        mean_acc = float(np.mean([net.acc_n for net in run.networks]))
        rows.append(
            HistoryRow(iteration, len(flips) - to_deciduous, to_deciduous, mean_acc)
        )
        logger.info(
            "correction iteration %d: %d flips, mean training accuracy %.3f",
            iteration,
            len(flips),
            mean_acc,
        )
        if not flips:
            converged = True
            break
    return dataset, CorrectionHistory(rows, converged)


# ---------------------------------------------------------------------------
# Cross-validated ensemble classification


@dataclass
class InstancePrediction:
    crown_id: str
    label: str  # the dataset's label at classification time
    predicted: str
    p_conifer: float  # ensemble-mean softmax probability of conifer
    held_out_by: int


@dataclass
class ClassAccuracy:
    label: str
    accuracy: float
    ci_half_width: float  # normal-approximation binomial, 95%
    n: int


@dataclass
class ClassifyResult:
    predictions: list[InstancePrediction]
    accuracies: dict[str, ClassAccuracy]


def binomial_interval(accuracy: float, n: int) -> float:
    """95% half-width under the normal approximation."""
    if n <= 0:
        return float("nan")
    return 1.96 * math.sqrt(accuracy * (1.0 - accuracy) / n)


def ensemble_predictions(
    run: EnsembleRun, dataset: LabeledDataset, threads: int | None = None
) -> list[InstancePrediction]:
    """Average holdout softmax over networks and augmentations per crown."""
    probs, held = holdout_probs(run, dataset, threads)
    predictions = []
    for i, inst in enumerate(dataset.instances):
        holdout = probs[held[:, i], i]  # (holding networks, rotations, 2)
        if not len(holdout):
            predictions.append(
                InstancePrediction(inst.crown_id, inst.label, "", float("nan"), 0)
            )
            continue
        mean_probs = holdout.mean(axis=(0, 1))
        predicted = INDEX_CLASS[int(np.argmax(mean_probs))]
        predictions.append(
            InstancePrediction(
                inst.crown_id,
                inst.label,
                predicted,
                float(mean_probs[CLASS_INDEX[CONIFER]]),
                len(holdout),
            )
        )
    return predictions


def accuracies_from_predictions(
    predictions: list[InstancePrediction],
) -> dict[str, ClassAccuracy]:
    """Per-class holdout accuracy; crowns no network held out are excluded."""
    accuracies = {}
    for label in (CONIFER, DECIDUOUS):
        scored = [p for p in predictions if p.label == label and p.held_out_by > 0]
        excluded = sum(1 for p in predictions if p.label == label and p.held_out_by == 0)
        if excluded:
            logger.info(
                "%d %s crowns held out by no network; excluded from accuracy",
                excluded,
                label,
            )
        if not scored:
            accuracies[label] = ClassAccuracy(label, float("nan"), float("nan"), 0)
            continue
        accuracy = float(np.mean([p.predicted == label for p in scored]))
        accuracies[label] = ClassAccuracy(
            label, accuracy, binomial_interval(accuracy, len(scored)), len(scored)
        )
    return accuracies


def ensemble_classify(dataset: LabeledDataset, training: Training) -> ClassifyResult:
    """Cross-validated classification: every crown is predicted only by
    the networks that never trained on it."""
    run = train_ensemble(dataset, training)
    predictions = ensemble_predictions(run, dataset, training.threads)
    accuracies = accuracies_from_predictions(predictions)
    return ClassifyResult(predictions, accuracies)


# ---------------------------------------------------------------------------
# Evaluation sweeps


@dataclass
class SweepSpec:
    variant: str  # one of SWEEP_VARIANTS
    fractions: tuple[float, ...] = (0.2, 0.4, 0.6, 0.8, 1.0)
    repeats: int = 3
    augmentations: tuple[int, ...] = ()
    ablations: tuple[str, ...] = ABLATION_NAMES


@dataclass
class SweepRow:
    variant: str
    param: str
    acc_conifer: float
    ci_conifer: float
    acc_deciduous: float
    ci_deciduous: float


def _pearson(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Correlation and two-sided p-value; degenerate inputs give (0, 1)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(x)
    if n < 3:
        return 0.0, 1.0
    cx = x - x.mean()
    cy = y - y.mean()
    denom = math.sqrt(float((cx**2).sum()) * float((cy**2).sum()))
    if denom == 0.0:
        return 0.0, 1.0
    r = float((cx * cy).sum() / denom)
    r = max(-1.0, min(1.0, r))
    if abs(r) == 1.0:
        return r, 0.0
    t_stat = r * math.sqrt((n - 2) / (1.0 - r * r))
    p_value = 2.0 * float(student_t_cdf(-abs(t_stat), n - 2))
    return r, p_value


def _row(variant: str, param: str, accuracies: dict[str, ClassAccuracy]) -> SweepRow:
    con = accuracies[CONIFER]
    dec = accuracies[DECIDUOUS]
    return SweepRow(
        variant, param, con.accuracy, con.ci_half_width, dec.accuracy, dec.ci_half_width
    )


def run_sweep(
    dataset: LabeledDataset,
    spec: SweepSpec,
    training: Training,
    raw: "LabeledDataset | None" = None,
) -> list[SweepRow]:
    """Run one evaluation sweep and return its result table. Each variant
    trains with the recipe under a seed derived from its own path.

    The raw-intensity ablation trains on ``raw``, a dataset rebuilt
    without intensity normalization.
    """
    rows: list[SweepRow] = []
    seed = training.seed

    def classify(variant_dataset, *seed_path, per_class=training.per_class):
        variant_seed = derive_seed(seed, *seed_path)
        variant = replace(training, seed=variant_seed, per_class=per_class)
        return ensemble_classify(variant_dataset, variant)

    if spec.variant == "size":
        for fraction in spec.fractions:
            per_label_acc = {CONIFER: [], DECIDUOUS: []}
            for repeat in range(spec.repeats):
                seed_path = ("size", f"{fraction:g}", repeat)
                rng = np.random.default_rng(derive_seed(seed, *seed_path))
                chosen: list[int] = []
                for label in (CONIFER, DECIDUOUS):
                    pool = dataset.pool(label)
                    k = max(2, int(round(fraction * len(pool))))
                    k = min(k, len(pool))
                    picked = rng.choice(len(pool), size=k, replace=False)
                    chosen.extend(pool[j] for j in picked)
                rows_kept = sorted(chosen)
                subset = LabeledDataset(
                    dataset.tag,
                    [dataset.instances[i] for i in rows_kept],
                    dataset.images,
                    dataset.scalars,
                    dataset.crowns[rows_kept],
                )
                per_class = max(1, int(round(fraction * training.per_class)))
                result = classify(subset, *seed_path, per_class=per_class)
                for label in (CONIFER, DECIDUOUS):
                    per_label_acc[label].append(result.accuracies[label].accuracy)
            stats = {}  # per label: mean accuracy and its 95% half-width
            for label in (CONIFER, DECIDUOUS):
                values = np.array(per_label_acc[label], dtype=np.float64)
                ci = (
                    float(1.96 * values.std(ddof=1) / math.sqrt(len(values)))
                    if len(values) > 1
                    else 0.0
                )
                stats[label] = (float(values.mean()), ci)
            rows.append(
                SweepRow("size", f"{fraction:g}", *stats[CONIFER], *stats[DECIDUOUS])
            )

    elif spec.variant == "augmentation":
        for count in spec.augmentations:
            result = classify(truncate_augmentations(dataset, count), "augmentation", count)
            rows.append(_row("augmentation", str(count), result.accuracies))

    elif spec.variant == "ablation":
        for name in spec.ablations:
            result = classify(ablate(dataset, name, raw), "ablation", name)
            rows.append(_row("ablation", name, result.accuracies))

    elif spec.variant == "crown_class":
        result = classify(dataset, "crown-class")
        overstory = [inst.crown_class in OVERSTORY_CLASSES for inst in dataset.instances]
        for group, wanted in (("overstory", True), ("understory", False)):
            group_preds = [
                p for p, over in zip(result.predictions, overstory) if over == wanted
            ]
            rows.append(
                _row("crown_class", group, accuracies_from_predictions(group_preds))
            )

    elif spec.variant == "density":
        result = classify(dataset, "density")
        stats = {}
        for label in (CONIFER, DECIDUOUS):
            densities = []
            correct_probs = []
            for inst, pred in zip(dataset.instances, result.predictions):
                if pred.label != label or pred.held_out_by == 0:
                    continue
                densities.append(inst.density)
                correct_probs.append(
                    pred.p_conifer if label == CONIFER else 1.0 - pred.p_conifer
                )
            stats[label] = _pearson(np.array(densities), np.array(correct_probs))
        # Schema reuse: correlation in the accuracy columns, its p-value
        # in the interval columns.
        rows.append(
            SweepRow("density", "pearson-r", *stats[CONIFER], *stats[DECIDUOUS])
        )

    else:
        raise ValueError(f"unknown sweep variant {spec.variant!r}")

    return rows


# ---------------------------------------------------------------------------
# Text emission


def write_history(path: "str | Path", history: CorrectionHistory) -> None:
    write_csv_rows(path, HISTORY_COLUMNS, map(astuple, history.rows))


def read_history(path: "str | Path") -> list[HistoryRow]:
    return read_csv_rows(
        path,
        HISTORY_COLUMNS,
        lambda r: HistoryRow(int(r[0]), int(r[1]), int(r[2]), float(r[3])),
    )


def write_predictions(path: "str | Path", predictions: list[InstancePrediction]) -> None:
    write_csv_rows(path, PREDICTION_COLUMNS, map(astuple, predictions))


def read_predictions(path: "str | Path") -> list[InstancePrediction]:
    return read_csv_rows(
        path,
        PREDICTION_COLUMNS,
        lambda r: InstancePrediction(r[0], r[1], r[2], float(r[3]), int(r[4])),
    )


def write_sweep_table(path: "str | Path", rows: list[SweepRow]) -> None:
    write_csv_rows(path, SWEEP_COLUMNS, map(astuple, rows))


def read_sweep_table(path: "str | Path") -> list[SweepRow]:
    return read_csv_rows(
        path,
        SWEEP_COLUMNS,
        lambda r: SweepRow(r[0], r[1], *(float(value) for value in r[2:])),
    )
