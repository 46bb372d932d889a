"""What a stage leaves behind: its expected files, the counts in its
WARNING log lines, and the figures read back from its result tables."""

from __future__ import annotations

import csv
import hashlib
import math
import re
from pathlib import Path

# Files each stage must write, besides its manifest_<stage>.json. The
# result tables among them must be byte-identical whenever the stage
# runs again with the same code, config and inputs.
STAGE_OUTPUTS = {
    "synth": ("points.csv", "stems.csv", "truth.csv"),
    "normalize-intensity": ("points_normalized.csv", "intensity_models.json"),
    "register": ("registrations.csv",),
    "rasterize": ("rasters.bin", "rasters.json"),
    "correct-labels": ("corrected_labels.csv", "history.csv"),
    "classify": ("predictions.csv", "summary.csv"),
}

# The stages' own WARNING lines, turned into counts.
_DROPPED = re.compile(r"dropped (\d+) degenerate and (\d+) narrow")
_DEGENERATE = re.compile(r"network \d+ degenerate \(accuracy [^)]*\), attempt \d+")
_UNTESTED = re.compile(r"held out by \d+ networks; skipping its test")

WARNING_COUNTS = ("crowns_dropped", "degenerate_retries", "untested_crowns")


def count_warnings(lines) -> dict[str, int]:
    counts = dict.fromkeys(WARNING_COUNTS, 0)
    for line in lines:
        if not line.startswith("WARNING"):
            continue
        match = _DROPPED.search(line)
        if match:
            counts["crowns_dropped"] += int(match.group(1)) + int(match.group(2))
        elif _DEGENERATE.search(line):
            counts["degenerate_retries"] += 1
        elif _UNTESTED.search(line):
            counts["untested_crowns"] += 1
    return counts


def missing_outputs(stage: str, out_dir: Path) -> list[str]:
    names = STAGE_OUTPUTS[stage] + (f"manifest_{stage}.json",)
    return [n for n in names if not (out_dir / n).is_file() or (out_dir / n).stat().st_size == 0]


def output_hashes(stage: str, out_dir: Path) -> dict[str, str]:
    hashes = {}
    for name in STAGE_OUTPUTS[stage]:
        digest = hashlib.sha256()
        with open(out_dir / name, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                digest.update(block)
        hashes[name] = digest.hexdigest()
    return hashes


def balanced_accuracy(summary_path: Path) -> float:
    """Mean of the per-class accuracies in classify's summary.csv; nan
    when a class has no held-out crown."""
    with open(summary_path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    values = [float(row["accuracy"]) for row in rows]
    if not values or any(math.isnan(v) for v in values):
        return float("nan")
    return sum(values) / len(values)


def count_rows(path: Path) -> int:
    with open(path, newline="", encoding="utf-8") as handle:
        return sum(1 for _ in csv.reader(handle)) - 1
