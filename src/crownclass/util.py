"""Small shared helpers: seed derivation, bounded parallel mapping, the
Student t CDF, the CSV reader and writer every pipeline table uses, and
the JSON writer every manifest uses."""

from __future__ import annotations

import csv
import hashlib
import json
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

T = TypeVar("T")
R = TypeVar("R")


def derive_seed(base: int, *labels: object) -> int:
    """Derive a child seed from a base seed and a label path.

    Stable across platforms and library versions (sha256-based), so runs
    are reproducible from the single seed recorded in the config.
    """
    text = ":".join([str(int(base))] + [str(part) for part in labels])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def default_threads() -> int:
    return os.cpu_count() or 1


def parallel_map(fn: Callable[[T], R], items: Sequence[T], threads: int = 1) -> list[R]:
    """Map preserving input order; thread pool when threads > 1.

    Tasks must be independent and deterministic given their arguments, so
    the result is identical for every thread count.
    """
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def student_t_cdf(t: "float | np.ndarray", df: float) -> "float | np.ndarray":
    """Cumulative distribution of Student's t with ``df`` degrees of freedom.

    Evaluated through the regularized incomplete beta function on the lower
    tail only, so symmetry around zero is exact.
    """
    if df <= 0:
        raise ValueError("df must be positive")
    # Imported here so stages that never test significance skip loading scipy.
    from scipy import special

    t_arr = np.asarray(t, dtype=np.float64)
    x = df / (df + t_arr**2)
    lower = 0.5 * special.betainc(df / 2.0, 0.5, x)
    out = np.where(t_arr <= 0, lower, 1.0 - lower)
    return float(out) if np.isscalar(t) or out.ndim == 0 else out


class InputError(ValueError):
    """A malformed input file or a bad config value; the command line
    exits 1 on it."""


def read_csv_rows(path, columns: Sequence[str], parse: Callable[[list[str]], R]) -> list[R]:
    """Parse every row of a CSV file whose header must equal ``columns``.

    ``parse`` maps a row's fields, one per column, to a record and raises
    ValueError on a bad value; a bad header, field count or value raises
    InputError as ``path:line: problem``. Blank lines are skipped.
    """
    records = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != list(columns):
            raise InputError(f"{path}:1: header {header} != {list(columns)}")
        for fields in reader:
            if not fields:
                continue
            try:
                if len(fields) != len(columns):
                    raise ValueError(f"{len(fields)} fields, expected {len(columns)}")
                records.append(parse(fields))
            except ValueError as error:
                raise InputError(f"{path}:{reader.line_num}: {error}") from error
    return records


def write_csv_rows(path, columns: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header of ``columns`` and then ``rows`` as UTF-8 CSV with
    CRLF line ends; a float field is written with ``str``, which
    round-trips it exactly."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        writer.writerows(rows)


def write_json(path, doc) -> None:
    """Write ``doc`` as UTF-8 JSON with sorted keys, two-space indents and
    a trailing newline."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
