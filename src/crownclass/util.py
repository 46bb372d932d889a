"""Small shared helpers: seed derivation, an order-preserving map over a
per-call pool of forked worker processes, the Student t CDF, the CSV
reader and writer every pipeline table uses, the JSON writer every
manifest uses, and the file opener every writer goes through."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import traceback
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

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


# The function and items of the parallel_map call whose workers are
# being forked: a worker inherits them, so only an index and a result
# ever cross its pipe, and closures need not pickle.
_work: tuple = ()


def _serve(conn, inherited) -> None:
    """A worker: apply the inherited function to each index the parent
    sends and reply (True, result) or (False, exception), until the
    parent closes the pipe."""
    # Pipe ends copied from the parent: closing them lets this worker,
    # and the parent's others, read EOF once the parent's copy is gone.
    for other in inherited:
        other.close()
    fn, items = _work
    while True:
        try:
            index = conn.recv()
        except EOFError:
            return
        try:
            reply = (True, fn(items[index]))
        except Exception as error:
            error.add_note(f"raised in a parallel_map worker:\n{traceback.format_exc()}")
            reply = (False, error)
        conn.send(reply)


def parallel_map(fn: Callable[[T], R], items: Sequence[T], threads: int = 1) -> list[R]:
    """Map preserving input order, in forked worker processes when
    threads > 1.

    Each call forks a fresh pool of min(threads, len(items)) workers,
    which inherit fn, items and every array the parent holds, hands them
    item indices one at a time, and closes and joins the pool before it
    returns, so no worker outlives the call or sees state the parent
    changed after it. Results come back pickled. A task's exception is
    raised in the parent as it was raised, with the worker's traceback
    as a note; a worker that dies raises RuntimeError. Tasks must be
    independent and deterministic given their arguments, and must not
    rely on side effects in the parent, so the result is identical for
    every worker count. A fork copies only the calling thread, so the
    caller must run no other thread that may hold a lock a task needs.
    """
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    # Imported here so stages that never fan out skip loading it.
    import multiprocessing
    from multiprocessing.connection import wait

    global _work
    context = multiprocessing.get_context("fork")
    workers = {}  # the parent's pipe end -> its worker
    try:
        _work = (fn, items)
        for _ in range(min(threads, len(items))):
            ours, theirs = context.Pipe()
            worker = context.Process(target=_serve, args=(theirs, [ours, *workers]))
            worker.start()
            theirs.close()
            workers[ours] = worker
        results: list = [None] * len(items)
        todo = iter(range(len(items)))
        running = {}  # pipe end -> index its worker is on

        def hand_out(conn) -> None:
            index = next(todo, None)
            if index is not None:
                conn.send(index)
                running[conn] = index

        for conn in workers:
            hand_out(conn)
        while running:
            for conn in wait(list(running)):
                index = running.pop(conn)
                try:
                    ok, value = conn.recv()
                except EOFError:
                    workers[conn].join()
                    raise RuntimeError(
                        f"parallel_map worker exited with code "
                        f"{workers[conn].exitcode} on item {index}"
                    ) from None
                if not ok:
                    raise value
                results[index] = value
                hand_out(conn)
        return results
    except BaseException:
        for worker in workers.values():
            worker.kill()
        raise
    finally:
        _work = ()
        for conn in workers:
            conn.close()  # an idle worker reads EOF and returns
        for worker in workers.values():
            worker.join()


# The incomplete beta continued fraction stops once a step changes it by
# less than this relative amount, within BETA_MAX_STEPS steps.
BETA_EPS = 1e-15
BETA_MAX_STEPS = 10_000
# Stands in for a zero denominator in the Lentz recurrence.
BETA_TINY = 1e-300


def _nonzero(value: float) -> float:
    return value if abs(value) > BETA_TINY else BETA_TINY


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction F of I_x(a, b) = x^a (1 - x)^b F / (a B(a, b)),
    by the modified Lentz method. It converges fast where
    x < (a + 1) / (a + b + 2)."""
    c = 1.0
    d = 1.0 / _nonzero(1.0 - (a + b) * x / (a + 1.0))
    fraction = d
    for m in range(1, BETA_MAX_STEPS + 1):
        # the even, then the odd coefficient of step m
        for term in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 / _nonzero(1.0 + term * d)
            c = _nonzero(1.0 + term / c)
            fraction *= c * d
        if abs(c * d - 1.0) < BETA_EPS:
            return fraction
    raise ArithmeticError(f"incomplete beta fraction ({a}, {b}, {x}) did not converge")


# Stirling's series of ln Gamma(z) - ((z - 1/2) ln z - z + ln(2 pi) / 2):
# the coefficients B_2k / (2k (2k - 1)) of z^(1 - 2k), k = 1..5. Beyond
# STIRLING_MIN the next term is below 1e-17.
STIRLING_TERMS = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188)
STIRLING_MIN = 20.0


def _stirling_tail(z: float) -> float:
    return sum(c * z ** (1 - 2 * k) for k, c in enumerate(STIRLING_TERMS, 1))


def _log_beta(a: float, b: float) -> float:
    """ln B(a, b). With a large, lgamma(a + b) - lgamma(a) would lose the
    rounding of two large numbers (about 1e-11 at a = 2500); Stirling's
    series differenced term by term keeps the digits."""
    a, b = max(a, b), min(a, b)
    if a < STIRLING_MIN:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    log_ratio = (  # ln Gamma(a + b) - ln Gamma(a)
        (a - 0.5) * math.log1p(b / a)
        + b * math.log(a + b)
        - b
        + _stirling_tail(a + b)
        - _stirling_tail(a)
    )
    return math.lgamma(b) - log_ratio


def _regularized_beta(a: float, b: float, x: float, y: float) -> float:
    """The regularized incomplete beta function I_x(a, b), given y = 1 - x
    computed without cancellation. The continued fraction is taken on
    its convergent side: I_x(a, b) = 1 - I_y(b, a) above
    x = (a + 1) / (a + b + 2)."""
    if x == 0.0 or y == 0.0:
        return 0.0 if x == 0.0 else 1.0
    log_x = math.log1p(-y) if y < 0.5 else math.log(x)
    log_y = math.log1p(-x) if x < 0.5 else math.log(y)
    front = math.exp(a * log_x + b * log_y - _log_beta(a, b))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, y) / b


def _t_lower_tail(t: float, df: float) -> float:
    """P(T <= -|t|) = I_x(df / 2, 1 / 2) / 2 at x = df / (df + t^2)."""
    t2 = t * t
    if math.isnan(t2):
        return math.nan
    if math.isinf(t2):
        return 0.0
    return 0.5 * _regularized_beta(df / 2.0, 0.5, df / (df + t2), t2 / (df + t2))


def student_t_cdf(t: "float | np.ndarray", df: float) -> "float | np.ndarray":
    """Cumulative distribution of Student's t with ``df`` degrees of freedom.

    Evaluated through the regularized incomplete beta function on the lower
    tail only, so symmetry around zero is exact.
    """
    if df <= 0:
        raise ValueError("df must be positive")
    t_arr = np.asarray(t, dtype=np.float64)
    lower = np.reshape([_t_lower_tail(float(v), df) for v in t_arr.flat], t_arr.shape)
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


@contextmanager
def open_replacing(path, mode: str = "w", **kwargs) -> Iterator:
    """Write ``path`` through ``path + ".tmp"``, renamed onto it when the
    block succeeds and removed when it raises, so a failed write leaves
    what ``path`` held before, never a truncated file."""
    temporary = f"{os.fspath(path)}.tmp"
    try:
        with open(temporary, mode, **kwargs) as handle:
            yield handle
        os.replace(temporary, path)
    finally:
        if os.path.exists(temporary):  # the block raised
            os.remove(temporary)


def write_csv_rows(path, columns: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header of ``columns`` and then ``rows`` as UTF-8 CSV with
    CRLF line ends; a float field is written with ``str``, which
    round-trips it exactly."""
    with open_replacing(path, newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        writer.writerows(rows)


def write_json(path, doc) -> None:
    """Write ``doc`` as UTF-8 JSON with sorted keys, two-space indents and
    a trailing newline."""
    with open_replacing(path, encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
