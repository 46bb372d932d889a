"""Small shared helpers: seed derivation, an order-preserving map over a
per-call pool of forked worker processes, the Student t CDF, the CSV
reader and writer every pipeline table uses, and the JSON writer every
manifest uses."""

from __future__ import annotations

import csv
import hashlib
import json
import os
import traceback
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
