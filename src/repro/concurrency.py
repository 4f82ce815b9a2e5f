"""One process fan-out for everything: :func:`run_resilient`.

The mechanism's software side (gram formation + PPA + monitor) is a
purely per-rank computation, and the experiment grids are independent
cells, so both fan out across worker processes.  Parallelism is opt-in
— the default stays sequential so results remain cheap to reason about
and the test suite exercises the exact same code paths — and is
enabled either programmatically (``workers=N``) or globally via the
``REPRO_WORKERS`` environment variable (the ``--workers`` CLI flag sets
it).

:func:`run_resilient` is the only code that starts a process pool: the
per-rank planning pass, the GT sweep, a cell's displacement replays,
``run_cells``, both sweeps and the daemon's sweep all call it.  With
``workers <= 1`` (or one item to run) it is a plain in-process loop.
Determinism: results come back in input order, every worker runs the
identical sequential code on one item, and no shared mutable state
crosses the process boundary — parallel output is bit-for-bit equal to
the sequential output (asserted by the replay property tests).

A worker that dies without raising (OOM kill, interpreter abort,
``BrokenProcessPool``) or stalls past a per-item timeout produces a
structured retry instead of hanging the whole grid, and after the retry
budget is spent the item either falls back to an in-process run or
surfaces as a :class:`CellExecutionError` naming the offending item.
Deterministic worker exceptions (the item itself is bad) propagate
unchanged on the first attempt — retrying them would just repeat the
failure.  ``checkpoint=`` names a :class:`ResultJournal`: an item the
journal already holds is served from it, and each new result is
appended as it lands.  A record is keyed on the SHA-256 of the item's
pickle, so a rerun whose item differs in any input recomputes it.
"""

from __future__ import annotations

import hashlib
import math
import os
import pickle
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

from .specs import SpecError

_T = TypeVar("_T")
_R = TypeVar("_R")

#: environment knob: number of worker processes for per-rank passes
WORKERS_ENV = "REPRO_WORKERS"
#: environment knob: per-cell wall-clock timeout (seconds) for grids
CELL_TIMEOUT_ENV = "REPRO_CELL_TIMEOUT_S"
#: the shortest per-cell timeout accepted, in seconds
MIN_CELL_TIMEOUT_S = 0.001
#: environment knob: re-attempts after the first try for crashed/stalled
#: cells
CELL_RETRIES_ENV = "REPRO_CELL_RETRIES"


def resolve_workers(workers: int | None = None) -> int:
    """Resolve the worker count: explicit > ``REPRO_WORKERS`` > 1.

    Precedence: a non-None ``workers`` argument wins outright; otherwise
    the ``REPRO_WORKERS`` environment variable (set by the CLI's
    ``--workers`` flag) applies; otherwise sequential (1).  Zero or
    negative values are rejected rather than silently clamped — a
    caller asking for "0 workers" is a bug, not a request for
    sequential execution.  A bad value raises :class:`~repro.specs.
    SpecError` (a ``ValueError``), which the CLI reports as one
    ``error:`` line and exit status 2.
    """

    if workers is not None:
        n = int(workers)
        if n < 1:
            raise SpecError(
                f"workers must be >= 1, got {workers!r} (use workers=None "
                f"to defer to {WORKERS_ENV} or the sequential default)"
            )
        return n
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if not raw:
        return 1
    try:
        n = int(raw)
    except ValueError:
        raise SpecError(
            f"{WORKERS_ENV} must be an integer, got {raw!r}"
        ) from None
    if n < 1:
        raise SpecError(f"{WORKERS_ENV} must be >= 1, got {raw!r}")
    return n


def _resolve_env_number(env: str, value, cast, minimum, what: str):
    """``value`` if given, else ``env``'s value, else None; either one
    must be a finite number >= ``minimum`` (NaN compares false with
    every bound, so it is rejected by name, as are the infinities).
    A bad value raises :class:`~repro.specs.SpecError`."""

    if value is not None:
        name, raw = what, value
    else:
        raw = os.environ.get(env, "").strip()
        if not raw:
            return None
        name = env
    try:
        v = cast(raw)
    except (TypeError, ValueError, OverflowError):
        raise SpecError(f"{name} must be a number, got {raw!r}") from None
    if not math.isfinite(v):
        raise SpecError(f"{name} must be finite, got {raw!r}")
    if v < minimum:
        raise SpecError(f"{name} must be >= {minimum}, got {raw!r}")
    return v


def resolve_cell_timeout(timeout_s: float | None = None) -> float | None:
    """Per-cell timeout: explicit > ``REPRO_CELL_TIMEOUT_S`` > None."""

    return _resolve_env_number(
        CELL_TIMEOUT_ENV, timeout_s, float, MIN_CELL_TIMEOUT_S, "timeout_s"
    )


def resolve_cell_retries(retries: int | None = None) -> int:
    """Cell retry budget: explicit > ``REPRO_CELL_RETRIES`` > 2."""

    v = _resolve_env_number(CELL_RETRIES_ENV, retries, int, 0, "retries")
    return 2 if v is None else v


def unique_by(
    items: Sequence[_T], key: Callable[[_T], object]
) -> tuple[list[_T], list[int]]:
    """Dedupe ``items`` by ``key``, keeping first-seen order.

    Returns ``(unique, index_of)`` where ``unique`` holds one item per
    distinct key and ``index_of[i]`` is the position in ``unique`` that
    serves ``items[i]``.  Fan-out callers use it to compute shared work
    once — e.g. a multi-job cluster stream whose jobs repeat the same
    (app, nranks) needs one isolated reference cell, not one per job —
    and then scatter ``results[index_of[i]]`` back over the originals.
    """

    unique: list[_T] = []
    index_of: list[int] = []
    seen: dict = {}
    for item in items:
        k = key(item)
        slot = seen.get(k)
        if slot is None:
            slot = seen[k] = len(unique)
            unique.append(item)
        index_of.append(slot)
    return unique, index_of


def backoff_delay(
    attempt: int,
    base_s: float,
    cap_s: float = 5.0,
    token: str = "",
) -> float:
    """Capped exponential backoff with *deterministic* jitter.

    ``attempt`` is 1-based; the raw delay ``base_s * 2**(attempt-1)`` is
    capped at ``cap_s`` and then scaled into ``[0.5, 1.0]`` of itself by
    a jitter factor derived from ``sha256(token, attempt)`` — no RNG
    state, so the same (token, attempt) always sleeps the same amount
    and retry schedules are reproducible while still decorrelating
    items that share a token prefix.
    """

    if attempt < 1:
        raise ValueError(f"attempt must be >= 1, got {attempt!r}")
    raw = min(float(cap_s), float(base_s) * (2.0 ** (attempt - 1)))
    digest = hashlib.sha256(f"{token}:{attempt}".encode()).digest()
    frac = int.from_bytes(digest[:4], "big") / 0xFFFFFFFF
    return raw * (0.5 + 0.5 * frac)


@dataclass(frozen=True, slots=True)
class AttemptFailure:
    """One failed attempt of one grid item (structured retry history)."""

    kind: str          # "crashed" | "stalled"
    duration_s: float  # wall-clock time the attempt ran before failing
    detail: str        # human-readable cause


class CellExecutionError(RuntimeError):
    """A grid item kept crashing or stalling after its retry budget.

    ``kind`` is ``"crashed"`` (worker died without raising — OOM kill,
    abort, broken pool) or ``"stalled"`` (exceeded the per-item
    timeout); ``label`` names the item so a 300-cell grid failure is
    actionable.  ``history`` carries one :class:`AttemptFailure` per
    failed attempt — kind, wall-clock duration, detail — so a
    post-mortem can distinguish "died instantly every time" from
    "ran 58s, then the timeout cut it" without re-running the grid.
    The error is pickle-safe (it crosses process boundaries).
    """

    def __init__(
        self,
        label: str,
        kind: str,
        attempts: int,
        detail: str = "",
        history: Sequence[AttemptFailure] = (),
    ):
        self.label = label
        self.kind = kind
        self.attempts = attempts
        self.detail = detail
        self.history = tuple(history)
        msg = f"cell {label} {kind} in all {attempts} attempts"
        if detail:
            msg += f" ({detail})"
        if self.history:
            msg += " [" + "; ".join(
                f"attempt {i + 1}: {h.kind} after {h.duration_s:.2f}s"
                for i, h in enumerate(self.history)
            ) + "]"
        super().__init__(msg)

    def __reduce__(self):
        return (
            CellExecutionError,
            (self.label, self.kind, self.attempts, self.detail,
             self.history),
        )


def _terminate_workers(pool: ProcessPoolExecutor) -> None:
    """Kill the pool's worker processes so shutdown cannot block."""

    procs = getattr(pool, "_processes", None) or {}
    for proc in list(procs.values()):
        try:
            proc.terminate()
        except Exception:  # pragma: no cover - already-dead workers
            pass


def run_resilient(
    fn: Callable[[_T], _R],
    items: Sequence[_T],
    *,
    workers: int = 1,
    timeout_s: float | None = None,
    retries: int = 2,
    backoff_s: float = 0.25,
    label: Callable[[_T], str] | None = None,
    fallback: bool = True,
    checkpoint: str | None = None,
) -> list[_R]:
    """Order-preserving map of ``fn`` over ``items`` that survives dying
    workers.

    ``fn`` must be a module-level callable and the items picklable.
    With ``workers <= 1``, or one item left to run, this is a plain
    in-process loop.  Otherwise items fan out over a process pool and
    each gets up to ``1 + retries`` attempts, and three failure modes
    that would normally hang or poison the whole grid become per-item
    events:

    * **crash** — the worker process dies without raising (OOM kill,
      SIGKILL, interpreter abort); surfaces as ``BrokenProcessPool`` or
      a lost future and is retried in a fresh pool;
    * **stall** — an item exceeds ``timeout_s`` wall-clock seconds; its
      worker is terminated and the item retried;
    * **exhaustion** — after the retry budget, ``fallback=True`` runs
      the item in-process (sequential, no pool to kill it), else a
      :class:`CellExecutionError` names the item.

    A worker exception that *was* raised normally (bad item, assertion)
    is deterministic and re-raised immediately, unchanged.  ``label``
    renders an item for error messages.  ``checkpoint`` names a
    :class:`ResultJournal`: items it holds under the digest of their
    pickle are served without calling ``fn``, and every new result is
    appended as it lands, so a killed grid resumes where it died.
    Results are returned in input order.

    Between retry rounds the fan-out sleeps :func:`backoff_delay`:
    exponential in the round number, capped, with deterministic jitter
    — a 300-cell grid cannot end up sleeping minutes because of a
    linear-in-rounds backoff, and two reruns of the same grid sleep
    identically.  Every failed attempt is recorded as an
    :class:`AttemptFailure`; when the budget is spent the raised
    :class:`CellExecutionError` carries the full per-attempt history.
    """

    items = list(items)
    name = label or (lambda it: repr(it))
    results: list = [None] * len(items)
    pending = list(range(len(items)))
    if checkpoint:
        journal = ResultJournal(checkpoint)
        journalled = journal.load()
        # every input an item carries is in its key; two equal items
        # that pickle to different bytes only cost a recomputation
        keys = [
            hashlib.sha256(
                pickle.dumps(item, protocol=pickle.HIGHEST_PROTOCOL)
            ).hexdigest()
            for item in items
        ]
        pending = []
        for idx, key in enumerate(keys):
            if key in journalled:
                results[idx] = journalled[key]
            else:
                pending.append(idx)

    def _record(idx: int, value: _R) -> None:
        results[idx] = value
        if checkpoint:
            journal.append(keys[idx], value)

    if workers <= 1 or len(pending) <= 1:
        for idx in pending:
            _record(idx, fn(items[idx]))
        return results

    attempts = [0] * len(items)
    history: list[list[AttemptFailure]] = [[] for _ in items]
    round_no = 0
    while pending:
        if round_no:
            time.sleep(
                backoff_delay(
                    round_no, backoff_s, token=f"run_resilient:{len(items)}"
                )
            )
        round_no += 1
        crashed: list[int] = []
        stalled: list[int] = []
        pool = ProcessPoolExecutor(max_workers=min(workers, len(pending)))

        def _note(idx: int, kind: str, detail: str) -> None:
            history[idx].append(
                AttemptFailure(
                    kind, time.monotonic() - started[idx], detail
                )
            )

        try:
            futures = {}
            started = {}
            for idx in pending:
                attempts[idx] += 1
                fut = pool.submit(fn, items[idx])
                futures[fut] = idx
                started[idx] = time.monotonic()
            not_done = set(futures)
            pool_broken = False
            while not_done:
                poll = 0.05 if timeout_s is not None else None
                done, not_done = wait(
                    not_done, timeout=poll, return_when=FIRST_COMPLETED
                )
                for fut in done:
                    # keep draining the whole batch even after a broken
                    # pool: futures that completed before the breakage
                    # still hold results, and every co-batched casualty
                    # must be marked crashed or it would never retry
                    idx = futures[fut]
                    try:
                        _record(idx, fut.result())
                    except BrokenProcessPool:
                        # this worker (or a sibling sharing the broken
                        # pool) died without raising
                        pool_broken = True
                        crashed.append(idx)
                        _note(idx, "crashed", "worker died without raising")
                    except CellExecutionError:
                        raise
                    except Exception:
                        # deterministic worker exception: the item
                        # itself is bad; retrying cannot help
                        _terminate_workers(pool)
                        raise
                if pool_broken:
                    # every future still outstanding is lost with the pool
                    for f in not_done:
                        crashed.append(futures[f])
                        _note(futures[f], "crashed",
                              "lost with the broken pool")
                    not_done = set()
                    break
                if timeout_s is not None and not_done:
                    now = time.monotonic()
                    timed_out = [
                        fut for fut in not_done
                        if not fut.done()
                        and now - started[futures[fut]] > timeout_s
                    ]
                    if timed_out:
                        # a stalled worker cannot be interrupted from
                        # the outside; kill the whole pool and retry
                        # everything unfinished in a fresh one
                        for f in timed_out:
                            stalled.append(futures[f])
                            _note(futures[f], "stalled",
                                  f"exceeded timeout_s={timeout_s}")
                        for f in not_done:
                            if f not in timed_out:
                                crashed.append(futures[f])
                                _note(futures[f], "crashed",
                                      "pool killed alongside a stalled "
                                      "sibling")
                        _terminate_workers(pool)
                        not_done = set()
        finally:
            _terminate_workers(pool)
            pool.shutdown(wait=False, cancel_futures=True)

        pending = []
        for idx, kind in [(i, "crashed") for i in crashed] + [
            (i, "stalled") for i in stalled
        ]:
            if attempts[idx] <= retries:
                pending.append(idx)
            elif fallback:
                # last resort: run in-process; a deterministic crash
                # will now surface as a real exception/abort in the
                # parent, which beats silently dropping the cell
                _record(idx, fn(items[idx]))
            else:
                raise CellExecutionError(
                    name(items[idx]), kind, attempts[idx],
                    detail=f"timeout_s={timeout_s}" if kind == "stalled"
                    else "worker died without raising",
                    history=tuple(history[idx]),
                )
        pending.sort()
    return results


class ResultJournal:
    """Append-only pickle journal for partial grid results.

    Each completed cell appends one ``(key, value)`` record; a rerun
    loads the journal and serves completed cells without recomputing
    them, so a grid that died 80% through resumes rather than restarts.

    Crash safety: every append is flushed *and* fsynced before the cell
    is considered checkpointed, so a SIGKILL between cells loses at most
    the record being written.  ``load()`` tolerates exactly that — a
    torn trailing record (partial header or truncated body) is dropped
    with a :class:`RuntimeWarning` naming the file and byte offset, and
    every intact record before it is still served; the resume recomputes
    only the torn cell instead of raising and poisoning the whole rerun.
    """

    def __init__(self, path: str):
        self.path = str(path)

    def load(self) -> dict:
        out: dict = {}
        try:
            with open(self.path, "rb") as fh:
                size = os.fstat(fh.fileno()).st_size
                while True:
                    offset = fh.tell()
                    if offset >= size:
                        break  # clean end of journal
                    try:
                        key, value = pickle.load(fh)
                    except Exception as exc:
                        # torn trailing record (SIGKILL mid-append):
                        # keep every intact record, warn, and let the
                        # rerun recompute the lost cell
                        warnings.warn(
                            f"journal {self.path}: dropping torn trailing "
                            f"record at byte {offset} of {size} "
                            f"({type(exc).__name__}: {exc}); "
                            f"{len(out)} intact record(s) kept",
                            RuntimeWarning,
                            stacklevel=2,
                        )
                        break
                    out[key] = value
        except FileNotFoundError:
            pass
        return out

    def append(self, key, value) -> None:
        # flush + fsync before returning: once an item is reported
        # checkpointed, not even a power cut may un-checkpoint it
        with open(self.path, "ab") as fh:
            pickle.dump((key, value), fh, protocol=pickle.HIGHEST_PROTOCOL)
            fh.flush()
            os.fsync(fh.fileno())
