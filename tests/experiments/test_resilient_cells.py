"""Crash/hang-proof grid fan-out: run_resilient and run_cells.

The failure injections (SIGKILL, hang) are guarded by
``multiprocessing.parent_process()`` so they only fire inside pool
workers — the in-process fallback path must run the same callable
safely in the parent.  First-attempt injections mark a flag file before
dying so the retry can observe "already crashed once" and succeed.
"""

import multiprocessing
import os
import pickle
import signal
import time

import pytest

from repro.concurrency import (
    CELL_RETRIES_ENV,
    CELL_TIMEOUT_ENV,
    WORKERS_ENV,
    CellExecutionError,
    ResultJournal,
    resolve_cell_retries,
    resolve_cell_timeout,
    resolve_workers,
    run_resilient,
)
from repro.experiments.common import (
    _cell_label,
    _run_cell_worker,
    clear_cache,
    run_cells,
)


def _in_worker() -> bool:
    return multiprocessing.parent_process() is not None


def _double(item):
    return item * 2


def _crash_worker(item):
    if _in_worker():
        os.kill(os.getpid(), signal.SIGKILL)
    return item * 2


def _crash_once_worker(arg):
    flag, item = arg
    if _in_worker() and not os.path.exists(flag):
        open(flag, "w").close()  # mark first, then die without raising
        os.kill(os.getpid(), signal.SIGKILL)
    return item * 2


def _hang_worker(item):
    if _in_worker():
        time.sleep(60.0)
    return item + 1


def _bad_worker(item):
    raise ValueError(f"bad item {item}")


class TestRunResilient:
    def test_sigkilled_worker_is_retried_and_recovers(self, tmp_path):
        args = [(str(tmp_path / f"flag{i}"), i) for i in range(2)]
        results = run_resilient(
            _crash_once_worker, args, workers=2, retries=2, backoff_s=0.01
        )
        assert results == [0, 2]

    def test_persistent_crash_without_fallback_names_the_item(self):
        with pytest.raises(CellExecutionError) as excinfo:
            run_resilient(
                _crash_worker,
                ["cell-a", "cell-b"],
                workers=2,
                retries=1,
                backoff_s=0.01,
                fallback=False,
                label=lambda it: f"<{it}>",
            )
        exc = excinfo.value
        assert exc.kind == "crashed"
        assert exc.attempts == 2  # first try + one retry
        assert "<cell-" in str(exc)
        assert "worker died without raising" in str(exc)

    def test_persistent_crash_falls_back_in_process(self):
        results = run_resilient(
            _crash_worker, [3, 4], workers=2, retries=0, backoff_s=0.01
        )
        assert results == [6, 8]

    def test_hang_times_out_then_falls_back(self):
        t0 = time.monotonic()
        results = run_resilient(
            _hang_worker,
            [10, 20],
            workers=2,
            timeout_s=1.0,
            retries=0,
            backoff_s=0.01,
        )
        assert results == [11, 21]
        assert time.monotonic() - t0 < 30.0  # did not wait out the sleep

    def test_hang_without_fallback_is_a_structured_stall(self):
        with pytest.raises(CellExecutionError) as excinfo:
            run_resilient(
                _hang_worker,
                [1, 2],
                workers=2,
                timeout_s=0.5,
                retries=0,
                backoff_s=0.01,
                fallback=False,
            )
        assert excinfo.value.kind == "stalled"
        assert "timeout_s=0.5" in str(excinfo.value)

    def test_deterministic_exception_propagates_unchanged(self):
        with pytest.raises(ValueError, match="bad item"):
            run_resilient(
                _bad_worker, [1, 2, 3], workers=2, backoff_s=0.01
            )

    def test_checkpoint_is_keyed_on_the_item_not_its_label(self, tmp_path):
        journal = str(tmp_path / "items.journal")
        same = dict(label=lambda it: "one label for all")
        assert run_resilient(
            _double, [5, 6, 7], workers=2, checkpoint=journal, **same
        ) == [10, 12, 14]
        assert len(ResultJournal(journal).load()) == 3
        # every item journalled: served without calling the worker
        assert run_resilient(
            _bad_worker, [5, 6, 7], workers=2, checkpoint=journal, **same
        ) == [10, 12, 14]
        # a changed item misses, whatever its label says
        assert run_resilient(
            _double, [5, 6, 8], checkpoint=journal, **same
        ) == [10, 12, 16]
        assert len(ResultJournal(journal).load()) == 4

    def test_cell_execution_error_survives_pickling(self):
        exc = CellExecutionError("alya@8", "stalled", 3, detail="timeout_s=5")
        clone = pickle.loads(pickle.dumps(exc))
        assert (clone.label, clone.kind, clone.attempts) == ("alya@8", "stalled", 3)
        assert str(clone) == str(exc)


class TestResolveKnobs:
    def test_explicit_zero_and_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            resolve_workers(0)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            resolve_workers(-3)

    def test_env_zero_and_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "0")
        with pytest.raises(ValueError, match=WORKERS_ENV):
            resolve_workers()
        monkeypatch.setenv(WORKERS_ENV, "many")
        with pytest.raises(ValueError, match=WORKERS_ENV):
            resolve_workers()

    def test_precedence_explicit_over_env_over_default(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers() == 1
        monkeypatch.setenv(WORKERS_ENV, "4")
        assert resolve_workers() == 4
        assert resolve_workers(2) == 2  # explicit wins

    def test_cell_timeout_resolution(self, monkeypatch):
        monkeypatch.delenv(CELL_TIMEOUT_ENV, raising=False)
        assert resolve_cell_timeout() is None
        monkeypatch.setenv(CELL_TIMEOUT_ENV, "2.5")
        assert resolve_cell_timeout() == 2.5
        assert resolve_cell_timeout(9.0) == 9.0  # explicit wins
        monkeypatch.setenv(CELL_TIMEOUT_ENV, "0")
        with pytest.raises(ValueError, match=CELL_TIMEOUT_ENV):
            resolve_cell_timeout()

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_explicit_knobs_rejected(self, bad, monkeypatch):
        monkeypatch.delenv(CELL_TIMEOUT_ENV, raising=False)
        monkeypatch.delenv(CELL_RETRIES_ENV, raising=False)
        with pytest.raises(ValueError, match="timeout_s"):
            resolve_cell_timeout(float(bad))
        with pytest.raises(ValueError, match="retries"):
            resolve_cell_retries(float(bad))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", " NaN "])
    def test_non_finite_env_knobs_rejected(self, bad, monkeypatch):
        monkeypatch.setenv(CELL_TIMEOUT_ENV, bad)
        with pytest.raises(ValueError, match=CELL_TIMEOUT_ENV):
            resolve_cell_timeout()
        monkeypatch.setenv(CELL_RETRIES_ENV, bad)
        with pytest.raises(ValueError, match=CELL_RETRIES_ENV):
            resolve_cell_retries()

    def test_cell_retries_resolution(self, monkeypatch):
        monkeypatch.delenv(CELL_RETRIES_ENV, raising=False)
        assert resolve_cell_retries() == 2
        monkeypatch.setenv(CELL_RETRIES_ENV, "5")
        assert resolve_cell_retries() == 5
        assert resolve_cell_retries(0) == 0  # explicit zero is valid
        with pytest.raises(ValueError, match="retries"):
            resolve_cell_retries(-1)


class TestResultJournal:
    def test_round_trip(self, tmp_path):
        journal = ResultJournal(tmp_path / "grid.journal")
        assert journal.load() == {}
        journal.append(("a", 1), {"x": 1.5})
        journal.append(("b", 2), {"y": [1, 2, 3]})
        assert journal.load() == {
            ("a", 1): {"x": 1.5},
            ("b", 2): {"y": [1, 2, 3]},
        }

    def test_torn_trailing_record_dropped(self, tmp_path):
        journal = ResultJournal(tmp_path / "grid.journal")
        journal.append("done", 42)
        with open(journal.path, "ab") as fh:
            fh.write(b"\x80\x05torn")  # process died mid-append
        assert journal.load() == {"done": 42}


# -- run_cells: real cells through injected crash/hang workers ----------

def _faulty_once_cell_worker(spec):
    """First attempt per flag: SIGKILL or hang (child only), then behave."""

    spec = dict(spec)
    crash_flag = spec.pop("_crash_flag", None)
    hang_flag = spec.pop("_hang_flag", None)
    if _in_worker():
        if crash_flag is not None and not os.path.exists(crash_flag):
            open(crash_flag, "w").close()
            os.kill(os.getpid(), signal.SIGKILL)
        if hang_flag is not None and not os.path.exists(hang_flag):
            open(hang_flag, "w").close()
            time.sleep(30.0)
    return _run_cell_worker(spec)


def _always_crash_cell_worker(spec):
    if _in_worker():
        os.kill(os.getpid(), signal.SIGKILL)
    return _run_cell_worker(spec)


def _never_called_worker(spec):  # pragma: no cover - must not run
    raise AssertionError("worker ran for a journalled cell")


CELLS = [
    dict(app="alya", nranks=8, iterations=2, seed=51),
    dict(app="gromacs", nranks=8, iterations=2, seed=51),
]


class TestRunCellsResilience:
    def test_grid_survives_worker_sigkill_and_hang(self, tmp_path):
        clear_cache()
        want = [
            (c.baseline.exec_time_us, c.savings_pct(0.05))
            for c in run_cells([dict(s) for s in CELLS])
        ]
        clear_cache()
        specs = [
            dict(CELLS[0], _crash_flag=str(tmp_path / "crash")),
            dict(CELLS[1], _hang_flag=str(tmp_path / "hang")),
        ]
        try:
            got = run_cells(
                specs,
                workers=2,
                timeout_s=3.0,
                retries=3,
                _worker=_faulty_once_cell_worker,
            )
        finally:
            clear_cache()
        assert [
            (c.baseline.exec_time_us, c.savings_pct(0.05)) for c in got
        ] == want

    def test_exhausted_crash_names_the_cell(self):
        clear_cache()
        try:
            with pytest.raises(CellExecutionError) as excinfo:
                run_cells(
                    [dict(s) for s in CELLS],
                    workers=2,
                    retries=0,
                    fallback=False,
                    _worker=_always_crash_cell_worker,
                )
        finally:
            clear_cache()
        exc = excinfo.value
        assert exc.kind == "crashed"
        # the message names the cell via its spec, not a bare index
        assert exc.label in {_cell_label(s) for s in CELLS}
        assert "@8" in str(exc)

    def test_checkpoint_resumes_without_recomputation(self, tmp_path):
        journal_path = str(tmp_path / "cells.journal")
        clear_cache()
        try:
            first = run_cells(
                [dict(s) for s in CELLS], workers=2, checkpoint=journal_path
            )
            want = [c.baseline.exec_time_us for c in first]
            assert len(ResultJournal(journal_path).load()) == len(CELLS)

            # a fresh process (cleared cache) resumes from the journal:
            # the pool worker must never be invoked again
            clear_cache()
            resumed = run_cells(
                [dict(s) for s in CELLS],
                workers=2,
                checkpoint=journal_path,
                _worker=_never_called_worker,
            )
            assert [c.baseline.exec_time_us for c in resumed] == want
        finally:
            clear_cache()

    def test_cell_label_names_non_default_dimensions(self):
        assert _cell_label(dict(app="alya", nranks=8)) == "alya@8"
        label = _cell_label(
            dict(app="alya", nranks=8, topology="torus:k=3,n=2",
                 faults="faults:link_fail=0.5", kernel="reference")
        )
        assert "torus:k=3,n=2" in label
        assert "faults:link_fail=0.5" in label
        assert "reference" in label
