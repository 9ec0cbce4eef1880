"""The supervised-worker primitive (:mod:`repro.workers`).

Pins down what the portfolio, the service and the farm rely on: the
kill-escalating reap, the three verdict kinds, the crash record of a
worker that died without answering, and that terminating a worker never
orphans the workers it started itself.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import time

from repro.experiments.runner import SAT_MAPIT, ExperimentConfig, run_sweep
from repro.farm.faults import FaultPlan
from repro.workers import Worker, crash_detail, crash_reason, reap, wait


def _sleep_forever() -> None:
    time.sleep(600)


def _ignore_sigterm_and_sleep() -> None:
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    time.sleep(600)


def _noop() -> None:
    pass


class TestReapProcess:
    def test_cooperative_worker_dies_on_sigterm(self):
        process = multiprocessing.Process(target=_sleep_forever, daemon=True)
        process.start()
        reap(process, grace=5.0)
        assert not process.is_alive()

    def test_sigterm_ignorer_is_kill_escalated(self):
        process = multiprocessing.Process(
            target=_ignore_sigterm_and_sleep, daemon=True
        )
        process.start()
        time.sleep(0.3)  # let the child install SIG_IGN
        start = time.monotonic()
        reap(process, grace=0.3)
        elapsed = time.monotonic() - start
        assert not process.is_alive()
        # Escalated after the grace, not the full sleep.
        assert elapsed < 5.0

    def test_already_dead_process_is_a_noop(self):
        process = multiprocessing.Process(target=_noop, daemon=True)
        process.start()
        process.join()
        reap(process, grace=5.0)  # must not raise or hang
        assert not process.is_alive()

    def test_grace_is_waited_out_before_the_kill(self):
        process = multiprocessing.Process(
            target=_ignore_sigterm_and_sleep, daemon=True
        )
        process.start()
        time.sleep(0.3)
        start = time.monotonic()
        reap(process, grace=0.5)
        assert not process.is_alive()
        assert process.exitcode == -signal.SIGKILL
        assert 0.5 <= time.monotonic() - start < 5.0


class TestCrashDetail:
    def test_exit_code(self):
        detail = crash_detail(3)
        assert detail == {
            "kind": "worker_crashed",
            "exit_code": 3,
            "signal": None,
            "signal_name": None,
        }
        assert crash_reason(detail) == "exit code 3"

    def test_sigkill(self):
        detail = crash_detail(-signal.SIGKILL)
        assert detail == {
            "kind": "worker_crashed",
            "exit_code": None,
            "signal": int(signal.SIGKILL),
            "signal_name": "SIGKILL",
        }
        assert crash_reason(detail) == "killed by SIGKILL"


def _answer(value):
    return value


def _raise(message):
    raise ValueError(message)


def _exit_three():
    os._exit(3)


def _verdict_of(worker: Worker):
    assert wait([worker], timeout=30) == [worker]
    return worker.verdict()


class TestVerdicts:
    def test_ok(self):
        assert _verdict_of(Worker(_answer, {"ii": 3})) == ("ok", {"ii": 3})

    def test_error_names_the_exception_type(self):
        assert _verdict_of(Worker(_raise, "boom")) == (
            "error", "ValueError: boom"
        )

    def test_death_without_answer_is_a_crash(self):
        assert _verdict_of(Worker(_exit_three)) == ("crashed", crash_detail(3))

    def test_wait_times_out_on_a_silent_worker(self):
        worker = Worker(_sleep_forever)
        try:
            assert wait([worker], timeout=0.2) == []
        finally:
            worker.reap(5.0)
        assert not worker.process.is_alive()


def _parent_of_a_sleeper(pid_path: str) -> None:
    inner = Worker(_sleep_forever)
    with open(pid_path, "w", encoding="utf-8") as handle:
        handle.write(str(inner.process.pid))
    wait([inner])


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class TestNestedWorkers:
    def test_sigterm_reaps_the_workers_grandchildren(self, tmp_path):
        """A worker that started a worker of its own is SIGTERMed: the
        grandchild must die with it, not outlive it as an orphan."""
        pid_path = tmp_path / "grandchild.pid"
        outer = Worker(_parent_of_a_sleeper, str(pid_path))
        deadline = time.monotonic() + 30
        while not pid_path.exists() or not pid_path.read_text():
            assert time.monotonic() < deadline, "grandchild never started"
            time.sleep(0.05)
        grandchild = int(pid_path.read_text())
        assert _alive(grandchild)
        try:
            outer.reap(5.0)
            # The outer worker unwound (exit 128 + SIGTERM), not SIGKILLed.
            assert outer.process.exitcode == 128 + signal.SIGTERM
            assert not _alive(grandchild)
        finally:
            if _alive(grandchild):  # an orphan would outlive the suite
                os.kill(grandchild, signal.SIGKILL)


class TestFarmCrashText:
    def test_kill_after_lease_failure_names_sigkill(self, tmp_path):
        journal = tmp_path / "journal"
        config = ExperimentConfig(
            kernels=("srand",), sizes=(3,), mappers=(SAT_MAPIT,), timeout=15.0,
        )
        sweep = run_sweep(
            config, jobs=1, journal_dir=str(journal),
            faults=FaultPlan(kill_worker_after=0),
        )
        assert sweep.records[0].status == "mapped"
        events = [
            json.loads(line)
            for line in (journal / "journal.jsonl").read_text().splitlines()
        ]
        failures = [e["error"] for e in events if e.get("type") == "failed"]
        assert failures == [
            "worker 0 died (killed by SIGKILL) while holding the lease"
        ]
