"""Job lifecycle: dedup of identical in-flight requests, cancellation
that reaps worker processes, budget watchdog, tenant isolation.

Tests that monkeypatch the worker function inject the ``fork``
multiprocessing context (patched module state survives a fork, not a
spawn); everything else exercises the manager's default spawn path.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import signal
import time

import pytest

import repro.service.jobs as jobs_module
from repro.cgra.architecture import CGRA
from repro.core.mapper import MapperConfig
from repro.kernels import get_kernel
from repro.service.jobs import CANCELLED, DONE, FAILED, JobManager
from repro.service.protocol import MapRequest, ServiceLimits


def run(coro):
    return asyncio.run(coro)


def request(tenant: str = "default", timeout: float = 60.0, **config):
    # A fresh DFG per request, like the protocol layer guarantees.
    from repro.dfg.graph import DFG

    dfg = DFG.from_dict(get_kernel("srand").to_dict())
    fields = dict(timeout=timeout, random_seed=0, verbose=False)
    fields.update(config)
    return MapRequest(
        dfg=dfg,
        cgra=CGRA.square(3),
        config=MapperConfig(**fields),
        tenant=tenant,
    )


def _sleepy_worker(dfg, cgra, config):
    time.sleep(600)


def _stubborn_worker(dfg, cgra, config):
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    time.sleep(600)


def _fork_manager(**kwargs):
    kwargs.setdefault("mp_context", multiprocessing.get_context("fork"))
    return JobManager(**kwargs)


class TestDedup:
    def test_identical_concurrent_requests_share_one_solve(self, tmp_path):
        """The acceptance property: two identical concurrent submissions
        run exactly one solve."""

        async def scenario():
            manager = JobManager(pool_size=2, cache_dir=str(tmp_path))
            first, created_first = manager.submit(request())
            second, created_second = manager.submit(request())
            assert created_first and not created_second
            assert second is first
            assert first.requests == 2
            await first.done_event.wait()
            return manager, first

        manager, job = run(scenario())
        assert job.status == DONE
        assert job.result["ii"] == 3
        assert manager.stats.solves_started == 1
        assert manager.stats.dedup_joined == 1
        assert manager.stats.requests == 2

    def test_finished_job_is_not_joined(self, tmp_path):
        """Dedup covers *in-flight* work only; a repeat after completion
        is a new job served by the persistent cache."""

        async def scenario():
            manager = JobManager(pool_size=1, cache_dir=str(tmp_path))
            first, _ = manager.submit(request())
            await first.done_event.wait()
            second, created = manager.submit(request())
            await second.done_event.wait()
            return manager, first, second

        manager, first, second = run(scenario())
        assert second is not first
        assert second.status == DONE
        assert second.result["cache_hit"] is True
        assert manager.stats.dedup_joined == 0
        assert manager.stats.solves_started == 2

    def test_different_tenants_never_dedup(self, tmp_path):
        async def scenario():
            manager = JobManager(pool_size=2, cache_dir=str(tmp_path))
            a, _ = manager.submit(request(tenant="team-a"))
            b, created_b = manager.submit(request(tenant="team-b"))
            assert a is not b and created_b
            await a.done_event.wait()
            await b.done_event.wait()
            return manager

        manager = run(scenario())
        assert manager.stats.solves_started == 2
        assert manager.stats.dedup_joined == 0
        # Tenants share nothing on disk: one namespace directory each.
        assert (tmp_path / "team-a").is_dir()
        assert (tmp_path / "team-b").is_dir()
        assert list((tmp_path / "team-a").glob("*.json"))
        assert list((tmp_path / "team-b").glob("*.json"))

    def test_semantic_config_change_is_a_different_job(self):
        async def scenario():
            manager = JobManager(pool_size=2)
            a, _ = manager.submit(request())
            b, created = manager.submit(request(schedule_slack=2))
            assert a is not b and created
            await a.done_event.wait()
            await b.done_event.wait()
            return manager

        manager = run(scenario())
        assert manager.stats.solves_started == 2


class TestRejection:
    def test_unmappable_request_rejected_before_any_work(self, monkeypatch):
        from repro.exceptions import MappingError

        def refute(dfg, cgra):
            raise MappingError("kernel cannot fit fabric at any II")

        monkeypatch.setattr(jobs_module, "check_kernel_fits", refute)

        async def scenario():
            manager = JobManager(pool_size=1)
            with pytest.raises(MappingError):
                manager.submit(request())
            return manager

        manager = run(scenario())
        assert manager.stats.rejected == 1
        assert manager.stats.solves_started == 0

    def test_unknown_backend_rejected(self):
        async def scenario():
            manager = JobManager(pool_size=1)
            with pytest.raises(Exception):
                manager.submit(request(backend="z3"))
            return manager

        manager = run(scenario())
        assert manager.stats.rejected == 1


class TestCancellation:
    def test_cancel_reaps_the_worker_process(self, monkeypatch):
        monkeypatch.setattr(jobs_module, "_job_worker", _sleepy_worker)

        async def scenario():
            manager = _fork_manager(pool_size=1)
            job, _ = manager.submit(request())
            while job.pid is None:
                await asyncio.sleep(0.05)
            manager.cancel(job.id)
            await job.done_event.wait()
            return manager, job

        manager, job = run(scenario())
        assert job.status == CANCELLED
        assert manager.stats.cancelled == 1
        assert multiprocessing.active_children() == []

    def test_cancel_escalates_on_sigterm_ignoring_worker(self, monkeypatch):
        """A worker that shrugs off SIGTERM is SIGKILLed after the grace,
        leaving no orphan — the service-side half of the reap discipline."""
        monkeypatch.setattr(jobs_module, "_job_worker", _stubborn_worker)
        monkeypatch.setattr(jobs_module, "_JOB_TERM_GRACE", 0.3)

        async def scenario():
            manager = _fork_manager(pool_size=1)
            job, _ = manager.submit(request())
            while job.pid is None:
                await asyncio.sleep(0.05)
            await asyncio.sleep(0.3)  # let the worker install SIG_IGN
            manager.cancel(job.id)
            await job.done_event.wait()
            return manager, job

        manager, job = run(scenario())
        assert job.status == CANCELLED
        assert multiprocessing.active_children() == []

    def test_cancel_of_queued_job_never_starts_a_solve(self, monkeypatch):
        monkeypatch.setattr(jobs_module, "_job_worker", _sleepy_worker)

        async def scenario():
            manager = _fork_manager(pool_size=1)
            running, _ = manager.submit(request())
            queued, _ = manager.submit(request(schedule_slack=2))
            while running.pid is None:
                await asyncio.sleep(0.05)
            manager.cancel(queued.id)
            await queued.done_event.wait()
            manager.cancel(running.id)
            await running.done_event.wait()
            return manager, queued

        manager, queued = run(scenario())
        assert queued.status == CANCELLED
        assert queued.pid is None
        assert manager.stats.solves_started == 1

    def test_shutdown_cancels_everything(self, monkeypatch):
        monkeypatch.setattr(jobs_module, "_job_worker", _sleepy_worker)

        async def scenario():
            manager = _fork_manager(pool_size=2)
            first, _ = manager.submit(request())
            second, _ = manager.submit(request(schedule_slack=2))
            while first.pid is None or second.pid is None:
                await asyncio.sleep(0.05)
            await manager.shutdown()
            return first, second

        first, second = run(scenario())
        assert first.status == CANCELLED
        assert second.status == CANCELLED
        assert multiprocessing.active_children() == []


class TestBudget:
    def test_wedged_worker_is_reaped_at_the_hard_ceiling(self, monkeypatch):
        monkeypatch.setattr(jobs_module, "_job_worker", _sleepy_worker)
        monkeypatch.setattr(jobs_module, "_BUDGET_GRACE", 0.3)

        async def scenario():
            manager = _fork_manager(pool_size=1)
            job, _ = manager.submit(request(timeout=0.2))
            await job.done_event.wait()
            return job

        job = run(scenario())
        assert job.status == FAILED
        assert "budget" in job.error
        assert multiprocessing.active_children() == []


class TestStats:
    def test_stats_payload_shape(self, tmp_path):
        async def scenario():
            manager = JobManager(pool_size=2, cache_dir=str(tmp_path))
            job, _ = manager.submit(request(tenant="team-a"))
            await job.done_event.wait()
            return manager

        manager = run(scenario())
        payload = manager.stats_payload()
        assert payload["service"]["pool_size"] == 2
        assert payload["requests"]["completed"] == 1
        assert payload["cache"]["directory"]["tenants"]["team-a"]["entries"] == 1
        # A fresh miss-then-write run: no hits yet.
        assert payload["cache"]["misses"] >= 1
        assert payload["cache"]["writes"] >= 1

    def test_stats_sweeps_stale_temps(self, tmp_path):
        manager = JobManager(pool_size=1, cache_dir=str(tmp_path))
        namespace = tmp_path / "default"
        namespace.mkdir()
        stale = namespace / "orphan.tmp"
        stale.write_text("{")
        old = time.time() - 3600
        import os

        os.utime(stale, (old, old))
        manager._tenants.add("default")
        payload = manager.stats_payload()
        assert not stale.exists()
        assert payload["cache"]["temp_files_swept"] == 1


def _exiting_worker(dfg, cgra, config):
    import os
    os._exit(3)  # dies without ever sending a verdict


def _self_killing_worker(dfg, cgra, config):
    import os
    os.kill(os.getpid(), signal.SIGKILL)


class TestWorkerCrash:
    """A worker that dies without a verdict is not a mapping failure — it
    is machine trouble, and the job must say so in a structured way."""

    def _crash(self, monkeypatch, worker):
        monkeypatch.setattr(jobs_module, "_job_worker", worker)

        async def scenario():
            manager = _fork_manager(pool_size=1)
            job, _ = manager.submit(request())
            await job.done_event.wait()
            return manager, job

        return run(scenario())

    def test_exit_code_death_is_structured(self, monkeypatch):
        manager, job = self._crash(monkeypatch, _exiting_worker)
        assert job.status == FAILED
        assert job.failure == {
            "kind": "worker_crashed",
            "exit_code": 3,
            "signal": None,
            "signal_name": None,
        }
        assert job.error == "mapping worker died unexpectedly (exit code 3)"
        assert manager.stats.worker_crashes == 1
        assert manager.stats.failed == 1

    def test_signal_death_is_structured(self, monkeypatch):
        manager, job = self._crash(monkeypatch, _self_killing_worker)
        assert job.status == FAILED
        assert job.failure == {
            "kind": "worker_crashed",
            "exit_code": None,
            "signal": int(signal.SIGKILL),
            "signal_name": "SIGKILL",
        }
        assert job.error == (
            "mapping worker died unexpectedly (killed by SIGKILL)"
        )
        assert manager.stats.worker_crashes == 1

    def test_crash_detail_reaches_payload_and_stats(self, monkeypatch):
        manager, job = self._crash(monkeypatch, _self_killing_worker)
        payload = job.to_payload()
        assert payload["failure"]["kind"] == "worker_crashed"
        assert payload["failure"]["signal_name"] == "SIGKILL"
        stats = manager.stats_payload()
        assert stats["requests"]["worker_crashes"] == 1
