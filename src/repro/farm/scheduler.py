"""The farm scheduler: worker pool, lease enforcement, crash recovery.

One scheduler process (the caller) owns the :class:`LeasedWorkQueue`, the
journal, and N worker processes.  Workers are deliberately dumb: receive a
work item, run :func:`repro.experiments.runner.run_single`, send back a
verdict, repeat.  All policy — retries, backoff, quarantine, lease expiry,
respawn — lives in the scheduler, so a worker can die (or be SIGKILLed by
the fault injector) at any instant without losing anything but the attempt
in flight.

Protocol
--------

* Workers are :class:`repro.workers.Worker` processes with a duplex
  pipe each.  The scheduler sends one ``{"item": ..., "attempt": n}``
  message per lease and ``None`` to stop.  The worker sends
  ``("heartbeat", None)`` from a daemon thread every ``lease_ttl / 4``
  seconds and ``("done" | "failed", payload)`` per finished attempt; a
  lock serialises the two senders.
* A worker that stops heartbeating past the lease TTL is presumed wedged:
  the scheduler reaps it (:func:`repro.workers.reap` — SIGTERM, bounded
  grace, SIGKILL), expires the lease, requeues the item and spawns a
  replacement.  A worker that *dies* (nonzero exit, signal) wakes the
  scheduler through its process sentinel; its pipe is drained, then the
  lease fails with the :func:`repro.workers.crash_detail` of its exit.
* Respawned workers get fresh monotonic IDs — a lease can never be
  confused between a dead worker and its replacement, and one-shot
  injected faults (targeted at worker 0) fire exactly once.

Workers are forked, not spawned: the scheduler has already imported the
whole mapper stack, and fork keeps per-respawn latency in milliseconds.
"""

from __future__ import annotations

import dataclasses
import multiprocessing as mp
import threading
import time
from dataclasses import dataclass, field

from repro.exceptions import FarmError
from repro.farm.faults import FaultPlan
from repro.farm.journal import (
    SweepJournal,
    WorkItem,
    sweep_config_digest,
    work_item_id,
)
from repro.farm.leases import FarmStats, LeasedWorkQueue
from repro.farm.retry import TRANSIENT, RetryPolicy, classify_failure
from repro.workers import Worker, crash_detail, crash_reason, wait

__all__ = ["FarmConfig", "FarmOutcome", "materialise_items", "run_farm"]

#: Scheduler wait quantum: the longest the scheduler sleeps without a
#: worker message or death, so it also bounds lease-expiry latency.
_WAIT_QUANTUM = 0.1

#: TERM grace for farm workers, shorter than the portfolio's 5 s lane
#: grace and the service's 20 s job grace: the workers the farm reaps are
#: mostly wedged (SIGSTOPped workers never see the SIGTERM, only the
#: SIGKILL), so a long grace only delays the requeue.
_REAP_GRACE = 2.0


@dataclass(frozen=True)
class FarmConfig:
    """Execution knobs of one farm run (not part of the sweep protocol)."""

    jobs: int = 2
    lease_ttl: float = 60.0
    policy: RetryPolicy = field(default_factory=RetryPolicy)
    #: Journal directory (required — the journal is the resume contract).
    journal_dir: str = ""
    #: Resume an existing journal instead of starting a fresh one.
    resume: bool = False
    faults: FaultPlan | None = None


@dataclass
class FarmOutcome:
    """Everything the farm hands back to the sweep runner."""

    items: list[WorkItem]
    #: item id -> RunRecord as plain data, annotated with retries/resumed.
    records: dict[str, dict]
    #: item id -> final error message of poisoned items.
    quarantined: dict[str, str]
    #: item id -> retry attempts consumed (for items that needed any).
    attempts: dict[str, int]
    stats: FarmStats


def materialise_items(config) -> list[WorkItem]:
    """Expand a sweep configuration into its deterministic work-item list.

    Same nesting order as the serial sweep (scenario, kernel, size,
    mapper), so farm output sorted by item index is record-for-record the
    serial output.
    """
    from repro.experiments.runner import HOMOGENEOUS

    digest = sweep_config_digest(config)
    items: list[WorkItem] = []
    for scenario in (config.scenarios or (HOMOGENEOUS,)):
        for kernel in config.kernels:
            for size in config.sizes:
                for mapper in config.mappers:
                    items.append(
                        WorkItem(
                            index=len(items),
                            id=work_item_id(kernel, size, mapper, scenario, digest),
                            kernel=kernel,
                            size=size,
                            mapper=mapper,
                            scenario=scenario,
                        )
                    )
    return items


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

def _farm_worker(
    conn,
    worker_id: int,
    config,
    faults: FaultPlan | None,
    heartbeat_interval: float,
) -> None:
    """Worker main: lease in, verdict out, until the ``None`` sentinel."""
    from repro.experiments.runner import run_single

    lock = threading.Lock()

    def send(message) -> None:
        with lock:
            conn.send(message)

    def beat() -> None:
        while not stop.wait(heartbeat_interval):
            try:
                send(("heartbeat", None))
            except OSError:  # pragma: no cover - scheduler already gone
                return

    stop = threading.Event()
    heartbeat = threading.Thread(target=beat, daemon=True)
    heartbeat.start()
    received = 0
    try:
        while True:
            task = conn.recv()
            if task is None:
                break
            received += 1
            if faults is not None:
                # May SIGKILL or SIGSTOP this very process — before any
                # solving or sending, so the lease is provably still open
                # when we die.
                faults.on_item_received(worker_id, received)
            item = WorkItem.from_payload(task["item"])
            attempt = int(task["attempt"])
            try:
                if faults is not None:
                    faults.check_backend(item.id, attempt)
                record = run_single(
                    item.kernel, item.size, item.mapper, config, item.scenario
                )
                send(("done", {"id": item.id,
                               "record": dataclasses.asdict(record)}))
            except Exception as exc:
                send(("failed", {
                    "id": item.id,
                    "error": f"{type(exc).__name__}: {exc}",
                    "kind": classify_failure(exc),
                }))
    finally:
        stop.set()
        heartbeat.join()


# ---------------------------------------------------------------------------
# Scheduler side
# ---------------------------------------------------------------------------

@dataclass
class _Member:
    """One pool worker and the scheduler's view of it."""

    id: int
    worker: Worker
    busy: bool = False


class _Pool:
    """The worker processes, with monotonic IDs across respawns."""

    def __init__(self, config, farm: FarmConfig) -> None:
        self._ctx = mp.get_context("fork")
        self._config = config
        self._farm = farm
        self._next_id = 0
        self.members: dict[int, _Member] = {}
        self._heartbeat_interval = max(0.02, min(1.0, farm.lease_ttl / 4.0))

    def spawn(self) -> _Member:
        worker_id = self._next_id
        self._next_id += 1
        worker = Worker(
            _farm_worker, worker_id, self._config, self._farm.faults,
            self._heartbeat_interval, ctx=self._ctx, duplex=True,
        )
        member = _Member(id=worker_id, worker=worker)
        self.members[worker_id] = member
        return member

    def idle(self) -> list[_Member]:
        return [
            m for m in self.members.values()
            if not m.busy and m.worker.process.is_alive()
        ]

    def ready(self, timeout: float) -> list[_Member]:
        """Members with messages to read or a dead process."""
        by_worker = {m.worker: m for m in self.members.values()}
        return [by_worker[w] for w in wait(by_worker, timeout)]

    def remove(self, worker_id: int) -> _Member | None:
        return self.members.pop(worker_id, None)

    def shutdown(self) -> None:
        for member in self.members.values():
            try:
                member.worker.conn.send(None)
            except OSError:  # pragma: no cover - broken pipe to dead child
                pass
        for member in self.members.values():
            member.worker.process.join(timeout=_REAP_GRACE)
            member.worker.reap(_REAP_GRACE)
        self.members.clear()


def run_farm(config, farm: FarmConfig, report=None) -> FarmOutcome:
    """Run one sweep through the fault-tolerant farm.

    ``report`` (optional) is called with each freshly completed record
    dict, in completion order — the runner uses it for ``--progress``.
    """
    if not farm.journal_dir:
        raise FarmError("the farm needs a journal directory")
    if farm.jobs < 1:
        raise FarmError(f"farm needs at least one worker, got jobs={farm.jobs}")

    start = time.perf_counter()
    digest = sweep_config_digest(config)
    items = materialise_items(config)
    journal = SweepJournal(farm.journal_dir)

    resumed_ids: set[str] = set()
    if farm.resume:
        state = journal.replay()
        if state.config_digest != digest:
            raise FarmError(
                f"journal at {journal.path} was written by a different "
                f"sweep configuration (or solver version); it cannot be "
                f"resumed with these settings"
            )
        journal.reopen()
        journal.append(
            "resumed",
            done=len(state.done),
            quarantined=len(state.quarantined),
            in_flight_expired=len(state.in_flight),
        )
    else:
        state = None
        journal.create(digest, items)

    queue = LeasedWorkQueue(
        items,
        policy=farm.policy,
        lease_ttl=farm.lease_ttl,
        journal=journal,
    )
    if state is not None:
        queue.stats.resumed = True
        for item_id, record in state.done.items():
            if item_id in queue.items:
                queue.preload_done(item_id, record)
                resumed_ids.add(item_id)
        for item_id, error in state.quarantined.items():
            if item_id in queue.items and item_id not in resumed_ids:
                queue.preload_quarantined(item_id, error)
        for item_id, attempts in state.attempts.items():
            if item_id in queue.items and item_id not in queue.results:
                queue.preload_attempts(item_id, attempts)

    pool = _Pool(config, farm)
    faults = farm.faults
    corruptions_left = (
        1 if faults is not None and faults.corrupt_cache_after is not None else 0
    )

    def on_message(member: _Member, kind: str, payload) -> None:
        nonlocal corruptions_left
        if kind == "heartbeat":
            queue.heartbeat(member.id)
        elif kind == "done":
            member.busy = False
            if queue.complete(payload["id"], payload["record"]):
                if report is not None:
                    report(payload["record"])
                if (
                    corruptions_left
                    and queue.stats.completed > faults.corrupt_cache_after
                    and getattr(config, "cache_dir", None)
                ):
                    from repro.farm.faults import corrupt_newest_entry

                    corrupt_newest_entry(config.cache_dir)
                    corruptions_left = 0
        elif kind == "failed":
            member.busy = False
            queue.fail(payload["id"], payload["error"], payload["kind"])

    try:
        for _ in range(farm.jobs):
            if queue.outstanding > len(pool.members):
                pool.spawn()

        while not queue.finished:
            _dispatch(pool, queue)
            for member in pool.ready(_WAIT_QUANTUM):
                # A dead worker's pipe is final: what it sent before dying
                # lands before its lease is judged.
                _drain(member, on_message)
                if not member.worker.process.is_alive():
                    _reap_dead(pool, queue, member)
            _expire_leases(pool, queue)
    finally:
        pool.shutdown()
        queue.stats.wall_s = time.perf_counter() - start
        journal.close()

    records: dict[str, dict] = {}
    for item_id, record in queue.results.items():
        annotated = dict(record)
        annotated["retries"] = queue.attempts_of(item_id)
        annotated["resumed"] = item_id in resumed_ids
        records[item_id] = annotated
    return FarmOutcome(
        items=items,
        records=records,
        quarantined=dict(queue.quarantined),
        attempts={
            item_id: queue.attempts_of(item_id)
            for item_id in queue.items
            if queue.attempts_of(item_id)
        },
        stats=queue.stats,
    )


def _dispatch(pool: _Pool, queue: LeasedWorkQueue) -> None:
    for member in pool.idle():
        leased = queue.acquire(member.id)
        if leased is None:
            return
        item, attempt = leased
        member.busy = True
        try:
            member.worker.conn.send({"item": item.payload(), "attempt": attempt})
        except OSError:  # died since idle(): _reap_dead fails the lease
            pass


def _drain(member: _Member, on_message) -> None:
    """Handle every message waiting on a member's pipe."""
    conn = member.worker.conn
    while conn.poll():
        try:
            kind, payload = conn.recv()
        except (EOFError, OSError):  # the worker exited (or died mid-send)
            return
        on_message(member, kind, payload)


def _reap_dead(pool: _Pool, queue: LeasedWorkQueue, member: _Member) -> None:
    """Fail a dead worker's lease as transient; respawn if work remains."""
    pool.remove(member.id)
    member.worker.reap(_REAP_GRACE)
    queue.stats.worker_crashes += 1
    item_id = queue.lease_of(member.id)
    if item_id is not None:
        reason = crash_reason(crash_detail(member.worker.process.exitcode))
        queue.fail(
            item_id,
            f"worker {member.id} died ({reason}) while holding the lease",
            TRANSIENT,
        )
    if queue.outstanding > len(pool.members):
        pool.spawn()
        queue.stats.worker_respawns += 1


def _expire_leases(pool: _Pool, queue: LeasedWorkQueue) -> None:
    """Revoke leases whose worker stopped heartbeating; reap the worker.

    A wedged (SIGSTOPped) worker is still *alive*, so its process
    sentinel never fires — only the missing heartbeats catch it.
    :func:`repro.workers.reap` handles the stopped state: SIGTERM is not
    delivered to a stopped process, but the SIGKILL escalation is.
    """
    for lease in queue.expired():
        member = pool.remove(lease.worker)
        queue.expire(lease)
        if member is not None:
            member.worker.reap(_REAP_GRACE)
        if queue.outstanding > len(pool.members):
            pool.spawn()
            queue.stats.worker_respawns += 1
