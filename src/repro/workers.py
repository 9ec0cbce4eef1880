"""Supervised worker processes: start, wait on, reap and diagnose.

The one place a child process is started.  Three consumers run on it:
the portfolio strategy (one worker per racing lane), the mapping service
(one worker per job) and the sweep farm (a pool of long-lived workers).

* A :class:`Worker` is a process plus its own private ``Pipe``.  Nothing
  is shared between workers, so a dead worker's pipe is final: it holds
  the worker's answer or EOF, and there is no window in which an answer
  is still "in flight" behind the process's death.
* The child runs ``target(*args)`` under :func:`_child_main`.  SIGTERM is
  turned into ``SystemExit``, so terminating a worker unwinds its
  ``finally`` blocks; workers it started itself are reaped on the way
  out, so cancelling a worker never orphans its grandchildren.  The child
  then sends exactly one ``("ok", value)`` or ``("error", "Type: msg")``;
  a cancelled child (``SystemExit``) sends nothing.
* A *duplex* worker (the farm's) gets its end of the pipe as the first
  argument and may exchange its own messages before the final verdict.
* The parent reads a **verdict**: ``("ok", value)``, ``("error", msg)``
  or ``("crashed", crash_detail(exitcode))`` for a worker that died
  without answering.
* :func:`reap` cancels a process with SIGTERM, a bounded grace, then
  SIGKILL and an unbounded join; the grace is the consumer's policy.

Workers are not daemonic: a daemonic process may not start children, and
service and farm workers start portfolio lanes.  Every consumer reaps its
workers in a ``finally`` instead.
"""

from __future__ import annotations

import multiprocessing
import signal
from multiprocessing.connection import wait as _wait_ready
from typing import Any

__all__ = ["Worker", "crash_detail", "crash_reason", "reap", "wait"]

#: Seconds a worker's leftover children get to honour SIGTERM when the
#: worker itself exits (see :func:`_child_main`).
_CHILD_GRACE = 5.0


def _sigterm_to_exit(signum, frame):  # pragma: no cover - runs in worker
    """Turn SIGTERM into an orderly unwind through ``finally`` blocks."""
    raise SystemExit(128 + signal.SIGTERM)


def _child_main(conn, target, args: tuple, duplex: bool) -> None:
    """Child-side wrapper: run ``target`` and send its one verdict."""
    signal.signal(signal.SIGTERM, _sigterm_to_exit)
    try:
        value = target(conn, *args) if duplex else target(*args)
    except SystemExit:
        raise
    except BaseException as exc:
        conn.send(("error", f"{type(exc).__name__}: {exc}"))
    else:
        conn.send(("ok", value))
    finally:
        # Cancelled mid-run, a worker may still own workers of its own;
        # a repeated SIGTERM must not cut their reaping short.
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        for child in multiprocessing.active_children():
            reap(child, _CHILD_GRACE)


class Worker:
    """One supervised child process and the private pipe to it."""

    def __init__(self, target, *args, ctx=None, duplex: bool = False) -> None:
        ctx = ctx or multiprocessing.get_context()
        self.conn, child_conn = ctx.Pipe(duplex=duplex)
        self.process = ctx.Process(
            target=_child_main, args=(child_conn, target, args, duplex),
        )
        self.process.start()
        # Only the child may hold the sending end, or EOF never comes.
        child_conn.close()

    def verdict(self) -> tuple[str, Any]:
        """The final verdict of a worker that :func:`wait` reported ready.

        Reads the answer (or notices EOF / death without one), then closes
        the pipe and joins the process: sending its verdict is the child's
        last act, so the join is only its exit.
        """
        message = None
        try:
            if self.conn.poll():
                message = self.conn.recv()
        except (EOFError, OSError):  # EOF, or killed mid-message
            pass
        self.conn.close()
        self.process.join()
        if message is None:
            return ("crashed", crash_detail(self.process.exitcode))
        return message

    def reap(self, grace: float) -> None:
        """Cancel the worker: close its pipe and :func:`reap` the process."""
        self.conn.close()
        reap(self.process, grace)


def wait(workers, timeout: float | None = None) -> list[Worker]:
    """The workers with something to report, in the order given.

    A worker is ready when its pipe is readable (a message or EOF) or its
    process has exited.  Returns an empty list when ``timeout`` seconds
    pass first (``None`` waits indefinitely).
    """
    workers = list(workers)
    handles = [w.conn for w in workers] + [w.process.sentinel for w in workers]
    ready = set(_wait_ready(handles, timeout))
    return [
        w for w in workers if w.conn in ready or w.process.sentinel in ready
    ]


def reap(process, grace: float) -> None:
    """Cancel a process, guaranteeing it is dead on return.

    ``terminate()`` (SIGTERM) first, so the worker can run its cleanup
    handlers; if it has not exited within ``grace`` seconds — a worker
    stuck in native solver code, or one that installed a SIGTERM
    handler/ignore — escalate to ``kill()`` (SIGKILL, uncatchable) and
    join without a timeout.  SIGKILL cannot be blocked, so the unbounded
    join always returns.
    """
    if process.is_alive():
        process.terminate()
    process.join(timeout=grace)
    if process.is_alive():
        process.kill()
        process.join()


def crash_detail(exitcode: int | None) -> dict:
    """Structured ``worker_crashed`` record from a worker's exit code.

    A negative multiprocessing exit code means death by signal; the signal
    number (and name, when the platform knows it) is reported separately
    from a plain nonzero exit so an operator can tell an OOM kill
    (SIGKILL) from a solver abort at a glance.
    """
    detail: dict[str, Any] = {
        "kind": "worker_crashed",
        "exit_code": exitcode,
        "signal": None,
        "signal_name": None,
    }
    if exitcode is not None and exitcode < 0:
        signum = -exitcode
        detail["exit_code"] = None
        detail["signal"] = signum
        try:
            detail["signal_name"] = signal.Signals(signum).name
        except ValueError:
            pass
    return detail


def crash_reason(detail: dict) -> str:
    """``"killed by SIGKILL"`` / ``"exit code 3"`` for a crash record."""
    if detail.get("signal") is not None:
        name = detail.get("signal_name") or f"signal {detail['signal']}"
        return f"killed by {name}"
    return f"exit code {detail.get('exit_code')}"
