"""Portfolio lane cancellation and lane death: no-leak guarantees.

The portfolio's old cancellation path was terminate-and-hope: a worker
that ignored SIGTERM (stuck in native solver code, or with a handler
installed) silently outlived the strategy.  These tests pin down the
strategy-exit invariant that no lane survives, on top of the
kill-escalating :func:`repro.workers.reap` (tested in
``tests/test_workers.py``), and that a lane dying without an answer only
fails that lane — the properties a long-lived service process depends on.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import pytest

import repro.search.portfolio as portfolio_module
from repro.cgra.architecture import CGRA
from repro.core.mapper import MapperConfig, SatMapItMapper
from repro.kernels import get_kernel
from repro.sat.encodings import AMOEncoding
from repro.search.portfolio import _portfolio_worker


def _stubborn_portfolio_worker(dfg, cgra, config, ii):
    """Portfolio lane stand-in: the frontier II solves for real, every
    higher II ignores SIGTERM and naps — the worst-case worker the
    cancellation path must still reap."""
    if ii <= 3:  # srand on 3x3 is feasible at its minimum II of 3
        time.sleep(0.5)  # let the stubborn siblings install SIG_IGN first
        return _portfolio_worker(dfg, cgra, config, ii)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    time.sleep(600)


class TestPortfolioCancellation:
    def test_frontier_win_reaps_sigterm_ignoring_workers(self, monkeypatch):
        """A win must cancel the moot lanes even when they shrug off
        SIGTERM; the strategy asserts no worker outlives it."""
        monkeypatch.setattr(portfolio_module, "_TERM_GRACE", 0.5)
        monkeypatch.setattr(
            portfolio_module, "_portfolio_worker", _stubborn_portfolio_worker
        )
        before = {p.pid for p in multiprocessing.active_children()}
        outcome = SatMapItMapper(
            MapperConfig(
                timeout=120,
                random_seed=0,
                search="portfolio",
                search_jobs=4,
                portfolio_variants=("default",),
                seed_heuristic=False,
            )
        ).map(get_kernel("srand"), CGRA.square(3))
        assert outcome.success
        assert outcome.ii == 3
        # Lanes for II >= 4 were launched (search_jobs=4, one variant per
        # II) and must have been cancelled, not leaked.
        assert outcome.portfolio_cancelled >= 1
        leaked = [
            p for p in multiprocessing.active_children() if p.pid not in before
        ]
        assert leaked == [], f"portfolio leaked workers: {leaked}"


def _exit_without_answer():
    os._exit(3)


def _sigkill_self():
    os.kill(os.getpid(), signal.SIGKILL)


class TestDeadLane:
    """A lane that dies without answering fails only itself: its pipe
    reads EOF, the sibling variant settles the II, nothing leaks."""

    @pytest.mark.parametrize("die, reason", [
        (_exit_without_answer, "exit code 3"),
        (_sigkill_self, "killed by SIGKILL"),
    ], ids=["exit", "sigkill"])
    def test_sibling_variant_settles_the_ii(self, monkeypatch, capsys,
                                            die, reason):
        def pairwise_dies(dfg, cgra, config, ii):
            if config.amo_encoding == AMOEncoding.PAIRWISE:
                die()
            return _portfolio_worker(dfg, cgra, config, ii)

        monkeypatch.setattr(portfolio_module, "_portfolio_worker",
                            pairwise_dies)
        monkeypatch.setattr(portfolio_module.os, "cpu_count", lambda: 2)
        kernel, cgra = get_kernel("gsm"), CGRA.square(2)
        ladder = SatMapItMapper(
            MapperConfig(timeout=120, random_seed=0, seed_heuristic=False)
        ).map(kernel, cgra)
        capsys.readouterr()
        before = {p.pid for p in multiprocessing.active_children()}
        outcome = SatMapItMapper(
            MapperConfig(
                timeout=120,
                random_seed=0,
                search="portfolio",
                search_jobs=2,
                portfolio_variants=("default", "pairwise"),
                seed_heuristic=False,
                verbose=True,
            )
        ).map(kernel, cgra)
        log = capsys.readouterr().out
        assert outcome.success
        assert outcome.ii == ladder.ii
        assert outcome.portfolio_winner == "default"
        assert (
            f"portfolio lane pairwise at II={ladder.ii} crashed: {reason}"
            in log
        )
        leaked = [
            p for p in multiprocessing.active_children() if p.pid not in before
        ]
        assert leaked == [], f"portfolio leaked workers: {leaked}"
