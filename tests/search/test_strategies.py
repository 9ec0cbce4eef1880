"""Search strategies: registry, ladder/bisect/portfolio equivalence.

The ladder is the semantic reference (it is behaviour-identical to the
pre-refactor inline loop, which the rest of the test-suite pins down);
bisection and the portfolio must return the same II on every kernel here,
with simulator-clean mappings.
"""

from __future__ import annotations

import pytest

from repro.cgra.architecture import CGRA
from repro.core.mapper import MapperConfig, SatMapItMapper
from repro.kernels import get_kernel
from repro.search import available_strategies, create_strategy
from repro.search.portfolio import PORTFOLIO_VARIANTS, variant_overrides
from repro.simulator import CGRASimulator

KERNELS = ("srand", "stringsearch", "nw", "basicmath")


def _map(kernel: str, size: int = 3, **overrides):
    fields = dict(timeout=120, random_seed=0)
    fields.update(overrides)
    return SatMapItMapper(MapperConfig(**fields)).map(
        get_kernel(kernel), CGRA.square(size)
    )


class TestRegistry:
    def test_built_in_strategies_registered(self):
        names = available_strategies()
        assert {"ladder", "bisect", "portfolio"} <= set(names)

    def test_create_by_name(self):
        assert create_strategy("ladder").name == "ladder"
        assert create_strategy("bisect").name == "bisect"
        assert create_strategy("portfolio").name == "portfolio"

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown search strategy"):
            create_strategy("simulated-annealing")

    def test_unknown_strategy_rejected_by_mapper(self):
        with pytest.raises(ValueError, match="unknown search strategy"):
            _map("srand", search="simulated-annealing")

    def test_unknown_portfolio_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown portfolio variant"):
            variant_overrides(("default", "quantum"))

    def test_variant_table_is_config_compatible(self):
        for name, overrides in PORTFOLIO_VARIANTS.items():
            config = MapperConfig(**overrides)  # must construct cleanly
            assert config is not None, name


@pytest.mark.parametrize("kernel", KERNELS)
def test_bisect_matches_ladder(kernel):
    ladder = _map(kernel, search="ladder")
    bisect = _map(kernel, search="bisect")
    assert ladder.success and bisect.success
    assert bisect.ii == ladder.ii, f"{kernel}: bisect diverged"
    assert bisect.search_strategy == "bisect"
    assert bisect.mapping.violations() == []
    simulation = CGRASimulator(
        bisect.mapping, bisect.register_allocation
    ).run(4)
    assert simulation.success, simulation.errors


@pytest.mark.parametrize("kernel", KERNELS)
def test_portfolio_matches_ladder(kernel):
    """Satellite requirement: portfolio-vs-ladder II equivalence,
    simulator-validated, on >= 4 kernels."""
    ladder = _map(kernel, search="ladder")
    portfolio = _map(kernel, search="portfolio", search_jobs=2)
    assert ladder.success and portfolio.success
    assert portfolio.ii == ladder.ii, f"{kernel}: portfolio diverged"
    assert portfolio.search_strategy == "portfolio"
    assert portfolio.portfolio_launched >= 1
    assert portfolio.mapping.violations() == []
    simulation = CGRASimulator(
        portfolio.mapping, portfolio.register_allocation
    ).run(4)
    assert simulation.success, simulation.errors


class TestBisection:
    def test_wide_gap_skips_candidates(self):
        """gsm on a 2x2 sits at II=7 with MII=7 — force a wide search range
        by starting below, and check bisection probes fewer IIs."""
        ladder = _map("gsm", size=2, search="ladder")
        bisect = _map("gsm", size=2, search="bisect")
        assert bisect.ii == ladder.ii == 7
        # Attempted IIs form a subset of the ladder's contiguous climb.
        assert {a.ii for a in bisect.attempts} <= {
            ii for ii in range(bisect.minimum_ii, 8)
        }

    def test_all_infeasible_range_fails(self):
        outcome = _map("gsm", size=2, search="bisect", max_ii=4)
        assert not outcome.success
        assert outcome.final_status == "failed"

    def test_gallop_then_binary_search_from_forced_low_start(self):
        """Starting below the MII forces both phases: the gallop overshoots
        the optimum and the binary search walks back down to it.  Decisive
        attempts (no regalloc post-pass, unbounded slack proofs) keep the
        monotone skipping engaged — UNSAT answers are real lower bounds."""
        decisive = dict(
            slack_conflict_limit=None, run_register_allocation=False
        )
        ladder = _map("nw", size=2, **decisive)
        config = MapperConfig(
            timeout=120, random_seed=0, search="bisect", **decisive
        )
        outcome = SatMapItMapper(config).map(
            get_kernel("nw"), CGRA.square(2), start_ii=1
        )
        assert outcome.success
        assert outcome.ii == ladder.ii == 5
        attempted = {a.ii for a in outcome.attempts}
        # Gallop probes 1, 2, 4, 8 (+1, +2, +4 gaps), the binary search
        # walks [5, 7]: IIs 3 and 7 are never solved, the overshoot at 8 is.
        assert 3 not in attempted and 7 not in attempted
        assert max(attempted) > outcome.ii
        assert outcome.mapping.violations() == []

    def test_inconclusive_failure_falls_back_to_sequential(self):
        """With register allocation gating acceptance, a failed attempt is
        not an UNSAT proof — bisection must stop skipping and sweep the
        unruled range ladder-style (soundness over speed)."""
        ladder = _map("srand", size=2)  # regalloc on (default)
        config = MapperConfig(timeout=120, random_seed=0, search="bisect")
        outcome = SatMapItMapper(config).map(
            get_kernel("srand"), CGRA.square(2), start_ii=1
        )
        assert outcome.success
        assert outcome.ii == ladder.ii
        # The non-decisive II=1 verdict forces the sequential sweep: every
        # II up to the answer is visited, none skipped.
        attempted = {a.ii for a in outcome.attempts}
        assert attempted == set(range(1, outcome.ii + 1))


class TestPortfolio:
    def test_capped_range_fails_like_ladder(self):
        ladder = _map("gsm", size=2, search="ladder", max_ii=4)
        portfolio = _map("gsm", size=2, search="portfolio", max_ii=4,
                         search_jobs=2)
        assert not ladder.success and not portfolio.success
        assert portfolio.final_status == ladder.final_status == "failed"

    def test_merged_attempts_are_ii_sorted(self):
        outcome = _map("nw", size=2, search="portfolio", search_jobs=2)
        assert outcome.success
        iis = [a.ii for a in outcome.attempts]
        assert iis == sorted(iis)

    def test_explicit_variant_lineup(self):
        outcome = _map(
            "srand", search="portfolio", search_jobs=2,
            portfolio_variants=("sequential",),
        )
        assert outcome.success
        assert outcome.portfolio_winner == "sequential"

    def test_regalloc_blocked_ii_escalates_to_default_variant(self):
        """gsm@2x2: the no-probe variant's II=7 models keep failing register
        allocation, while the default trajectory colours II=7 fine.  A
        regalloc failure must escalate the II to a default-variant lane
        instead of letting the frontier pass it — otherwise the portfolio
        would report II=8 where the ladder reports 7."""
        ladder = _map("gsm", size=2, search="ladder")
        portfolio = _map(
            "gsm", size=2, search="portfolio", search_jobs=2,
            portfolio_variants=("no-probe",),
        )
        assert ladder.ii == 7
        assert portfolio.ii == ladder.ii
        assert portfolio.portfolio_winner == "default"
        assert any(
            a.status == "REGALLOC_FAIL" for a in portfolio.attempts
        )

    @pytest.mark.parametrize("lineup", [
        ("no-probe", "default", "pairwise"),
        ("pairwise", "no-probe", "default"),
    ])
    def test_core_count_trim_keeps_configured_order(self, monkeypatch,
                                                    lineup):
        """On a one-core box the line-up is cut to its first variant, so
        every lane that runs is that variant and it wins every II."""
        from repro.search import portfolio as portfolio_module

        raced: list[tuple[str, ...]] = []
        resolve = portfolio_module.variant_overrides

        def spy(names):
            raced.append(tuple(names))
            return resolve(names)

        monkeypatch.setattr("os.cpu_count", lambda: 1)
        monkeypatch.setattr(portfolio_module, "variant_overrides", spy)
        ladder = _map("nw", size=2, search="ladder")
        portfolio = _map(
            "nw", size=2, search="portfolio", search_jobs=2,
            portfolio_variants=lineup,
        )
        assert raced == [lineup[:1]]
        assert portfolio.portfolio_winner == lineup[0]
        assert portfolio.ii == ladder.ii

    def test_workers_do_not_recurse_into_seeding(self):
        from repro.search.portfolio import PortfolioStrategy

        config = MapperConfig(
            seed_heuristic=True, cache_dir="cache", search="portfolio"
        )
        worker = PortfolioStrategy._worker_config(config, {}, ii=4,
                                                  remaining=10.0)
        assert worker.seed_heuristic is False
        assert worker.cache_dir is None
        assert worker.search == "ladder"
        assert worker.max_ii == 4

    def test_timeout_is_reported(self):
        # A timeout that cannot fit even one attempt must come back as a
        # timed-out failure, with every worker reaped.
        outcome = _map("gsm", size=2, search="portfolio", timeout=0.0)
        assert not outcome.success
        assert outcome.timed_out
        assert outcome.final_status == "timeout"


def test_strategy_recorded_in_outcome():
    for name in ("ladder", "bisect", "portfolio"):
        outcome = _map("srand", search=name)
        assert outcome.search_strategy == name
