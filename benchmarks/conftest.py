"""Shared configuration and result collection for the benchmark harness.

The harness reproduces the paper's evaluation protocol (Figure 6 and Tables
I–IV): map every benchmark kernel on square meshes with SAT-MapIt, RAMP and
PathSeeker, compare the achieved IIs and the mapping times.

Because the full protocol (11 kernels x 4 mesh sizes x 3 mappers, 4000 s
timeout) is sized for the authors' machine and a native SAT solver, the
default benchmark run uses a scaled-down subset that finishes in minutes on a
laptop with the bundled pure-Python CDCL solver.  Environment variables widen
it back to the paper's protocol:

* ``SATMAPIT_BENCH_KERNELS`` — comma-separated kernel names (default: a
  representative subset; ``all`` selects all eleven).
* ``SATMAPIT_BENCH_SIZES``   — comma-separated mesh sizes (default ``2,3``).
* ``SATMAPIT_BENCH_TIMEOUT`` — per-run timeout in seconds (default 30).
* ``SATMAPIT_BENCH_FULL=1``  — shorthand for all kernels, sizes 2-5 and a
  300 s timeout.

At the end of the session the collected results are rendered as the Figure-6
panels, the Tables I–IV mapping times and the Section-V headline, and written
to ``benchmarks/out/EXPERIMENTS_generated.md`` (git-ignored, so a test run
leaves the working tree clean).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments.report import render_markdown_report
from repro.experiments.runner import (
    PATHSEEKER,
    RAMP,
    SAT_MAPIT,
    ExperimentConfig,
    RunRecord,
    SweepResult,
    run_single,
)
from repro.experiments.tables import (
    render_figure6,
    render_headline,
    render_mapping_time_table,
)
from repro.kernels import all_kernel_names

_DEFAULT_KERNELS = ("srand", "basicmath", "stringsearch", "nw", "gsm")
_TABLE_NUMBERS = {2: "I", 3: "II", 4: "III", 5: "IV"}


def _bench_config() -> ExperimentConfig:
    if os.environ.get("SATMAPIT_BENCH_FULL") == "1":
        kernels = tuple(all_kernel_names())
        sizes = (2, 3, 4, 5)
        timeout = float(os.environ.get("SATMAPIT_BENCH_TIMEOUT", "300"))
    else:
        kernel_env = os.environ.get("SATMAPIT_BENCH_KERNELS", "")
        if kernel_env.strip().lower() == "all":
            kernels = tuple(all_kernel_names())
        elif kernel_env.strip():
            kernels = tuple(name.strip() for name in kernel_env.split(","))
        else:
            kernels = _DEFAULT_KERNELS
        size_env = os.environ.get("SATMAPIT_BENCH_SIZES", "2,3")
        sizes = tuple(int(token) for token in size_env.split(","))
        timeout = float(os.environ.get("SATMAPIT_BENCH_TIMEOUT", "30"))
    return ExperimentConfig(
        kernels=kernels,
        sizes=sizes,
        timeout=timeout,
        pathseeker_repeats=int(os.environ.get("SATMAPIT_BENCH_PS_REPEATS", "1")),
    )


class ResultCollector:
    """Caches one RunRecord per (kernel, size, mapper), computed on demand."""

    def __init__(self, config: ExperimentConfig) -> None:
        self.config = config
        self._records: dict[tuple[str, int, str], RunRecord] = {}

    def run(self, kernel: str, size: int, mapper: str) -> RunRecord:
        key = (kernel, size, mapper)
        if key not in self._records:
            self._records[key] = run_single(kernel, size, mapper, self.config)
        return self._records[key]

    def sweep(self) -> SweepResult:
        sweep = SweepResult(config=self.config)
        sweep.records.extend(self._records.values())
        return sweep


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    return _bench_config()


@pytest.fixture(scope="session")
def collector(bench_config) -> ResultCollector:
    return ResultCollector(bench_config)


@pytest.fixture(scope="session", autouse=True)
def _report_at_session_end(request, collector, bench_config):
    """Print the paper artefacts and write the generated report on teardown."""
    yield
    sweep = collector.sweep()
    if not sweep.records:
        return
    lines = ["", "=" * 78, "SAT-MapIt reproduction — collected evaluation artefacts",
             "=" * 78, render_headline(sweep)]
    for size in bench_config.sizes:
        lines.append("")
        lines.append(render_figure6(sweep, size))
    for size in bench_config.sizes:
        lines.append("")
        lines.append(
            render_mapping_time_table(sweep, size, number=_TABLE_NUMBERS.get(size, "?"))
        )
    print("\n".join(lines))
    output = Path(__file__).parent / "out" / "EXPERIMENTS_generated.md"
    output.parent.mkdir(exist_ok=True)
    output.write_text(render_markdown_report(sweep), encoding="utf-8")
    print(f"\nreport written to {output}")


def pytest_generate_tests(metafunc):
    """Parametrise benchmark tests over the configured kernels and sizes."""
    config = _bench_config()
    if "bench_kernel" in metafunc.fixturenames:
        metafunc.parametrize("bench_kernel", list(config.kernels))
    if "bench_size" in metafunc.fixturenames:
        metafunc.parametrize("bench_size", list(config.sizes))
    if "bench_baseline" in metafunc.fixturenames:
        metafunc.parametrize("bench_baseline", [RAMP, PATHSEEKER])
