"""Tables I–IV — mapping time of the heuristic baselines.

Together with ``test_figure6_ii.py`` (which times the SAT-MapIt runs) these
items provide both columns of the paper's per-mesh mapping-time tables; the
rendered tables are printed at the end of the benchmark session and written to
``benchmarks/out/EXPERIMENTS_generated.md``.
"""

from __future__ import annotations


def test_baseline_mapping_time(benchmark, collector, bench_kernel, bench_size,
                               bench_baseline):
    record = benchmark.pedantic(
        collector.run, args=(bench_kernel, bench_size, bench_baseline),
        rounds=1, iterations=1,
    )
    benchmark.extra_info["kernel"] = bench_kernel
    benchmark.extra_info["mesh"] = f"{bench_size}x{bench_size}"
    benchmark.extra_info["mapper"] = bench_baseline
    benchmark.extra_info["status"] = record.status
    benchmark.extra_info["ii"] = record.ii
    if record.succeeded:
        assert record.ii >= record.minimum_ii
