#!/usr/bin/env python3
"""Default-path mapping benchmark.

One closed-loop process maps a workload's fixed problem list one problem at
a time, from loop source text to a returned mapping, on the default
``MapperConfig``.  Every mapping is checked with ``Mapping.violations()``
and replayed on ``CGRASimulator`` against the reference interpreter.

Run from the repository root::

    python3 perfbench/run.py --workload climb --seed 0 --seconds 30 --trace 0

Times are rescaled to a reference host speed.  The speed of a shared host
drifts with its other tenants' load, by up to half over minutes, so before
each timed step the runner times a fixed pure-Python loop (the *reference
loop*, which runs no program code) and multiplies the step's host seconds
by ``REF_LOOP_S`` over that reading.  A change to the program moves the
rescaled time as it moves the host time; a slower or faster host moves the
loop with the step and largely cancels out.  Work bound by memory traffic
tracks the loop less well, which is why the workloads leave out the
largest problems.  The raw host seconds are printed too
(``host.raw_map_s`` in the traced run, ``pass_seconds`` on the detail
line).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs untraced
passes, then traced passes, and prints the per-layer metrics (see
``tracer.py``), after checking the wrapper counts against the mapper's own
records.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds per-problem IIs and the deterministic work fingerprint.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import tracer as tracing
from workloads import LADDER_WORKLOADS, WORKLOADS

PROCESS_START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Where traced runs write their spans (inside the checkout, git-ignored).
TRACE_DIR = ROOT / ".bench_out"

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 7
#: Iterations of the reference loop, its repeats per reading (the best
#: counts), and its time at the usual speed of the 2-core Xeon VM the
#: baseline was measured on: the host speed every time is rescaled to.
REF_LOOP_ITERATIONS = 30_000
REF_LOOP_REPEATS = 3
REF_LOOP_S = 0.0025
#: Per-mapping timeout: generous (the slowest baseline mapping takes < 10 s),
#: and cut further so that a run always ends well inside 180 s.
MAP_TIMEOUT = 60.0
RUN_DEADLINE = 150.0

#: Per-layer time metric -> span whose self time it reports.  The ``map``
#: span's self time is the mapper and search glue no layer span covers.
LAYER_SPANS = {
    "frontend.compile_s": "frontend.compile",
    "cgra.mii_s": "cgra.mii",
    "core.mobility.build_s": "core.mobility.build",
    "core.encoder.encode_s": "core.encoder.encode",
    "sat.solve_s": "sat.solve",
    "core.regalloc.s": "core.regalloc",
    "core.mapping.violations_s": "core.mapping.violations",
    "simulator.replay_s": "simulator.replay",
    "unattributed_s": "map",
}


def fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def reference_loop() -> float:
    """Best time of a fixed pure-Python loop: the host's current speed."""
    best = float("inf")
    for _ in range(REF_LOOP_REPEATS):
        start = time.perf_counter()
        total = 0
        for i in range(REF_LOOP_ITERATIONS):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def setup(workload: str, seed: int):
    """Import the program and build the workload inputs; returns both + time."""
    start = time.perf_counter()
    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"program sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro.core.mapper  # noqa: F401
    import repro.frontend  # noqa: F401
    import repro.simulator  # noqa: F401
    from workloads import build_problems

    problems = build_problems(workload, seed)
    return problems, time.perf_counter() - start


def measure_setup(workload: str, seed: int) -> float:
    """Median rescaled set-up time over fresh interpreters (one import each)."""
    times = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        seconds, ref = map(float, probe.stdout.split()[-2:])
        times.append(seconds * REF_LOOP_S / ref)
    return statistics.median(times)


def cpu_seconds() -> float:
    """User+sys CPU of this process plus its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident memory of this process or its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def verify(outcome) -> str | None:
    """Why a returned mapping is wrong, or ``None`` when it checks out."""
    from repro.exceptions import SimulationError
    from repro.simulator import CGRASimulator

    if outcome.ii < outcome.minimum_ii:
        return f"II {outcome.ii} below the MII {outcome.minimum_ii}"
    problems = outcome.mapping.violations()
    if problems:
        return "; ".join(problems[:3])
    try:
        result = CGRASimulator(
            outcome.mapping, outcome.register_allocation
        ).run()
    except SimulationError as exc:
        return f"simulation error: {exc}"
    if not result.success:
        return "; ".join(result.errors[:3])
    return None


def summarise(outcome) -> dict:
    """The per-problem record: II, work fingerprint and search counters."""
    attempts = outcome.attempts
    statuses = [a.status for a in attempts]
    return {
        "ii": outcome.ii,
        "mii": outcome.minimum_ii,
        "fingerprint": [
            [a.ii, a.schedule_slack, a.status, a.conflicts, a.propagations]
            for a in attempts
        ],
        "attempts": len(attempts),
        "unsat": statuses.count("UNSAT"),
        "regalloc_fail": statuses.count("REGALLOC_FAIL"),
        "unknown": statuses.count("UNKNOWN"),
        "escalations": sum(a.escalated for a in attempts),
        "solve_calls": sum(a.solve_calls for a in attempts),
        "conflicts": sum(a.conflicts for a in attempts),
        "propagations": sum(a.propagations for a in attempts),
        "launched": outcome.portfolio_launched,
        "cancelled": outcome.portfolio_cancelled,
        "attempt_encode_s": sum(a.encode_time for a in attempts),
        "attempt_solve_s": sum(a.solve_time for a in attempts),
    }


def run_pass(problems, tracer=None) -> dict:
    """Map every problem once; time compile+map, then check each mapping."""
    from repro import frontend
    from repro.core.mapper import SatMapItMapper

    span = tracer.span if tracer is not None else (lambda _name: nullcontext())
    seconds = cpu = scaled = scaled_cpu = 0.0
    records = []
    for problem in problems:
        remaining = RUN_DEADLINE - (time.perf_counter() - PROCESS_START)
        config = replace(problem.config,
                         timeout=max(1.0, min(MAP_TIMEOUT, remaining)))
        if tracer is not None:
            tracer.request = problem.label
        record = {"problem": problem.label, "ref": reference_loop()}
        cpu_start = cpu_seconds()
        start = time.perf_counter()
        try:
            dfg = frontend.compile_loop(problem.source, name=problem.kernel)
            with span("map"):
                outcome = SatMapItMapper(config).map(dfg, problem.cgra)
        except Exception as exc:  # a raising mapper is a failed problem
            traceback.print_exc()
            outcome = None
            record["failed"] = f"raised {exc!r}"
        record["seconds"] = time.perf_counter() - start
        record["cpu"] = cpu_seconds() - cpu_start
        seconds += record["seconds"]
        cpu += record["cpu"]
        scaled += record["seconds"] * REF_LOOP_S / record["ref"]
        scaled_cpu += record["cpu"] * REF_LOOP_S / record["ref"]
        if outcome is not None:
            record.update(summarise(outcome))
            if not outcome.success:
                record["failed"] = outcome.final_status
            else:
                unrecorded = tracer.paused() if tracer else nullcontext()
                with span("simulator.replay"), unrecorded:
                    wrong = verify(outcome)
                if wrong is not None:
                    record["wrong"] = wrong
        records.append(record)
    return {"seconds": seconds, "cpu": cpu, "scaled": scaled,
            "scaled_cpu": scaled_cpu, "records": records}


def run_passes(problems, budget: float, tracer=None) -> list[dict]:
    """Whole passes while the next one should end inside ``budget`` seconds.

    The first pass always runs; a later one starts only if the last pass's
    length, added to the time gone, still fits the budget.
    """
    passes = []
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        passes.append(run_pass(problems, tracer))
        now = time.perf_counter()
        if (now - start) + (now - begun) >= budget:
            return passes


def median_pass(passes, key: str) -> float:
    """The median over passes of one pass's ``key`` (a time)."""
    return statistics.median(p[key] for p in passes)


def ii_sum(record_list, max_ii: int) -> int:
    """Achieved IIs summed; a problem with no mapping counts as ``max_ii``."""
    return sum(r.get("ii") or max_ii for r in record_list)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes, setup_s: float, max_ii: int) -> dict:
    records = [r for p in passes for r in p["records"]]
    mapped = sum("failed" not in r and "wrong" not in r for r in records)
    return {
        "map_s": metric(median_pass(passes, "scaled"), "s"),
        "cpu_s": metric(median_pass(passes, "scaled_cpu"), "s"),
        "ii_sum": metric(
            statistics.median(ii_sum(p["records"], max_ii) for p in passes),
            "count"),
        "mapped_frac": metric(mapped / len(records), "ratio"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MiB"),
    }


def per_layer(tracer, traced, untraced) -> dict:
    n = len(traced)
    records = [r for p in traced for r in p["records"]]
    counters = tracer.counters
    self_times = tracer.self_times()
    values = {name: self_times.get(span, 0.0) / n
              for name, span in LAYER_SPANS.items()}
    solve_s = values["sat.solve_s"]
    calls = tracer.calls()
    regalloc_calls = calls["core.regalloc"]
    values.update({
        "frontend.nodes": counters["frontend.nodes"] / n,
        "cgra.mii_sum": counters["cgra.mii_sum"] / n,
        "core.encoder.calls": calls["core.encoder.encode"] / n,
        "core.encoder.vars": counters["core.encoder.vars"] / n,
        "core.encoder.clauses": counters["core.encoder.clauses"] / n,
        "sat.calls": calls["sat.solve"] / n,
        "sat.sat_s": counters["sat.sat_s"] / n,
        "sat.unsat_s": counters["sat.unsat_s"] / n,
        "sat.unknown_s": counters["sat.unknown_s"] / n,
        "sat.conflicts": counters["sat.conflicts"] / n,
        "sat.propagations": counters["sat.propagations"] / n,
        "sat.props_per_s": (counters["sat.propagations"] / n / solve_s
                            if solve_s else 0.0),
        "core.regalloc.calls": regalloc_calls / n,
        "core.regalloc.ok_ratio": (counters["core.regalloc.ok"] / regalloc_calls
                                   if regalloc_calls else 0.0),
        "trace_overhead_s": (median_pass(traced, "scaled")
                             - median_pass(untraced, "scaled")),
        "host.raw_map_s": median_pass(untraced, "seconds"),
        "host.ref_loop_s": statistics.median(
            r["ref"] for p in untraced for r in p["records"]),
    })
    for name, key in [
        ("search.attempts", "attempts"),
        ("search.unsat_attempts", "unsat"),
        ("search.regalloc_fail_attempts", "regalloc_fail"),
        ("search.unknown_attempts", "unknown"),
        ("search.escalations", "escalations"),
        ("search.portfolio.launched", "launched"),
        ("search.portfolio.cancelled", "cancelled"),
    ]:
        values[name] = sum(r.get(key, 0) for r in records) / n
    portfolio = [r for r in records if r.get("launched")]
    values["search.portfolio.worker_encode_s"] = (
        sum(r["attempt_encode_s"] for r in portfolio) / n)
    values["search.portfolio.worker_solve_s"] = (
        sum(r["attempt_solve_s"] for r in portfolio) / n)
    return {name: metric(value, layer_unit(name))
            for name, value in values.items()}


def layer_unit(name: str) -> str:
    if name == "sat.props_per_s":
        return "1/s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(("_s", ".s")):
        return "s"
    return "count"


def self_check(tracer, traced, ladder: bool) -> list[str]:
    """Wrapper counts that disagree with the mapper's returned records."""
    records = [r for p in traced for r in p["records"] if "attempts" in r]
    counters = tracer.counters
    calls = tracer.calls()
    expect = [
        ("frontend.compile calls", calls["frontend.compile"],
         sum(len(p["records"]) for p in traced)),
        ("cgra.mii calls", calls["cgra.mii"], len(records)),
        ("cgra.mii_sum", counters["cgra.mii_sum"],
         sum(r["mii"] for r in records)),
    ]
    if ladder:
        expect += [
            ("sat.solve calls", calls["sat.solve"],
             sum(r["solve_calls"] for r in records)),
            ("sat.conflicts", counters["sat.conflicts"],
             sum(r["conflicts"] for r in records)),
            ("sat.propagations", counters["sat.propagations"],
             sum(r["propagations"] for r in records)),
            ("core.encoder.encode calls", calls["core.encoder.encode"],
             sum(r["attempts"] + r["escalations"] for r in records)),
            ("core.mobility.build calls", calls["core.mobility.build"],
             2 * sum(r["attempts"] for r in records)),
            ("core.mapping.violations calls",
             calls["core.mapping.violations"], calls["core.regalloc"]),
            ("core.regalloc successes", counters["core.regalloc.ok"],
             sum("failed" not in r for r in records)),
        ]
    problems = [f"{name}: traced {seen:g}, records say {want:g}"
                for name, seen, want in expect if seen != want]
    if not ladder and counters["sat.conflicts"] > sum(
            r["conflicts"] for r in records):
        problems.append("sat.conflicts: parent saw more than the records")
    return problems


def changed_work(passes) -> bool:
    """Whether a problem's work fingerprint differs between passes.

    Problems that failed in either pass (a timeout, say) are skipped: their
    fingerprints stop wherever the failure struck.
    """
    first = passes[0]["records"]
    for later in passes[1:]:
        for a, b in zip(first, later["records"]):
            if "failed" in a or "failed" in b:
                continue
            if a["fingerprint"] != b["fingerprint"]:
                return True
    return False


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.setup_probe:
        ref = reference_loop()
        print(setup(args.workload, args.seed)[1], ref)
        return
    problems, _ = setup(args.workload, args.seed)
    if tracing.installed_wrappers():
        fail(f"wrappers left installed: {tracing.installed_wrappers()}", 1)
    budget = args.seconds / 2 if args.trace else args.seconds
    untraced = run_passes(problems, budget)
    if tracing.installed_wrappers():
        fail(f"wrappers left installed: {tracing.installed_wrappers()}", 1)
    traced = []
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_passes(problems, budget, tracer)
        finally:
            tracer.uninstall()
        tracer.write(TRACE_DIR / f"trace-{args.workload}-s{args.seed}.jsonl")
        mismatches = self_check(tracer, traced,
                                args.workload in LADDER_WORKLOADS)
        if mismatches:
            fail("tracer self-check failed: " + "; ".join(mismatches), 1)
        metrics = per_layer(tracer, traced, untraced)
    else:
        setup_s = measure_setup(args.workload, args.seed)
        metrics = end_to_end(untraced, setup_s, problems[0].config.max_ii)

    all_passes = untraced + traced
    records = [r for p in all_passes for r in p["records"]]
    wrong = [f"{r['problem']}: {r['wrong']}" for r in records if "wrong" in r]
    if args.workload in LADDER_WORKLOADS and changed_work(all_passes):
        wrong.append("work fingerprint changed between passes at one seed")
    for line in wrong:
        print(f"perfbench: wrong output: {line}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(all_passes),
        "pass_seconds": [p["seconds"] for p in all_passes],
        "problems": [
            {key: r[key] for key in ("problem", "ii", "mii", "failed",
                                     "wrong", "fingerprint") if key in r}
            for r in all_passes[0]["records"]
        ],
    }))
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(records),
        "failed": sum("failed" in r or "wrong" in r for r in records),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
