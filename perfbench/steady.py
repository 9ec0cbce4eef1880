#!/usr/bin/env python3
"""Steadiness check for the mapping benchmark.

Runs the benchmark command from ``BENCHMARK.json`` once per seed on each
workload and reports, per end-to-end metric, the distance between the first
and third quartile of the values as a share of their median.  A spread at or
above the metric's bound fails; ``setup_s`` is exempt from the spread test.
On the ladder workloads it also re-runs seed 0 and requires the per-problem
IIs and work fingerprints (attempt statuses, conflicts, propagations) to
match the first seed-0 run and ``baseline.json`` exactly.

Run from the repository root::

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --workloads portfolio --runs 5
    python3 perfbench/steady.py --record   # refresh baseline.json
    python3 perfbench/steady.py --save a.json
    python3 perfbench/steady.py --against a.json   # second set vs the first

``--record`` rewrites the measured sections of ``baseline.json`` (seed-0
fingerprints, traced layer shares) and keeps its notes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"
#: Layer self-times that together make up a traced pass (frontend + map).
PASS_LAYERS = ("frontend.compile_s", "cgra.mii_s", "core.mobility.build_s",
               "core.encoder.encode_s", "sat.solve_s", "core.regalloc.s",
               "core.mapping.violations_s", "unattributed_s")

sys.path.insert(0, str(HERE))
from workloads import LADDER_WORKLOADS  # noqa: E402


def run(spec: dict, workload: str, seed: int, trace: int = 0):
    """One benchmark run; returns (detail line, result line) as dicts."""
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} failed "
                         f"(exit {proc.returncode}):\n{proc.stderr}")
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect or failed "
                         f"problems:\n{lines[-2]}\n{proc.stderr}")
    return detail, result


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def fingerprint(detail: dict) -> dict[str, str]:
    """Per problem: the II and each attempt's (II.slack status conflicts/props)."""
    return {
        p["problem"]: f"II={p['ii']} <- " + ", ".join(
            f"{ii}.{slack} {status} {conflicts}/{props}"
            for ii, slack, status, conflicts, props in p["fingerprint"])
        for p in detail["problems"]
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--save", type=Path,
                        help="write this set's medians to a JSON file")
    parser.add_argument("--against", type=Path,
                        help="fail if a median is worse than this saved "
                        "set's by more than the metric's bound")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    baseline = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    failures = []
    medians: dict[str, dict[str, float]] = {}
    earlier = json.loads(args.against.read_text()) if args.against else {}

    for workload in workloads:
        seed0 = None
        values: dict[str, list[float]] = {}
        for seed in range(args.runs):
            detail, result = run(spec, workload, seed)
            if seed == 0:
                seed0 = detail
            for name, entry in result["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={e['value']:.4g}" for n, e in result["metrics"].items()),
                flush=True)
        for bound in spec["end_to_end"]:
            name = bound["name"]
            median = statistics.median(values[name])
            medians.setdefault(workload, {})[name] = median
            share = spread(values[name]) if len(values[name]) > 1 else 0.0
            limit = bound["bound"]
            verdict = "ok" if share < limit / 3 else "wide"
            if share >= limit and name != "setup_s":
                verdict = "FAIL"
                failures.append(f"{workload} {name} spread")
            line = (f"  {workload:10s} {name:12s} median {median:10.4f} "
                    f"{bound['unit']:5s}  spread {share:.4f}  bound {limit}  "
                    f"{verdict}")
            before = earlier.get(workload, {}).get(name)
            if before is not None:
                change = (median - before) / before
                worse = change if bound["better"] == "lower" else -change
                line += f"  vs saved {change:+.4f}"
                if worse > limit:
                    line += " WORSE"
                    failures.append(f"{workload} {name} median")
            print(line, flush=True)

        if workload in LADDER_WORKLOADS:
            again, _ = run(spec, workload, 0)
            recorded = baseline.get("workloads", {}).get(workload, {}).get(
                "seed0_fingerprint")
            checks = [("rerun", fingerprint(again))]
            if recorded is not None and not args.record:
                checks.append(("baseline.json", recorded))
            for label, other in checks:
                same = fingerprint(seed0) == other
                print(f"  {workload:10s} fingerprint vs {label}: "
                      f"{'match' if same else 'MISMATCH'}", flush=True)
                if not same:
                    failures.append(f"{workload} fingerprint vs {label}")

        if args.record:
            _, traced = run(spec, workload, 0, trace=1)
            layers = traced["metrics"]
            total = sum(layers[name]["value"] for name in PASS_LAYERS)
            entry = baseline.setdefault("workloads", {}).setdefault(workload, {})
            entry["seed0_ii"] = {p["problem"]: p["ii"]
                                 for p in seed0["problems"]}
            if workload in LADDER_WORKLOADS:
                entry["seed0_fingerprint"] = fingerprint(seed0)
            entry["traced_pass_s"] = round(total, 3)
            entry["layer_shares"] = {
                name: round(layers[name]["value"] / total, 3)
                for name in PASS_LAYERS
            }

    if args.record:
        BASELINE.write_text(json.dumps(baseline, indent=1) + "\n")
    if args.save:
        args.save.write_text(json.dumps(medians, indent=1) + "\n")
    if failures:
        raise SystemExit("steadiness check failed: " + ", ".join(failures))


if __name__ == "__main__":
    main()
