"""Workload definitions: fixed mapping-problem lists on the default config.

Every problem starts from its loop source text and maps with the default
``MapperConfig``; only ``random_seed`` (from the workload seed) and, for the
``portfolio`` workload, the search strategy differ.  Why each list was
chosen, and the layer shares measured to justify it, are recorded in
``baseline.json`` next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass

#: ``(kernel, square mesh size)`` lists.  ``climb`` problems each climb
#: through UNSAT proofs and REGALLOC_FAIL rungs before their final SAT;
#: ``first-shot`` problems map at the MII on the first attempt.  nw@4x4,
#: gsm@4x4 and hotspot@4x4 climb too, with long UNSAT proofs, but take 3-6 s
#: each, and their time moves with the host's memory traffic, which the
#: reference loop in ``run.py`` does not see: with nw@4x4 in the list the
#: rescaled ``map_s`` of ten runs spread 20%.
CLIMB = [("gsm", 2), ("bitcount", 3), ("backprop", 3), ("stringsearch", 3),
         ("stringsearch", 4)]
FIRST_SHOT = [("srand", 4), ("srand", 5), ("srand", 6), ("srand", 8),
              ("basicmath", 4), ("basicmath", 5), ("basicmath", 6),
              ("basicmath", 8), ("sha", 3), ("hotspot", 3), ("gsm", 3),
              ("nw", 3), ("patricia", 2), ("bitcount", 2)]

WORKLOADS = ("climb", "first-shot", "sat-hunt", "portfolio")
#: Workloads on the sequential ladder, whose work repeats exactly per seed.
LADDER_WORKLOADS = ("climb", "first-shot", "sat-hunt")


@dataclass(frozen=True)
class Problem:
    """One mapping problem: loop source, target fabric and mapper config."""

    label: str
    kernel: str
    source: str
    cgra: object
    config: object


def build_problems(workload: str, seed: int) -> list[Problem]:
    """The workload's problem list, made from ``seed``."""
    from repro.cgra.architecture import CGRA
    from repro.core.mapper import MapperConfig
    from repro.kernels.suite import get_kernel_spec

    if workload == "climb":
        cases = [(k, n, {"random_seed": seed}) for k, n in CLIMB]
    elif workload == "first-shot":
        cases = [(k, n, {"random_seed": seed}) for k, n in FIRST_SHOT]
    elif workload == "sat-hunt":
        cases = [("sha2", 3, {"random_seed": seed + i}) for i in range(3)]
    elif workload == "portfolio":
        cases = [(k, n, {"random_seed": seed, "search": "portfolio",
                         "search_jobs": 2}) for k, n in CLIMB]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    problems = []
    for kernel, size, overrides in cases:
        spec = get_kernel_spec(kernel)
        problems.append(Problem(
            label=f"{kernel}@{size}x{size}/s{overrides['random_seed']}",
            kernel=spec.name,
            source=spec.source,
            cgra=CGRA.square(size),
            config=MapperConfig(**overrides),
        ))
    return problems
