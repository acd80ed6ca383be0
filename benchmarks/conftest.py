"""Shared infrastructure for the reproduction benches.

Every bench regenerates one of the paper's tables or figures.  Runs are
cached per-session so Table 2 and Figure 2 (which share configurations)
pay for each simulation once.

Environment knobs:

* ``REPRO_BENCH_FAST=1``    — restrict to three benchmarks and smaller
  instruction budgets (smoke mode).
* ``REPRO_BENCH_WORKLOADS`` — comma-separated subset of benchmark names.
* ``REPRO_BENCH_CACHE=0``   — disable the on-disk result cache (results
  otherwise persist across sessions under ``$REPRO_CACHE_DIR``, keyed by
  parameters and source version, so re-running a bench suite after an
  unrelated edit costs one disk read per cell).

Artifacts (the rendered tables) are written to ``benchmarks/out/``.
"""

import os
from pathlib import Path

import pytest

from repro.fabric import ExecutionConfig
from repro.harness.cache import ResultCache
from repro.harness.experiments import ExperimentRunner
from repro.workloads import WORKLOADS

OUT_DIR = Path(__file__).parent / "out"

FAST = os.environ.get("REPRO_BENCH_FAST", "") not in ("", "0")
_subset = os.environ.get("REPRO_BENCH_WORKLOADS", "")
if _subset:
    BENCH_WORKLOADS = [name.strip() for name in _subset.split(",") if name.strip()]
elif FAST:
    BENCH_WORKLOADS = ["swim", "twolf", "gcc"]
else:
    BENCH_WORKLOADS = sorted(WORKLOADS)

#: Instruction-budget multiplier (fast mode simulates shorter samples).
BUDGET_FACTOR = 0.4 if FAST else 1.0


@pytest.fixture(scope="session")
def runs():
    """One :class:`ExperimentRunner` for the session: each (workload,
    config) cell runs once, through the on-disk :class:`ResultCache`, so
    Table 2 and Figure 2 — which share configurations — pay for each
    simulation once per source version, not once per session."""
    cache = ResultCache(
        enabled=os.environ.get("REPRO_BENCH_CACHE", "1") not in ("0", "no"))
    return ExperimentRunner(BENCH_WORKLOADS, BUDGET_FACTOR,
                            execution=ExecutionConfig(cache=cache))


def write_artifact(name: str, text: str) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / name
    path.write_text(text + "\n")
    return path
