"""The benchmark's four workloads and its golden-stat check.

A *cell* is one simulation: an analog (or a synthetic kernel), a
processor configuration and an instruction budget.  Each workload is a
fixed list of cells; the seed only shuffles their order, except in
``synthetic_mem``, whose kernels are drawn from the seed (the held-out
seed workload).  Why each workload exists is in bench/README.md.
"""

from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.harness import configs
from repro.workloads import WORKLOADS as ANALOGS
from repro.workloads import synthetic
from repro.workloads.kernels import WorkloadSpec

NAMES = ("dense_seg", "baseline_models", "sweep_small", "synthetic_mem")

#: Instruction cap per cell, sized so that one repetition of the cell
#: list takes 2-4 CPU-seconds on a 2-CPU Xeon container with the
#: compiled kernels: at least three repetitions then fit in one run.
BUDGETS = {"dense_seg": 8_000, "baseline_models": 3_000,
           "sweep_small": 1_000, "synthetic_mem": 6_000}

#: The cap every workload uses under ``--smoke``.
SMOKE_BUDGET = 300

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_seed0.json"

_DENSE = (("seg-512-128ch", lambda: configs.segmented(512, 128, "comb")),
          ("seg-128-64ch", lambda: configs.segmented(128, 64, "comb")))
_BASELINE = (("ideal-512", lambda: configs.ideal(512)),
             ("presched-24", lambda: configs.prescheduled(24)),
             ("distance-24", lambda: configs.distance(24)),
             ("fifo-64", lambda: configs.fifo(64)),
             ("dtrack-128", lambda: configs.delay_tracking(128)))
#: Figure 3's axes: ideal, 128- and 64-chain segmented and prescheduled
#: queues at a small and a large size.
_SWEEP = (("ideal-128", lambda: configs.ideal(128)),
          ("ideal-512", lambda: configs.ideal(512)),
          ("seg-128-128ch", lambda: configs.segmented(128, 128, "comb")),
          ("seg-512-128ch", lambda: configs.segmented(512, 128, "comb")),
          ("seg-128-64ch", lambda: configs.segmented(128, 64, "comb")),
          ("seg-512-64ch", lambda: configs.segmented(512, 64, "comb")),
          ("presched-12", lambda: configs.prescheduled(12)),
          ("presched-24", lambda: configs.prescheduled(24)))
_SYNTHETIC = (("seg-256-128ch", lambda: configs.segmented(256, 128, "comb")),
              ("ideal-256", lambda: configs.ideal(256)),
              ("dtrack-128", lambda: configs.delay_tracking(128)))
CONFIGS = {"dense_seg": _DENSE, "baseline_models": _BASELINE,
           "sweep_small": _SWEEP, "synthetic_mem": _SYNTHETIC}


@dataclasses.dataclass(frozen=True)
class Cell:
    """One simulation of a workload."""

    id: str                  # "<workload>/<kernel>/<config>@<budget>"
    workload: object         # analog name, or a WorkloadSpec (synthetic)
    label: str
    params: object
    max_instructions: int


def budget(name: str, smoke: bool) -> int:
    return SMOKE_BUDGET if smoke else BUDGETS[name]


def synthetic_profiles(seed: int, smoke: bool = False
                       ) -> List[Tuple[synthetic.SyntheticProfile, bool]]:
    """Four kernels drawn from ``seed``: (profile, warm_data) pairs.

    One per working-set regime against the modelled 64 KB L1D and 1 MB
    L2: L1D-resident, L2-resident (pre-warmed into the L2), and two
    beyond the L2 (a pointer chase and a scatter over 2 MB), with
    hard-branch bias from 0 to 0.3.  The seed draws each kernel's data:
    scatter addresses, the chase order and the branch outcomes.  The
    kernels' shapes and footprints are fixed, because they set the
    simulation cost per instruction, and the benchmark's spread across
    seeds must stay within its bounds.
    """
    rng = random.Random(seed)
    cap = budget("synthetic_mem", smoke)
    # (regime, footprint in words, pattern, loads, chain, bias, warm)
    regimes = (("l1", 1 << 12, "scatter", 2, 4, 0.3, False),
               ("l2", 1 << 15, "stream", 2, 6, 0.1, True),
               ("mem-chase", 1 << 18, "chase", 1, 4, 0.2, False),
               ("mem-scatter", 1 << 18, "scatter", 2, 3, 0.0, False))
    profiles = []
    for regime, words, pattern, loads, chain, bias, warm in regimes:
        profiles.append((synthetic.SyntheticProfile(
            name=f"syn-{regime}-s{seed}",
            iterations=cap // 4 + 1,
            loads_per_iteration=loads,
            stores_per_iteration=1,
            footprint_words=words,
            access_pattern=pattern,
            fp_chain_depth=chain,
            fp_parallel_ops=3,
            int_ops=2,
            hard_branch_bias=bias,
            seed=rng.randrange(1 << 30)), warm))
    return profiles


class Prebuilt:
    """Builds a synthetic kernel once per process, then returns it again.

    Constructing a 2 MB kernel costs more than simulating it, which would
    make ``synthetic_mem`` a benchmark of program construction; ``setup_s``
    times the construction instead.
    """

    def __init__(self, profile) -> None:
        self.profile = profile
        self.program = None

    def __call__(self, scale: int = 1):
        if self.program is None:
            self.program = synthetic.build_synthetic(self.profile)
        return self.program


def synthetic_spec(profile, warm_data: bool) -> WorkloadSpec:
    return WorkloadSpec(profile.name, Prebuilt(profile),
                        default_instructions=profile.iterations * 8,
                        is_fp=True, warm_data=warm_data,
                        description=f"synthetic {profile.access_pattern} "
                                    f"over {profile.footprint_words} words")


def analogs(smoke: bool = False) -> List[str]:
    """The SPEC analogs a workload runs; two under ``--smoke``."""
    names = sorted(ANALOGS)
    return names[:2] if smoke else names


def build_cells(name: str, seed: int, smoke: bool = False) -> List[Cell]:
    """The cell list of workload ``name`` in canonical (unshuffled) order."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; known: {NAMES}")
    cap = budget(name, smoke)
    if name == "synthetic_mem":
        kernels = [(profile.name, synthetic_spec(profile, warm))
                   for profile, warm in synthetic_profiles(seed, smoke)]
    else:
        kernels = [(analog, analog) for analog in analogs(smoke)]
    return [Cell(f"{name}/{kernel}/{label}@{cap}", workload, label,
                 factory(), cap)
            for kernel, workload in kernels
            for label, factory in CONFIGS[name]]


def build_programs(name: str, seed: int, smoke: bool = False) -> int:
    """Build every program workload ``name`` simulates (the set-up
    metric's unit of work); returns how many were built."""
    if name == "synthetic_mem":
        profiles = synthetic_profiles(seed, smoke)
        for profile, _warm in profiles:
            synthetic.build_synthetic(profile)
        return len(profiles)
    names = analogs(smoke)
    for analog in names:
        ANALOGS[analog].build(1)
    return len(names)


def shuffled(items: list, seed: int, rep: int) -> list:
    """``items`` in the order repetition ``rep`` of seed ``seed`` runs them."""
    order = list(items)
    random.Random(seed * 1_000_003 + rep).shuffle(order)
    return order


# ------------------------------------------------------------------- golden
def load_golden() -> Dict[str, dict]:
    return json.loads(GOLDEN_PATH.read_text())["cells"]


def golden_record(result) -> dict:
    return {"cycles": result.cycles, "instructions": result.instructions,
            "stats": result.stats}


def mismatch(result, expected: Optional[dict]) -> Optional[str]:
    """Why ``result`` fails its golden record, or None when it matches.

    Every golden key must be present and numerically equal (the py
    kernels emit ``53`` where the compiled ones emit ``53.0``); stats the
    golden record lacks are allowed, so added counters do not fail.
    """
    if expected is None:
        return "no golden record"
    for key in ("cycles", "instructions"):
        if getattr(result, key) != expected[key]:
            return (f"{key} {getattr(result, key)} != golden "
                    f"{expected[key]}")
    stats = result.stats
    for key, value in expected["stats"].items():
        if key not in stats:
            return f"stat {key} missing"
        if stats[key] != value:
            return f"stat {key} {stats[key]} != golden {value}"
    return None
