"""Fuzzing campaign: N seeded programs x all IQ models, with shrinking.

This is the entry point behind ``python -m repro validate``.  Model
configurations are deliberately *small* (few segments, few chain wires,
shallow FIFOs) — small structures hit their edge cases (full queues,
wire exhaustion, deadlock recovery) after tens of instructions instead
of millions, which is where scheduling bugs live.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.params import ProcessorParams
from repro.harness.configs import DESIGNS
from repro.isa.program import Program
from repro.validation.generator import FuzzProfile, build_fuzz_program
from repro.validation.oracle import (Divergence, OracleResult,
                                     differential_check)
from repro.validation.shrink import active_length, shrink_program


def validation_models() -> Dict[str, ProcessorParams]:
    """Every IQ design (:data:`repro.harness.configs.DESIGNS`) in its
    ``validation_config``, sized small enough to stress edge cases."""
    return {kind: design.validation_config()
            for kind, design in DESIGNS.items()}


@dataclass
class Reproducer:
    """A shrunk failing program plus how it failed."""

    model: str
    seed: int
    result: OracleResult
    program: Program
    shrunk: Optional[Program] = None

    @property
    def minimal(self) -> Program:
        return self.shrunk if self.shrunk is not None else self.program

    def describe(self) -> str:
        lines = [str(self.result),
                 f"  seed: {self.seed}"]
        if self.shrunk is not None:
            lines.append(
                f"  shrunk to {active_length(self.shrunk)} active "
                f"instructions (from {len(self.program)}):")
        else:
            lines.append(f"  reproducer ({len(self.program)} instructions):")
        # Elide the shrinker's nop/halt filler and labels; what remains
        # is the handful of instructions that still reproduce the failure.
        shown = [line for line in self.minimal.disassemble().splitlines()
                 if not line.endswith(":")
                 and ": nop" not in line and ": halt" not in line]
        if shown:
            lines += [f"    {line}" for line in shown]
        else:
            lines.append("    (only filler remains: the failure is "
                         "positional, not data-dependent)")
        return "\n".join(lines)


@dataclass
class CampaignReport:
    """Aggregate outcome of one fuzzing campaign."""

    seed: int
    programs: int
    models: List[str]
    results: List[OracleResult] = field(default_factory=list)
    reproducers: List[Reproducer] = field(default_factory=list)

    @property
    def checks(self) -> int:
        return len(self.results)

    @property
    def failures(self) -> int:
        return sum(1 for r in self.results if not r.ok)

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def summary(self) -> str:
        lines = [f"validation campaign: seed={self.seed} "
                 f"programs={self.programs} models={','.join(self.models)}",
                 f"  {self.checks} differential checks, "
                 f"{self.failures} divergent"]
        for reproducer in self.reproducers:
            lines.append(reproducer.describe())
        if self.ok:
            lines.append("  all models agree with the architectural oracle")
        return "\n".join(lines)


def _campaign_cell(payload) -> Tuple[OracleResult, Optional[Reproducer]]:
    """One (program, model) differential check, shrink included.

    Module-level so the parallel executor can ship it to spawned
    workers; the program is rebuilt from its seed inside the worker,
    guaranteeing the cell computes exactly what the serial path would.
    """
    program_seed, profile, name, params, shrink = payload
    program = build_fuzz_program(profile.with_seed(program_seed))
    result = differential_check(program, params, model=name)
    if result.ok:
        return result, None
    reproducer = Reproducer(model=name, seed=program_seed,
                            result=result, program=program)
    if shrink:
        def fails(candidate: Program) -> bool:
            return not differential_check(candidate, params, model=name).ok
        reproducer.shrunk = shrink_program(program, fails, max_attempts=400)
    return result, reproducer


def run_campaign(
        seed: int = 0,
        num_programs: int = 50,
        *,
        profile: Optional[FuzzProfile] = None,
        models: Optional[Dict[str, ProcessorParams]] = None,
        check_invariants: bool = True,
        shrink: bool = True,
        jobs: int = 1,
        progress: Optional[Callable[[str], None]] = None,
) -> CampaignReport:
    """Fuzz ``num_programs`` seeded programs through every model.

    Each failure is recorded as a :class:`Reproducer`; with ``shrink``
    the failing program is also reduced to a minimal variant that still
    fails the same model.  ``jobs`` > 1 fans the (program, model) cells
    out over a process pool; results and reproducers come back in the
    same deterministic order as a serial campaign, and a crashed worker
    is reported as an ``error`` divergence on its cell rather than
    aborting the campaign.
    """
    base = (profile if profile is not None else FuzzProfile()).with_seed(seed)
    if models is None:
        models = validation_models()
    if check_invariants:
        models = {name: params.replace(check_invariants=True)
                  for name, params in models.items()}
    report = CampaignReport(seed=seed, programs=num_programs,
                            models=list(models))
    payloads = []
    labels = []
    for index in range(num_programs):
        program_seed = seed + index
        for name, params in models.items():
            payloads.append((program_seed, base, name, params, shrink))
            labels.append(f"[{index + 1}/{num_programs}] "
                          f"seed={program_seed}/{name}")
    from repro.fabric import CellError, ExecutionConfig, Executor
    executor = Executor(ExecutionConfig(jobs=jobs))
    cells = executor.map(_campaign_cell, payloads, labels=labels)
    for payload, label, cell in zip(payloads, labels, cells):
        program_seed, _, name, _, _ = payload
        if isinstance(cell, CellError):
            result: OracleResult = OracleResult(
                model=name, program=f"fuzz-{program_seed}",
                divergences=[Divergence(
                    "error", detail=f"campaign worker failed: {cell.error}")])
            reproducer = None
        else:
            result, reproducer = cell
        report.results.append(result)
        if progress is not None:
            progress(f"{label.split(' ', 1)[0]} {result}")
        if reproducer is not None:
            report.reproducers.append(reproducer)
    return report
