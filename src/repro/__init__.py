"""repro — a reproduction of "A Scalable Instruction Queue Design Using
Dependence Chains" (Raasch, Binkert & Reinhardt, ISCA 2002).

The package contains a cycle-level out-of-order processor simulator with
six interchangeable instruction-queue designs (the closed table
:data:`repro.harness.configs.DESIGNS`) — the paper's segmented
dependence-chain IQ, an ideal monolithic IQ, the Michaud-Seznec
prescheduler, the Canal-González distance scheme, Palacharla dependence
FIFOs, and a load-delay-tracking scheduler — plus synthetic analogs of the paper's
SPEC CPU2000 benchmark subset and a harness that regenerates every table
and figure of the evaluation.

Quickstart::

    from repro import api, configs

    result = api.run(configs.segmented(512, max_chains=128), "swim")
    print(result.ipc)

:func:`repro.api.run` is the single run entry point; it also threads
observability (``trace=``, ``metrics=`` — see :mod:`repro.obs`) and
result caching (``execution=ExecutionConfig(cache=...)``).
"""

from repro.common import IQParams, ProcessorParams, StatGroup
from repro.harness import RunResult, configs
from repro import api, obs
from repro.isa import (F, DynInst, Instruction, Opcode, Program,
                       ProgramBuilder, R, execute, run_functional)
from repro.pipeline import Processor
from repro.workloads import FP_BENCHMARKS, INT_BENCHMARKS, WORKLOADS

__version__ = "1.0.0"

__all__ = [
    "DynInst", "F", "FP_BENCHMARKS", "INT_BENCHMARKS", "IQParams",
    "Instruction", "Opcode", "Processor", "ProcessorParams", "Program",
    "ProgramBuilder", "R", "RunResult", "StatGroup", "WORKLOADS",
    "__version__", "api", "configs", "execute", "obs", "run_functional",
]
