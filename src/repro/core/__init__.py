"""Instruction-queue designs: the paper's segmented dependence-chain IQ,
the ideal monolithic baseline, the Michaud-Seznec prescheduler, the
Canal-González distance scheme, the Palacharla dependence FIFOs and
Diavastos-Carlson load-delay tracking.  :data:`repro.harness.configs.DESIGNS`
lists all six; the ``distance`` and ``delay_tracking`` modules load only
when a queue of their kind is built."""

from repro.core.conventional import ConventionalIQ
from repro.core.fifo_iq import DependenceFIFOQueue
from repro.core.iq_base import IQEntry, InstructionQueue, Operand
from repro.core.predictors import HitMissPredictor, LeftRightPredictor
from repro.core.prescheduler import PreschedulingIQ
from repro.core.segmented import SegmentedIQ

__all__ = [
    "ConventionalIQ", "DependenceFIFOQueue", "HitMissPredictor", "IQEntry",
    "InstructionQueue", "LeftRightPredictor", "Operand", "PreschedulingIQ",
    "SegmentedIQ",
]
