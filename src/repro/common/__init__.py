"""Shared infrastructure: parameters, statistics, events, errors."""

from repro.common.errors import (ConfigurationError, DeadlockError,
                                 ExecutionError, InvariantViolation,
                                 ProgramError, ReproError, SimulationError)
from repro.common.events import EventQueue
from repro.common.params import (BranchPredictorParams, CacheParams, IQParams,
                                 MemoryParams, ProcessorParams)
from repro.common.stats import Counter, Distribution, StatGroup, ratio

__all__ = [
    "BranchPredictorParams", "CacheParams", "ConfigurationError", "Counter",
    "DeadlockError", "Distribution", "EventQueue", "ExecutionError",
    "IQParams", "InvariantViolation", "MemoryParams", "ProcessorParams",
    "ProgramError",
    "ReproError", "SimulationError", "StatGroup", "ratio",
]
