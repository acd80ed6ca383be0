"""The paper's segmented dependence-chain instruction queue."""

from repro.core.segmented.chains import Chain, ChainManager
from repro.core.segmented.kernels import (PyKernelEngine, backend,
                                          make_engine, set_backend)
from repro.core.segmented.links import (NEVER, ChainLink, CountdownLink,
                                        combined_delay)
from repro.core.segmented.queue import (PREDICTED_LOAD_LATENCY, SegmentedIQ,
                                        SegmentState)
from repro.core.segmented.register_info import RegisterInfoTable, RITEntry

__all__ = [
    "Chain", "ChainLink", "ChainManager", "CountdownLink", "NEVER",
    "PREDICTED_LOAD_LATENCY", "PyKernelEngine", "RITEntry",
    "RegisterInfoTable", "SegmentState", "SegmentedIQ", "backend",
    "combined_delay", "make_engine", "set_backend",
]
