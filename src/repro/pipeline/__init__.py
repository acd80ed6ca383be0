"""Cycle-level out-of-order pipeline: FUs, LSQ, ROB, processor top level."""

from repro.pipeline.fu import FUPool
from repro.pipeline.lsq import FORWARD_LATENCY, LoadStoreQueue, LSQEntry
from repro.pipeline.processor import Processor, build_iq
from repro.pipeline.rob import ReorderBuffer

__all__ = ["FORWARD_LATENCY", "FUPool", "LSQEntry", "LoadStoreQueue",
           "Processor", "ReorderBuffer", "build_iq"]
