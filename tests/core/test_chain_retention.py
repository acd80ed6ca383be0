"""Chains are freed with their last reference, on both engine backends.

The kernel engine keeps a chain's state in columns indexed by its cslot
and never holds the ``Chain`` object itself, so once a chain's head has
written back and no register or buffered entry follows it any more, the
object (and the head ``DynInst`` it points to) can be collected.  After a
run that allocates far more chains than there are wires, the live chains
must be exactly those the register information table, the buffered
entries and the wire pool still reference.
"""

import gc

import pytest

from repro.core.segmented import kernels
from repro.core.segmented.chains import Chain
from repro.harness import configs
from repro.isa import execute
from repro.pipeline import Processor
from repro.workloads import build_gcc

MAX_CHAINS = 16


def _referenced_chains(iq):
    chains = [rentry.chain for rentry in iq.rit._entries.values()]
    for entry in iq.iter_entries():
        state = entry.chain_state
        chains.append(state.own_chain)
        chains.extend(chain for chain, _dh in state.chain_pairs)
    chains.extend(iq._head_chains.values())
    chains.extend(iq.chains._active.values())
    return {id(chain) for chain in chains if chain is not None}


@pytest.mark.parametrize("backend", ["py", "compiled"])
def test_engine_does_not_retain_chains(backend):
    kernels.set_backend(backend)
    try:
        params = configs.segmented(128, MAX_CHAINS, "base",
                                   segment_size=16)
        processor = Processor(params, execute(build_gcc(),
                                              max_instructions=4000))
    except RuntimeError:
        pytest.skip("compiled kernel backend not built")
    finally:
        kernels.set_backend(None)
    processor.run(max_cycles=1_000_000)
    iq = processor.iq
    assert iq.stats.get("chains.allocated") > 20 * MAX_CHAINS
    gc.collect()
    live = {id(obj) for obj in gc.get_objects()
            if type(obj) is Chain and obj.engine is iq._engine}
    assert live <= _referenced_chains(iq)
    assert len(live) <= MAX_CHAINS + len(iq.rit._entries)
