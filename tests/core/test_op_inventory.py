"""Every public operation of the compiled kernels names its twin check.

``_ckernels.c`` is hand-written C with a Python twin for every type.  A
method that no twin check drives could drift from its twin unseen, so
this inventory maps each public method of each compiled type to the
check that compares it with its twin: a rule (or invariant) of the
``EngineParity`` state machine in ``tests/core/test_engine_parity.py``,
which calls both engines op for op, or a parity test, named
``module::test`` or ``module::Class::test``.  The inventory must list
exactly the methods each type has, and every name it gives must exist:
new C cannot land without its twin check.  Iteration (``__next__``) is
the replay type's only operation.  The two segmented-IQ engines have
exactly the same public methods (``test_engines_expose_the_same_methods``),
so the ``Engine`` rows cover ``PyKernelEngine``'s too.
"""

import importlib

import pytest
from hypothesis import stateful

from repro.core.segmented import kernels

_RULE_MARKERS = (stateful.RULE_MARKER, stateful.INVARIANT_MARKER,
                 stateful.INITIALIZE_RULE_MARKER)

#: The state machine whose rules drive both engines op for op.
MACHINE = "tests.core.test_engine_parity::EngineParity"

_EVENTS = "tests.common.test_events"
_FETCH_COMMIT = "tests.pipeline.test_fetch_commit_stage"
_MEMORY = "tests.pipeline.test_memory_parity"

#: type -> {method: "rule:<name>" or "<module>::<test>"}.
INVENTORY = {
    "Engine": {
        "alloc_chain": "rule:alloc_chain",
        "attach": "rule:detach_attach",
        "base_of": "rule:same_state",
        "bind": "rule:dispatch",
        "can_dispatch": "rule:dispatch",
        "chain_set": "rule:chain_event",
        "cycle": "rule:cycle",
        "detach": "rule:detach_attach",
        "dispatch": "rule:dispatch",
        "drain_events": "rule:promote_all",
        "entries_of": "rule:membership",
        "entry_obj": "rule:membership",
        "free_entry": "rule:free_entry",
        "hseg_of": "rule:same_state",
        "insert_entry": "rule:insert_entries",
        "issue_select": "rule:issue_select",
        "load_complete": "rule:head_life",
        "load_miss": "rule:head_life",
        "max_seq_slot": "rule:recovery_reads",
        "min_seq_slot": "rule:recovery_reads",
        "mode_of": "rule:same_state",
        "next_promote_cycle": "rule:probes",
        "notify": "rule:chain_event",
        "occupancies": "rule:same_state",
        "oldest_ineligible": "rule:recovery_reads",
        "on_entry_ready_known": "rule:operand_ready",
        "p0_next": "rule:probes",
        "p0_push": "rule:p0_push",
        "plan": "rule:plan",
        "pop_eligible": "rule:pop_eligible",
        "promote_all": "rule:promote_all",
        "refresh_free_prev": "rule:advance",
        "reschedule_all": "rule:refit_threshold",
        "seg_occ": "rule:insert_entries",
        "seg_of": "rule:same_state",
        "select_issue": "rule:select_issue",
        "set_collect": "rule:promote_all",
        "set_now": "rule:advance",
        "set_threshold": "rule:refit_threshold",
        "slot_seq": "rule:same_state",
        "slots_of": "rule:same_state",
        "threshold": "rule:recovery_reads",
        "writeback": "rule:writeback",
    },
    "Pipeline": {
        "fu_accept": "rule:fu_accept",
        "fu_can_accept": "rule:fu_can_accept",
        "fu_cache_port": "rule:fu_cache_port",
        "fu_next_event": "rule:fu_next_event",
    },
    "EventQueue": {
        name: f"{_EVENTS}::test_compiled_queue_matches_python_queue"
        for name in ("advance_to", "next_event_cycle", "schedule",
                     "schedule_at")
    },
    "DispatchStage": {
        "run": "tests.pipeline.test_dispatch_stage"
               "::test_dense_segmented_stage_parity",
    },
    "IssueStage": {
        "run": "tests.pipeline.test_issue_stage"
               "::test_dense_segmented_stage_parity",
    },
    "FetchStage": {
        "run": f"{_FETCH_COMMIT}::test_dense_segmented_stage_parity",
    },
    "CommitStage": {
        "run": f"{_FETCH_COMMIT}::test_dense_segmented_stage_parity",
    },
    "MemStage": {
        "run": "tests.pipeline.test_mem_stage"
               "::test_dense_segmented_stage_parity",
        "dispatch": f"{_MEMORY}::test_aliasing_policy_parity",
        "address_ready": f"{_MEMORY}::test_aliasing_policy_parity",
        "commit": f"{_MEMORY}::test_dropped_store_write_parity",
    },
    "CacheStage": {
        "touch": f"{_MEMORY}::test_cold_code_parity",
        "access": f"{_MEMORY}::test_cold_code_parity",
        "access_line": f"{_MEMORY}::test_l2_mshr_queue_parity",
        "warm_line": f"{_MEMORY}::test_dirty_l2_victim_parity",
    },
    "Replay": {
        "__next__": "tests.isa.test_functional_record"
                    "::TestNativeReplay"
                    "::test_native_equals_python_replay_on_every_analog",
    },
}


def _compiled():
    kernels.set_backend("compiled")
    try:
        kernels.backend()
    except RuntimeError:
        return None
    finally:
        kernels.set_backend(None)
    from repro.core.segmented import _ckernels
    return _ckernels


def _public_methods(cls) -> set:
    names = {name for name in dir(cls) if not name.startswith("_")
             and callable(getattr(cls, name))}
    if "__next__" in vars(cls):
        names.add("__next__")
    return names


@pytest.mark.skipif(_compiled() is None,
                    reason="compiled kernel backend not built "
                           "(python -m repro.core.segmented.build)")
@pytest.mark.parametrize("type_name", sorted(INVENTORY))
def test_inventory_lists_every_public_method(type_name):
    cls = getattr(_compiled(), type_name)
    listed = set(INVENTORY[type_name])
    methods = _public_methods(cls)
    assert not methods - listed, \
        f"{type_name}: no twin check named for {sorted(methods - listed)}"
    assert not listed - methods, \
        f"{type_name}: the inventory lists gone methods " \
        f"{sorted(listed - methods)}"


@pytest.mark.skipif(_compiled() is None,
                    reason="compiled kernel backend not built "
                           "(python -m repro.core.segmented.build)")
def test_engines_expose_the_same_methods():
    """The segmented IQ calls both engine backends the same way: the
    compiled Engine and PyKernelEngine have the same public methods."""
    assert _public_methods(_compiled().Engine) == \
        _public_methods(kernels.PyKernelEngine)


def _resolve(target: str):
    """The rule or test function ``target`` names (AssertionError when
    there is none)."""
    if target.startswith("rule:"):
        module, owner = MACHINE.split("::")
        parts = [owner, target[len("rule:"):]]
    else:
        module, *parts = target.split("::")
    obj = importlib.import_module(module)
    for part in parts:
        assert hasattr(obj, part), f"{target}: {part!r} does not exist"
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("type_name,method,target", [
    (type_name, method, target)
    for type_name, methods in sorted(INVENTORY.items())
    for method, target in sorted(methods.items())])
def test_each_method_names_an_existing_check(type_name, method, target):
    check = _resolve(target)
    assert callable(check), target
    if target.startswith("rule:"):
        assert any(hasattr(check, marker) for marker in _RULE_MARKERS), \
            f"{type_name}.{method}: {target} is not a state-machine rule"
    else:
        assert check.__name__.startswith("test_"), \
            f"{type_name}.{method}: {target} is not a test"
