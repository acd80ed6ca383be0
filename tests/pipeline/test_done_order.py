"""``Processor.done`` tests the ROB before the front end.

``frontend.drained`` costs three Python calls and pulls the next
instruction from the stream (``_peek``); the ROB test is one attribute
load.  Testing the ROB first skips the front end on most cycles, so the
stream is read at other points than before.  The runs here check that
nothing the simulator reports moves: the same cycles and byte-identical
sorted-key stats as the order that asks the front end first, event
driven and plain-loop, one thread and two.
"""

import json

import pytest

from repro.harness import configs
from repro.isa import execute
from repro.pipeline import Processor
from repro.workloads import WORKLOADS


def _drained_first_thread_done(self, thread):
    """``Processor._thread_done`` with the front end asked first."""
    return (self._halted[thread]
            or (self.frontends[thread].drained
                and not self.robs[thread]._entries))


def _drained_first_done(self):
    """``Processor.done`` with the front end asked first."""
    return all(map(self._thread_done, range(self.num_threads)))


def _run(names, params):
    """Run one stream per analog in ``names`` to completion; returns
    (cycles, stats), the stats as sorted-key JSON."""
    programs = [WORKLOADS[name].build(1) for name in names]
    streams = [execute(program,
                       max_instructions=WORKLOADS[name].default_instructions)
               for name, program in zip(names, programs)]
    processor = Processor(params, streams if len(streams) > 1 else streams[0])
    for thread, (name, program) in enumerate(zip(names, programs)):
        processor.warm_code(program, thread)
        if WORKLOADS[name].warm_data:
            processor.warm_data(program, thread)
    processor.run()
    assert processor.done
    return processor.cycle, json.dumps(processor.stats.as_dict(),
                                       sort_keys=True)


def _without_skip(run):
    cycles, stats = run
    return cycles, {name: value for name, value in json.loads(stats).items()
                    if not name.startswith("skip.")}


@pytest.mark.parametrize("names", [(name,) for name in sorted(WORKLOADS)]
                         + [("swim", "twolf")])
def test_rob_first_done_changes_nothing(names, monkeypatch):
    """seg-512/128ch comb on every analog and on a two-thread pair."""
    params = configs.segmented(512, 128, "comb")
    plain_params = params.replace(event_driven=False)
    skipping, plain = _run(names, params), _run(names, plain_params)
    assert _without_skip(skipping) == _without_skip(plain)
    monkeypatch.setattr(Processor, "_thread_done",
                        _drained_first_thread_done)
    monkeypatch.setattr(Processor, "done", property(_drained_first_done))
    assert _run(names, params) == skipping
    assert _run(names, plain_params) == plain
