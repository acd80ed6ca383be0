"""The data image a program starts from.

The byte-stability pins hash the canonical JSON of a fresh
``MachineState`` snapshot.  A digest moves if any initial word changes
value or changes type (int ``0`` and float ``0.0`` compare equal but
encode differently), so these pins hold every analog's starting image
fixed across changes to how the image is stored.
"""

import gc
import hashlib
import json
import tracemalloc

import pytest

from repro.common.errors import ProgramError
from repro.isa import (WORD_BYTES, MachineState, ProgramBuilder, R,
                       run_functional)
from repro.validation.generator import FuzzProfile, build_fuzz_program
from repro.workloads import WORKLOADS, SyntheticProfile, build_synthetic


def snapshot_digest(program):
    encoded = json.dumps(MachineState(program).snapshot(), sort_keys=True)
    return hashlib.sha256(encoded.encode()).hexdigest()


ANALOG_DIGESTS = {
    "ammp": "32631911945bb1a3247f898239baa8d1f437c0a90fc58547a62497d07f9206d3",
    "applu": "77d3f2b796055bcadefb3efe6cd86954a7f0a8a1c39fc0d02b559a84bfb14341",
    "equake": "1dbb75f3e047c7c57db90cf9a31f06c222bb140c2d1efa82687317f536bb5a5d",
    "gcc": "c76005fee0d48223ebdb2cca445d8ee1dd495e6fd5f26aea434be1b9e4422b20",
    "mgrid": "87c25b21adc43786742c00a7aeda5408fbfe10768a5705daa94d18c202255125",
    "swim": "741c21edbbf304d4ff9f7b2f46afa8616ef4bc67f6ad1cab730b2e38d9850eeb",
    "twolf": "4833745ec27a0d2c337251d920cbe2d2842d5750406bdeb38569cf36797a7862",
    "vortex": "8bb924401dfdf3d0becfa8af5aeedacf4e27e3d8e4aad2e91f97e13a44c8b535",
}

SYNTHETIC_PROFILES = {
    "stream": SyntheticProfile(iterations=200, access_pattern="stream",
                               footprint_words=1 << 12, seed=3),
    "scatter": SyntheticProfile(iterations=200, access_pattern="scatter",
                                footprint_words=1 << 14, seed=4),
    "chase": SyntheticProfile(iterations=200, access_pattern="chase",
                              footprint_words=1 << 15, seed=5),
}

SYNTHETIC_DIGESTS = {
    "chase": "bbc4fb86b3fd6d20b2645e43495a02e57624bbf50d02482fc9616d0865a2dff8",
    "scatter": "015bed7645725d7ddcc069d2bef4e1fa4817ffa3829e56d4073d3ea4e51d76b6",
    "stream": "812e169dd257075a38c371b00197e4168c60c9e1bf998a755ea0b5fb36b98cdb",
}

FUZZ_DIGEST = \
    "2da6d9f6e9fa71385597f39f56951ddf4bfa1ebfa06977accaffd369176d1c6c"


class TestByteStability:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_analog_image(self, name):
        program = WORKLOADS[name].build(1)
        assert snapshot_digest(program) == ANALOG_DIGESTS[name]

    @pytest.mark.parametrize("pattern", sorted(SYNTHETIC_PROFILES))
    def test_synthetic_image(self, pattern):
        program = build_synthetic(SYNTHETIC_PROFILES[pattern])
        assert snapshot_digest(program) == SYNTHETIC_DIGESTS[pattern]

    def test_fuzz_image(self):
        program = build_fuzz_program(FuzzProfile(seed=11))
        assert snapshot_digest(program) == FUZZ_DIGEST


def is_int_zero(value):
    return type(value) is int and value == 0


class TestImage:
    def test_runs_from_one_program_are_independent(self):
        b = ProgramBuilder("t")
        seg = b.alloc("a", 4, init=[1.0, 2.0, 3.0, 4.0])
        b.li(R(1), 99)
        b.st(R(1), R(0), 8, base=seg)
        b.halt()
        program = b.build()
        pristine = list(program.initial_memory)
        first = seg.base // WORD_BYTES
        ran = run_functional(program)
        assert ran.memory[first + 1] == 99
        fresh = MachineState(program)
        fresh.store(seg.addr(2), 7)
        assert program.initial_memory == pristine
        assert MachineState(program).memory[first + 1:first + 3] == [2.0, 3.0]
        assert ran.memory[first + 2] == 3.0

    def test_image_longer_than_memory_rejected(self):
        b = ProgramBuilder("t")
        b.alloc("a", 2, init=[1.0, 2.0])
        b.halt()
        program = b.build()
        program.memory_words = 1
        with pytest.raises(ProgramError, match="outside memory"):
            program.validate()

    def test_set_word_overrides_init(self):
        b = ProgramBuilder("t")
        seg = b.alloc("a", 3, init=[1.0, 2.0, 3.0])
        b.set_word(seg, 1, 40)
        b.halt()
        first = seg.base // WORD_BYTES
        image = b.build().initial_memory
        assert image[first:first + 3] == [1.0, 40, 3.0]
        assert type(image[first + 1]) is int

    def test_trailing_uninitialised_segment_not_stored(self):
        b = ProgramBuilder("t")
        head = b.alloc("head", 3, init=[0.0, 5.0, 6.0])
        tail = b.alloc("tail", 8)
        b.alloc("empty", 2, init=[])
        b.halt()
        program = b.build()
        assert len(program.initial_memory) == head.base // WORD_BYTES + 3
        assert program.memory_words == tail.base // WORD_BYTES + 10
        memory = MachineState(program).memory
        assert len(memory) == program.memory_words
        assert type(memory[0]) is float          # explicit init=[0.0]
        assert all(is_int_zero(memory[tail.base // WORD_BYTES + i])
                   for i in range(8))

    def test_gaps_between_segments_are_int_zero(self):
        b = ProgramBuilder("t")
        b.alloc("a", 1, init=[1.5])
        hole = b.alloc("hole", 4)
        last = b.alloc("b", 1, init=[2.5])
        b.halt()
        image = b.build().initial_memory
        assert image[last.base // WORD_BYTES] == 2.5
        assert all(is_int_zero(word) for word in
                   image[1:hole.base // WORD_BYTES + hole.words])


class TestFootprint:
    """A beyond-L2 image is one list of shared value objects: no per-word
    index objects, and a run copies pointers, not values."""

    def test_large_image_footprint(self):
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            program = build_synthetic(SyntheticProfile(
                access_pattern="scatter", footprint_words=1 << 18))
            gc.collect()
            built = tracemalloc.get_traced_memory()[0]
            state = MachineState(program)
            started = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(state.memory) == program.memory_words
        assert built - start <= 12 << 20
        assert started - built <= 3 << 20
