"""SweepJournal unit tests: replay, torn tails, compaction."""

import json
import shutil
from pathlib import Path

import pytest

from repro.fabric import SweepJournal
from repro.fabric.journal import DONE_STATES


class TestRecordAndReplay:
    def test_latest_state_wins_across_reopen(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        journal = SweepJournal(path)
        journal.record("k1", "pending", "twolf/ideal-32")
        journal.record("k1", "running")
        journal.record("k1", "done")
        journal.record("k2", "pending", "swim/seg-64")
        reopened = SweepJournal(path)
        assert reopened.states == {"k1": "done", "k2": "pending"}
        assert reopened.labels == {"k1": "twolf/ideal-32",
                                   "k2": "swim/seg-64"}
        assert reopened.done("k1")
        assert not reopened.done("k2")

    def test_cached_counts_as_done(self, tmp_path):
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        journal.record("k", "cached", "twolf/ideal-32")
        assert journal.done("k")
        assert journal.states["k"] in DONE_STATES

    def test_counts(self, tmp_path):
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        journal.record("a", "done")
        journal.record("b", "done")
        journal.record("c", "failed")
        assert journal.counts() == {"done": 2, "failed": 1}

    def test_unknown_state_is_rejected(self, tmp_path):
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        with pytest.raises(ValueError, match="unknown journal state"):
            journal.record("k", "finished")

    def test_label_sticks_to_first_record(self, tmp_path):
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        journal.record("k", "pending", "first")
        journal.record("k", "running", "second")
        assert journal.labels["k"] == "first"


class TestTornTail:
    def test_replay_tolerates_a_torn_final_line(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        journal = SweepJournal(path)
        journal.record("k1", "done")
        with open(path, "a") as handle:
            handle.write('{"key": "k2", "sta')     # crash mid-append
        reopened = SweepJournal(path)
        assert reopened.states == {"k1": "done"}
        # And the journal stays appendable afterwards.
        reopened.record("k2", "pending")
        assert SweepJournal(path).states["k2"] == "pending"

    def test_replay_skips_foreign_and_blank_lines(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        path.write_text('\n{"key": "k1", "state": "done"}\n'
                        '{"other": "record"}\n'
                        '{"key": "k2", "state": "not-a-state"}\n')
        journal = SweepJournal(path)
        assert journal.states == {"k1": "done"}


class TestCompact:
    def test_one_line_per_key_latest_state(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        journal = SweepJournal(path)
        for state in ("pending", "running", "done"):
            journal.record("k1", state, "twolf/ideal-32")
        journal.record("k2", "pending", "swim/seg-64")
        assert len(path.read_text().splitlines()) == 4
        journal.compact()
        lines = [json.loads(line) for line in
                 path.read_text().splitlines()]
        assert len(lines) == 2
        by_key = {entry["key"]: entry for entry in lines}
        assert by_key["k1"]["state"] == "done"
        assert by_key["k1"]["label"] == "twolf/ideal-32"
        assert SweepJournal(path).states == journal.states


class TestOnDiskFormat:
    """A journal written before both journals shared one JSONL primitive
    replays to the same state, and new records keep its line spelling
    (the CI resume check greps for ``"state": "done"``)."""

    FIXTURE = Path(__file__).with_name("sweep_journal_v1.jsonl")

    def test_older_journal_replays_and_stays_appendable(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        shutil.copy(self.FIXTURE, path)
        journal = SweepJournal(path)
        assert journal.states == {"k-aaa": "done", "k-bbb": "failed",
                                  "k-ccc": "cached", "k-ddd": "done",
                                  "k-eee": "running"}
        assert journal.labels == {"k-aaa": "twolf/ideal-32",
                                  "k-bbb": "twolf/seg-64",
                                  "k-ccc": "swim/ideal-32",
                                  "k-ddd": "swim/seg-64",
                                  "k-eee": "gcc/ideal-32"}
        journal.record("k-eee", "done")
        assert path.read_text().splitlines()[-1] == \
            '{"key": "k-eee", "state": "done"}'
        assert SweepJournal(path).states == dict(journal.states)
