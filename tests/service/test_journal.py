"""The fsync'd job journal: replay, torn tails, and compaction."""

import json
from pathlib import Path

from repro.service.journal import JobJournal
from repro.service.jobs import Job


def _job(job_id: str, **overrides) -> Job:
    fields = dict(id=job_id, kind="run", key=f"key-{job_id}",
                  tenant="alice", payload={"workload": "twolf"},
                  cost=1000.0, timeout=60.0)
    fields.update(overrides)
    return Job(**fields)


class TestReplay:
    def test_roundtrip_folds_transitions(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        journal.submitted(_job("j-000001"))
        journal.append("j-000001", "running", started_at=12.5)
        journal.append("j-000001", "done")
        journal.submitted(_job("j-000002", tenant="bob"))

        folded = JobJournal.replay(path)
        assert folded["j-000001"]["state"] == "done"
        assert folded["j-000001"]["started_at"] == 12.5
        assert folded["j-000001"]["key"] == "key-j-000001"
        assert folded["j-000002"]["state"] == "pending"
        assert folded["j-000002"]["tenant"] == "bob"

    def test_missing_file_is_empty(self, tmp_path):
        assert JobJournal.replay(tmp_path / "nope.jsonl") == {}

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        journal.submitted(_job("j-000001"))
        journal.append("j-000001", "running")
        with open(path, "a") as handle:
            handle.write('{"job": "j-000001", "state": "do')  # crash here
        folded = JobJournal.replay(path)
        assert folded["j-000001"]["state"] == "running"

    def test_append_after_a_torn_tail_survives_replay(self, tmp_path):
        """A crash mid-append leaves a line without a newline; the next
        process's first append must start a fresh line instead of gluing
        its record onto the fragment (where replay would drop both)."""
        path = tmp_path / "journal.jsonl"
        JobJournal(path).submitted(_job("j-000001"))
        with open(path, "a") as handle:
            handle.write('{"job": "j-000001", "state": "do')  # crash here
        JobJournal(path).submitted(_job("j-000002"))
        folded = JobJournal.replay(path)
        assert folded["j-000001"]["state"] == "pending"
        assert folded["j-000002"]["state"] == "pending"

    def test_artifact_is_in_the_submission_record(self, tmp_path):
        """A traced job's artifact is journaled at submission, not only
        at the terminal transition — a job pending at a crash must not
        resume with its artifact forgotten."""
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        journal.submitted(_job("j-000001", artifact="j-000001.jsonl"))
        folded = JobJournal.replay(path)
        assert folded["j-000001"]["artifact"] == "j-000001.jsonl"
        journal.compact()
        compacted = JobJournal.replay(path)
        assert compacted["j-000001"]["artifact"] == "j-000001.jsonl"

    def test_error_and_artifact_fold_in(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        journal.submitted(_job("j-000001"))
        journal.append("j-000001", "failed", error="boom",
                       artifact="j-000001.jsonl")
        folded = JobJournal.replay(path)
        assert folded["j-000001"]["error"] == "boom"
        assert folded["j-000001"]["artifact"] == "j-000001.jsonl"


class TestCompaction:
    def test_keeps_live_drops_old_terminal(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        for index in range(1, 11):
            job_id = f"j-{index:06d}"
            journal.submitted(_job(job_id))
            if index <= 8:
                journal.append(job_id, "done")
        kept = journal.compact(keep_terminal=3)
        # 2 live + the 3 most recent terminal survive.
        assert set(kept) == {"j-000006", "j-000007", "j-000008",
                             "j-000009", "j-000010"}
        on_disk = JobJournal.replay(path)
        assert set(on_disk) == set(kept)
        assert on_disk["j-000009"]["state"] == "pending"
        assert on_disk["j-000006"]["state"] == "done"

    def test_compaction_preserves_submission_records(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        journal.submitted(_job("j-000001", cost=42.0, timeout=7.0))
        journal.append("j-000001", "running", started_at=3.0)
        journal.compact()
        journal.append("j-000001", "done")
        folded = JobJournal.replay(path)
        record = folded["j-000001"]
        assert record["cost"] == 42.0
        assert record["timeout"] == 7.0
        assert record["payload"] == {"workload": "twolf"}
        assert record["state"] == "done"

    def test_every_line_is_valid_json(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        journal.submitted(_job("j-000001"))
        journal.append("j-000001", "done")
        journal.compact()
        for line in path.read_text().splitlines():
            json.loads(line)


class TestOnDiskFormat:
    """A journal written before both journals shared one JSONL primitive
    replays to the same jobs, and new lines keep the compact spelling."""

    FIXTURE = Path(__file__).with_name("job_journal_v1.jsonl")

    def test_older_journal_replays_to_the_same_jobs(self):
        folded = JobJournal.replay(self.FIXTURE)
        assert {job_id: record["state"]
                for job_id, record in folded.items()} == {
            "j-000001": "done", "j-000002": "failed",
            "j-000003": "running", "j-000004": "cancelled",
            "j-000005": "pending"}
        assert folded["j-000001"]["started_at"] == 101.0
        assert folded["j-000001"]["result_key"] == "key-1"
        assert folded["j-000002"]["error"] == "boom"
        assert folded["j-000003"]["artifact"] == "j-000003.jsonl"
        assert folded["j-000004"]["shared_with"] == "j-000003"
        assert folded["j-000005"]["tenant"] == "dave"

    def test_new_lines_keep_the_compact_spelling(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        JobJournal(path, fsync=False).append("j-000001", "done")
        line = path.read_text()
        assert line.startswith('{"job":"j-000001","state":"done","t":')
        assert line.endswith("}\n")
