"""The durable service journal: hash chains, replay, checkpoints."""

from __future__ import annotations

import json

import pytest

from repro.service.journal import (
    BROKER_NAMESPACE,
    CAMPAIGN_NAMESPACE,
    CampaignHistory,
    ServiceJournal,
)
from repro.store import LocalStore


@pytest.fixture()
def store(tmp_path):
    return LocalStore(tmp_path / "store")


def record_lifecycle(journal, campaign_id="C1", fail=False):
    journal.record(
        campaign_id,
        "accepted",
        {"spec": {"app": "lulesh", "seed": 0}, "token": "tok-1"},
    )
    journal.record(
        campaign_id,
        "stage",
        {"stage": "static", "status": "computed", "fingerprint": "f" * 64},
    )
    if fail:
        journal.record(campaign_id, "failed", {"error": "boom"})
    else:
        journal.record(
            campaign_id,
            "done",
            {
                "fingerprints": {"static": "f" * 64, "measure": "a" * 64},
                "profile_executions": 4,
                "stats_line": "campaign: 4 runs",
            },
        )


class TestRecordReplay:
    def test_roundtrip_folds_into_history(self, store):
        journal = ServiceJournal(store)
        record_lifecycle(journal)

        histories = ServiceJournal(store).replay()
        assert set(histories) == {"C1"}
        history = histories["C1"]
        assert history.state == "done"
        assert history.terminal
        assert history.spec == {"app": "lulesh", "seed": 0}
        assert history.token == "tok-1"
        assert history.stage_states == {"static": "computed"}
        assert history.fingerprints == {
            "static": "f" * 64,
            "measure": "a" * 64,
        }
        assert history.profile_executions == 4
        assert history.stats_line == "campaign: 4 runs"
        assert history.restarts == 0

    def test_failed_campaign_history(self, store):
        journal = ServiceJournal(store)
        record_lifecycle(journal, fail=True)
        history = ServiceJournal(store).replay()["C1"]
        assert history.state == "failed"
        assert history.terminal
        assert history.error == "boom"

    def test_unfinished_campaign_is_not_terminal(self, store):
        journal = ServiceJournal(store)
        journal.record("C1", "accepted", {"spec": {"app": "lulesh"}})
        journal.record(
            "C1", "stage", {"stage": "static", "status": "computed"}
        )
        history = ServiceJournal(store).replay()["C1"]
        assert history.state == "running"
        assert not history.terminal

    def test_recovered_events_count_restarts(self, store):
        journal = ServiceJournal(store)
        journal.record("C1", "accepted", {"spec": {}})
        journal.record("C1", "recovered", {"incarnation": 2})
        journal.record("C1", "recovered", {"incarnation": 3})
        assert ServiceJournal(store).replay()["C1"].restarts == 2

    def test_unknown_event_rejected(self, store):
        with pytest.raises(ValueError):
            ServiceJournal(store).record("C1", "exploded", {})

    def test_campaigns_sort_numerically(self, store):
        journal = ServiceJournal(store)
        for campaign_id in ("C10", "C2", "C1"):
            journal.record(campaign_id, "accepted", {"spec": {}})
        assert list(ServiceJournal(store).replay()) == ["C1", "C2", "C10"]

    def test_chain_continues_after_replay(self, store):
        journal = ServiceJournal(store)
        journal.record("C1", "accepted", {"spec": {}})
        journal.record(
            "C1", "stage", {"stage": "static", "status": "computed"}
        )

        # A new journal (a restarted server) appends to the same chain.
        second = ServiceJournal(store)
        second.replay()
        second.record("C1", "recovered", {"incarnation": 2})
        second.record("C1", "done", {"fingerprints": {}})

        history = ServiceJournal(store).replay()["C1"]
        assert history.state == "done"
        assert history.restarts == 1
        assert history.last_seq == 3


class TestTamperDetection:
    def test_tampered_entry_truncates_history(self, store):
        journal = ServiceJournal(store)
        record_lifecycle(journal)

        # Flip the stage event's payload without re-fingerprinting.
        key = "C1-000001"
        raw = json.loads(
            (store.root / CAMPAIGN_NAMESPACE / f"{key}.json").read_text()
        )
        raw["payload"]["data"]["fingerprint"] = "0" * 64
        (store.root / CAMPAIGN_NAMESPACE / f"{key}.json").write_text(
            json.dumps(raw)
        )

        fresh = ServiceJournal(store)
        history = fresh.replay()["C1"]
        # Only the verified prefix (the accepted entry) survives; the
        # tampered entry and everything chained after it are dropped.
        assert history.state == "queued"
        assert history.last_seq == 0
        assert fresh.corrupt_entries >= 1

    def test_missing_sequence_number_breaks_the_chain(self, store):
        journal = ServiceJournal(store)
        record_lifecycle(journal)
        (store.root / CAMPAIGN_NAMESPACE / "C1-000001.json").unlink()

        fresh = ServiceJournal(store)
        history = fresh.replay()["C1"]
        assert history.last_seq == 0
        assert fresh.corrupt_entries >= 1

    def test_append_after_truncated_replay_overwrites_garbage(self, store):
        journal = ServiceJournal(store)
        record_lifecycle(journal)
        (store.root / CAMPAIGN_NAMESPACE / "C1-000001.json").unlink()

        fresh = ServiceJournal(store)
        fresh.replay()
        # The chain resumes right after the last verified entry.
        fresh.record("C1", "failed", {"error": "recovered as failed"})
        history = ServiceJournal(store).replay()["C1"]
        assert history.state == "failed"
        assert history.last_seq == 1


class TestCheckpointsAndIncarnations:
    def test_job_checkpoint_roundtrip(self, store):
        journal = ServiceJournal(store)
        assert journal.job_checkpoint("a" * 64) is None
        journal.checkpoint_job(
            "a" * 64, {"job": "J1", "total": 4, "merged": [0, 2]}
        )
        checkpoint = journal.job_checkpoint("a" * 64)
        assert checkpoint["merged"] == [0, 2]

        journal.clear_job("a" * 64)
        assert journal.job_checkpoint("a" * 64) == {"done": True}
        assert store.has(BROKER_NAMESPACE, "a" * 64)

    def test_incarnation_counter(self, store):
        journal = ServiceJournal(store)
        assert journal.incarnation() == 0
        assert journal.bump_incarnation() == 1
        assert journal.bump_incarnation() == 2
        assert ServiceJournal(store).incarnation() == 2

    def test_histories_expose_apply_for_unit_use(self):
        history = CampaignHistory(campaign_id="C7")
        history.apply(
            {"event": "accepted", "data": {"spec": {"app": "lulesh"}}}
        )
        history.apply({"event": "failed", "data": {"error": "x"}})
        assert history.terminal and history.error == "x"
