"""WAL + snapshot unit corpus: formats, damage classification, recovery.

The durability layer's contract (docs/architecture.md, "Durability") is
tested here at the file level, no processes involved:

* a torn final record — at *every* byte offset — is truncatable debris;
* any damage followed by more data is mid-log corruption and fails
  typed (:class:`~repro.errors.WalCorruptionError`), never guessed past;
* snapshots restore byte-identical state (rowids and counters included)
  and refuse version skew against the log;
* recovery is idempotent — recovering twice changes nothing.
"""

import os
import pickle
import shutil
import struct
import zlib
from pathlib import Path

import pytest

from repro.datasets import movie_database
from repro.errors import (
    DurabilityError,
    RecoveryError,
    SnapshotError,
    WalCorruptionError,
)
from repro.service.faults import corrupt_wal_record, tear_wal_tail
from repro.storage import (
    Database,
    DurabilityConfig,
    DurabilityManager,
    WriteAheadLog,
    latest_snapshot,
    load_snapshot,
    scan_wal,
    write_snapshot,
)
from repro.storage.snapshot import (
    SNAPSHOT_MAGIC,
    list_snapshots,
    prune_snapshots,
    restore_into,
    snapshot_state,
)
from repro.storage.wal import MAGIC, WAL_NAME, _RECORD_HEADER, _encode_record


def build_log(path, count=4, fsync="never"):
    """A closed WAL holding ``count`` records seq 1..count."""
    with WriteAheadLog(path, fsync=fsync) as wal:
        for index in range(count):
            wal.append({"sql": f"INSERT {index}"})
    return path


def table_state(database):
    """Comparable full state: rows, rowids, and counters, per table."""
    return {
        table.name: (dict(table._rows), table._next_rowid)
        for table in database.tables
    }


# ---------------------------------------------------------------------------
# Empty and fresh logs
# ---------------------------------------------------------------------------


class TestEmptyLog:
    def test_scan_of_missing_file(self, tmp_path):
        scan = scan_wal(tmp_path / "absent.log")
        assert scan.records == []
        assert scan.last_seq == 0
        assert not scan.torn

    def test_scan_of_zero_byte_file(self, tmp_path):
        path = tmp_path / "empty.log"
        path.write_bytes(b"")
        scan = scan_wal(path)
        assert scan.records == [] and scan.valid_bytes == 0

    def test_fresh_open_writes_magic_and_sequences_from_one(self, tmp_path):
        path = tmp_path / WAL_NAME
        with WriteAheadLog(path, fsync="never") as wal:
            assert wal.recovered == []
            assert wal.append({"sql": "first"}) == 1
        assert path.read_bytes().startswith(MAGIC)

    def test_magic_only_log_reopens_empty(self, tmp_path):
        path = tmp_path / WAL_NAME
        WriteAheadLog(path, fsync="never").close()
        with WriteAheadLog(path, fsync="never") as wal:
            assert wal.recovered == [] and wal.last_seq == 0

    def test_wrong_magic_fails_typed(self, tmp_path):
        path = tmp_path / WAL_NAME
        path.write_bytes(b"NOTAWAL!" + b"x" * 32)
        with pytest.raises(WalCorruptionError):
            scan_wal(path)
        loose = scan_wal(path, strict=False)
        assert loose.records == [] and isinstance(loose.error, WalCorruptionError)

    def test_partial_magic_is_unrecoverable_even_non_strict(self, tmp_path):
        path = tmp_path / WAL_NAME
        path.write_bytes(MAGIC[:4])  # a crash mid-creation, mid-magic
        with pytest.raises(WalCorruptionError):
            scan_wal(path, strict=False)


# ---------------------------------------------------------------------------
# Torn tails (recoverable by construction)
# ---------------------------------------------------------------------------


class TestTornTail:
    def test_torn_at_every_byte_offset_of_the_final_record(self, tmp_path):
        source = build_log(tmp_path / "source.log", count=4)
        whole = scan_wal(source)
        last = whole.records[-1]
        size = source.stat().st_size
        assert last.offset + last.length == size
        path = tmp_path / "torn.log"
        for cut in range(last.offset + 1, size):
            shutil.copyfile(source, path)
            with open(path, "r+b") as handle:
                handle.truncate(cut)
            scan = scan_wal(path)  # strict — a torn tail must not raise
            assert len(scan.records) == 3
            assert scan.torn and scan.torn_bytes == cut - last.offset
            assert scan.valid_bytes == last.offset
            # Recovery-open truncates the debris and appends continue.
            with WriteAheadLog(path, fsync="never") as wal:
                assert [r.seq for r in wal.recovered] == [1, 2, 3]
                assert wal.stats()["torn_bytes_truncated"] == cut - last.offset
                assert wal.append({"sql": "again"}) == 4
            assert not scan_wal(path).torn

    def test_truncation_at_a_record_boundary_is_simply_clean(self, tmp_path):
        source = build_log(tmp_path / "source.log", count=4)
        last = scan_wal(source).records[-1]
        with open(source, "r+b") as handle:
            handle.truncate(last.offset)
        scan = scan_wal(source)
        assert len(scan.records) == 3 and not scan.torn

    def test_garbled_in_place_final_record_is_a_torn_tail(self, tmp_path):
        path = build_log(tmp_path / WAL_NAME, count=3)
        corrupt_wal_record(path, 2)  # the final record: same length, bad crc
        scan = scan_wal(path)  # strict — still must not raise
        assert len(scan.records) == 2 and scan.torn

    def test_tear_wal_tail_is_deterministic_per_seed(self, tmp_path):
        first = build_log(tmp_path / "a.log", count=5)
        second = build_log(tmp_path / "b.log", count=5)
        assert tear_wal_tail(first, seed=7) == tear_wal_tail(second, seed=7)
        assert first.read_bytes() == second.read_bytes()

    def test_tear_wal_tail_refuses_an_empty_log(self, tmp_path):
        path = tmp_path / WAL_NAME
        WriteAheadLog(path, fsync="never").close()
        with pytest.raises(ValueError):
            tear_wal_tail(path)


# ---------------------------------------------------------------------------
# Mid-log corruption (typed refusal by construction)
# ---------------------------------------------------------------------------


class TestMidLogCorruption:
    def test_corrupt_checksum_with_data_following_fails_typed(self, tmp_path):
        path = build_log(tmp_path / WAL_NAME, count=4)
        corrupt_wal_record(path, 1)
        with pytest.raises(WalCorruptionError):
            scan_wal(path)
        with pytest.raises(WalCorruptionError):
            WriteAheadLog(path)  # recovery-open must refuse too
        loose = scan_wal(path, strict=False)
        assert [r.seq for r in loose.records] == [1]
        assert isinstance(loose.error, WalCorruptionError)

    def test_sequence_discontinuity_mid_log_fails_typed(self, tmp_path):
        path = tmp_path / WAL_NAME
        path.write_bytes(
            MAGIC
            + _encode_record(1, "a")
            + _encode_record(3, "skipped two")  # the gap
            + _encode_record(4, "c")
        )
        with pytest.raises(WalCorruptionError, match="discontinuity"):
            scan_wal(path)

    def test_sequence_discontinuity_at_the_tail_is_torn(self, tmp_path):
        path = tmp_path / WAL_NAME
        path.write_bytes(MAGIC + _encode_record(1, "a") + _encode_record(3, "b"))
        scan = scan_wal(path)
        assert [r.seq for r in scan.records] == [1] and scan.torn

    def test_undecodable_record_mid_log_fails_typed(self, tmp_path):
        garbage = b"not a pickle at all"
        framed = _RECORD_HEADER.pack(len(garbage), zlib.crc32(garbage)) + garbage
        path = tmp_path / WAL_NAME
        path.write_bytes(MAGIC + _encode_record(1, "a") + framed + _encode_record(2, "b"))
        with pytest.raises(WalCorruptionError, match="undecodable"):
            scan_wal(path)

    def test_corrupt_wal_record_rejects_out_of_range(self, tmp_path):
        path = build_log(tmp_path / WAL_NAME, count=2)
        with pytest.raises(ValueError):
            corrupt_wal_record(path, 5)


# ---------------------------------------------------------------------------
# Append contract, fsync policies, compaction
# ---------------------------------------------------------------------------


class TestAppendContract:
    def test_explicit_seq_must_continue_exactly(self, tmp_path):
        with WriteAheadLog(tmp_path / WAL_NAME, fsync="never") as wal:
            assert wal.append("a", seq=1) == 1
            with pytest.raises(DurabilityError, match="does not continue"):
                wal.append("b", seq=3)
            assert wal.append("b", seq=2) == 2

    def test_set_base_continues_a_compacted_log(self, tmp_path):
        path = tmp_path / WAL_NAME
        with WriteAheadLog(path, fsync="never") as wal:
            for _ in range(3):
                wal.append("x")
            wal.compact(3)  # every record covered: the file is now empty
        with WriteAheadLog(path, fsync="never") as wal:
            assert wal.recovered == []
            wal.set_base(3)
            assert wal.append("y") == 4

    def test_set_base_is_illegal_once_the_log_holds_anything(self, tmp_path):
        path = tmp_path / WAL_NAME
        with WriteAheadLog(path, fsync="never") as wal:
            wal.append("x")
            with pytest.raises(DurabilityError):
                wal.set_base(10)
        with WriteAheadLog(path, fsync="never") as wal:  # recovered non-empty
            with pytest.raises(DurabilityError):
                wal.set_base(10)

    def test_set_base_never_rewinds(self, tmp_path):
        with WriteAheadLog(tmp_path / WAL_NAME, fsync="never") as wal:
            wal.set_base(5)
            wal.set_base(2)  # ignored: lower than the current base
            assert wal.append("x") == 6

    def test_closed_log_refuses_appends(self, tmp_path):
        wal = WriteAheadLog(tmp_path / WAL_NAME, fsync="never")
        wal.close()
        with pytest.raises(DurabilityError, match="closed"):
            wal.append("x")

    def test_invalid_policies_fail_fast(self, tmp_path):
        with pytest.raises(ValueError):
            WriteAheadLog(tmp_path / WAL_NAME, fsync="sometimes")
        with pytest.raises(ValueError):
            WriteAheadLog(tmp_path / WAL_NAME, fsync="batch", batch_every=0)

    def test_fsync_accounting_per_policy(self, tmp_path):
        # The creation fsync (magic write) is the +1 in each count.
        with WriteAheadLog(tmp_path / "always.log", fsync="always") as wal:
            for _ in range(3):
                wal.append("x")
            assert wal.stats()["syncs"] == 1 + 3
        with WriteAheadLog(
            tmp_path / "batch.log", fsync="batch", batch_every=2
        ) as wal:
            for _ in range(5):
                wal.append("x")
            assert wal.stats()["syncs"] == 1 + 2  # after appends 2 and 4
            assert wal.stats()["pending_sync"] == 1
            wal.commit()
            assert wal.stats()["pending_sync"] == 0
        with WriteAheadLog(tmp_path / "never.log", fsync="never") as wal:
            for _ in range(5):
                wal.append("x")
            assert wal.stats()["syncs"] == 1
            wal.commit()  # nothing batched: a no-op
            assert wal.stats()["syncs"] == 1

    def test_compaction_drops_covered_records_atomically(self, tmp_path):
        path = build_log(tmp_path / WAL_NAME, count=6)
        with WriteAheadLog(path, fsync="never") as wal:
            assert wal.compact(4) == 4
            assert wal.stats()["compactions"] == 1
            assert wal.append({"sql": "next"}) == 7  # sequence continues
        scan = scan_wal(path)
        assert [r.seq for r in scan.records] == [5, 6, 7]
        assert not list(path.parent.glob("*.compact"))  # no temp debris


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------


class TestSnapshots:
    def test_round_trip_restores_rowids_and_counters_exactly(self, tmp_path):
        database = movie_database()
        database.insert("MOVIES", {"id": 901, "title": "Snap", "year": 1999})
        database.delete_where("GENRE", lambda row: row["mid"] == 1)
        before = table_state(database)
        info = write_snapshot(tmp_path, database, wal_seq=12)
        assert info.wal_seq == 12
        fresh = movie_database()
        restore_into(fresh, load_snapshot(info.path))
        assert table_state(fresh) == before

    def test_restore_bumps_data_version(self, tmp_path):
        database = movie_database()
        state = snapshot_state(database, wal_seq=1)
        version = database.data_version
        restore_into(database, state)
        assert database.data_version > version  # caches must invalidate

    def test_restore_refuses_a_mismatched_schema(self, tmp_path):
        database = movie_database()
        state = snapshot_state(database, wal_seq=1)
        del state["tables"]["GENRE"]
        with pytest.raises(RecoveryError, match="do not match"):
            restore_into(movie_database(), state)

    @pytest.mark.parametrize(
        "damage",
        ["truncate_header", "truncate_body", "flip_byte", "wrong_magic"],
    )
    def test_damaged_snapshot_fails_typed(self, tmp_path, damage):
        info = write_snapshot(tmp_path, movie_database(), wal_seq=3)
        data = bytearray(info.path.read_bytes())
        if damage == "truncate_header":
            data = data[: len(SNAPSHOT_MAGIC) + 2]
        elif damage == "truncate_body":
            data = data[:-10]
        elif damage == "flip_byte":
            data[len(data) // 2] ^= 0xFF
        elif damage == "wrong_magic":
            data[:8] = b"NOTASNAP"
        info.path.write_bytes(bytes(data))
        with pytest.raises(SnapshotError):
            load_snapshot(info.path)

    def test_missing_snapshot_fails_typed(self, tmp_path):
        with pytest.raises(SnapshotError, match="cannot read"):
            load_snapshot(tmp_path / "snapshot-00000000000000000001.ckpt")

    def test_listing_orders_by_seq_and_prune_keeps_newest(self, tmp_path):
        database = movie_database()
        for seq in (5, 1, 9):
            write_snapshot(tmp_path, database, wal_seq=seq)
        assert [info.wal_seq for info in list_snapshots(tmp_path)] == [1, 5, 9]
        assert latest_snapshot(tmp_path).wal_seq == 9
        assert prune_snapshots(tmp_path, keep=1) == 2
        assert [info.wal_seq for info in list_snapshots(tmp_path)] == [9]
        # Stray files are never pruned: the name pattern is the contract.
        (tmp_path / "unrelated.txt").write_text("keep me")
        assert prune_snapshots(tmp_path, keep=1) == 0
        assert (tmp_path / "unrelated.txt").exists()


# ---------------------------------------------------------------------------
# Recovery (snapshot + replay) through Database.recover / the manager
# ---------------------------------------------------------------------------


class TestRecovery:
    def durable(self, tmp_path, **overrides):
        options = {"directory": tmp_path, "fsync": "never", "checkpoint_every": 0}
        options.update(overrides)
        return DurabilityConfig(**options)

    def test_round_trip_after_process_loss(self, tmp_path):
        manager = DurabilityManager(self.durable(tmp_path))
        database = manager.attach(movie_database())
        database.insert("MOVIES", {"id": 901, "title": "Crash", "year": 2001})
        database.update_where(
            "MOVIES", lambda row: row["id"] == 901, {"year": 2002}
        )
        database.delete_where("GENRE", lambda row: row["mid"] == 2)
        before = table_state(database)
        manager.close()  # simulated loss: nothing checkpointed since attach

        recovered, report = Database.recover(tmp_path)
        assert table_state(recovered) == before
        assert report["replayed"] == 3 and report["rejected"] == 0

    def test_double_recovery_is_idempotent(self, tmp_path):
        manager = DurabilityManager(self.durable(tmp_path))
        database = manager.attach(movie_database())
        for index in range(5):
            database.insert(
                "MOVIES", {"id": 910 + index, "title": f"Twice {index}", "year": 1990}
            )
        manager.close()

        first, first_report = Database.recover(tmp_path)
        second, second_report = Database.recover(tmp_path)
        assert table_state(first) == table_state(second)
        assert first_report == second_report
        # And recovery itself wrote nothing: a third pass still agrees.
        third, _ = Database.recover(tmp_path)
        assert table_state(third) == table_state(first)

    def test_snapshot_log_version_skew_fails_typed(self, tmp_path):
        write_snapshot(tmp_path, movie_database(), wal_seq=5)
        with WriteAheadLog(tmp_path / WAL_NAME, fsync="never") as wal:
            wal.set_base(6)  # the log resumes at 7: seq 6 is missing
            wal.append({"sql": "orphan"})
        with pytest.raises(RecoveryError, match="WAL gap"):
            Database.recover(tmp_path)

    def test_stale_log_behind_the_snapshot_is_ignored(self, tmp_path):
        database = movie_database()
        with WriteAheadLog(tmp_path / WAL_NAME, fsync="never") as wal:
            wal.append(("insert", "GENRE", {"mid": 1, "genre": "stale"}, True))
        write_snapshot(tmp_path, database, wal_seq=5)
        recovered, report = Database.recover(tmp_path)
        assert report["replayed"] == 0  # seq 1 <= snapshot seq 5
        assert table_state(recovered) == table_state(database)

    def test_no_snapshot_and_no_schema_fails_typed(self, tmp_path):
        with pytest.raises(RecoveryError, match="no snapshot"):
            Database.recover(tmp_path)

    def test_rejected_mutation_replays_as_the_same_rejection(self, tmp_path):
        manager = DurabilityManager(self.durable(tmp_path))
        database = manager.attach(movie_database())
        database.insert("MOVIES", {"id": 901, "title": "Valid", "year": 2001})
        with pytest.raises(Exception):
            database.insert("MOVIES", {"id": 901, "title": "Dup", "year": 2002})
        before = table_state(database)
        manager.close()
        recovered, report = Database.recover(tmp_path)
        assert table_state(recovered) == before
        # The duplicate was logged before its primary-key check rejected
        # it; replay re-runs the same check against the same state and
        # lands on the same answer — counted, not applied.
        assert report["replayed"] == 1 and report["rejected"] == 1

    def test_recovery_tolerates_a_torn_final_record(self, tmp_path):
        manager = DurabilityManager(self.durable(tmp_path))
        database = manager.attach(movie_database())
        for index in range(4):
            database.insert(
                "MOVIES", {"id": 920 + index, "title": f"Torn {index}", "year": 1985}
            )
        manager.close()
        tear_wal_tail(tmp_path / WAL_NAME, seed=3)
        recovered, report = Database.recover(tmp_path)
        assert report["torn_bytes"] > 0
        assert report["replayed"] == 3  # the unacknowledged final write is gone
        titles = {
            row["title"]
            for row in recovered.table("MOVIES").rows()
            if str(row["title"]).startswith("Torn")
        }
        assert titles == {"Torn 0", "Torn 1", "Torn 2"}

    def test_recovery_refuses_mid_log_corruption(self, tmp_path):
        manager = DurabilityManager(self.durable(tmp_path))
        database = manager.attach(movie_database())
        for index in range(4):
            database.insert(
                "MOVIES", {"id": 930 + index, "title": f"Mid {index}", "year": 1985}
            )
        manager.close()
        corrupt_wal_record(tmp_path / WAL_NAME, 1)
        with pytest.raises(WalCorruptionError):
            Database.recover(tmp_path)

    def test_manager_reattach_recovers_and_checkpoint_compacts(self, tmp_path):
        config = self.durable(tmp_path)
        manager = DurabilityManager(config)
        database = manager.attach(movie_database())
        database.insert("MOVIES", {"id": 940, "title": "Gen one", "year": 1970})
        before = table_state(database)
        manager.close()

        second = DurabilityManager(config)
        database = second.attach(movie_database())  # the vessel is replaced
        assert second.recovered and second.recovery_report["replayed"] == 1
        assert table_state(database) == before
        seq = second.checkpoint()
        assert latest_snapshot(tmp_path).wal_seq == seq
        assert scan_wal(config.wal_path).records == []  # compacted away
        stats = second.stats()
        assert stats["checkpoints"] == 1 and stats["wal"]["compactions"] == 1
        second.close()

        third = DurabilityManager(config)
        database = third.attach(movie_database())
        assert table_state(database) == before  # snapshot-only recovery
        database.insert("MOVIES", {"id": 941, "title": "Gen three", "year": 1971})
        # set_base carried the sequence across the compacted (empty) log.
        assert third.wal.last_seq == seq + 1
        third.close()

    def test_attached_manager_is_the_log_and_commit_syncs_the_batch(self, tmp_path):
        manager = DurabilityManager(self.durable(tmp_path, fsync="batch", batch_every=8))
        database = manager.attach(movie_database())
        assert database.wal is manager and movie_database().wal is None
        for index in range(2):
            database.insert("MOVIES", {"id": 960 + index, "title": f"Batch {index}", "year": 2000})
        before = manager.stats()["wal"]
        assert before["pending_sync"] == 2
        manager.commit()
        after = manager.stats()["wal"]
        assert after["pending_sync"] == 0 and after["syncs"] == before["syncs"] + 1
        manager.close()

    def test_auto_checkpoint_cadence(self, tmp_path):
        manager = DurabilityManager(
            self.durable(tmp_path, checkpoint_every=3, keep_snapshots=1)
        )
        database = manager.attach(movie_database())
        for index in range(7):
            database.insert(
                "MOVIES", {"id": 950 + index, "title": f"Cadence {index}", "year": 2000}
            )
        stats = manager.stats()
        # The baseline snapshot at attach, then one per 3 mutations.
        assert stats["checkpoints"] == 1 + 2
        assert stats["since_checkpoint"] == 1
        assert len(list_snapshots(tmp_path)) == 1  # pruned to keep_snapshots
        assert len(scan_wal(manager.config.wal_path).records) == 1
        manager.close()

    def test_config_validation(self, tmp_path):
        with pytest.raises(ValueError):
            DurabilityConfig(directory=tmp_path, fsync="sometimes")
        with pytest.raises(ValueError):
            DurabilityConfig(directory=tmp_path, batch_every=0)
        with pytest.raises(ValueError):
            DurabilityConfig(directory=tmp_path, checkpoint_every=-1)
        with pytest.raises(ValueError):
            DurabilityConfig(directory=tmp_path, keep_snapshots=0)
