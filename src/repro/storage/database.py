"""The in-memory database: a schema plus one table per relation."""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.catalog.foreign_key import ForeignKey
from repro.catalog.schema import Schema
from repro.errors import (
    ForeignKeyViolationError,
    RecoveryError,
    ReproError,
    UnknownTableError,
)
from repro.storage.config import StorageConfig
from repro.storage.engine import BaseTableStorage, create_storage
from repro.storage.row import Row
from repro.storage.table import Table  # noqa: F401  (historical re-export)


class Database:
    """A relational database instance: one storage engine per relation.

    The database owns one table (any :class:`~repro.storage.api.TableStorage`
    engine — dict rows, paged heap, or columnar, routed by a
    :class:`~repro.storage.config.StorageConfig`) per relation of its
    :class:`Schema` and enforces foreign-key constraints on insert and
    delete when ``enforce_foreign_keys`` is enabled (the default).  It is
    the substrate both for content translation (Section 2 of the paper:
    narrating what is *in* the database) and for query execution (used to
    verify query translations and to explain empty answers).
    """

    def __init__(
        self,
        schema: Schema,
        enforce_foreign_keys: bool = True,
        storage: Optional[StorageConfig] = None,
    ) -> None:
        self.schema = schema
        self.enforce_foreign_keys = enforce_foreign_keys
        #: The storage routing this database was built with; recovery and
        #: sharding propagate it so rebuilt databases keep their engines.
        self.storage_config: StorageConfig = (
            storage if storage is not None else StorageConfig.from_env()
        )
        self._tables: Dict[str, BaseTableStorage] = {
            relation.name: create_storage(relation, self.storage_config)
            for relation in schema.relations
        }
        #: Optional write-ahead log (anything with ``append(payload)``,
        #: e.g. :class:`~repro.storage.wal.WriteAheadLog` or the
        #: :class:`~repro.storage.durability.DurabilityManager` wrapping
        #: one).  When attached, every mutation is logged before it is
        #: applied; ``None`` keeps the database purely in-memory.
        self._wal: Optional[Any] = None
        self._replaying = False

    # ------------------------------------------------------------------
    # Table access
    # ------------------------------------------------------------------

    def table(self, name: str) -> BaseTableStorage:
        """Look up a table by (case-insensitive) relation name."""
        if name in self._tables:
            return self._tables[name]
        lowered = name.lower()
        for candidate, table in self._tables.items():
            if candidate.lower() == lowered:
                return table
        raise UnknownTableError(
            f"database has no table {name!r}"
            f" (available: {', '.join(sorted(self._tables))})"
        )

    def has_table(self, name: str) -> bool:
        try:
            self.table(name)
            return True
        except UnknownTableError:
            return False

    @property
    def tables(self) -> Tuple[BaseTableStorage, ...]:
        return tuple(self._tables[name] for name in self.schema.relation_names)

    def with_storage(self, storage: StorageConfig) -> "Database":
        """A new database with identical contents under another config.

        Rowids, insertion order, and the next-rowid counters carry over
        (each table is rebuilt via :meth:`~repro.storage.api.TableStorage.restore`
        of its export), so the copy is byte-identical to this database
        under every query — the mechanism the differential storage
        suite leans on.  The WAL, if any, stays attached to *this*
        database only.
        """
        clone = Database(
            self.schema,
            enforce_foreign_keys=self.enforce_foreign_keys,
            storage=storage,
        )
        for table in self.tables:
            clone.table(table.name).restore(table.export_rows(), table.next_rowid)
        return clone

    def storage_stats(self) -> Dict[str, Any]:
        """Per-table engine stats (engine tag, pool counters, ...)."""
        return {table.name: table.stats() for table in self.tables}

    def row_counts(self) -> Dict[str, int]:
        return {table.name: len(table) for table in self.tables}

    @property
    def total_rows(self) -> int:
        return sum(len(table) for table in self.tables)

    @property
    def data_version(self) -> int:
        """Monotonic counter over all tables; changes whenever any data does.

        Executor-side caches (subquery memos, scan caches) compare this
        version so that mutations made directly through the storage layer
        invalidate them too, not only DML routed through the executor.
        """
        return sum(table.version for table in self._tables.values())

    # ------------------------------------------------------------------
    # Durability hooks
    # ------------------------------------------------------------------

    def attach_wal(self, wal: Any) -> None:
        """Attach a write-ahead log; mutations are logged before applied.

        ``wal`` needs an ``append(payload)`` method; an optional
        ``note_applied()`` is called after each successful apply (the
        :class:`~repro.storage.durability.DurabilityManager` uses it to
        count mutations toward its next checkpoint).
        """
        self._wal = wal

    def detach_wal(self) -> None:
        self._wal = None

    @property
    def wal(self) -> Optional[Any]:
        return self._wal

    def _log(self, op: Tuple[Any, ...]) -> None:
        if self._wal is not None and not self._replaying:
            self._wal.append(op)

    def _note_applied(self) -> None:
        if self._wal is not None and not self._replaying:
            note = getattr(self._wal, "note_applied", None)
            if note is not None:
                note()

    # ------------------------------------------------------------------
    # Mutation with FK enforcement
    # ------------------------------------------------------------------

    def insert(self, table_name: str, values: Mapping[str, Any], coerce: bool = False) -> int:
        """Insert one row, enforcing foreign keys against parent tables."""
        table = self.table(table_name)
        if self.enforce_foreign_keys:
            self._check_foreign_keys(table.name, values)
        # Log-before-apply: a logged insert may still be rejected by a
        # table constraint below, but replay re-runs the identical check
        # on identical state, so it re-rejects identically.
        self._log(("insert", table.name, dict(values), coerce))
        rowid = table.insert(values, coerce=coerce)
        self._note_applied()
        return rowid

    def insert_many(
        self, table_name: str, rows: Iterable[Mapping[str, Any]], coerce: bool = False
    ) -> List[int]:
        return [self.insert(table_name, row, coerce=coerce) for row in rows]

    def load(self, data: Mapping[str, Sequence[Mapping[str, Any]]], coerce: bool = False) -> None:
        """Bulk-load ``{table name: [row dict, ...]}`` respecting FK order.

        Tables are loaded parents-first so that foreign keys validate; the
        order is derived from the schema's FK graph with a simple
        topological pass (cycles fall back to declaration order).
        """
        for table_name in self._load_order(data.keys()):
            rows = data.get(table_name, ())
            self.insert_many(table_name, rows, coerce=coerce)

    def delete_where(
        self, table_name: str, predicate, *, rowids: Optional[Iterable[int]] = None
    ) -> int:
        """Delete rows matching ``predicate(row)``; returns the number removed.

        ``rowids``, when given, are the only rows ``predicate`` is tested
        on (an index probe's answer, in rowid order); without it, every
        row of the table is.
        """
        table = self.table(table_name)
        to_delete = [
            rowid for rowid, row in _candidates(table, rowids) if predicate(row)
        ]
        if self.enforce_foreign_keys:
            for rowid in to_delete:
                self._check_no_referencing_children(table.name, table.row_by_id(rowid))
        if to_delete:
            # The *resolved* rowids are logged, never the predicate: a
            # Python callable is not durably serialisable, and rowids
            # make replay independent of predicate re-evaluation order.
            self._log(("delete", table.name, list(to_delete)))
        removed = table.delete_rows(to_delete)
        if removed:
            self._note_applied()
        return removed

    def update_where(
        self,
        table_name: str,
        predicate,
        changes: Mapping[str, Any],
        *,
        rowids: Optional[Iterable[int]] = None,
    ) -> int:
        """Update rows matching ``predicate(row)`` with ``changes``.

        ``rowids`` narrows the rows ``predicate`` is tested on, as in
        :meth:`delete_where`.  With foreign keys enforced, an update that
        matches rows must leave every changed foreign key with a parent
        and must not move a key that child rows still reference.
        """
        table = self.table(table_name)
        to_update = [
            rowid for rowid, row in _candidates(table, rowids) if predicate(row)
        ]
        if self.enforce_foreign_keys and to_update:
            self._check_update(table, to_update, changes)
        if to_update:
            self._log(("update", table.name, list(to_update), dict(changes)))
        updated = table.update_rows(to_update, changes)
        if updated:
            self._note_applied()
        return updated

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def _apply_logged(self, op: Tuple[Any, ...]) -> None:
        """Apply one logged operation during replay (no re-logging)."""
        kind = op[0]
        if kind == "insert":
            _, table_name, values, coerce = op
            table = self.table(table_name)
            if self.enforce_foreign_keys:
                self._check_foreign_keys(table.name, values)
            table.insert(values, coerce=coerce)
        elif kind == "delete":
            _, table_name, rowids = op
            table = self.table(table_name)
            if self.enforce_foreign_keys:
                for rowid in rowids:
                    if table.has_row(rowid):
                        self._check_no_referencing_children(
                            table.name, table.row_by_id(rowid)
                        )
            table.delete_rows(rowids)
        elif kind == "update":
            _, table_name, rowids, changes = op
            table = self.table(table_name)
            if self.enforce_foreign_keys:
                self._check_update(
                    table, [rowid for rowid in rowids if table.has_row(rowid)], changes
                )
            table.update_rows(rowids, changes)
        else:
            raise RecoveryError(f"unknown logged operation kind {kind!r}")

    def replay(self, payloads: Iterable[Tuple[Any, ...]]) -> Tuple[int, int]:
        """Re-apply logged operations in order; returns (applied, rejected).

        Operations that were rejected when first attempted (the log is
        written *before* constraint checks at the table layer) re-reject
        here with the identical typed error — replay runs the same code
        over the same state — so rejection is counted, not fatal.
        """
        applied = 0
        rejected = 0
        self._replaying = True
        try:
            for payload in payloads:
                try:
                    self._apply_logged(payload)
                    applied += 1
                except ReproError:
                    rejected += 1
        finally:
            self._replaying = False
        return applied, rejected

    @classmethod
    def recover(
        cls,
        directory: Union[str, Path],
        schema: Optional[Schema] = None,
        enforce_foreign_keys: bool = True,
        storage: Optional[StorageConfig] = None,
    ) -> Tuple["Database", Dict[str, Any]]:
        """Rebuild a database from a durability directory: snapshot + replay.

        Loads the newest intact snapshot (if any), restores it, then
        replays every WAL record after the snapshot's sequence number.
        ``schema`` is only needed when the directory holds no snapshot
        (the baseline the :class:`~repro.storage.durability.DurabilityManager`
        writes on first attach makes that case rare).  ``storage``
        chooses the engines the rebuilt database uses — snapshots and
        the WAL are engine-agnostic, so state written under one config
        recovers byte-identically into any other.  A torn final WAL
        record is tolerated (truncated by the next writer); mid-log
        corruption raises :class:`~repro.errors.WalCorruptionError`; a
        sequence gap between snapshot and log raises
        :class:`~repro.errors.RecoveryError`.  Returns the database and
        a recovery report dict.
        """
        from repro.storage.snapshot import latest_snapshot, load_snapshot, restore_into
        from repro.storage.wal import WAL_NAME, scan_wal

        directory = Path(directory)
        info = latest_snapshot(directory)
        snapshot_seq = 0
        if info is not None:
            state = load_snapshot(info.path)
            database = cls(
                state["schema"],
                enforce_foreign_keys=state["enforce_foreign_keys"],
                storage=storage,
            )
            restore_into(database, state)
            snapshot_seq = state["wal_seq"]
        else:
            if schema is None:
                raise RecoveryError(
                    f"{directory} holds no snapshot and no schema was given;"
                    " recovery cannot invent the relations"
                )
            database = cls(
                schema, enforce_foreign_keys=enforce_foreign_keys, storage=storage
            )
        scan = scan_wal(directory / WAL_NAME)  # strict: mid-log damage raises
        tail = [record for record in scan.records if record.seq > snapshot_seq]
        if tail and tail[0].seq > snapshot_seq + 1:
            raise RecoveryError(
                f"WAL gap: snapshot covers seq {snapshot_seq} but the log"
                f" resumes at seq {tail[0].seq}"
            )
        applied, rejected = database.replay(record.payload for record in tail)
        report = {
            "snapshot": str(info.path) if info is not None else None,
            "snapshot_seq": snapshot_seq,
            "wal_last_seq": scan.last_seq,
            "replayed": applied,
            "rejected": rejected,
            "torn_bytes": scan.torn_bytes,
        }
        return database, report

    # ------------------------------------------------------------------
    # Foreign key checks
    # ------------------------------------------------------------------

    def _check_foreign_keys(
        self,
        table_name: str,
        values: Mapping[str, Any],
        fks: Optional[Sequence[ForeignKey]] = None,
        statement: str = "insert into",
    ) -> None:
        """Each of ``fks`` (default: every FK from the table) needs a parent row."""
        lowered = {k.lower(): v for k, v in values.items()}
        if fks is None:
            fks = self.schema.foreign_keys_from(table_name)
        for fk in fks:
            child_values = [lowered.get(col.lower()) for col in fk.source_attributes]
            if any(v is None for v in child_values):
                # SQL semantics: NULL FK components never fail the constraint.
                continue
            parent = self.table(fk.target_relation)
            if not parent.has_key(fk.target_attributes, child_values):
                raise ForeignKeyViolationError(
                    f"{statement} {table_name} violates {fk}: no parent row with"
                    f" {dict(zip(fk.target_attributes, child_values))!r}"
                )

    def _check_update(
        self, table: BaseTableStorage, rowids: Sequence[int], changes: Mapping[str, Any]
    ) -> None:
        """FK checks for applying ``changes`` to the rows ``rowids``.

        Every foreign key with a column the update assigns needs a parent
        row for each row's new values (the columns it does not assign keep
        the row's old values), and no row may move a key that child rows
        still reference (checked on the old row).
        """
        assigned = {name.lower() for name in changes}
        changed = [
            fk
            for fk in self.schema.foreign_keys_from(table.name)
            if any(col.lower() in assigned for col in fk.source_attributes)
        ]
        for rowid in rowids:
            row = table.row_by_id(rowid)
            if changed:
                self._check_foreign_keys(
                    table.name, {**row.raw, **changes}, changed, "update"
                )
            self._check_no_referencing_children(table.name, row, changes)

    def _check_no_referencing_children(
        self, table_name: str, row: Row, changes: Optional[Mapping[str, Any]] = None
    ) -> None:
        """Reject removing ``row``'s referenced keys while children hold them.

        With ``changes`` (an update), only the foreign keys whose target
        columns the update gives a new value are checked.
        """
        lowered = None if changes is None else {k.lower(): v for k, v in changes.items()}
        for fk in self.schema.foreign_keys_to(table_name):
            parent_key = [row.get(col) for col in fk.target_attributes]
            if any(v is None for v in parent_key):
                continue
            if lowered is not None and all(
                lowered.get(col.lower(), value) == value
                for col, value in zip(fk.target_attributes, parent_key)
            ):
                continue
            child = self.table(fk.source_relation)
            if child.has_key(fk.source_attributes, parent_key):
                statement = "delete from" if changes is None else "update"
                raise ForeignKeyViolationError(
                    f"cannot {statement} {table_name}: rows in {fk.source_relation}"
                    f" still reference key {parent_key!r} via {fk}"
                )

    def _load_order(self, table_names: Iterable[str]) -> List[str]:
        requested = [self.table(name).name for name in table_names]
        remaining = list(requested)
        ordered: List[str] = []
        # Kahn-style topological ordering on the FK graph restricted to the
        # requested tables: a table can be loaded once all parents it
        # references are already loaded (or are not part of this batch).
        for _ in range(len(remaining) + 1):
            progressed = False
            for name in list(remaining):
                parents = {
                    fk.target_relation
                    for fk in self.schema.foreign_keys_from(name)
                    if fk.target_relation != name
                }
                if parents & set(remaining) - {name}:
                    continue
                ordered.append(name)
                remaining.remove(name)
                progressed = True
            if not remaining:
                break
            if not progressed:
                # FK cycle among the requested tables: fall back to given order.
                ordered.extend(remaining)
                remaining.clear()
                break
        return ordered

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Database({self.schema.name}: {self.total_rows} rows in {len(self.tables)} tables)"


def _candidates(
    table: BaseTableStorage, rowids: Optional[Iterable[int]]
) -> Iterable[Tuple[int, Row]]:
    """``(rowid, row)`` pairs a DML predicate is tested on."""
    if rowids is None:
        return table.rows_with_ids()
    return ((rowid, table.row_by_id(rowid)) for rowid in rowids)
