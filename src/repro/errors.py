"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so
applications embedding the translator can catch a single base class.  The
hierarchy mirrors the package layout: catalog/schema errors, storage
errors, SQL front-end errors, execution errors, and translation (NLG)
errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the library."""


# ---------------------------------------------------------------------------
# Catalog / schema errors
# ---------------------------------------------------------------------------


class CatalogError(ReproError):
    """Base class for schema-definition problems."""


class DuplicateRelationError(CatalogError):
    """A relation with the same name is already defined in the schema."""


class DuplicateAttributeError(CatalogError):
    """An attribute with the same name already exists on the relation."""


class UnknownRelationError(CatalogError):
    """A relation name could not be resolved against the schema."""


class UnknownAttributeError(CatalogError):
    """An attribute name could not be resolved against a relation."""


class InvalidForeignKeyError(CatalogError):
    """A foreign key references a missing relation/attribute or has mismatched arity."""


class InvalidSchemaError(CatalogError):
    """The schema as a whole is inconsistent (e.g. missing primary key)."""


# ---------------------------------------------------------------------------
# Storage errors
# ---------------------------------------------------------------------------


class StorageError(ReproError):
    """Base class for storage-engine problems."""


class ConstraintViolationError(StorageError):
    """A constraint (NOT NULL, primary key, foreign key, type) was violated."""


class PrimaryKeyViolationError(ConstraintViolationError):
    """A duplicate primary key value was inserted."""


class ForeignKeyViolationError(ConstraintViolationError):
    """A foreign key value does not reference an existing parent row."""


class NotNullViolationError(ConstraintViolationError):
    """A NULL value was supplied for a NOT NULL attribute."""


class TypeMismatchError(ConstraintViolationError):
    """A value does not match the declared attribute type."""


class UnknownTableError(StorageError):
    """The named table does not exist in the database."""


class DurabilityError(StorageError):
    """Base class for write-ahead-log and snapshot problems."""


class WalCorruptionError(DurabilityError):
    """A WAL record *before* the tail failed its checksum or framing.

    A torn final record is expected after a crash and is silently
    truncated; corruption in the middle of the log means the file was
    damaged after it was written, and recovery must not guess past it.
    """


class SnapshotError(DurabilityError):
    """A snapshot file is missing, unreadable or fails its checksum."""


class RecoveryError(DurabilityError):
    """Snapshot and log disagree (e.g. a sequence gap between them)."""


# ---------------------------------------------------------------------------
# SQL front-end errors
# ---------------------------------------------------------------------------


class SqlError(ReproError):
    """Base class for SQL lexing/parsing/validation problems."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        super().__init__(message)
        self.message = message
        self.line = line
        self.column = column

    def __str__(self) -> str:  # pragma: no cover - trivial
        if self.line:
            return f"{self.message} (line {self.line}, column {self.column})"
        return self.message


class SqlLexError(SqlError):
    """An unrecognised character or malformed literal was encountered."""


class SqlParseError(SqlError):
    """The token stream does not form a valid SQL statement."""


class SqlValidationError(SqlError):
    """The statement is syntactically valid but inconsistent with the schema."""


# ---------------------------------------------------------------------------
# Execution errors
# ---------------------------------------------------------------------------


class ExecutionError(ReproError):
    """Base class for runtime query-evaluation problems."""


class PlanningError(ExecutionError):
    """The logical plan could not be constructed for a statement."""


class EvaluationError(ExecutionError):
    """An expression could not be evaluated (type error, missing column...)."""


class UnsupportedQueryError(ExecutionError):
    """The engine does not support the requested SQL feature."""


# ---------------------------------------------------------------------------
# Template / translation errors
# ---------------------------------------------------------------------------


class TemplateError(ReproError):
    """Base class for template definition/instantiation problems."""


class TemplateSyntaxError(TemplateError):
    """A template string could not be parsed."""


class MissingTemplateError(TemplateError):
    """No template label is registered for a graph element."""


class TemplateInstantiationError(TemplateError):
    """A template could not be instantiated (missing placeholder value)."""


class TranslationError(ReproError):
    """Base class for natural-language translation problems."""


class UntranslatableQueryError(TranslationError):
    """The query falls outside every supported translation category."""


class LexiconError(TranslationError):
    """A lexicon entry is missing or malformed."""
