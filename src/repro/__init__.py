"""repro — a reproduction of "DBMSs Should Talk Back Too" (CIDR 2009).

The library makes a DBMS "talk back": it translates database contents and
SQL queries into natural-language narratives, following the graph-based,
template-annotated approach of Ioannidis & Simitsis.

Quickstart
----------
::

    from repro import movie_database, movie_spec, ContentNarrator, QueryTranslator

    db = movie_database()
    narrator = ContentNarrator(db, spec=movie_spec(db.schema))
    print(narrator.narrate_entity("DIRECTOR", "Woody Allen", "MOVIES"))

    translator = QueryTranslator(db.schema, spec=movie_spec(db.schema))
    print(translator.translate("select m.title from MOVIES m, CAST c, ACTOR a "
                               "where m.id = c.mid and c.aid = a.id "
                               "and a.name = 'Brad Pitt'").text)

Package map
-----------
``repro.catalog``     schemas, relations, attributes, foreign keys
``repro.storage``     in-memory tables, indexes and databases
``repro.sql``         SQL lexer/parser/AST/printer/validator
``repro.engine``      query planner and executor
``repro.graph``       the database schema graph (Section 2.2)
``repro.templates``   template labels and the paper's template syntax
``repro.lexicon``     lexical choices and English morphology helpers
``repro.nlg``         clauses, aggregation, realisation, document planning
``repro.content``     content-to-text translation (Section 2)
``repro.querygraph``  the query graph and the difficulty taxonomy (Section 3)
``repro.rewrite``     unnesting, division and idiom detection
``repro.query_nl``    query-to-text translation (Section 3)
``repro.service``     the concurrent (asyncio) narration service
``repro.datasets``    the paper's schemas, seed data and workload generators
``repro.evaluation``  text metrics for narratives
"""

from repro.catalog import (
    Attribute,
    DataType,
    ForeignKey,
    Relation,
    Schema,
    SchemaBuilder,
)
from repro.content import (
    ContentNarrator,
    NarrationSpec,
    SynthesisMode,
    TupleStyle,
    UserProfile,
    default_spec,
    employee_spec,
    library_spec,
    movie_spec,
)
from repro.datasets import (
    MANAGER_QUERY,
    PAPER_NARRATIVES,
    PAPER_QUERIES,
    employee_database,
    employee_schema,
    generate_movie_database,
    library_database,
    library_schema,
    movie_database,
    movie_schema,
)
from repro.engine import Executor, QueryResult, execute
from repro.errors import ReproError
from repro.graph import SchemaGraph, build_schema_graph, dfs_traversal
from repro.lexicon import Lexicon, default_lexicon
from repro.nlg import LengthBudget
from repro.query_nl import AnswerExplainer, QueryTranslation, QueryTranslator, translate_query
from repro.querygraph import QueryCategory, QueryGraph, build_query_graph, classify_query
from repro.service import (
    AdmissionController,
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    NarrationService,
    NarrationSession,
    RetryPolicy,
    ServiceClosed,
    ShardRouter,
    ShardRouterConfig,
    WorkerCrashed,
)
from repro.sql import parse_select, parse_sql, to_sql
from repro.storage import (
    Database,
    DurabilityConfig,
    DurabilityManager,
    Row,
    StorageConfig,
    Table,
    TableStorage,
)
from repro.templates import TemplateRegistry, parse_list_template, parse_template

__version__ = "1.0.0"

__all__ = [
    "AdmissionController",
    "AnswerExplainer",
    "Attribute",
    "CircuitBreaker",
    "ContentNarrator",
    "Deadline",
    "DeadlineExceeded",
    "DataType",
    "Database",
    "DurabilityConfig",
    "DurabilityManager",
    "Executor",
    "ForeignKey",
    "LengthBudget",
    "Lexicon",
    "MANAGER_QUERY",
    "NarrationService",
    "NarrationSession",
    "NarrationSpec",
    "PAPER_NARRATIVES",
    "PAPER_QUERIES",
    "QueryCategory",
    "QueryGraph",
    "QueryResult",
    "QueryTranslation",
    "QueryTranslator",
    "Relation",
    "ReproError",
    "RetryPolicy",
    "Row",
    "Schema",
    "SchemaBuilder",
    "SchemaGraph",
    "ServiceClosed",
    "ShardRouter",
    "ShardRouterConfig",
    "SynthesisMode",
    "StorageConfig",
    "Table",
    "TableStorage",
    "TemplateRegistry",
    "TupleStyle",
    "UserProfile",
    "WorkerCrashed",
    "build_query_graph",
    "build_schema_graph",
    "classify_query",
    "default_lexicon",
    "default_spec",
    "dfs_traversal",
    "employee_database",
    "employee_schema",
    "employee_spec",
    "execute",
    "generate_movie_database",
    "library_database",
    "library_schema",
    "library_spec",
    "movie_database",
    "movie_schema",
    "movie_spec",
    "parse_list_template",
    "parse_select",
    "parse_sql",
    "parse_template",
    "to_sql",
    "translate_query",
]
