"""Synthetic datasets and workloads used by examples, tests and benchmarks."""

from repro.datasets.domains import (
    CorpusQuery,
    Domain,
    all_domains,
    get_domain,
)
from repro.datasets.employees import (
    MANAGER_NARRATIVE,
    MANAGER_QUERY,
    employee_database,
    employee_schema,
)
from repro.datasets.generator import (
    GeneratorConfig,
    generate_movie_database,
    generate_movie_records,
)
from repro.datasets.library import library_database, library_schema
from repro.datasets.movies import (
    ALL_GENRES,
    PAPER_NARRATIVES,
    PAPER_QUERIES,
    movie_database,
    movie_schema,
)
from repro.datasets.workload import (
    WorkloadQuery,
    generate_workload,
    paper_workload,
)

__all__ = [
    "ALL_GENRES",
    "CorpusQuery",
    "Domain",
    "GeneratorConfig",
    "MANAGER_NARRATIVE",
    "MANAGER_QUERY",
    "PAPER_NARRATIVES",
    "PAPER_QUERIES",
    "WorkloadQuery",
    "all_domains",
    "employee_database",
    "employee_schema",
    "generate_movie_database",
    "generate_movie_records",
    "generate_workload",
    "get_domain",
    "library_database",
    "library_schema",
    "movie_database",
    "movie_schema",
    "paper_workload",
]
