"""Query execution engine: evaluator, compiler, planner, operators, executor.

The package layers, bottom up (see ``docs/architecture.md``):

* :mod:`repro.engine.evaluator` — the interpreted expression walker,
  kept alive as the differential oracle for every compiled path;
* :mod:`repro.engine.compile` — AST → closure-tree compilation with
  pre-resolved column slots;
* :mod:`repro.engine.plan` — logical plan nodes and the planner
  (conjunct classification, equality pushdown, greedy join ordering);
* :mod:`repro.engine.parameterised` — shape plans: one compiled plan
  serves every literal variant of a SQL shape through a bound parameter
  vector;
* :mod:`repro.engine.vector` — fused column-at-a-time scan filters and
  plain-column projections over a columnar table's arrays; everything
  else runs on the row path;
* :mod:`repro.engine.executor` — the cached, compiled physical executor
  tying all of the above together.

:class:`Executor` is the public entry point; ``execute`` is the one-shot
convenience wrapper.
"""

from repro.engine.compile import ExpressionCompiler
from repro.engine.evaluator import ExpressionEvaluator
from repro.engine.executor import Executor, execute
from repro.engine.parameterised import ParameterisedPlan
from repro.engine.plan import LogicalPlan, Planner, classify_predicates, plan_query
from repro.engine.result import DmlResult, QueryResult

__all__ = [
    "DmlResult",
    "Executor",
    "ExpressionCompiler",
    "ExpressionEvaluator",
    "LogicalPlan",
    "ParameterisedPlan",
    "Planner",
    "QueryResult",
    "classify_predicates",
    "execute",
    "plan_query",
]
