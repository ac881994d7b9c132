"""repro: constant-delay enumeration of answers to ontology-mediated queries.

A from-scratch Python reproduction of Lutz & Przybylko, "Efficiently
Enumerating Answers to Ontology-Mediated Queries" (PODS 2022).  The public
API re-exports the most commonly used classes; see ``README.md`` for a tour
and the ``docs/`` tree (``docs/architecture.md`` in particular) for the
layer-by-layer walkthrough.
"""

from repro.config import (
    ExecutionOptions,
    set_codegen,
    set_planner,
    set_tracing,
    use_codegen,
    use_planner,
    use_tracing,
)
from repro.data import Database, Fact, Instance, Schema
from repro.cq import Atom, ConjunctiveQuery, Variable, parse_query
from repro.tgds import TGD, Ontology, parse_ontology, parse_tgd
from repro.chase import chase, query_directed_chase
from repro.engine import PreparedQuery, QueryEngine, prepare_query
from repro.incremental import ChaseMaintainer, Delta
from repro.io import (
    Scenario,
    dump_scenario,
    load_database,
    load_ontology,
    load_queries,
    load_scenario,
)
from repro.workloads import get_workload, list_workloads

__all__ = [
    "Atom",
    "ChaseMaintainer",
    "ConjunctiveQuery",
    "Database",
    "Delta",
    "ExecutionOptions",
    "Fact",
    "Instance",
    "Ontology",
    "PreparedQuery",
    "QueryEngine",
    "Scenario",
    "Schema",
    "TGD",
    "Variable",
    "chase",
    "dump_scenario",
    "get_workload",
    "list_workloads",
    "load_database",
    "load_ontology",
    "load_queries",
    "load_scenario",
    "parse_ontology",
    "parse_query",
    "parse_tgd",
    "prepare_query",
    "query_directed_chase",
    "set_codegen",
    "set_planner",
    "set_tracing",
    "use_codegen",
    "use_planner",
    "use_tracing",
]

__version__ = "0.1.0"
