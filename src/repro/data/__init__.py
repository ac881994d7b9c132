"""Relational substrate: constants, nulls, facts, schemas and instances.

This package implements the data model of Section 2 of the paper: databases
are finite sets of facts over constants, instances may additionally use
labelled nulls (introduced by the chase), and ``adom`` / guarded sets /
Gaifman graphs are the derived notions the algorithms rely on.

The storage layer is *interned*: every constant and null is
dictionary-encoded to a dense int id by the process-wide
:data:`~repro.data.interning.TERMS` dictionary, positional indexes key
their buckets by id tuples, and ``Fact.iargs`` — a fact's id tuple — is the
row the reduction/enumeration pipeline reads.
"""

from repro.data.facts import Fact
from repro.data.instance import Database, Instance
from repro.data.interning import TERMS, TermDictionary
from repro.data.schema import Schema
from repro.data.terms import Null, fresh_null, is_null, shared_null_factory

__all__ = [
    "Null",
    "fresh_null",
    "shared_null_factory",
    "is_null",
    "Fact",
    "Schema",
    "Instance",
    "Database",
    "TERMS",
    "TermDictionary",
]
