"""Random graph workloads: edge lists and an OMQ-shaped path scenario.

:func:`random_graph` feeds the triangle lower-bound reduction's tests;
:func:`graph_omq` / :func:`generate_graph_database` package the same
generator as a registry workload — a two-step path query over an
ontology-free edge relation, full and acyclic, hence free-connex and
enumerable with constant delay.
"""

from __future__ import annotations

import random

from repro.core.omq import OMQ
from repro.cq.parser import parse_query
from repro.cq.query import ConjunctiveQuery
from repro.data.facts import Fact
from repro.data.instance import Database
from repro.tgds.ontology import Ontology


def random_graph(
    vertices: int, edges: int, seed: int = 0, avoid_triangles: bool = False
) -> list[tuple[str, str]]:
    """A random simple undirected graph as a list of edges.

    With ``avoid_triangles`` the generator only keeps edges that do not close
    a triangle, producing (locally) triangle-free graphs — the hard case for
    detection, since the search cannot stop early.
    """
    rng = random.Random(seed)
    adjacency: dict[str, set[str]] = {f"v{i}": set() for i in range(vertices)}
    names = list(adjacency)
    edge_list: list[tuple[str, str]] = []
    if vertices < 2:
        return edge_list
    seen: set[frozenset] = set()
    attempts = 0
    while len(edge_list) < edges and attempts < 50 * edges:
        attempts += 1
        u, v = rng.sample(names, 2)
        key = frozenset((u, v))
        if key in seen:
            continue
        if avoid_triangles and (adjacency[u] & adjacency[v]):
            continue
        seen.add(key)
        adjacency[u].add(v)
        adjacency[v].add(u)
        edge_list.append((u, v))
    return edge_list


def graph_ontology() -> Ontology:
    """The graph workload has no TGDs (it exercises the ontology-free path)."""
    return Ontology((), name="graph")


def graph_query() -> ConjunctiveQuery:
    """Two-step paths: full, acyclic and therefore free-connex acyclic."""
    return parse_query("path(x, y, z) :- E(x, y), E(y, z)")


def graph_omq() -> OMQ:
    """The path OMQ over an empty ontology."""
    return OMQ.from_parts(graph_ontology(), graph_query(), name="Q_graph")


def generate_graph_database(vertices: int, seed: int = 0, edges_per_vertex: int = 2) -> Database:
    """A random graph as an ``E`` relation (both orientations per edge)."""
    facts: list[Fact] = []
    for u, v in random_graph(vertices, edges_per_vertex * vertices, seed=seed):
        facts.append(Fact("E", (u, v)))
        facts.append(Fact("E", (v, u)))
    return Database(facts)
