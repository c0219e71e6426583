"""Completeness of partial evaluation against a brute-force Definition 5 oracle.

``test_property_lec`` checks *soundness* (every enumerated LPM satisfies
Definition 5); end-to-end == centralized implies completeness only for the
LPMs that end up in an answer.  This suite checks it directly: for small
random fragments and queries, :func:`brute_force_lpms` tries **every** partial
assignment of query vertices to fragment vertices (or NULL), expands each one
maximally — a query edge between two assigned endpoints that are not both
extended *must* be matched, by each fragment data edge that connects them
with the right label — and keeps what :func:`check_local_partial_match`
accepts.  That shares nothing with the crossing-edge-seeded search of
``repro.core.partial_eval``, whose output must be exactly this set, each LPM
once.
"""

import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "core"))
from reference_partial_eval import build_lpm

from repro.core.partial_eval import evaluate_fragment
from repro.core.partial_match import check_local_partial_match
from repro.datasets import random_assignment, random_connected_query, random_graph
from repro.partition import build_partitioned_graph
from repro.rdf import TriplePattern, Variable
from repro.sparql import BasicGraphPattern, QueryGraph

seeds = st.integers(min_value=0, max_value=5_000)


def brute_force_lpms(fragment, query_graph):
    """Every local partial match of Definition 5, by exhaustion."""
    local = sorted(fragment.all_vertices, key=lambda vertex: vertex.n3())
    stored = fragment.all_edges
    by_endpoints = {}
    for triple in stored:
        by_endpoints.setdefault((triple.subject, triple.object), []).append(triple)
    vertices = query_graph.vertices
    found = set()

    def data_edges(edge, mapping):
        """Choices for one query edge: ``None`` = stays unmatched, ``[]`` = impossible."""
        subject, obj = mapping.get(edge.subject), mapping.get(edge.object)
        if subject is None or obj is None:
            return None
        if fragment.is_extended(subject) and fragment.is_extended(obj):
            return None
        return [
            triple
            for triple in by_endpoints.get((subject, obj), ())
            if isinstance(edge.predicate, Variable) or edge.predicate == triple.predicate
        ]

    def close(mapping):
        choices = {edge.index: data_edges(edge, mapping) for edge in query_graph.edges}
        forced = sorted(index for index, options in choices.items() if options is not None)
        for picked in product(*(choices[index] for index in forced)):
            edge_mapping = dict(zip(forced, picked))
            crossing = {index for index, triple in edge_mapping.items() if fragment.is_crossing(triple)}
            lpm = build_lpm(
                fragment.fragment_id, mapping, edge_mapping, crossing, query_graph, fragment
            )
            if not check_local_partial_match(lpm, query_graph, fragment):
                found.add(lpm)

    def assign(position, mapping):
        if position == len(vertices):
            if any(fragment.is_internal(value) for value in mapping.values()):
                close(mapping)
            return
        vertex = vertices[position]
        assign(position + 1, mapping)  # NULL
        for value in local if isinstance(vertex, Variable) else [vertex] if vertex in local else []:
            mapping[vertex] = value
            # Cut only on what Definition 5 (condition 3) rules out outright.
            if all(data_edges(edge, mapping) != [] for edge in query_graph.edges_of(vertex)):
                assign(position + 1, mapping)
            del mapping[vertex]

    assign(0, {})
    return found


def check_completeness(seed, num_vertices, num_edges, num_fragments, query_edges, variable_predicate):
    graph = random_graph(seed, num_vertices=num_vertices, num_edges=num_edges, num_predicates=2)
    query = random_connected_query(graph, seed + 17, num_edges=query_edges, constant_probability=0.2)
    patterns = list(query.bgp)
    if variable_predicate:
        first = patterns[0]
        patterns[0] = TriplePattern(first.subject, Variable("label"), first.object)
    query_graph = QueryGraph(BasicGraphPattern(patterns))
    assignment = random_assignment(graph, seed + 5, num_fragments)
    partitioned = build_partitioned_graph(graph, assignment, num_fragments=num_fragments)
    for fragment in partitioned:
        expected = brute_force_lpms(fragment, query_graph)
        for edge_order in (None, list(reversed(range(query_graph.num_edges)))):
            lpms = evaluate_fragment(fragment, query_graph, edge_order=edge_order).local_partial_matches
            assert len(lpms) == len(set(lpms))
            assert set(lpms) == expected


@given(seeds, st.integers(2, 3), st.integers(1, 4), st.booleans())
@settings(max_examples=25, deadline=None)
def test_enumeration_is_exactly_definition5(seed, num_fragments, query_edges, variable_predicate):
    check_completeness(seed, 12, 22, num_fragments, query_edges, variable_predicate)


@pytest.mark.slow
@given(seeds, st.integers(1, 4), st.integers(1, 4), st.booleans())
@settings(max_examples=60, deadline=None)
def test_enumeration_is_exactly_definition5_deep(seed, num_fragments, query_edges, variable_predicate):
    check_completeness(seed, 20, 40, num_fragments, query_edges, variable_predicate)


def test_the_oracle_finds_the_paper_example(example_partitioning, example_query_graph):
    total = 0
    for fragment in example_partitioning:
        expected = brute_force_lpms(fragment, example_query_graph)
        lpms = evaluate_fragment(fragment, example_query_graph).local_partial_matches
        assert set(lpms) == expected and len(lpms) == len(expected)
        total += len(lpms)
    assert total > 0
