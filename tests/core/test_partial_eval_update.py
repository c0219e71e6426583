"""Partial evaluation across ``Session.update``: the cached fragment index.

The evaluator's per-fragment id index (``repro.store.fragment_index``) is
cached on the site graph, keyed on its ``version`` and patched in place from
the graph's journal.  After an update the next query must see the *mutated*
fragment: LPM sets are compared with a cluster built from scratch over the
same mutated graph and with the object-level oracle, and each site's patched
index with a cold build, after a removal and again after the matching re-add.
"""

import sys
from pathlib import Path


sys.path.insert(0, str(Path(__file__).resolve().parent))
from reference_partial_eval import PartialEvaluator as ReferenceEvaluator

import repro
from repro.core.partial_eval import PartialEvaluator
from repro.distributed import build_cluster
from repro.partition import build_partitioned_graph
from repro.sparql import QueryGraph
from repro.store import evaluate_centralized
from repro.store.encoding import encoded_view
from repro.store.fragment_index import FragmentIndex, fragment_index

QUERIES = ("LQ6", "LQ7")
#: One triple of each is removed and re-added: predicates the two queries
#: join over, so LPMs appear and disappear with them.
PREDICATES = ("advisor", "takesCourse", "teacherOf", "memberOf", "worksFor", "subOrganizationOf")


def lpm_sets(cluster, query_graph, evaluator_class):
    found = {}
    for site in cluster:
        lpms = evaluator_class(site.fragment, graph=site.graph).evaluate(query_graph).local_partial_matches
        assert len(lpms) == len(set(lpms))
        found[site.site_id] = set(lpms)
    return found


def index_state(index):
    return (index.internal, index.extended, index.crossing, index.crossing_by_predicate)


def assert_indexes_patched_exactly(session, indexes):
    """Every site still serves the index object it had, equal to a cold build."""
    for site in session.cluster:
        index = fragment_index(site.fragment, site.graph)
        assert index is indexes[site.site_id], "an update rebuilt the index instead of patching it"
        assert index_state(index) == index_state(FragmentIndex(site.fragment, encoded_view(site.graph)))


def assert_matches_a_fresh_cluster(session):
    partitioned = session.partitioned
    fresh = build_cluster(
        build_partitioned_graph(
            session.graph.copy(), partitioned.assignment, num_fragments=partitioned.num_fragments
        )
    )
    total = 0
    for name in QUERIES:
        query = session.queries[name]
        query_graph = QueryGraph(query.bgp)
        assert session.query(name).results.same_solutions(evaluate_centralized(session.graph, query))
        live = lpm_sets(session.cluster, query_graph, PartialEvaluator)
        assert live == lpm_sets(fresh, query_graph, PartialEvaluator)
        assert live == lpm_sets(session.cluster, query_graph, ReferenceEvaluator)
        total += sum(len(lpms) for lpms in live.values())
    return total


def test_remove_then_add_on_lubm3():
    with repro.open(dataset="lubm", scale=3, sites=4) as session:
        by_predicate = {}
        for triple in sorted(session.graph, key=lambda triple: triple.n3()):
            by_predicate.setdefault(triple.predicate.local_name, triple)
        batch = [by_predicate[name] for name in PREDICATES]
        before = assert_matches_a_fresh_cluster(session)
        indexes = {site.site_id: fragment_index(site.fragment, site.graph) for site in session.cluster}
        crossing_before = {site_id: index.crossing for site_id, index in indexes.items()}

        session.update(remove=batch)
        removed = assert_matches_a_fresh_cluster(session)
        assert_indexes_patched_exactly(session, indexes)
        assert any(
            index.crossing != crossing_before[site_id] for site_id, index in indexes.items()
        ), "no site saw the removal"
        assert removed != before

        session.update(add=batch)
        assert assert_matches_a_fresh_cluster(session) == before
        assert_indexes_patched_exactly(session, indexes)
        assert {site_id: index.crossing for site_id, index in indexes.items()} == crossing_before
