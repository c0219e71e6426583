"""Unit tests for the cached per-fragment id index of partial evaluation."""

import sys
import threading

from repro.partition import build_partitioned_graph
from repro.partition.delta import DeltaEffect, apply_delta_effect
from repro.rdf import Namespace, RDFGraph, Triple
from repro.store import fragment_index as module
from repro.store.encoding import encoded_view
from repro.store.fragment_index import fragment_index

EX = Namespace("http://example.org/")
A, B, C, D = (EX.term(name) for name in "abcd")
P, Q = EX.term("p"), EX.term("q")


def setting():
    """a, b | c, d with three crossing edges over two labels."""
    graph = RDFGraph([Triple(A, P, B), Triple(B, P, C), Triple(A, Q, D), Triple(D, P, B), Triple(C, Q, D)])
    fragment = build_partitioned_graph(graph, {A: 0, B: 0, C: 1, D: 1}, num_fragments=2).fragment(0)
    return fragment, fragment.to_graph()


def decoded(index):
    term_of = index.encoded.dictionary.term_of
    return {
        term_of(predicate): [tuple(term_of(term_id) for term_id in ids) for ids in triples]
        for predicate, triples in index.crossing_by_predicate.items()
    }


def test_holds_definition1_as_ids():
    fragment, graph = setting()
    index = fragment_index(fragment, graph)
    dictionary = index.encoded.dictionary
    assert index.encoded is encoded_view(graph)
    assert dictionary.decode_ids(index.internal) == {A, B}
    assert dictionary.decode_ids(index.extended) == {C, D}
    assert decoded(index) == {P: [(B, P, C), (D, P, B)], Q: [(A, Q, D)]}
    for triples in index.crossing_by_predicate.values():
        assert list(triples) == sorted(triples)
    assert list(index.crossing) == sorted(ids for triples in index.crossing_by_predicate.values() for ids in triples)


def test_cached_per_graph_version_and_fragment():
    fragment, graph = setting()
    index = fragment_index(fragment, graph)
    assert fragment_index(fragment, graph) is index
    other_fragment, _ = setting()
    assert fragment_index(other_fragment, graph) is not index


def test_rebuilt_after_a_mutation_with_the_stale_index_released_first(monkeypatch):
    fragment, graph = setting()
    first = fragment_index(fragment, graph)
    added = Triple(A, P, C)
    graph.add(added)
    apply_delta_effect(fragment, DeltaEffect("add", 0, added, crossing=True, extended=C), graph=graph)
    cached_at_build = []
    real = module.FragmentIndex

    def spy(fragment, encoded):
        cached_at_build.append(getattr(graph, module._CACHE_ATTRIBUTE))
        return real(fragment, encoded)

    monkeypatch.setattr(module, "FragmentIndex", spy)
    second = fragment_index(fragment, graph)
    assert second is not first
    assert cached_at_build == [None], "the stale index was still referenced while its replacement was built"
    assert decoded(second)[P] == [(A, P, C), (B, P, C), (D, P, B)]
    assert fragment_index(fragment, graph) is second


def test_concurrent_first_builds_are_benign():
    # More threads than cores, all missing the cache together, with a short
    # switch interval so builds interleave: each caller must get a complete
    # index, all of them equal, and the cache must end up holding one of them.
    fragment, graph = setting()
    barrier = threading.Barrier(8)
    built = []

    def build():
        barrier.wait(timeout=10)
        index = fragment_index(fragment, graph)
        built.append((index, index.internal, index.extended, index.crossing_by_predicate))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(built) == 8
    expected = fragment_index(fragment, graph)
    assert any(index is expected for index, *_ in built)
    for _, internal, extended, crossing in built:
        assert (internal, extended, crossing) == (
            expected.internal, expected.extended, expected.crossing_by_predicate,
        )  # fmt: skip
