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


def mutate(fragment, graph):
    """Add the crossing edge a -p-> c to graph and fragment, as ``Cluster.apply`` would."""
    added = Triple(A, P, C)
    graph.add(added)
    apply_delta_effect(fragment, DeltaEffect("add", 0, added, crossing=True, extended=C), graph=graph)


def test_patched_in_place_after_a_mutation_with_the_stale_index_released_first(monkeypatch):
    fragment, graph = setting()
    first = fragment_index(fragment, graph)
    mutate(fragment, graph)
    cached_at_patch = []
    real = module.FragmentIndex.patch

    def spy(self, fragment, ops):
        cached_at_patch.append(getattr(graph, module._CACHE_ATTRIBUTE, None))
        return real(self, fragment, ops)

    monkeypatch.setattr(module.FragmentIndex, "patch", spy)
    second = fragment_index(fragment, graph)
    assert second is first, "a journal window is patched into the cached index, not rebuilt"
    assert cached_at_patch == [None], "the stale index was still published while it was being patched"
    assert decoded(second)[P] == [(A, P, C), (B, P, C), (D, P, B)]
    assert fragment_index(fragment, graph) is second


def test_rebuilt_on_a_journal_gap_with_the_stale_index_released_first(monkeypatch):
    fragment, graph = setting()
    first = fragment_index(fragment, graph)
    mutate(fragment, graph)
    monkeypatch.setattr(graph, "journal_since", lambda version: None)
    cached_at_build = []
    real = module.FragmentIndex

    def spy(fragment, encoded):
        cached_at_build.append(getattr(graph, module._CACHE_ATTRIBUTE, None))
        return real(fragment, encoded)

    monkeypatch.setattr(module, "FragmentIndex", spy)
    second = fragment_index(fragment, graph)
    assert second is not first
    assert cached_at_build == [None], "the stale index was still referenced while its replacement was built"
    assert decoded(second)[P] == [(A, P, C), (B, P, C), (D, P, B)]
    assert fragment_index(fragment, graph) is second


def race(fragment, graph):
    """Eight threads (more than cores), a short switch interval, one barrier: what each was served."""
    barrier = threading.Barrier(8)
    built = []

    def build():
        barrier.wait(timeout=10)
        index = fragment_index(fragment, graph)
        built.append((index, set(index.internal), set(index.extended), dict(index.crossing_by_predicate), index.crossing))

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
    return built


def assert_all_served_the_fresh_state(fragment, graph, built):
    expected = fragment_index(fragment, graph)
    fresh = module.FragmentIndex(fragment, encoded_view(graph))
    assert any(index is expected for index, *_ in built)
    for _, internal, extended, by_predicate, crossing in built:
        assert (internal, extended, by_predicate, crossing) == (
            fresh.internal, fresh.extended, fresh.crossing_by_predicate, fresh.crossing,
        )  # fmt: skip
    assert (expected.internal, expected.crossing) == (fresh.internal, fresh.crossing)


def test_concurrent_first_builds_are_benign():
    # All miss the cache together and builds interleave: each caller must get a
    # complete index, all of them equal, and the cache must end up holding one.
    fragment, graph = setting()
    assert_all_served_the_fresh_state(fragment, graph, race(fragment, graph))


def test_concurrent_reads_after_a_mutation_patch_the_stale_index_once():
    # All find the stale index together: exactly one may claim and patch it (a
    # second patcher of the same object would lose one of two tuple updates);
    # the others build their own, and every caller sees the mutated fragment.
    for _ in range(20):
        fragment, graph = setting()
        stale = fragment_index(fragment, graph)
        mutate(fragment, graph)
        graph.discard(Triple(A, Q, D))
        apply_delta_effect(fragment, DeltaEffect("remove", 0, Triple(A, Q, D), crossing=True, extended=D), graph=graph)
        built = race(fragment, graph)
        assert sum(index is stale for index, *_ in built) >= 1
        assert_all_served_the_fresh_state(fragment, graph, built)
