"""Unit tests for the TripleStore facade."""

import pytest

from repro.rdf import Literal, Namespace, RDFGraph, Triple, TriplePattern, Variable
from repro.sparql import BasicGraphPattern, QueryGraph, parse_query
from repro.planner import collect_statistics
from repro.store import EncodedGraph, TripleStore

EX = Namespace("http://example.org/")
A, B, C = EX.term("a"), EX.term("b"), EX.term("c")
KNOWS = EX.term("knows")


def store_of(*triples, name=""):
    return TripleStore(EncodedGraph(RDFGraph(triples)), name=name)


def id_ops(store, ops):
    """``(op, triple)`` ops as the id ops a patch takes, over the store's dictionary."""
    return [(op, store.encoded.dictionary.ensure_triple(triple)) for op, triple in ops]


class TestConstruction:
    def test_name_from_constructor(self):
        assert store_of(name="fragment-1").name == "fragment-1"

    def test_wraps_the_encoding(self):
        encoded = EncodedGraph(RDFGraph([Triple(A, KNOWS, B)]))
        store = TripleStore(encoded)
        assert len(store) == 1
        assert store.encoded is encoded
        assert store.matcher.encoded is encoded

    def test_statistics_are_collected_when_the_store_is_built(self, monkeypatch):
        import repro.store.triple_store as module

        calls = []

        def counting(encoded):
            calls.append(encoded)
            return collect_statistics(encoded)

        monkeypatch.setattr(module, "collect_statistics", counting)
        store = store_of(Triple(A, KNOWS, B), Triple(B, KNOWS, C))
        assert calls == [store.encoded]
        assert store.statistics.num_triples == 2
        assert store.statistics is store.statistics
        store.enable_planner()
        assert len(calls) == 1, "enabling the planner collects nothing"

    def test_the_store_does_not_mutate(self):
        store = store_of(Triple(A, KNOWS, B))
        for gone in ("load", "add", "discard", "candidates", "stats", "graph"):
            assert not hasattr(store, gone), gone


class TestPatching:
    def test_matcher_survives_a_patch_and_stays_correct(self):
        store = store_of(Triple(A, KNOWS, B))
        first = store.matcher
        ops = id_ops(store, [("+", Triple(B, KNOWS, C))])
        store.encoded.apply_ops(ops)
        assert store.matcher is first
        query = QueryGraph(BasicGraphPattern([TriplePattern(Variable("x"), KNOWS, Variable("y"))]))
        assert len(list(store.find_matches(query))) == 2

    def test_the_statistics_read_a_removal(self):
        store = store_of(Triple(A, KNOWS, B), Triple(B, KNOWS, C))
        query = QueryGraph(BasicGraphPattern([TriplePattern(Variable("x"), KNOWS, Variable("y"))]))
        assert len(list(store.find_matches(query))) == 2
        statistics = store.statistics
        store.encoded.apply_ops(id_ops(store, [("-", Triple(B, KNOWS, C))]))
        assert len(list(store.find_matches(query))) == 1
        assert store.statistics is statistics
        assert statistics.num_triples == 1
        assert statistics.read(KNOWS) == (1, 1, 1)
        assert statistics.num_vertices == 2

    def test_the_statistics_read_an_addition(self):
        store = store_of(Triple(A, KNOWS, B))
        statistics = store.statistics
        store.encoded.apply_ops(id_ops(store, [("+", Triple(B, KNOWS, C))]))
        assert store.statistics is statistics
        assert statistics.num_triples == 2
        assert statistics.read(KNOWS) == (2, 2, 2)
        assert statistics.num_vertices == 3


class TestQuerying:
    def test_evaluate_query(self):
        store = store_of(Triple(A, KNOWS, B), Triple(B, KNOWS, C))
        results = store.evaluate(
            parse_query("PREFIX ex: <http://example.org/> SELECT ?x WHERE { ?x ex:knows ?y }")
        )
        assert len(results) == 2

    def test_find_matches(self):
        store = store_of(Triple(A, KNOWS, B))
        query = QueryGraph(BasicGraphPattern([TriplePattern(Variable("x"), KNOWS, Variable("y"))]))
        assert len(list(store.find_matches(query))) == 1


class TestNoSignatureIndex:
    """Candidate pools are the sorted columns alone: no signature index, no knob for one."""

    def test_the_store_takes_no_signature_width(self):
        with pytest.raises(TypeError):
            TripleStore(EncodedGraph(RDFGraph()), signature_bits=64)

    def test_store_and_matcher_hold_no_signatures(self):
        store = store_of(Triple(A, KNOWS, B))
        assert not hasattr(store, "signatures")
        assert not hasattr(store.matcher, "signatures")

    def test_the_store_package_has_no_signature_module(self):
        import repro.store

        assert not hasattr(repro.store, "SignatureIndex")
        with pytest.raises(ImportError):
            import repro.store.signatures  # noqa: F401
