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

    def test_supplied_statistics_are_adopted_not_collected(self, monkeypatch):
        import repro.store.triple_store as module

        encoded = EncodedGraph(RDFGraph([Triple(A, KNOWS, B)]))
        supplied = collect_statistics(encoded)
        monkeypatch.setattr(module, "collect_statistics", lambda encoded: pytest.fail("collected"))
        store = TripleStore(encoded, statistics=supplied)
        assert store.statistics is supplied
        assert store.enable_planner().statistics is supplied

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
        store.patch_statistics(ops)
        assert store.matcher is first
        query = QueryGraph(BasicGraphPattern([TriplePattern(Variable("x"), KNOWS, Variable("y"))]))
        assert len(list(store.find_matches(query))) == 2

    def test_a_removal_patches_collected_statistics(self):
        store = store_of(Triple(A, KNOWS, B), Triple(B, KNOWS, C))
        query = QueryGraph(BasicGraphPattern([TriplePattern(Variable("x"), KNOWS, Variable("y"))]))
        assert len(list(store.find_matches(query))) == 2
        statistics = store.statistics
        ops = id_ops(store, [("-", Triple(B, KNOWS, C))])
        store.encoded.apply_ops(ops)
        store.patch_statistics(ops)
        assert len(list(store.find_matches(query))) == 1
        assert store.statistics is statistics
        assert statistics.num_triples == 1
        assert statistics.as_dict() == collect_statistics(store.encoded).as_dict()

    def test_an_addition_patches_the_statistics_in_place(self):
        store = store_of(Triple(A, KNOWS, B))
        statistics = store.statistics
        ops = id_ops(store, [("+", Triple(B, KNOWS, C))])
        store.encoded.apply_ops(ops)
        store.patch_statistics(ops)
        assert store.statistics is statistics
        assert statistics.num_triples == 2
        assert statistics.as_dict() == collect_statistics(store.encoded).as_dict()


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
