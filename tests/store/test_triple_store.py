"""Unit tests for the TripleStore facade."""

import pytest

from repro.rdf import Literal, Namespace, RDFGraph, Triple, TriplePattern, Variable
from repro.sparql import BasicGraphPattern, QueryGraph, parse_query
from repro.store import TripleStore

EX = Namespace("http://example.org/")
A, B, C = EX.term("a"), EX.term("b"), EX.term("c")
KNOWS = EX.term("knows")


class TestLoading:
    def test_load_counts_new_triples(self):
        store = TripleStore(name="test")
        added = store.load([Triple(A, KNOWS, B), Triple(A, KNOWS, B), Triple(B, KNOWS, C)])
        assert added == 2
        assert len(store) == 2

    def test_add_single(self):
        store = TripleStore()
        assert store.add(Triple(A, KNOWS, B)) is True
        assert store.add(Triple(A, KNOWS, B)) is False

    def test_name_from_constructor(self):
        assert TripleStore(name="fragment-1").name == "fragment-1"

    def test_wraps_existing_graph(self):
        graph = RDFGraph([Triple(A, KNOWS, B)])
        store = TripleStore(graph)
        assert len(store) == 1
        assert store.graph is graph


class TestIndexInvalidation:
    def test_matcher_survives_mutation_and_stays_correct(self):
        store = TripleStore()
        store.load([Triple(A, KNOWS, B)])
        first = store.matcher
        store.add(Triple(B, KNOWS, C))
        assert store.matcher is first
        query = QueryGraph(BasicGraphPattern([TriplePattern(Variable("x"), KNOWS, Variable("y"))]))
        assert len(list(store.find_matches(query))) == 2

    def test_removal_resyncs_indexes(self):
        store = TripleStore()
        store.load([Triple(A, KNOWS, B), Triple(B, KNOWS, C)])
        query = QueryGraph(BasicGraphPattern([TriplePattern(Variable("x"), KNOWS, Variable("y"))]))
        assert len(list(store.find_matches(query))) == 2
        assert store.discard(Triple(B, KNOWS, C))
        assert len(list(store.find_matches(query))) == 1
        assert store.statistics.num_triples == 1


class TestQuerying:
    def test_evaluate_query(self):
        store = TripleStore()
        store.load([Triple(A, KNOWS, B), Triple(B, KNOWS, C)])
        results = store.evaluate(
            parse_query("PREFIX ex: <http://example.org/> SELECT ?x WHERE { ?x ex:knows ?y }")
        )
        assert len(results) == 2

    def test_find_matches(self):
        store = TripleStore()
        store.load([Triple(A, KNOWS, B)])
        query = QueryGraph(BasicGraphPattern([TriplePattern(Variable("x"), KNOWS, Variable("y"))]))
        assert len(list(store.find_matches(query))) == 1

    def test_candidates(self):
        store = TripleStore()
        store.load([Triple(A, KNOWS, B), Triple(B, KNOWS, C)])
        query = QueryGraph(BasicGraphPattern([TriplePattern(Variable("x"), KNOWS, Variable("y"))]))
        candidates = store.candidates(query)
        assert candidates[Variable("x")] == {A, B}

    def test_stats(self):
        store = TripleStore()
        store.load([Triple(A, KNOWS, B)])
        assert store.stats()["triples"] == 1


class TestNoSignatureIndex:
    """Candidate pools are the sorted columns alone: no signature index, no knob for one."""

    def test_the_store_takes_no_signature_width(self):
        with pytest.raises(TypeError):
            TripleStore(signature_bits=64)

    def test_store_and_matcher_hold_no_signatures(self):
        store = TripleStore(RDFGraph([Triple(A, KNOWS, B)]))
        assert not hasattr(store, "signatures")
        assert not hasattr(store.matcher, "signatures")

    def test_the_store_package_has_no_signature_module(self):
        import repro.store

        assert not hasattr(repro.store, "SignatureIndex")
        with pytest.raises(ImportError):
            import repro.store.signatures  # noqa: F401
