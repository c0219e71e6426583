"""Unit tests for the SPARQL algebra (BGP, SelectQuery)."""

import pickle

from repro.rdf import IRI, TriplePattern, Variable
from repro.sparql import BasicGraphPattern, SelectQuery, bgp_from_patterns

P = IRI("http://example.org/p")
Q = IRI("http://example.org/q")
X, Y, Z, W = Variable("x"), Variable("y"), Variable("z"), Variable("w")


class TestBasicGraphPattern:
    def test_variables_in_first_appearance_order(self):
        bgp = BasicGraphPattern([TriplePattern(X, P, Y), TriplePattern(Y, Q, Z)])
        assert bgp.variables == (X, Y, Z)

    def test_terms_are_subjects_and_objects(self):
        bgp = BasicGraphPattern([TriplePattern(X, P, Y)])
        assert bgp.terms == {X, Y}

    def test_len_and_indexing(self):
        bgp = BasicGraphPattern([TriplePattern(X, P, Y), TriplePattern(Y, Q, Z)])
        assert len(bgp) == 2
        assert bgp[1].predicate == Q

    def test_connected_components_single(self):
        bgp = BasicGraphPattern([TriplePattern(X, P, Y), TriplePattern(Y, Q, Z)])
        assert bgp.is_connected
        assert len(bgp.connected_components()) == 1

    def test_connected_components_split(self):
        bgp = BasicGraphPattern([TriplePattern(X, P, Y), TriplePattern(Z, Q, W)])
        components = bgp.connected_components()
        assert not bgp.is_connected
        assert len(components) == 2
        assert {len(c) for c in components} == {1}

    def test_components_are_computed_once_and_stay_equal(self):
        bgp = BasicGraphPattern([TriplePattern(X, P, Y), TriplePattern(Z, Q, W)])
        first = bgp.connected_components()
        first.pop()  # a caller's copy: the cached split is untouched
        assert bgp.connected_components() == bgp.connected_components()
        assert len(bgp.connected_components()) == 2
        assert bgp.connected_components()[0] is bgp.connected_components()[0]

    def test_cached_components_leave_equality_hash_and_pickling_alone(self):
        bgp = BasicGraphPattern([TriplePattern(X, P, Y), TriplePattern(Z, Q, W)])
        fresh = BasicGraphPattern(bgp.patterns)
        bgp.connected_components()
        assert bgp == fresh and hash(bgp) == hash(fresh)
        restored = pickle.loads(pickle.dumps(bgp))
        assert restored == bgp and hash(restored) == hash(bgp)
        assert restored.connected_components() == bgp.connected_components()
        assert pickle.loads(pickle.dumps(fresh)) == restored
        assert pickle.dumps(bgp) == pickle.dumps(fresh)  # the cache does not travel

    def test_connection_through_constant_term(self):
        shared = IRI("http://example.org/hub")
        bgp = BasicGraphPattern([TriplePattern(X, P, shared), TriplePattern(shared, Q, Y)])
        assert bgp.is_connected


class TestSelectQuery:
    def test_effective_projection_defaults_to_all_variables(self):
        query = SelectQuery(bgp=bgp_from_patterns([TriplePattern(X, P, Y)]))
        assert query.effective_projection == (X, Y)

    def test_effective_projection_uses_explicit_projection(self):
        query = SelectQuery(bgp=bgp_from_patterns([TriplePattern(X, P, Y)]), projection=(Y,))
        assert query.effective_projection == (Y,)

    def test_iteration_and_len(self):
        query = SelectQuery(bgp=bgp_from_patterns([TriplePattern(X, P, Y), TriplePattern(Y, Q, Z)]))
        assert len(query) == 2
        assert [pattern.predicate for pattern in query] == [P, Q]
