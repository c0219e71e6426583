"""Unit tests for query decomposition and the solution hash join."""

from repro.baselines import decompose_into_stars, hash_join, join_all
from repro.baselines.decomposition import subquery
from repro.rdf import IRI, TriplePattern, Variable
from repro.sparql import BasicGraphPattern, Binding

P, Q, R = IRI("http://x/p"), IRI("http://x/q"), IRI("http://x/r")
X, Y, Z, W = Variable("x"), Variable("y"), Variable("z"), Variable("w")
A, B, C = IRI("http://x/a"), IRI("http://x/b"), IRI("http://x/c")


class TestStarDecomposition:
    def test_single_star_stays_whole(self):
        bgp = BasicGraphPattern([TriplePattern(X, P, Y), TriplePattern(X, Q, Z)])
        stars = decompose_into_stars(bgp)
        assert len(stars) == 1
        assert len(stars[0]) == 2

    def test_path_splits_into_two_stars(self):
        bgp = BasicGraphPattern([TriplePattern(X, P, Y), TriplePattern(Y, Q, Z)])
        stars = decompose_into_stars(bgp)
        assert len(stars) == 2

    def test_every_pattern_appears_exactly_once(self):
        bgp = BasicGraphPattern(
            [TriplePattern(X, P, Y), TriplePattern(Y, Q, Z), TriplePattern(X, R, W)]
        )
        stars = decompose_into_stars(bgp)
        flattened = [pattern for star in stars for pattern in star]
        assert sorted(flattened, key=repr) == sorted(bgp.patterns, key=repr)

    def test_constant_subject_attaches_to_variable_hub(self):
        bgp = BasicGraphPattern([TriplePattern(A, P, Y), TriplePattern(Y, Q, Z)])
        stars = decompose_into_stars(bgp)
        assert len(stars) == 1

    def test_subquery_wraps_bgp(self):
        bgp = BasicGraphPattern([TriplePattern(X, P, Y)])
        query = subquery(bgp)
        assert query.bgp is bgp
        assert query.effective_projection == (X, Y)


class TestHashJoin:
    def test_join_on_shared_variable(self):
        left = [Binding({X: A, Y: B})]
        right = [Binding({Y: B, Z: C}), Binding({Y: C, Z: A})]
        joined = hash_join(left, right)
        assert joined == [Binding({X: A, Y: B, Z: C})]

    def test_join_without_shared_variables_is_cross_product(self):
        left = [Binding({X: A}), Binding({X: B})]
        right = [Binding({Y: C})]
        assert len(hash_join(left, right)) == 2

    def test_join_with_empty_side_is_empty(self):
        assert hash_join([], [Binding({X: A})]) == []
        assert hash_join([Binding({X: A})], []) == []

    def test_join_all_orders_by_size(self):
        sets = [
            [Binding({X: A, Y: B})],
            [Binding({Y: B, Z: C}), Binding({Y: B, Z: A})],
            [Binding({Z: C, W: A}), Binding({Z: A, W: B}), Binding({Z: B, W: C})],
        ]
        joined = join_all(sets)
        assert {binding[W] for binding in joined} == {A, B}

    def test_join_all_empty_input(self):
        assert join_all([]) == []
