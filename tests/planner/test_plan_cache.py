"""Unit tests for the shape-keyed plan cache."""

from repro.planner import PlanCache, QueryPlan, shape_key
from repro.rdf import Namespace, Variable
from repro.rdf.triples import TriplePattern
from repro.sparql import BasicGraphPattern, QueryGraph

EX = Namespace("http://example.org/")


def query_of(*patterns):
    return QueryGraph(BasicGraphPattern(list(patterns)))


def plan_of(num_vertices):
    return QueryPlan(vertex_order=tuple(range(num_vertices)), edge_order=(0,))


class TestShapeKey:
    def test_same_query_same_key(self):
        a = query_of(TriplePattern(Variable("x"), EX.term("knows"), Variable("y")))
        b = query_of(TriplePattern(Variable("x"), EX.term("knows"), Variable("y")))
        assert shape_key(a) == shape_key(b)

    def test_variable_names_are_abstracted(self):
        a = query_of(TriplePattern(Variable("x"), EX.term("knows"), Variable("y")))
        b = query_of(TriplePattern(Variable("s"), EX.term("knows"), Variable("o")))
        assert shape_key(a) == shape_key(b)

    def test_subject_object_constants_are_abstracted(self):
        a = query_of(TriplePattern(EX.term("alice"), EX.term("knows"), Variable("y")))
        b = query_of(TriplePattern(EX.term("bob"), EX.term("knows"), Variable("y")))
        assert shape_key(a) == shape_key(b)

    def test_repeated_constants_keep_join_structure(self):
        # alice knows alice is a different shape from alice knows bob.
        a = query_of(TriplePattern(EX.term("alice"), EX.term("knows"), EX.term("alice")))
        b = query_of(TriplePattern(EX.term("alice"), EX.term("knows"), EX.term("bob")))
        assert shape_key(a) != shape_key(b)

    def test_predicates_are_not_abstracted(self):
        a = query_of(TriplePattern(Variable("x"), EX.term("knows"), Variable("y")))
        b = query_of(TriplePattern(Variable("x"), EX.term("likes"), Variable("y")))
        assert shape_key(a) != shape_key(b)

    def test_structure_differs(self):
        path = query_of(
            TriplePattern(Variable("x"), EX.term("p"), Variable("y")),
            TriplePattern(Variable("y"), EX.term("p"), Variable("z")),
        )
        star = query_of(
            TriplePattern(Variable("x"), EX.term("p"), Variable("y")),
            TriplePattern(Variable("x"), EX.term("p"), Variable("z")),
        )
        assert shape_key(path) != shape_key(star)


class TestPlanCache:
    def test_miss_then_hit(self):
        cache = PlanCache(maxsize=4)
        query = query_of(TriplePattern(Variable("x"), EX.term("knows"), Variable("y")))
        key = shape_key(query)
        assert cache.get(key) is None
        cache.put(key, plan_of(2))
        assert cache.get(key) is not None
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_lru_eviction(self):
        cache = PlanCache(maxsize=2)
        keys = [
            shape_key(query_of(TriplePattern(Variable("x"), EX.term(f"p{i}"), Variable("y"))))
            for i in range(3)
        ]
        cache.put(keys[0], plan_of(2))
        cache.put(keys[1], plan_of(2))
        cache.get(keys[0])  # refresh key 0: key 1 is now least recently used
        cache.put(keys[2], plan_of(2))
        assert keys[0] in cache
        assert keys[1] not in cache
        assert keys[2] in cache
        assert len(cache) == 2

    def test_describe(self):
        cache = PlanCache(maxsize=3)
        description = cache.describe()
        assert description["maxsize"] == 3
        assert description["size"] == 0
