"""Unit tests for the matching-kernel machinery (`repro.store.kernel`).

The sorted adjacency columns and their per-predicate patches, self-loop pools,
and agreement with the set-based oracle — the parts the Hypothesis parity
suite exercises only indirectly.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from graph_patches import apply_and_patch
from reference_set_kernel import KERNEL_SETS, SetMatcher, set_candidate_ids

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
from kernel_reference import ReferenceObjectMatcher, node_signatures, reference_candidates

import repro

from repro.rdf import Literal, Namespace, RDFGraph, Triple, TriplePattern, Variable
from repro.sparql import BasicGraphPattern, QueryGraph, parse_query
from repro.store import KERNEL_PYTHON, EncodedGraph, LocalMatcher, resolve_kernel
from repro.store.encoding import predicate_code
from repro.store.kernel import ArrayRunner

SRC = Path(__file__).resolve().parents[2] / "src"

EX = Namespace("http://example.org/")


def pool_ids(encoded, query):
    """The kernel's candidate pools of ``query`` over ``encoded``, as id sets."""
    return {vertex: set(pool) for vertex, pool in ArrayRunner(encoded).compute_pools(query).items()}


def pool_terms(graph, query):
    """:func:`pool_ids` over a fresh encoding of ``graph``, decoded to terms."""
    encoded = EncodedGraph(graph)
    return {vertex: encoded.dictionary.decode_ids(ids) for vertex, ids in pool_ids(encoded, query).items()}
ALICE, BOB, CAROL, DAVE = EX.term("alice"), EX.term("bob"), EX.term("carol"), EX.term("dave")
KNOWS, NAME = EX.term("knows"), EX.term("name")


def social_graph() -> RDFGraph:
    graph = RDFGraph()
    graph.add(Triple(ALICE, KNOWS, BOB))
    graph.add(Triple(BOB, KNOWS, CAROL))
    graph.add(Triple(CAROL, KNOWS, ALICE))
    graph.add(Triple(ALICE, KNOWS, DAVE))
    graph.add(Triple(ALICE, NAME, Literal("Alice")))
    graph.add(Triple(BOB, NAME, Literal("Bob")))
    return graph


def knows_chain() -> QueryGraph:
    return QueryGraph(
        BasicGraphPattern(
            [
                TriplePattern(Variable("x"), KNOWS, Variable("y")),
                TriplePattern(Variable("y"), KNOWS, Variable("z")),
            ]
        )
    )


def bgp(*patterns) -> QueryGraph:
    return QueryGraph(BasicGraphPattern([TriplePattern(*pattern) for pattern in patterns]))


X, Y, Z, W = Variable("x"), Variable("y"), Variable("z"), Variable("w")

#: Query shapes the oracle comparison runs over: cycles, stars, constants,
#: literals, variable predicates, and patterns with no answer at all.
QUERY_SHAPES = {
    "cycle": lambda: bgp((X, KNOWS, Y), (Y, KNOWS, Z), (Z, KNOWS, X)),
    "star": lambda: bgp((X, KNOWS, Y), (X, NAME, Z), (X, KNOWS, W)),
    "constant_subject": lambda: bgp((ALICE, KNOWS, Y), (Y, KNOWS, Z)),
    "constant_object": lambda: bgp((X, KNOWS, CAROL), (Y, KNOWS, X)),
    "literal_object": lambda: bgp((X, NAME, Literal("Bob")), (X, KNOWS, Y)),
    "variable_predicate": lambda: bgp((X, Y, BOB), (BOB, KNOWS, Z)),
    "unknown_constant": lambda: bgp((X, KNOWS, EX.term("nobody"))),
    "unknown_predicate": lambda: bgp((X, EX.term("likes"), Y)),
}


# ----------------------------------------------------------------------
# Sorted adjacency columns
# ----------------------------------------------------------------------
class TestSortedAdjacency:
    def test_columns_are_built_with_the_encoding(self):
        encoded = EncodedGraph(social_graph())
        knows = encoded.dictionary.id_of(KNOWS)
        assert encoded.out_column(knows) is encoded.out_column(knows)

    def test_columns_are_sorted_and_complete(self):
        graph = social_graph()
        encoded = EncodedGraph(graph)
        code = encoded.dictionary.id_of(KNOWS)
        alice = encoded.dictionary.id_of(ALICE)
        row = list(encoded.objects_from(alice, code))
        assert row == sorted(row)
        assert {encoded.dictionary.n3_of(v) for v in row} == {BOB.n3(), DAVE.n3()}
        keys = list(encoded.subjects_of_predicate(code))
        assert keys == sorted(keys)

    def test_vertex_pool_is_the_candidate_sort_order(self):
        encoded = EncodedGraph(social_graph())
        ids = encoded.sorted_vertex_ids
        assert ids == sorted(encoded.dictionary.encode_nodes(social_graph().vertices))
        assert encoded.sorted_vertex_ids is ids  # memoized

    def test_a_patch_replaces_only_the_mutated_predicates_columns(self):
        graph = social_graph()
        encoded = EncodedGraph(graph)
        knows = encoded.dictionary.id_of(KNOWS)
        name = encoded.dictionary.id_of(NAME)
        knows_columns = encoded.out_column(knows), encoded.in_column(knows)
        name_columns = encoded.out_column(name), encoded.in_column(name)
        assert apply_and_patch(graph, encoded, [("+", Triple(DAVE, KNOWS, CAROL))]) is encoded
        assert encoded.out_column(knows) is not knows_columns[0]
        assert encoded.in_column(knows) is not knows_columns[1]
        assert encoded.out_column(name) is name_columns[0]
        assert encoded.in_column(name) is name_columns[1]

    @pytest.mark.parametrize("matcher_class", [SetMatcher, LocalMatcher], ids=[KERNEL_SETS, KERNEL_PYTHON])
    def test_mutation_then_query_sees_the_new_edges(self, matcher_class):
        graph = social_graph()
        matcher = matcher_class(EncodedGraph(graph))
        query = knows_chain()
        before = list(matcher.find_matches(query))
        apply_and_patch(graph, matcher.encoded, [("+", Triple(DAVE, KNOWS, CAROL))])
        after = list(matcher.find_matches(query))
        assert len(after) > len(before)
        # A cold matcher over an identical graph agrees exactly — the
        # incrementally patched columns are not an approximation.
        fresh = matcher_class(EncodedGraph(graph.copy()))
        assert list(fresh.find_matches(query)) == after
        assert fresh.search_steps == matcher.search_steps


# ----------------------------------------------------------------------
# The one kernel against the set-based oracle
# ----------------------------------------------------------------------
class TestAgainstTheSetOracle:
    def test_the_kernel_is_named_python(self):
        assert resolve_kernel(None) == KERNEL_PYTHON
        matcher = LocalMatcher(EncodedGraph(social_graph()))
        list(matcher.find_matches(knows_chain()))
        assert matcher.last_kernel == KERNEL_PYTHON

    def test_python_kernel_matches_sets(self):
        graph = social_graph()
        query = knows_chain()
        default = LocalMatcher(EncodedGraph(graph))
        sets = SetMatcher(EncodedGraph(graph))
        assert list(default.find_matches(query)) == list(sets.find_matches(query))
        assert default.search_steps == sets.search_steps
        assert sets.last_kernel == KERNEL_SETS

    @pytest.mark.parametrize("shape", list(QUERY_SHAPES))
    def test_query_shapes_match_sets(self, shape):
        graph = social_graph()
        query = QUERY_SHAPES[shape]()
        default = LocalMatcher(EncodedGraph(graph))
        sets = SetMatcher(EncodedGraph(graph))
        assert list(default.find_matches(query)) == list(sets.find_matches(query))
        assert default.search_steps == sets.search_steps
        encoded = EncodedGraph(graph)
        assert pool_ids(encoded, query) == set_candidate_ids(encoded, query)


# ----------------------------------------------------------------------
# Kernel selection is gone
# ----------------------------------------------------------------------
class TestNoKernelSelection:
    def test_matcher_takes_no_kernel_argument(self):
        with pytest.raises(TypeError):
            LocalMatcher(EncodedGraph(social_graph()), kernel=KERNEL_PYTHON)

    def test_session_takes_no_kernel_argument(self):
        with pytest.raises(TypeError):
            repro.open(dataset="paper", kernel=KERNEL_PYTHON)

    def test_cli_has_no_kernel_flag(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "--data", "data.nt", "--query", "x", "--kernel", "python"])
        assert "--kernel" in capsys.readouterr().err

    def test_a_stale_environment_variable_is_ignored(self):
        child = (
            "from test_kernel import knows_chain, social_graph\n"
            "from repro.store import EncodedGraph, LocalMatcher\n"
            "matcher = LocalMatcher(EncodedGraph(social_graph()))\n"
            "print(len(list(matcher.find_matches(knows_chain()))), matcher.last_kernel)\n"
        )
        env = dict(
            os.environ,
            REPRO_KERNEL="vectorized",
            PYTHONPATH=os.pathsep.join([str(SRC), str(Path(__file__).resolve().parent)]),
        )
        completed = subprocess.run(
            [sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=120
        )
        assert completed.returncode == 0, completed.stderr
        expected = len(list(LocalMatcher(EncodedGraph(social_graph())).find_matches(knows_chain())))
        assert completed.stdout.split() == [str(expected), KERNEL_PYTHON]


# ----------------------------------------------------------------------
# Self-loop pools
# ----------------------------------------------------------------------
LIKES = EX.term("likes")


def loop_graph() -> RDFGraph:
    """Loops beside vertices that have both sides of ``knows`` (bob), or one (dave, carol)."""
    return RDFGraph(
        [
            Triple(ALICE, KNOWS, ALICE),
            Triple(ALICE, KNOWS, BOB),
            Triple(BOB, KNOWS, CAROL),
            Triple(DAVE, KNOWS, CAROL),
            Triple(CAROL, LIKES, CAROL),
            Triple(DAVE, LIKES, DAVE),
            Triple(ALICE, NAME, Literal("Alice")),
            Triple(CAROL, NAME, Literal("Carol")),
        ]
    )


#: Query shapes with at least one self-loop edge, over :func:`loop_graph`.
LOOP_SHAPES = {
    "loop": lambda: bgp((X, KNOWS, X)),
    "loop_and_outgoing": lambda: bgp((X, KNOWS, X), (X, KNOWS, Y)),
    "loop_and_incoming": lambda: bgp((X, KNOWS, X), (Y, KNOWS, X)),
    "loop_and_literal": lambda: bgp((X, KNOWS, X), (X, NAME, Z)),
    "two_loops": lambda: bgp((X, KNOWS, X), (X, LIKES, X)),
    "loop_on_a_neighbour": lambda: bgp((X, KNOWS, Y), (Y, LIKES, Y)),
    "variable_predicate_loop": lambda: bgp((X, Y, X)),
    "constant_loop": lambda: bgp((ALICE, KNOWS, ALICE), (ALICE, NAME, Z)),
    "unknown_predicate_loop": lambda: bgp((X, EX.term("hates"), X)),
}

#: Journal windows that move a vertex in or out of a loop pool.
LOOP_WINDOWS = {
    "a loop is added": [("+", Triple(BOB, KNOWS, BOB))],
    "a loop is removed": [("-", Triple(ALICE, KNOWS, ALICE))],
    "an outgoing-only vertex gains an incoming edge": [("+", Triple(CAROL, KNOWS, DAVE))],
    "a loop replaces an incoming edge": [("-", Triple(ALICE, KNOWS, BOB)), ("+", Triple(BOB, KNOWS, BOB))],
}


class TestSelfLoopPools:
    def test_a_loop_edge_needs_both_of_its_columns(self):
        """``?x p ?x`` pools only vertices with an outgoing *and* an incoming ``p``.

        ``bob`` has an outgoing ``knows`` edge but no incoming one: in the
        pool it would cost a second search step.
        """
        graph = RDFGraph([Triple(ALICE, KNOWS, ALICE), Triple(BOB, KNOWS, CAROL)])
        query = parse_query("SELECT ?x WHERE { ?x <http://example.org/knows> ?x }")
        matcher = LocalMatcher(EncodedGraph(graph))
        assert [row[X] for row in matcher.evaluate(query)] == [ALICE]
        assert matcher.search_steps == 1
        encoded = matcher.encoded
        pools = pool_ids(encoded, QueryGraph.from_query(query))
        assert pools == {X: {encoded.dictionary.id_of(ALICE)}}

    @pytest.mark.parametrize("shape", list(LOOP_SHAPES))
    def test_loop_shapes_match_sets(self, shape):
        graph = loop_graph()
        query = LOOP_SHAPES[shape]()
        default = LocalMatcher(EncodedGraph(graph))
        sets = SetMatcher(EncodedGraph(graph))
        assert list(default.find_matches(query)) == list(sets.find_matches(query))
        assert default.search_steps == sets.search_steps
        encoded = EncodedGraph(graph)
        assert pool_ids(encoded, query) == set_candidate_ids(encoded, query)

    @pytest.mark.parametrize("shape", list(LOOP_SHAPES))
    def test_loop_shapes_match_the_signature_prefiltered_object_path(self, shape):
        """The loop column prunes exactly what vertex signatures pruned, and no more."""
        graph = loop_graph()
        query = LOOP_SHAPES[shape]()
        default = LocalMatcher(EncodedGraph(graph))
        reference = ReferenceObjectMatcher(graph)
        assert list(default.find_matches(query)) == list(reference.find_matches(query))
        assert default.search_steps == reference.search_steps
        assert pool_terms(graph, query) == reference_candidates(graph, query, node_signatures(graph))

    @pytest.mark.parametrize("window", list(LOOP_WINDOWS))
    def test_loop_pools_follow_updates(self, window):
        graph = loop_graph()
        query = LOOP_SHAPES["loop_and_incoming"]()
        matcher = LocalMatcher(EncodedGraph(graph))
        list(matcher.find_matches(query))  # warm the columns the window will patch
        apply_and_patch(graph, matcher.encoded, LOOP_WINDOWS[window])
        after = list(matcher.find_matches(query))
        fresh = SetMatcher(EncodedGraph(graph.copy()))
        assert after == list(fresh.find_matches(query))
        assert matcher.search_steps == fresh.search_steps
        encoded = matcher.encoded
        assert pool_ids(encoded, query) == set_candidate_ids(encoded, query)


def single_and_merged(vertex_at_subject, other_end):
    """A one-edge query and its two-edge twin whose ``?x`` edges read one column.

    The twin repeats the edge (with a fresh variable when the other end is one),
    so ``?x``'s pool goes through the merge path over two equal columns.
    """
    twin_end = Variable("twin") if isinstance(other_end, Variable) else other_end

    def edge(end):
        return TriplePattern(X, KNOWS, end) if vertex_at_subject else TriplePattern(end, KNOWS, X)

    return QueryGraph(BasicGraphPattern([edge(other_end)])), QueryGraph(
        BasicGraphPattern([edge(other_end), edge(twin_end)])
    )


class TestSingleColumnPools:
    """A vertex supported by one endpoint column takes a copy of that column."""

    @pytest.mark.parametrize("vertex_at_subject", [True, False], ids=["subject", "object"])
    @pytest.mark.parametrize("other_end", [Variable("y"), ALICE, BOB], ids=["variable", "alice", "bob"])
    def test_the_single_column_pool_equals_the_merge_paths(self, vertex_at_subject, other_end):
        encoded = EncodedGraph(social_graph())
        single, merged = single_and_merged(vertex_at_subject, other_end)
        single_runner, merged_runner = ArrayRunner(encoded), ArrayRunner(encoded)
        pool = single_runner.compute_pools(single)[X]
        assert pool == merged_runner.compute_pools(merged)[X]
        assert pool == sorted(set(pool))
        assert single_runner.intersections == 0
        assert merged_runner.intersections == 1

    def test_the_pool_is_a_copy_of_the_column(self):
        encoded = EncodedGraph(social_graph())
        pool = ArrayRunner(encoded).compute_pools(knows_chain())[X]
        column = encoded.subjects_of_predicate(predicate_code(encoded.dictionary, KNOWS))
        assert pool == list(column) and pool is not column
        pool.append(-1)
        assert -1 not in column

    def test_lubm_single_column_pools_equal_the_merge_paths(self, lubm_graph):
        encoded = EncodedGraph(lubm_graph)
        predicates = sorted({triple.predicate for triple in lubm_graph}, key=str)
        sizes = []
        for predicate in predicates:
            for single, merged in (
                single_and_merged(True, Variable("y")),
                single_and_merged(False, Variable("y")),
            ):
                single, merged = (
                    QueryGraph(BasicGraphPattern(TriplePattern(p.subject, predicate, p.object) for p in query.bgp))
                    for query in (single, merged)
                )
                pool = ArrayRunner(encoded).compute_pools(single)[X]
                assert pool == ArrayRunner(encoded).compute_pools(merged)[X]
                sizes.append(len(pool))
        assert min(sizes) > 0 and max(sizes) > 100
