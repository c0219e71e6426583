"""Unit tests for the matching-kernel machinery (`repro.store.kernel`).

The sorted adjacency columns and their incremental invalidation, and agreement with the set-based oracle — the parts the
Hypothesis parity suite exercises only indirectly.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from reference_set_kernel import KERNEL_SETS, SetMatcher, set_candidate_ids

import repro

from repro.rdf import Literal, Namespace, RDFGraph, Triple, TriplePattern, Variable
from repro.sparql import BasicGraphPattern, QueryGraph
from repro.store import KERNEL_PYTHON, LocalMatcher, SignatureIndex, resolve_kernel
from repro.store.candidates import compute_candidate_ids
from repro.store.encoding import encoded_view
from repro.store.kernel import adjacency_view

SRC = Path(__file__).resolve().parents[2] / "src"

EX = Namespace("http://example.org/")
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
    def test_view_is_cached(self):
        encoded = encoded_view(social_graph())
        assert adjacency_view(encoded) is adjacency_view(encoded)

    def test_columns_are_sorted_and_complete(self):
        graph = social_graph()
        encoded = encoded_view(graph)
        adjacency = adjacency_view(encoded)
        code = encoded.dictionary.id_of(KNOWS)
        alice = encoded.dictionary.id_of(ALICE)
        row = list(adjacency.objects_from(alice, code))
        assert row == sorted(row)
        assert {encoded.dictionary.n3_of(v) for v in row} == {BOB.n3(), DAVE.n3()}
        keys = list(adjacency.subject_keys(code))
        assert keys == sorted(keys)

    def test_vertex_pool_is_the_candidate_sort_order(self):
        encoded = encoded_view(social_graph())
        adjacency = adjacency_view(encoded)
        ids = adjacency.vertex_pool()
        assert tuple(ids) == encoded.sorted_vertex_ids
        assert adjacency.vertex_pool() is ids  # memoized

    def test_invalidate_drops_only_the_touched_predicates(self):
        encoded = encoded_view(social_graph())
        adjacency = adjacency_view(encoded)
        knows = encoded.dictionary.id_of(KNOWS)
        name = encoded.dictionary.id_of(NAME)
        knows_column = adjacency.out_column(knows)
        name_column = adjacency.out_column(name)
        adjacency.invalidate({knows})
        assert adjacency.out_column(knows) is not knows_column
        assert adjacency.out_column(name) is name_column

    @pytest.mark.parametrize("matcher_class", [SetMatcher, LocalMatcher], ids=[KERNEL_SETS, KERNEL_PYTHON])
    def test_mutation_then_query_sees_the_new_edges(self, matcher_class):
        graph = social_graph()
        matcher = matcher_class(graph)
        query = knows_chain()
        before = list(matcher.find_matches(query))
        graph.add(Triple(DAVE, KNOWS, CAROL))
        after = list(matcher.find_matches(query))
        assert len(after) > len(before)
        # A cold matcher over an identical graph agrees exactly — the
        # incrementally patched columns are not an approximation.
        fresh = matcher_class(graph.copy())
        assert list(fresh.find_matches(query)) == after
        assert fresh.search_steps == matcher.search_steps


# ----------------------------------------------------------------------
# The one kernel against the set-based oracle
# ----------------------------------------------------------------------
class TestAgainstTheSetOracle:
    def test_the_kernel_is_named_python(self):
        assert resolve_kernel(None) == KERNEL_PYTHON
        matcher = LocalMatcher(social_graph())
        list(matcher.find_matches(knows_chain()))
        assert matcher.last_kernel == KERNEL_PYTHON

    def test_python_kernel_matches_sets(self):
        graph = social_graph()
        query = knows_chain()
        default = LocalMatcher(graph)
        sets = SetMatcher(graph)
        assert list(default.find_matches(query)) == list(sets.find_matches(query))
        assert default.search_steps == sets.search_steps
        assert sets.last_kernel == KERNEL_SETS

    @pytest.mark.parametrize("shape", list(QUERY_SHAPES))
    def test_query_shapes_match_sets(self, shape):
        graph = social_graph()
        query = QUERY_SHAPES[shape]()
        default = LocalMatcher(graph)
        sets = SetMatcher(graph)
        assert list(default.find_matches(query)) == list(sets.find_matches(query))
        assert default.search_steps == sets.search_steps
        encoded = encoded_view(graph)
        index = SignatureIndex(graph)
        assert compute_candidate_ids(encoded, query, index) == set_candidate_ids(encoded, query, index)


# ----------------------------------------------------------------------
# Kernel selection is gone
# ----------------------------------------------------------------------
class TestNoKernelSelection:
    def test_matcher_takes_no_kernel_argument(self):
        with pytest.raises(TypeError):
            LocalMatcher(social_graph(), kernel=KERNEL_PYTHON)

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
            "from repro.store import LocalMatcher\n"
            "matcher = LocalMatcher(social_graph())\n"
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
        expected = len(list(LocalMatcher(social_graph()).find_matches(knows_chain())))
        assert completed.stdout.split() == [str(expected), KERNEL_PYTHON]


# ----------------------------------------------------------------------
# Signature table (the kernel's filter input)
# ----------------------------------------------------------------------
class TestBitsTable:
    def test_table_rows_match_the_signatures(self):
        graph = social_graph()
        index = SignatureIndex(graph)
        encoded = encoded_view(graph)
        table = index.bits_table(encoded)
        assert len(table) == len(encoded.dictionary)
        for term_id, bits in enumerate(table):
            assert bits == index.signature_of(encoded.dictionary.term_of(term_id)).bits

    def test_table_refreshes_after_mutation(self):
        graph = social_graph()
        index = SignatureIndex(graph)
        before = list(index.bits_table(encoded_view(graph)))
        graph.add(Triple(DAVE, NAME, Literal("Dave")))
        encoded = encoded_view(graph)
        table = index.bits_table(encoded)
        dave = encoded.dictionary.id_of(DAVE)
        assert table[dave] != before[dave]
        fresh = SignatureIndex(graph.copy())
        for term_id, bits in enumerate(table):
            assert bits == fresh.signature_of(encoded.dictionary.term_of(term_id)).bits

    def test_stale_encoded_view_is_an_error(self):
        graph = social_graph()
        index = SignatureIndex(graph)
        other = encoded_view(social_graph())
        with pytest.raises(ValueError, match="different graph"):
            index.bits_table(other)
