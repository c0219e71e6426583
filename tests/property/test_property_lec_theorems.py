"""Theorems 1–2 on local partial matches and Algorithm 2's safety, as properties.

The coordinator never sees term objects any more: LPMs and LEC features are
keyed on N3 text and Definition 9 runs on those keys.  These properties check
the paper's claims about that data against object-level oracles, on the
adversarial partitionings of ``test_property_joins`` (uniform, every edge
crossing, a single site, empty fragments) and on one fragment overlapping a
match in two disconnected regions:

* **Theorems 1–2.**  LPMs that share a LEC feature are interchangeable: each
  can join (Definition 9, evaluated by the object-level ``can_join`` on their
  decoded views) with exactly the same LPMs.
* **Algorithm 2 is safe.**  No LPM of a pruned feature occurs in the
  decomposition of any centralized answer.  An LPM occurs in an answer's
  decomposition exactly when the answer extends its mapping: its internally
  matched vertices are fully expanded (condition 5), so its internal region
  is a whole connected region of the answer inside its fragment.
"""

import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "core"))
import test_property_joins as joins_suite
from reference_joins import lpms_joinable
from test_property_joins import coordinator_inputs, partitionings

from repro.core import LECFeaturePruner
from repro.datasets import random_connected_query, random_graph
from repro.store import evaluate_centralized

seeds = st.integers(min_value=0, max_value=5_000)
query_sizes = st.integers(min_value=2, max_value=4)
constant_probabilities = st.sampled_from([0.0, 0.25])


def random_inputs(seed, partitioning, query_edges, constant_probability):
    # Dense, two labels: many LEC classes with several members.
    graph = random_graph(seed, num_vertices=12, num_edges=36, num_predicates=2)
    query = random_connected_query(
        graph, seed + 17, num_edges=query_edges, constant_probability=constant_probability
    )
    assignment, num_fragments = partitioning(graph, seed)
    _, query_graph, classes = coordinator_inputs(graph, query, assignment, num_fragments)
    return graph, query, query_graph, classes


def assert_classes_share_partners(classes):
    lpms = [lpm for members in classes.values() for lpm in members]
    for members in classes.values():
        partners = {
            frozenset(number for number, other in enumerate(lpms) if lpms_joinable(member, other))
            for member in members
        }
        assert len(partners) == 1


def assert_pruning_is_safe(graph, query, query_graph, classes):
    answers = [binding.as_dict() for binding in evaluate_centralized(graph, query)]
    outcome = LECFeaturePruner(query_graph).prune(list(classes))
    for feature, members in classes.items():
        if outcome.survives(feature):
            continue
        for lpm in members:
            for answer in answers:
                # Constant query vertices map to themselves; the query's
                # predicates are constants, so vertices pin every edge.
                assert not all(answer.get(vertex, vertex) == value for vertex, value in lpm.assignment)


class TestTheorems1And2OnLPMs:
    @given(seeds, partitionings, query_sizes, constant_probabilities)
    @settings(max_examples=40, deadline=None)
    def test_lpms_of_one_feature_join_with_the_same_lpms(
        self, seed, partitioning, query_edges, constant_probability
    ):
        _, _, _, classes = random_inputs(seed, partitioning, query_edges, constant_probability)
        assert_classes_share_partners(classes)

    def test_two_regions_of_one_fragment(self):
        graph, query, assignment = joins_suite.TestTwoRegionsOfOneFragment().build()
        _, _, classes = coordinator_inputs(graph, query, assignment, 2)
        assert_classes_share_partners(classes)


class TestAlgorithm2Safety:
    @given(seeds, partitionings, query_sizes, constant_probabilities)
    @settings(max_examples=40, deadline=None)
    def test_no_pruned_lpm_is_part_of_a_centralized_answer(
        self, seed, partitioning, query_edges, constant_probability
    ):
        assert_pruning_is_safe(*random_inputs(seed, partitioning, query_edges, constant_probability))

    def test_two_regions_of_one_fragment(self):
        graph, query, assignment = joins_suite.TestTwoRegionsOfOneFragment().build()
        _, query_graph, classes = coordinator_inputs(graph, query, assignment, 2)
        assert_pruning_is_safe(graph, query, query_graph, classes)
