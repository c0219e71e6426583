"""Unit tests for assembling variables' internal candidates (Algorithm 4)."""

import pytest
from reference_candidates import vector_of
from reference_partial_eval import filter_allows

from repro.core import (
    CandidateBitVector,
    GlobalCandidateFilter,
    build_site_vectors,
    union_site_vectors,
)
from repro.rdf import Namespace, RDFGraph, Triple, Variable
from repro.sparql import QueryGraph, parse_query
from repro.distributed import build_cluster
from repro.partition import HashPartitioner
from repro.datasets import lubm
from repro.store import encoded_view
from repro.store.fragment_index import CandidateIds

EX = Namespace("http://example.org/")
X, Y = Variable("x"), Variable("y")
A, B, C = EX.term("a"), EX.term("b"), EX.term("c")
CONST = EX.term("const")


def candidate_ids(candidates):
    """``candidates`` (terms per query vertex) as the ids of a graph holding them all."""
    graph = RDFGraph(triples=[Triple(A, EX.term("p"), B), Triple(C, EX.term("p"), CONST)])
    encoded = encoded_view(graph)
    ids = CandidateIds((v, encoded.dictionary.encode_nodes(terms)) for v, terms in candidates.items())
    ids.encoded = encoded
    return ids


class TestCandidateBitVector:
    def test_membership_has_no_false_negatives(self):
        vector = vector_of([A, B])
        assert vector.might_contain(A)
        assert vector.might_contain(B)

    def test_empty_vector_contains_nothing(self):
        assert not CandidateBitVector().might_contain(A)

    def test_union(self):
        left, right = CandidateBitVector(), CandidateBitVector()
        left.add(A)
        right.add(B)
        union = left.union(right)
        assert union.might_contain(A)
        assert union.might_contain(B)

    def test_union_requires_same_width(self):
        with pytest.raises(ValueError):
            CandidateBitVector(width=64).union(CandidateBitVector(width=128))

    def test_shipment_size_is_fixed(self):
        empty = CandidateBitVector(width=1024)
        full = vector_of([EX.term(f"v{i}") for i in range(100)], width=1024)
        assert empty.shipment_size() == full.shipment_size() == 1024 // 8 + 4

    def test_popcount(self):
        vector = CandidateBitVector()
        vector.add(A)
        assert vector.popcount() >= 1

    def test_might_contain_n3_agrees_with_might_contain(self):
        vector = vector_of([A, B, C], width=2048)
        assert vector.width == 2048
        assert vector.might_contain(C) and vector.might_contain_n3(C.n3())


class TestGlobalFilter:
    def test_allows_unknown_variables(self):
        assert filter_allows(GlobalCandidateFilter({}), X, A)

    def test_blocks_unlisted_candidates(self):
        vector = CandidateBitVector()
        vector.add(A)
        candidate_filter = GlobalCandidateFilter({X: vector})
        assert filter_allows(candidate_filter, X, A)
        assert not filter_allows(candidate_filter, X, B) or vector.might_contain(B)

    def test_len_and_shipment(self):
        candidate_filter = GlobalCandidateFilter({X: CandidateBitVector(), Y: CandidateBitVector()})
        assert len(candidate_filter) == 2
        assert candidate_filter.shipment_size() > 2 * CandidateBitVector().shipment_size() - 8


class TestAlgorithm4:
    def test_build_site_vectors_skips_constants(self):
        vectors = build_site_vectors(candidate_ids({X: {A}, CONST: {CONST}}))
        assert set(vectors) == {X}

    def test_site_vectors_set_the_bits_of_the_decoded_terms(self):
        vectors = build_site_vectors(candidate_ids({X: {A, B}, Y: set()}), width=512)
        assert vectors[X] == vector_of([A, B], width=512)
        assert vectors[Y] == CandidateBitVector(512)

    def test_union_site_vectors_is_bitwise_or(self):
        site1 = build_site_vectors(candidate_ids({X: {A}}))
        site2 = build_site_vectors(candidate_ids({X: {B}, Y: {C}}))
        merged = union_site_vectors([site1, site2])
        assert filter_allows(merged, X, A)
        assert filter_allows(merged, X, B)
        assert filter_allows(merged, Y, C)

    def test_union_covers_every_internal_candidate_of_every_site(self):
        """Soundness of the Section VI optimization: every vertex that is an
        internal candidate somewhere must pass the global filter."""
        graph = lubm.generate(scale=1)
        cluster = build_cluster(HashPartitioner(4).partition(graph))
        query = lubm.queries()["LQ1"]
        query_graph = QueryGraph(query.bgp)
        per_site = []
        per_site_candidates = []
        for site in cluster:
            candidates = site.internal_candidates(query_graph)
            per_site_candidates.append(candidates)
            per_site.append(build_site_vectors(candidates))
        merged = union_site_vectors(per_site)
        for candidates in per_site_candidates:
            for vertex, values in candidates.items():
                if not isinstance(vertex, Variable):
                    continue
                for value in values:
                    assert filter_allows(merged, vertex, candidates.encoded.dictionary.term_of(value))
