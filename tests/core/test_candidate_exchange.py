"""Unit tests for assembling variables' internal candidates (Algorithm 4)."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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

    @pytest.mark.parametrize(
        ("width", "set_bits", "size"),
        [
            (4096, 0, 4),  # empty: the framing alone
            (4096, 1, 6),  # one 2 B position
            (4096, 255, 514),  # the last count whose positions are smaller than the bitmap
            (4096, 256, 516),  # positions as large as the bitmap: the bitmap
            (4096, 4096, 4096 // 8 + 4),  # full
            (100, 100, 17),  # an odd width pays for its last partial byte: 13 B, not 12
        ],
    )
    def test_shipment_size_is_the_smaller_form(self, width, set_bits, size):
        vector = CandidateBitVector(width, (1 << set_bits) - 1)
        assert vector.shipment_size() == size == 4 + len(vector.wire_payload())

    def test_popcount(self):
        vector = CandidateBitVector()
        vector.add(A)
        assert vector.popcount() >= 1

    @pytest.mark.parametrize("width", [2048, 100])
    def test_might_contain_n3_agrees_with_might_contain(self, width):
        vector = vector_of([A, B, C], width=width)
        assert vector.width == width
        assert vector.might_contain(C) and vector.might_contain_n3(C.n3())


WIDTHS = [8, 100, 4096, 65536, 65544]


@st.composite
def vectors(draw):
    """A vector of one of ``WIDTHS``: a few set bits (sparse) or any bits at all (mostly dense)."""
    width = draw(st.sampled_from(WIDTHS))
    positions = st.sets(st.integers(0, width - 1), max_size=40).map(lambda found: sum(1 << p for p in found))
    return CandidateBitVector(width, draw(st.one_of(positions, st.integers(0, (1 << width) - 1))))


class TestTheWireForm:
    @given(vectors())
    @settings(max_examples=200, deadline=None)
    def test_size_is_bounded_by_the_bitmap_and_pickles_what_it_charges(self, vector):
        size = vector.shipment_size()
        assert 4 <= size <= -(-vector.width // 8) + 4
        assert size == 4 + len(vector.wire_payload())
        loaded = pickle.loads(pickle.dumps(vector))
        assert loaded == vector
        for term in (A, B, C, CONST, *(EX.term(f"v{i}") for i in range(20))):
            assert loaded.might_contain(term) == vector.might_contain(term)


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

    @pytest.mark.parametrize("width", [512, 100])
    def test_site_vectors_set_the_bits_of_the_decoded_terms(self, width):
        site_vectors = build_site_vectors(candidate_ids({X: {A, B}, Y: set()}), width=width)
        assert site_vectors[X] == vector_of([A, B], width=width)
        assert site_vectors[Y] == CandidateBitVector(width)

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
