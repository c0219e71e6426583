"""The premises of the wire form: one id per term, charged as its N3 text.

Local partial matches and LEC features reach the coordinator as ids of the
cluster's one ``TermDictionary``, and the coordinator's joins and Algorithm 1
compare and hash those ids; the shipment accounting charges each distinct
key's N3 text once per message, read from the dictionary's per-id table.  That
is exact only if

* ``a.n3() == b.n3()`` exactly when ``a == b``, for IRIs, plain / ``@lang`` /
  ``^^datatype`` literals (quotes, backslashes, newlines, non-ASCII in the
  lexical form) and blank nodes, and N3 text parses back to its term (the
  dictionary sorts by it, and a store file keeps terms as it);
* ``TermDictionary.n3_of(id)`` is ``term.n3()`` and ``key_bytes[id]`` its UTF-8
  length, for ids built in bulk and for ids ``ensure()`` appends later;
* a LEC feature's decoded ``crossing_map`` is its LPM's crossing edges;
* a ``local_partial_matches`` or ``lec_features`` message is charged what an
  independent recount over the decoded terms gives (each distinct key's UTF-8
  text once, fixed-width references for the rest), an LPM message pickles to
  equal LPMs that decode and size the same, the sites of one cluster give a
  term one id, and the engine still answers exactly what the centralized
  evaluator does — on graphs built from such terms.
"""

import pickle
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "core"))
from reference_joins import recount_feature_message, recount_lpm_message

from repro.core import GStoreDEngine, compute_lec_features, lec_feature_of
from repro.core.partial_eval import evaluate_fragment
from repro.datasets import random_assignment, random_connected_query
from repro.distributed import build_cluster
from repro.distributed.network import estimate_size
from repro.partition import build_partitioned_graph
from repro.rdf import RDFGraph, Triple
from repro.rdf.ntriples import parse_term
from repro.rdf.terms import IRI, BlankNode, Literal, escape_literal
from repro.sparql import QueryGraph
from repro.store import evaluate_centralized
from repro.store.encoding import TermDictionary

#: Characters N3 escapes or uses as delimiters, plus non-ASCII, mixed into texts.
SPECIAL = st.sampled_from(['"', "\\", "\n", "\r", "\t", "<", ">", "@", "^", "_", ":", " ", "é", "字", " "])
texts = st.lists(st.one_of(SPECIAL, st.characters(blacklist_categories=("Cs",))), max_size=8).map("".join)
language_tags = st.one_of(st.just(""), st.from_regex(r"[a-zA-Z]{1,8}(-[a-zA-Z0-9]{1,8}){0,2}", fullmatch=True))
iris = st.builds(IRI, texts)
literals = st.one_of(
    st.builds(Literal, texts),
    st.builds(lambda lexical, tag: Literal(lexical, language=tag), texts, language_tags),
    st.builds(lambda lexical, datatype: Literal(lexical, datatype=datatype), texts, iris),
)
#: Labels without surrounding whitespace, as N-Triples writes them.
blanks = st.builds(BlankNode, st.from_regex(r"[A-Za-z0-9_.\-]{0,8}", fullmatch=True))
nodes = st.one_of(iris, literals, blanks)


@st.composite
def lookalikes(draw):
    """Terms sharing one text in every position N3 could confuse."""
    text, tag, datatype = draw(texts), draw(language_tags), draw(iris)
    return [
        IRI(text),
        BlankNode(text),
        Literal(text),
        Literal(escape_literal(text)),
        Literal(text, language=tag),
        Literal(text, language=tag or "en"),
        Literal(text, datatype=datatype),
        Literal(text, datatype=IRI(text)),
        Literal(f'"{text}"'),
        IRI(f'"{text}"'),
    ]


class TestN3IdentifiesTheTerm:
    @given(st.lists(st.one_of(nodes, st.builds(BlankNode, texts)), min_size=2, max_size=20), lookalikes())
    @settings(max_examples=200, deadline=None)
    def test_equal_text_exactly_when_equal_terms(self, terms, similar):
        pool = terms + similar
        for a in pool:
            for b in pool:
                assert (a.n3() == b.n3()) == (a == b), (a, b)

    def test_an_empty_language_tag_is_a_plain_literal(self):
        assert Literal("x", language="") == Literal("x")
        assert Literal("x", language="").n3() == Literal("x").n3()

    @given(nodes)
    @settings(max_examples=200, deadline=None)
    def test_n3_text_parses_back_to_the_term(self, term):
        assert parse_term(term.n3()) == term


class TestDictionaryKeys:
    @given(st.lists(nodes, max_size=25), st.lists(nodes, max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_n3_of_is_the_terms_n3_for_built_and_appended_ids(self, built, appended):
        dictionary = TermDictionary(built)
        for term in appended:
            dictionary.ensure(term)
        for term in built + appended:
            term_id = dictionary.id_of(term)
            assert dictionary.n3_of(term_id) == term.n3()
            assert dictionary.key_bytes[term_id] == len(term.n3().encode("utf-8"))
            assert dictionary.term_of(term_id) == term


@st.composite
def hostile_settings(draw):
    """A small graph over generated terms, a partitioning and a query sampled from it."""
    vertices = draw(st.lists(nodes, min_size=3, max_size=8, unique=True))
    predicates = draw(st.lists(iris, min_size=1, max_size=3, unique=True))
    ends = st.integers(0, len(vertices) - 1)
    edges = draw(st.lists(st.tuples(ends, st.integers(0, len(predicates) - 1), ends), min_size=3, max_size=16))
    graph = RDFGraph([Triple(vertices[s], predicates[p], vertices[o]) for s, p, o in edges])
    seed = draw(st.integers(0, 1_000))
    num_fragments = draw(st.integers(2, 3))
    query = random_connected_query(graph, seed, num_edges=draw(st.integers(2, 3)), constant_probability=0.3)
    partitioned = build_partitioned_graph(
        graph, random_assignment(graph, seed, num_fragments), num_fragments=num_fragments
    )
    return graph, partitioned, query


class TestIdLPMsOnHostileTerms:
    @given(hostile_settings())
    @settings(max_examples=40, deadline=None)
    def test_sizes_views_and_answers(self, setting):
        graph, partitioned, query = setting
        query_graph = QueryGraph(query.bgp)
        cluster = build_cluster(partitioned)
        for site in cluster:
            lpms = evaluate_fragment(site.fragment, query_graph, graph=site.graph).local_partial_matches
            for lpm in lpms:
                feature = lec_feature_of(lpm)
                assert feature.crossing_map == lpm.crossing_assignment
                assert estimate_size([feature]) == recount_feature_message([feature])
            assert estimate_size(lpms) == recount_lpm_message(lpms)
            features = list(compute_lec_features(lpms))
            assert estimate_size(features) == recount_feature_message(features)
            loaded = pickle.loads(pickle.dumps(lpms))
            assert loaded == lpms
            assert [(lpm.terms, lpm.crossing) for lpm in loaded] == [(lpm.terms, lpm.crossing) for lpm in lpms]
            assert estimate_size(loaded) == estimate_size(lpms)
            term_of = cluster.dictionary.term_of
            for lpm in lpms:
                assert lpm.dictionary is cluster.dictionary
                assert lpm.terms == tuple(term_of(term_id) for _, term_id in lpm.items)
        result = GStoreDEngine(cluster).execute(query)
        expected = evaluate_centralized(graph, query).project(query.effective_projection, distinct=True)
        assert result.results.same_solutions(expected)
