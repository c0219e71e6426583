"""One cluster dictionary: one id space from the sites' columns to the coordinator's joins.

The cluster builds one :class:`~repro.store.encoding.TermDictionary` from its
base graph; every site's encoding and the master encoding read it, new terms
get the next ids once per update, in effective-op order, and a reopened store
replays to the same dictionary.  The master encoding is built on first use
only, so an update of a session that never reads it builds nothing.
"""

import pytest

import repro
from mirror import statistics_values
from repro.datasets import build_example_partitioning, example_query
from repro.distributed import build_cluster
from repro.partition import HashPartitioner
from repro.persist import ClusterStore
from repro.rdf import IRI, Triple
from repro.store.encoding import encoded_rebuilds, term_sort_key

EX = "http://example.org/one-dictionary/"


def dictionary_terms(dictionary):
    """The dictionary as its id-ordered term list: ids and order at once."""
    return [dictionary.term_of(term_id) for term_id in range(len(dictionary))]


def ops(graph):
    """An op sequence over existing and new terms, with a no-op and a re-add."""
    first, second = sorted(graph, key=lambda triple: triple.n3())[:2]
    new_a, new_b, new_p = IRI(EX + "a"), IRI(EX + "b"), IRI(EX + "p")
    return [
        dict(remove=[first], add=[Triple(new_a, new_p, first.object)]),
        dict(add=[first, second, Triple(first.subject, first.predicate, new_b)]),  # ``second`` is a no-op
        dict(remove=[Triple(new_a, new_p, first.object)], add=[Triple(new_b, new_p, new_a)]),
    ]


@pytest.fixture()
def lubm_cluster_copy(lubm_graph):
    return build_cluster(HashPartitioner(4).partition(lubm_graph.copy()))


class TestOneIdSpace:
    def test_every_encoding_shares_the_cluster_dictionary(self, lubm_cluster_copy):
        cluster = lubm_cluster_copy
        for site in cluster:
            assert site.encoded.dictionary is cluster.dictionary
            assert site.graph.encoded is site.encoded
        assert cluster.encoded.dictionary is cluster.dictionary
        cluster.apply(**ops(cluster.graph)[0])
        assert all(site.encoded.dictionary is cluster.dictionary for site in cluster)
        assert cluster.encoded.dictionary is cluster.dictionary

    def test_a_term_has_one_id_at_every_site(self, lubm_cluster_copy):
        cluster = lubm_cluster_copy
        seen = {}
        for site in cluster:
            term_of = site.encoded.dictionary.term_of
            for ids in site.encoded.iter_triple_ids():
                for term_id in ids:
                    assert seen.setdefault(term_of(term_id), term_id) == term_id
            # A crossing edge is stored at both of its sites under the same ids.
            for edge in site.fragment.decoded().crossing_edges:
                ids = tuple(cluster.dictionary.id_of(term) for term in edge.as_tuple())
                assert site.encoded.has_edge(*ids)
        assert set(seen) == {term for triple in cluster.graph for term in triple.as_tuple()}

    def test_base_ids_ascend_in_term_sort_key_order(self, lubm_cluster_copy):
        cluster = lubm_cluster_copy
        terms = dictionary_terms(cluster.dictionary)
        assert terms == sorted(terms, key=term_sort_key)
        assert len(terms) == len({term for triple in cluster.graph for term in triple.as_tuple()})

    def test_new_terms_get_the_next_ids_in_effective_op_order(self, lubm_cluster_copy):
        cluster = lubm_cluster_copy
        base = len(cluster.dictionary)
        for delta in ops(cluster.graph):
            cluster.apply(**delta)
        assert dictionary_terms(cluster.dictionary)[base:] == [IRI(EX + "a"), IRI(EX + "p"), IRI(EX + "b")]

    def test_a_reopened_store_replays_to_the_same_dictionary(self, tmp_path):
        live = build_cluster(build_example_partitioning())
        path = tmp_path / "one-dictionary.store"
        ClusterStore.create(path, build_example_partitioning()).close()
        with ClusterStore.open(path) as store:
            journaled = store.load_cluster()
            for delta in ops(live.graph):
                live.apply(**delta)
                journaled.apply(**delta)
        with ClusterStore.open(path) as store:
            reopened = store.load_cluster()
            assert dictionary_terms(reopened.dictionary) == dictionary_terms(live.dictionary)
            assert dictionary_terms(journaled.dictionary) == dictionary_terms(live.dictionary)
            for site, other in zip(live, reopened):
                assert list(site.encoded.iter_triple_ids()) == list(other.encoded.iter_triple_ids())


class TestTheMasterEncodingIsBuiltOnFirstUse:
    def test_a_gstored_only_update_builds_no_encoding(self):
        query = example_query()
        with repro.open(dataset="paper") as session:
            session.query(query)
            rebuilds = encoded_rebuilds()
            session.update(**ops(session.cluster.graph)[0])
            assert encoded_rebuilds() == rebuilds, "the first update built an encoding nobody reads"
            session.query(query)
            assert encoded_rebuilds() == rebuilds
            lazily = session.query(query, engine="centralized")
            assert encoded_rebuilds() == rebuilds + 1
        with repro.open(dataset="paper") as session:
            session.query(query, engine="centralized")  # builds the master encoding before the update
            rebuilds = encoded_rebuilds()
            session.update(**ops(session.cluster.graph)[0])
            patched = session.query(query, engine="centralized")
            assert encoded_rebuilds() == rebuilds
        assert lazily.results.rows == patched.results.rows
        assert lazily.statistics.work == patched.statistics.work

    @pytest.mark.parametrize("engine", ["centralized", "dream"])
    def test_a_late_master_encoding_answers_like_a_patched_one(self, engine):
        query = example_query()
        late = build_cluster(build_example_partitioning())
        early = build_cluster(build_example_partitioning())
        early.encoded
        for delta in ops(late.graph):
            late.apply(**delta)
            early.apply(**delta)
        assert late._encoded is None
        for name in ("centralized", engine):
            with repro.Session.from_cluster(late, engine=name) as session:
                late_rows = session.query(query).results.rows
            with repro.Session.from_cluster(early, engine=name) as session:
                early_rows = session.query(query).results.rows
            assert late_rows == early_rows
        assert list(late.encoded.iter_triple_ids()) == list(early.encoded.iter_triple_ids())


class TestStatisticsAtBuild:
    def test_sites_collect_their_statistics_when_built(self, monkeypatch):
        import repro.store.triple_store as triple_store

        collected = []
        original = triple_store.collect_statistics

        def counting(encoded):
            collected.append(encoded)
            return original(encoded)

        monkeypatch.setattr(triple_store, "collect_statistics", counting)
        cluster = build_cluster(build_example_partitioning())
        assert collected == [site.encoded for site in cluster]
        repro.core.GStoreDEngine(cluster).execute(example_query())
        assert len(collected) == cluster.num_sites, "enabling the site planners collected again"

    def test_a_store_backed_open_views_the_loaded_columns(self, tmp_path, monkeypatch):
        import repro.store.triple_store as triple_store

        path = tmp_path / "statistics.store"
        with repro.open(dataset="paper", path=str(path)) as session:
            session.update(**ops(session.cluster.graph)[0])
            terms = dictionary_terms(session.cluster.dictionary)
            written = [statistics_values(site.graph_statistics(), terms) for site in session.cluster]
            coordinator = statistics_values(session.cluster.graph_statistics(), terms)
        collected = []
        original = triple_store.collect_statistics

        def counting(encoded):
            collected.append(encoded)
            return original(encoded)

        monkeypatch.setattr(triple_store, "collect_statistics", counting)
        with repro.open(path=str(path)) as session:
            session.query(example_query())
            assert collected == [site.encoded for site in session.cluster]
            assert dictionary_terms(session.cluster.dictionary) == terms
            assert [statistics_values(site.graph_statistics(), terms) for site in session.cluster] == written
            assert statistics_values(session.cluster.graph_statistics(), terms) == coordinator
