"""The state an updated cluster must reach, kept by the test from its own ops.

A test that updates a cluster keeps a :class:`Mirror` beside it: the triple
set and the vertex homes, followed op by op with the placement rule
:meth:`~repro.distributed.Cluster.apply` documents — homes are sticky, and a
new vertex joins the home of its first triple's other endpoint when that has
one (the subject is placed first), else :func:`stable_fragment_of` its N3
text.  The expected partitioning is a validated ``build_partitioned_graph``
over them, and :func:`assert_mirrors` compares every site's Definition 1 sets,
decoded from its ids, with it.  Nothing here reads the cluster to decide what
the truth is.
"""

from repro.partition import build_partitioned_graph, stable_fragment_of
from repro.rdf import RDFGraph


class Mirror:
    """A triple set and a vertex → fragment assignment, updated like a cluster."""

    def __init__(self, partitioned):
        self.triples = set(partitioned.graph)
        self.homes = partitioned.assignment
        self.num_fragments = partitioned.num_fragments

    def apply(self, add=(), remove=()):
        """Removals first, then additions, as ``Cluster.apply`` stages them."""
        self.apply_ops([("-", triple) for triple in remove] + [("+", triple) for triple in add])

    def apply_ops(self, ops):
        for op, triple in ops:
            if op == "-":
                self.triples.discard(triple)
            elif triple not in self.triples:
                self.triples.add(triple)
                self._place(triple.subject, triple.object)
                self._place(triple.object, triple.subject)

    def _place(self, vertex, partner):
        if vertex not in self.homes:
            home = self.homes.get(partner)
            self.homes[vertex] = stable_fragment_of(vertex, self.num_fragments) if home is None else home

    def partitioned(self):
        """The expected partitioning: Definition 1 over the triples, validated."""
        graph = RDFGraph(self.triples)
        homes = {vertex: self.homes[vertex] for vertex in graph.vertices}
        return build_partitioned_graph(graph, homes, num_fragments=self.num_fragments)


def assert_mirrors(cluster, mirror):
    """``cluster`` holds exactly the mirror's triples, placement and fragments."""
    expected = mirror.partitioned()
    assert cluster.num_sites == mirror.num_fragments
    assert set(cluster.graph) == mirror.triples
    assert cluster.partitioned_graph.assignment == mirror.homes
    for site in cluster:
        assert site.fragment.decoded() == expected.fragment(site.site_id)


def statistics_values(statistics, terms):
    """Every number a planner reads off ``statistics``: the totals and each term's predicate read.

    Two views compare value for value through this, whatever encodings they
    read; ``terms`` may hold terms that label no triple (their read is ``None``).
    """
    return (
        statistics.num_triples,
        statistics.num_vertices,
        statistics.num_predicates,
        [statistics.read(term) for term in terms],
    )
