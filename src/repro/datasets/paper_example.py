"""The paper's running example (Fig. 1 data graph, Fig. 2 query, Fig. 3 LPMs).

The data graph describes a few philosophers, their main interests and a
birth place, spread over three fragments in the paper's Fig. 1.  The module
builds the graph, the example query ("people influencing Crispin Wright and
their interests"), and the exact three-fragment assignment of Fig. 1 so the
unit tests can check the paper's worked examples (local partial matches, LEC
features, LEC feature groups) verbatim.
"""

from __future__ import annotations

from typing import Dict

from ..partition.fragment import PartitionedGraph, build_partitioned_graph
from ..rdf.graph import RDFGraph
from ..rdf.namespaces import Namespace, NamespaceManager
from ..rdf.terms import IRI, Literal, Node
from ..rdf.triples import Triple
from ..sparql.algebra import SelectQuery
from ..sparql.parser import parse_query

#: Namespace of every resource in the running example.
EX = Namespace("http://example.org/")

EXAMPLE_NAMESPACES = NamespaceManager({"ex": EX.base})

# Vertices of Fig. 1, keyed by the numeric ids the paper prints next to them.
VERTEX: Dict[str, Node] = {
    "001": EX.term("s1_Phi1"),
    "002": Literal("1942-12-21"),
    "003": Literal("Crispin Wright", language="en"),
    "004": Literal("Philosophy of language", language="en"),
    "005": EX.term("s1_Int1"),
    "006": EX.term("s2_Phi2"),
    "007": Literal("Michael Dummett"),
    "008": EX.term("s2_Int2"),
    "009": Literal("Metaphysics", language="en"),
    "010": EX.term("s2_Int3"),
    "011": Literal("Philosophy of logic", language="en"),
    "012": EX.term("s3_Phi3"),
    "013": EX.term("s3_Int4"),
    "014": EX.term("s2_Phi4"),
    "015": Literal("1889-04-26"),
    "016": Literal("Ludwig Wittgenstein", language="en"),
    "017": Literal("Logic", language="en"),
    "018": Literal("Rudolf Carnap", language="en"),
    "019": EX.term("s3_Pla1"),
    "020": Literal("Ronsdorf", language="en"),
}

#: Properties used by the example.
INFLUENCED_BY = EX.term("influencedBy")
MAIN_INTEREST = EX.term("mainInterest")
LABEL = EX.term("label")
NAME = EX.term("name")
BIRTH_DATE = EX.term("birthDate")
BIRTH_PLACE = EX.term("birthPlace")

#: Edges of Fig. 1 as (subject id, property, object id) triples.
_EDGES = [
    ("001", BIRTH_DATE, "002"),
    ("001", NAME, "003"),
    ("001", INFLUENCED_BY, "006"),
    ("001", INFLUENCED_BY, "012"),
    ("005", LABEL, "004"),
    ("006", MAIN_INTEREST, "005"),
    ("006", NAME, "007"),
    ("006", MAIN_INTEREST, "008"),
    ("006", MAIN_INTEREST, "010"),
    ("008", LABEL, "009"),
    ("010", LABEL, "011"),
    ("012", MAIN_INTEREST, "013"),
    ("012", NAME, "016"),
    ("012", BIRTH_DATE, "015"),
    ("013", LABEL, "017"),
    ("014", MAIN_INTEREST, "013"),
    ("014", NAME, "018"),
    ("014", BIRTH_PLACE, "019"),
    ("019", LABEL, "020"),
]

#: The fragment each vertex belongs to in Fig. 1 (fragment ids 0, 1, 2 for F1, F2, F3).
FIGURE1_ASSIGNMENT: Dict[str, int] = {
    "001": 0,
    "002": 0,
    "003": 0,
    "004": 0,
    "005": 0,
    "006": 1,
    "007": 1,
    "008": 1,
    "009": 1,
    "010": 1,
    "011": 1,
    "014": 1,
    "018": 1,
    "012": 2,
    "013": 2,
    "015": 2,
    "016": 2,
    "017": 2,
    "019": 2,
    "020": 2,
}


def build_example_graph() -> RDFGraph:
    """The full RDF graph of Fig. 1."""
    graph = RDFGraph(name="paper-example")
    for subject_id, prop, object_id in _EDGES:
        graph.add(Triple(VERTEX[subject_id], prop, VERTEX[object_id]))
    return graph


def build_example_partitioning() -> PartitionedGraph:
    """The exact three-fragment partitioning shown in Fig. 1."""
    graph = build_example_graph()
    assignment = {VERTEX[key]: fragment for key, fragment in FIGURE1_ASSIGNMENT.items()}
    return build_partitioned_graph(graph, assignment, num_fragments=3, strategy="figure1")


def example_query() -> SelectQuery:
    """The Fig. 2 query: people influencing Crispin Wright and their interests.

    Variable/vertex order matches the paper's serialization vectors:
    v1 = ?p2, v2 = ?t, v3 = ?p1, v4 = ?l, v5 = "Crispin Wright"@en.
    """
    text = """
        PREFIX ex: <http://example.org/>
        SELECT ?p2 ?l WHERE {
            ?p2 ex:mainInterest ?t .
            ?p1 ex:influencedBy ?p2 .
            ?t ex:label ?l .
            ?p1 ex:name "Crispin Wright"@en .
        }
    """
    return parse_query(text)
