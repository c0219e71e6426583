"""Unit tests for the RDF term model."""

import pickle

import pytest

from repro.rdf import IRI, BlankNode, Literal, Variable, is_concrete
from repro.rdf.terms import escape_literal, unescape_literal


class TestIRI:
    def test_n3_wraps_in_angle_brackets(self):
        assert IRI("http://example.org/a").n3() == "<http://example.org/a>"

    def test_equality_is_by_value(self):
        assert IRI("http://example.org/a") == IRI("http://example.org/a")
        assert IRI("http://example.org/a") != IRI("http://example.org/b")

    def test_hashable_and_usable_in_sets(self):
        assert len({IRI("http://x/a"), IRI("http://x/a"), IRI("http://x/b")}) == 2

    def test_local_name_after_hash(self):
        assert IRI("http://example.org/onto#Person").local_name == "Person"

    def test_local_name_after_slash(self):
        assert IRI("http://example.org/people/alice").local_name == "alice"

    def test_namespace_complements_local_name(self):
        iri = IRI("http://example.org/onto#Person")
        assert iri.namespace + iri.local_name == iri.value

    def test_is_not_variable(self):
        assert not IRI("http://x/a").is_variable
        assert is_concrete(IRI("http://x/a"))


class TestLiteral:
    def test_plain_literal_n3(self):
        assert Literal("hello").n3() == '"hello"'

    def test_language_tagged_literal_n3(self):
        assert Literal("hello", language="en").n3() == '"hello"@en'

    def test_typed_literal_n3(self):
        xsd_int = IRI("http://www.w3.org/2001/XMLSchema#integer")
        assert Literal("42", datatype=xsd_int).n3() == '"42"^^<http://www.w3.org/2001/XMLSchema#integer>'

    def test_language_and_datatype_conflict(self):
        with pytest.raises(ValueError):
            Literal("x", language="en", datatype=IRI("http://x/dt"))

    def test_escaping_of_quotes_and_newlines(self):
        literal = Literal('say "hi"\nplease')
        assert '\\"' in literal.n3()
        assert "\\n" in literal.n3()

    def test_equality_considers_language(self):
        assert Literal("a", language="en") != Literal("a")
        assert Literal("a", language="en") == Literal("a", language="en")


class TestBlankNodeAndVariable:
    def test_blank_node_n3(self):
        assert BlankNode("b1").n3() == "_:b1"

    def test_variable_n3(self):
        assert Variable("person").n3() == "?person"

    def test_variable_is_variable(self):
        assert Variable("x").is_variable
        assert not is_concrete(Variable("x"))

    def test_variable_equality(self):
        assert Variable("x") == Variable("x")
        assert Variable("x") != Variable("y")


class TestEscaping:
    @pytest.mark.parametrize(
        "raw",
        ["plain", 'with "quotes"', "line\nbreak", "tab\tand\\backslash", ""],
    )
    def test_escape_roundtrip(self, raw):
        assert unescape_literal(escape_literal(raw)) == raw

    def test_escape_literal_maps_each_special_character(self):
        assert escape_literal('a\\b"c\nd\re\tf') == 'a\\\\b\\"c\\nd\\re\\tf'


XSD_INT = IRI("http://www.w3.org/2001/XMLSchema#integer")

#: One instance of every kind of term, plus literals of every shape.
TERMS = [
    IRI("http://x/a"),
    Literal("a"),
    Literal("a", language="en"),
    Literal("a", datatype=XSD_INT),
    Literal('say "hi"\n'),
    BlankNode("b1"),
    Variable("x"),
]


class TestValueObjects:
    """Terms are values: equality and hash follow the text, never identity."""

    @pytest.mark.parametrize("term", TERMS, ids=repr)
    def test_equal_terms_hash_equal(self, term):
        twin = type(term)(*[getattr(term, name) for name in term.__dataclass_fields__])
        assert twin is not term
        assert twin == term
        assert hash(twin) == hash(term)
        assert len({term, twin}) == 1

    def test_kinds_with_the_same_text_are_pairwise_unequal(self):
        same_text = [IRI("a"), Literal("a"), BlankNode("a"), Variable("a")]
        for left in same_text:
            for right in same_text:
                assert (left == right) == (left is right)
        assert len(set(same_text)) == 4
        assert len({term: None for term in same_text}) == 4

    def test_literals_differing_only_in_language_or_datatype_are_unequal(self):
        plain, tagged, other_tag = Literal("a"), Literal("a", language="en"), Literal("a", language="de")
        typed, other_type = Literal("a", datatype=XSD_INT), Literal("a", datatype=IRI("http://x/dt"))
        variants = [plain, tagged, other_tag, typed, other_type]
        assert len(set(variants)) == len(variants)
        for left in variants:
            for right in variants:
                assert (left == right) == (left is right)

    def test_empty_language_tag_is_plain(self):
        assert Literal("a", language="") == Literal("a")
        assert hash(Literal("a", language="")) == hash(Literal("a"))

    @pytest.mark.parametrize("term", TERMS, ids=repr)
    def test_pickle_round_trip_keeps_equality_and_hash(self, term):
        copy = pickle.loads(pickle.dumps(term))
        assert copy == term
        assert hash(copy) == hash(term)
        assert copy.n3() == term.n3()
