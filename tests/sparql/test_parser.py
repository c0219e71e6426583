"""Unit tests for the SPARQL BGP parser."""

import pytest

from repro.rdf import IRI, Literal, NamespaceManager, RDF_TYPE, Variable
from repro.sparql import SparqlSyntaxError, format_query, parse_bgp, parse_query


class TestSelectParsing:
    def test_simple_select(self):
        query = parse_query("SELECT ?x WHERE { ?x <http://example.org/p> ?y . }")
        assert query.projection == (Variable("x"),)
        assert len(query.bgp) == 1
        pattern = query.bgp[0]
        assert pattern.subject == Variable("x")
        assert pattern.predicate == IRI("http://example.org/p")
        assert pattern.object == Variable("y")

    def test_select_star(self):
        query = parse_query("SELECT * WHERE { ?x <http://example.org/p> ?y }")
        assert query.projection == ()
        assert query.effective_projection == (Variable("x"), Variable("y"))

    def test_select_distinct(self):
        query = parse_query("SELECT DISTINCT ?x WHERE { ?x <http://x/p> ?y }")
        assert query.distinct

    def test_where_keyword_is_optional(self):
        query = parse_query("SELECT ?x { ?x <http://x/p> ?y }")
        assert len(query.bgp) == 1

    def test_limit(self):
        query = parse_query("SELECT ?x WHERE { ?x <http://x/p> ?y } LIMIT 5")
        assert query.limit == 5

    def test_ask_query(self):
        query = parse_query("ASK { ?x <http://x/p> ?y }")
        assert query.is_ask

    def test_multiple_patterns_with_dots(self):
        query = parse_query(
            "SELECT ?x WHERE { ?x <http://x/p> ?y . ?y <http://x/q> ?z . }"
        )
        assert len(query.bgp) == 2

    def test_trailing_dot_is_optional(self):
        query = parse_query("SELECT ?x WHERE { ?x <http://x/p> ?y . ?y <http://x/q> ?z }")
        assert len(query.bgp) == 2


class TestPrefixesAndTerms:
    def test_prefix_declaration(self):
        query = parse_query(
            "PREFIX ex: <http://example.org/> SELECT ?x WHERE { ?x ex:p ?y }"
        )
        assert query.bgp[0].predicate == IRI("http://example.org/p")
        assert query.prefixes == {"ex": "http://example.org/"}

    def test_external_namespace_manager(self):
        manager = NamespaceManager({"ex": "http://example.org/"})
        query = parse_query("SELECT ?x WHERE { ?x ex:p ?y }", namespaces=manager)
        assert query.bgp[0].predicate == IRI("http://example.org/p")

    def test_unknown_prefix_raises(self):
        with pytest.raises(SparqlSyntaxError):
            parse_query("SELECT ?x WHERE { ?x nope:p ?y }")

    def test_a_expands_to_rdf_type(self):
        query = parse_query("SELECT ?x WHERE { ?x a <http://example.org/Person> }")
        assert query.bgp[0].predicate == RDF_TYPE

    def test_plain_literal_object(self):
        query = parse_query('SELECT ?x WHERE { ?x <http://x/name> "Alice" }')
        assert query.bgp[0].object == Literal("Alice")

    def test_language_literal_object(self):
        query = parse_query('SELECT ?x WHERE { ?x <http://x/name> "Alice"@en }')
        assert query.bgp[0].object == Literal("Alice", language="en")

    def test_typed_literal_object(self):
        query = parse_query(
            'PREFIX xsd: <http://www.w3.org/2001/XMLSchema#> '
            'SELECT ?x WHERE { ?x <http://x/age> "42"^^xsd:integer }'
        )
        assert query.bgp[0].object == Literal("42", datatype=IRI("http://www.w3.org/2001/XMLSchema#integer"))

    def test_variable_predicate(self):
        query = parse_query("SELECT ?x WHERE { ?x ?p ?y }")
        assert query.bgp[0].predicate == Variable("p")


class TestAbbreviations:
    def test_semicolon_shares_subject(self):
        query = parse_query(
            "SELECT ?x WHERE { ?x <http://x/p> ?y ; <http://x/q> ?z . }"
        )
        assert len(query.bgp) == 2
        assert query.bgp[0].subject == query.bgp[1].subject == Variable("x")

    def test_comma_shares_subject_and_predicate(self):
        query = parse_query("SELECT ?x WHERE { ?x <http://x/p> ?y , ?z . }")
        assert len(query.bgp) == 2
        assert query.bgp[0].predicate == query.bgp[1].predicate

    def test_dangling_semicolon_before_close(self):
        query = parse_query("SELECT ?x WHERE { ?x <http://x/p> ?y ; }")
        assert len(query.bgp) == 1


class TestErrors:
    def test_empty_group_raises(self):
        with pytest.raises(SparqlSyntaxError):
            parse_query("SELECT ?x WHERE { }")

    def test_select_without_variables_raises(self):
        with pytest.raises(SparqlSyntaxError):
            parse_query("SELECT WHERE { ?x <http://x/p> ?y }")

    def test_garbage_after_query_raises(self):
        with pytest.raises(SparqlSyntaxError):
            parse_query("SELECT ?x WHERE { ?x <http://x/p> ?y } garbage:x")

    def test_unsupported_query_form_raises(self):
        with pytest.raises(SparqlSyntaxError):
            parse_query("DESCRIBE ?x")

    @pytest.mark.parametrize("count", ["-1", "-3", "1.5", "2.", '"5"'])
    def test_limit_takes_a_non_negative_integer(self, count):
        text = f"SELECT ?x WHERE {{ ?x <http://x/p> ?y }} LIMIT {count}"
        with pytest.raises(SparqlSyntaxError, match="non-negative integer") as excinfo:
            parse_query(text)
        assert excinfo.value.position == text.index(count)

    def test_limit_zero_is_legal(self):
        assert parse_query("SELECT ?x WHERE { ?x <http://x/p> ?y } LIMIT 0").limit == 0

    @pytest.mark.parametrize(
        ("literal", "message"),
        [
            ('"a"^^', "not a prefixed name"),
            ('"a"^^integer', "not a prefixed name"),
            ('"a"^^nope:integer', "unknown prefix"),
            ('"a"@', "malformed language tag"),
            ('"a"@-en', "malformed language tag"),
            ('"a"@en-', "malformed language tag"),
        ],
    )
    def test_malformed_literal_suffixes_are_syntax_errors(self, literal, message):
        text = f"SELECT ?x WHERE {{ ?x <http://x/p> {literal} }}"
        with pytest.raises(SparqlSyntaxError, match=message) as excinfo:
            parse_query(text)
        assert excinfo.value.position == text.index(literal)

    def test_language_subtags_parse(self):
        query = parse_query('SELECT ?x WHERE { ?x <http://x/name> "Alice"@en-GB-1996 }')
        assert query.bgp[0].object == Literal("Alice", language="en-GB-1996")

    def test_formatted_iris_with_slashes_parse_back(self):
        text = "PREFIX u: <http://x/> SELECT ?x WHERE { ?x u:p <http://x/a/b> }"
        query = parse_query(text)
        assert parse_query(format_query(query)).bgp.patterns == query.bgp.patterns


class TestHelpers:
    def test_parse_bgp_accepts_bare_triples(self):
        bgp = parse_bgp("?x <http://x/p> ?y . ?y <http://x/q> ?z .")
        assert len(bgp) == 2

    def test_format_query_roundtrip(self):
        text = (
            "PREFIX ex: <http://example.org/> "
            'SELECT ?x WHERE { ?x ex:p ?y . ?y ex:name "Alice"@en . }'
        )
        query = parse_query(text)
        formatted = format_query(query)
        reparsed = parse_query(formatted)
        assert reparsed.bgp.patterns == query.bgp.patterns
        assert reparsed.projection == query.projection
