"""Recursive-descent parser for the SPARQL BGP subset.

Grammar (informal)::

    query      := prologue (select | ask)
    prologue   := (PREFIX pname: <iri>)*
    select     := SELECT [DISTINCT] (var+ | *) WHERE? group [LIMIT n]
    ask        := ASK group
    group      := '{' triples '}'
    triples    := triple ( '.' triple )* '.'?
    triple     := term verb object (';' verb object)* (',' object)*

which covers every benchmark query used in the paper's evaluation
(BGP-only, no FILTER/OPTIONAL/UNION).
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from ..rdf.namespaces import NamespaceManager, RDF_TYPE
from ..rdf.terms import IRI, Literal, PatternTerm, Variable
from ..rdf.triples import TriplePattern
from .algebra import BasicGraphPattern, SelectQuery
from .tokenizer import NAME_CHARS, SparqlSyntaxError, Token, TokenType, tokenize

#: A language tag after ``@`` (BCP 47 shape, as the SPARQL grammar's LANGTAG).
_LANGUAGE_TAG = re.compile(r"[A-Za-z]+(-[A-Za-z0-9]+)*")


def parse_query(text: str, namespaces: Optional[NamespaceManager] = None) -> SelectQuery:
    """Parse ``text`` into a :class:`SelectQuery`.

    Parameters
    ----------
    text:
        The SPARQL query string.
    namespaces:
        Optional namespace manager providing pre-declared prefixes (query
        PREFIX declarations are added on top of it).
    """
    return _Parser(text, namespaces).parse()


class _Parser:
    def __init__(self, text: str, namespaces: Optional[NamespaceManager]) -> None:
        self._tokens = tokenize(text)
        self._index = 0
        self._namespaces = NamespaceManager()
        if namespaces is not None:
            for prefix, base in namespaces:
                self._namespaces.bind(prefix, base)
        self._declared: dict[str, str] = {}

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------
    def _peek(self) -> Token:
        return self._tokens[self._index]

    def _advance(self) -> Token:
        token = self._tokens[self._index]
        self._index += 1
        return token

    def _expect(self, token_type: TokenType, value: Optional[str] = None) -> Token:
        token = self._peek()
        if token.type is not token_type or (value is not None and token.value != value):
            expected = value or token_type.name
            raise SparqlSyntaxError(f"expected {expected}, found {token.value!r}", token.position)
        return self._advance()

    def _accept_keyword(self, keyword: str) -> bool:
        token = self._peek()
        if token.type is TokenType.KEYWORD and token.value == keyword:
            self._advance()
            return True
        return False

    # ------------------------------------------------------------------
    # Grammar
    # ------------------------------------------------------------------
    def parse(self) -> SelectQuery:
        self._parse_prologue()
        token = self._peek()
        if token.type is not TokenType.KEYWORD:
            raise SparqlSyntaxError("expected SELECT or ASK", token.position)
        if token.value == "select":
            query = self._parse_select()
        elif token.value == "ask":
            query = self._parse_ask()
        else:
            raise SparqlSyntaxError(f"unsupported query form {token.value!r}", token.position)
        self._expect(TokenType.EOF)
        return query

    def _parse_prologue(self) -> None:
        while self._accept_keyword("prefix"):
            name_token = self._expect(TokenType.PREFIXED_NAME)
            prefix = name_token.value.rstrip(":")
            if name_token.value.count(":") != 1 or not name_token.value.endswith(":"):
                raise SparqlSyntaxError("malformed PREFIX declaration", name_token.position)
            iri_token = self._expect(TokenType.IRI)
            self._namespaces.bind(prefix, iri_token.value)
            self._declared[prefix] = iri_token.value

    def _parse_select(self) -> SelectQuery:
        self._expect(TokenType.KEYWORD, "select")
        distinct = self._accept_keyword("distinct")
        projection: List[Variable] = []
        if self._peek().type is TokenType.STAR:
            self._advance()
        else:
            while self._peek().type is TokenType.VARIABLE:
                projection.append(Variable(self._advance().value))
            if not projection:
                raise SparqlSyntaxError("SELECT needs variables or *", self._peek().position)
        self._accept_keyword("where")
        patterns = self._parse_group()
        limit = self._parse_limit()
        return SelectQuery(
            bgp=BasicGraphPattern(patterns),
            projection=tuple(projection),
            distinct=distinct,
            limit=limit,
            prefixes=dict(self._declared),
        )

    def _parse_ask(self) -> SelectQuery:
        self._expect(TokenType.KEYWORD, "ask")
        patterns = self._parse_group()
        return SelectQuery(
            bgp=BasicGraphPattern(patterns),
            projection=(),
            is_ask=True,
            prefixes=dict(self._declared),
        )

    def _parse_limit(self) -> Optional[int]:
        if not self._accept_keyword("limit"):
            return None
        token = self._expect(TokenType.LITERAL)
        if not (token.value.isascii() and token.value.isdigit()):
            raise SparqlSyntaxError("LIMIT expects a non-negative integer", token.position)
        return int(token.value)

    def _parse_group(self) -> List[TriplePattern]:
        self._expect(TokenType.LBRACE)
        patterns: List[TriplePattern] = []
        while self._peek().type is not TokenType.RBRACE:
            patterns.extend(self._parse_triples_same_subject())
            if self._peek().type is TokenType.DOT:
                self._advance()
        self._expect(TokenType.RBRACE)
        if not patterns:
            raise SparqlSyntaxError("empty basic graph pattern", self._peek().position)
        return patterns

    def _parse_triples_same_subject(self) -> List[TriplePattern]:
        subject = self._parse_term()
        patterns: List[TriplePattern] = []
        while True:
            predicate = self._parse_verb()
            while True:
                obj = self._parse_term()
                patterns.append(TriplePattern(subject, predicate, obj))
                if self._peek().type is TokenType.COMMA:
                    self._advance()
                    continue
                break
            if self._peek().type is TokenType.SEMICOLON:
                self._advance()
                # Allow a dangling ';' before '.' or '}' as SPARQL does.
                if self._peek().type in (TokenType.DOT, TokenType.RBRACE):
                    break
                continue
            break
        return patterns

    def _parse_verb(self) -> PatternTerm:
        token = self._peek()
        if token.type is TokenType.A:
            self._advance()
            return RDF_TYPE
        return self._parse_term(allow_literal=False)

    def _parse_term(self, allow_literal: bool = True) -> PatternTerm:
        token = self._advance()
        if token.type is TokenType.IRI:
            return IRI(token.value)
        if token.type is TokenType.PREFIXED_NAME:
            return self._resolve(token.value, token)
        if token.type is TokenType.VARIABLE:
            return Variable(token.value)
        if token.type is TokenType.LITERAL and allow_literal:
            return self._parse_literal_token(token)
        raise SparqlSyntaxError(f"unexpected token {token.value!r}", token.position)

    def _parse_literal_token(self, token: Token) -> Literal:
        raw = token.value
        if raw and raw[0] not in "\"'":
            # Numeric literal.
            return Literal(raw)
        quote = raw[0]
        closing = raw.rfind(quote)
        lexical = raw[1:closing].replace('\\"', '"').replace("\\'", "'")
        suffix = raw[closing + 1 :]
        if suffix.startswith("@"):
            if not _LANGUAGE_TAG.fullmatch(suffix[1:]):
                raise SparqlSyntaxError(f"malformed language tag {suffix!r}", token.position)
            return Literal(lexical, language=suffix[1:])
        if suffix.startswith("^^<") and suffix.endswith(">"):
            return Literal(lexical, datatype=IRI(suffix[3:-1]))
        if suffix.startswith("^^"):
            return Literal(lexical, datatype=self._resolve(suffix[2:], token))
        return Literal(lexical)

    def _resolve(self, prefixed_name: str, token: Token) -> IRI:
        """Expand a prefixed name, reporting a bad one at ``token``'s offset."""
        try:
            return self._namespaces.resolve(prefixed_name)
        except (KeyError, ValueError) as exc:
            raise SparqlSyntaxError(str(exc), token.position) from exc


def parse_bgp(text: str, namespaces: Optional[NamespaceManager] = None) -> BasicGraphPattern:
    """Parse only a group graph pattern (``{ ... }`` or bare triples)."""
    stripped = text.strip()
    if not stripped.startswith("{"):
        stripped = "{" + stripped + "}"
    query = parse_query(f"SELECT * WHERE {stripped}", namespaces)
    return query.bgp


def format_query(query: SelectQuery, namespaces: Optional[NamespaceManager] = None) -> str:
    """Pretty-print a query back to SPARQL text (used by examples and logs)."""
    manager = namespaces or NamespaceManager.with_defaults()
    for prefix, base in query.prefixes.items():
        manager.bind(prefix, base)
    lines: List[str] = []
    for prefix, base in sorted(query.prefixes.items()):
        lines.append(f"PREFIX {prefix}: <{base}>")
    head: Tuple[str, ...]
    if query.is_ask:
        lines.append("ASK {")
    else:
        head = tuple(variable.n3() for variable in query.projection) or ("*",)
        distinct = "DISTINCT " if query.distinct else ""
        lines.append(f"SELECT {distinct}{' '.join(head)} WHERE {{")
    for pattern in query.bgp:
        parts = []
        for term in pattern:
            text = term.n3()
            if isinstance(term, IRI):
                shrunk = manager.shrink(term)
                # Keep the full IRI when the prefixed form would not read
                # back as one name (a local part with ``/`` or ``#``, say).
                if set(shrunk) <= NAME_CHARS | {":"}:
                    text = shrunk
            parts.append(text)
        lines.append("  " + " ".join(parts) + " .")
    lines.append("}")
    if query.limit is not None:
        lines.append(f"LIMIT {query.limit}")
    return "\n".join(lines)
