"""RDF term model.

The resource description framework (RDF) represents data as triples of
``(subject, predicate, object)``.  Subjects, predicates and objects are RDF
*terms*: IRIs, literals or blank nodes.  SPARQL additionally introduces query
*variables*, which this module also models so that the same term classes can
be used on both the data and the query side.

The classes here are deliberately small, immutable and hashable: the whole
engine (triple store indexes, partial matches, LEC features) relies on using
terms as dictionary keys and set members.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union


class Term:
    """Base class of every RDF term.

    Terms are value objects: equality and hashing are defined purely by their
    textual content, never by identity.  Subclasses are frozen dataclasses
    that hash their text field alone: terms of different kinds with the
    same text share a hash but never compare equal.
    """

    __slots__ = ()

    def n3(self) -> str:
        """Return the N-Triples / SPARQL surface syntax of the term."""
        raise NotImplementedError

    @property
    def is_variable(self) -> bool:
        """``True`` for SPARQL variables, ``False`` for concrete RDF terms."""
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}({self.n3()})"


@dataclass(frozen=True, slots=True)
class IRI(Term):
    """An IRI reference, e.g. ``<http://example.org/person/Alice>``."""

    value: str

    def __hash__(self) -> int:
        return hash(self.value)

    def n3(self) -> str:
        return f"<{self.value}>"

    def __str__(self) -> str:
        return self.value

    @property
    def local_name(self) -> str:
        """The part of the IRI after the last ``#`` or ``/``."""
        for separator in ("#", "/"):
            if separator in self.value:
                return self.value.rsplit(separator, 1)[1]
        return self.value

    @property
    def namespace(self) -> str:
        """The IRI up to and including the last ``#`` or ``/``."""
        local = self.local_name
        if local == self.value:
            return ""
        return self.value[: len(self.value) - len(local)]


@dataclass(frozen=True, slots=True)
class Literal(Term):
    """An RDF literal with optional language tag or datatype IRI.

    A literal has at most one of ``language`` and ``datatype``; plain literals
    have neither.
    """

    lexical: str
    language: Optional[str] = None
    datatype: Optional[IRI] = None

    def __post_init__(self) -> None:
        if self.language == "":  # no tag: plain, as the N3 text (a cross-site key) says
            object.__setattr__(self, "language", None)
        if self.language is not None and self.datatype is not None:
            raise ValueError("a literal cannot have both a language tag and a datatype")

    def __hash__(self) -> int:
        return hash(self.lexical)

    def n3(self) -> str:
        escaped = escape_literal(self.lexical)
        if self.language:
            return f'"{escaped}"@{self.language}'
        if self.datatype:
            return f'"{escaped}"^^{self.datatype.n3()}'
        return f'"{escaped}"'

    def __str__(self) -> str:
        return self.lexical


@dataclass(frozen=True, slots=True)
class BlankNode(Term):
    """A blank node, identified by a local label, e.g. ``_:b42``."""

    label: str

    def __hash__(self) -> int:
        return hash(self.label)

    def n3(self) -> str:
        return f"_:{self.label}"

    def __str__(self) -> str:
        return f"_:{self.label}"


@dataclass(frozen=True, slots=True)
class Variable(Term):
    """A SPARQL variable, e.g. ``?person``.

    Variables only appear in query graphs, never in RDF data graphs.
    """

    name: str

    def __hash__(self) -> int:
        return hash(self.name)

    def n3(self) -> str:
        return f"?{self.name}"

    def __str__(self) -> str:
        return f"?{self.name}"

    @property
    def is_variable(self) -> bool:
        return True


#: Terms allowed in the subject/object position of a data triple.
Node = Union[IRI, Literal, BlankNode]
#: Terms allowed anywhere in a triple pattern.
PatternTerm = Union[IRI, Literal, BlankNode, Variable]

_ESCAPES = {
    "\\": "\\\\",
    '"': '\\"',
    "\n": "\\n",
    "\r": "\\r",
    "\t": "\\t",
}
_ESCAPE_TABLE = str.maketrans(_ESCAPES)

_UNESCAPES = {
    "\\\\": "\\",
    '\\"': '"',
    "\\n": "\n",
    "\\r": "\r",
    "\\t": "\t",
}


def escape_literal(text: str) -> str:
    """Escape a literal's lexical form for N-Triples output."""
    return text.translate(_ESCAPE_TABLE)


def unescape_literal(text: str) -> str:
    """Reverse :func:`escape_literal` on N-Triples input."""
    out = []
    i = 0
    while i < len(text):
        if text[i] == "\\" and i + 1 < len(text):
            pair = text[i : i + 2]
            if pair in _UNESCAPES:
                out.append(_UNESCAPES[pair])
                i += 2
                continue
        out.append(text[i])
        i += 1
    return "".join(out)


def is_concrete(term: Term) -> bool:
    """Return ``True`` when ``term`` is a concrete RDF term (not a variable)."""
    return not term.is_variable
