"""Tokenizer for the SPARQL BGP subset supported by this reproduction.

The parser only needs SELECT queries whose WHERE clause is a basic graph
pattern (the paper restricts itself to BGP queries), so the token set is
small: keywords, IRIs, prefixed names, variables, literals and punctuation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto
from typing import Iterator, List


class TokenType(Enum):
    """Lexical classes produced by :func:`tokenize`."""

    KEYWORD = auto()
    IRI = auto()
    PREFIXED_NAME = auto()
    VARIABLE = auto()
    LITERAL = auto()
    A = auto()  # the `a` shorthand for rdf:type
    DOT = auto()
    SEMICOLON = auto()
    COMMA = auto()
    LBRACE = auto()
    RBRACE = auto()
    STAR = auto()
    EOF = auto()


#: Keywords recognised case-insensitively.
KEYWORDS = {"select", "distinct", "where", "prefix", "base", "ask", "limit", "offset"}


@dataclass(frozen=True, slots=True)
class Token:
    """A single token with its position for error reporting."""

    type: TokenType
    value: str
    position: int

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Token({self.type.name}, {self.value!r})"


class SparqlSyntaxError(ValueError):
    """Raised by the tokenizer or parser on malformed query text."""

    def __init__(self, message: str, position: int = -1) -> None:
        suffix = f" at offset {position}" if position >= 0 else ""
        super().__init__(f"{message}{suffix}")
        self.position = position


_PUNCTUATION = {
    ".": TokenType.DOT,
    ";": TokenType.SEMICOLON,
    ",": TokenType.COMMA,
    "{": TokenType.LBRACE,
    "}": TokenType.RBRACE,
    "*": TokenType.STAR,
}

#: Characters of a prefixed name besides its ``:``.
NAME_CHARS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-.")


def tokenize(text: str) -> List[Token]:
    """Tokenize ``text`` into a list ending with an EOF token."""
    return list(_token_stream(text))


def _token_stream(text: str) -> Iterator[Token]:
    i = 0
    length = len(text)
    while i < length:
        char = text[i]
        if char in " \t\r\n":
            i += 1
            continue
        if char == "#":
            while i < length and text[i] != "\n":
                i += 1
            continue
        if char in _PUNCTUATION:
            yield Token(_PUNCTUATION[char], char, i)
            i += 1
            continue
        if char == "<":
            end = text.find(">", i)
            if end < 0:
                raise SparqlSyntaxError("unterminated IRI", i)
            yield Token(TokenType.IRI, text[i + 1 : end], i)
            i = end + 1
            continue
        if char in "?$":
            start = i + 1
            i = start
            while i < length and (text[i].isalnum() or text[i] == "_"):
                i += 1
            if i == start:
                raise SparqlSyntaxError("empty variable name", start)
            yield Token(TokenType.VARIABLE, text[start:i], start)
            continue
        if char in "\"'":
            token, i = _read_literal(text, i)
            yield token
            continue
        if char.isdigit() or (char == "-" and i + 1 < length and text[i + 1].isdigit()):
            start = i
            i += 1
            while i < length and (text[i].isdigit() or text[i] == "."):
                i += 1
            yield Token(TokenType.LITERAL, text[start:i], start)
            continue
        if char.isalpha() or char == "_" or char == ":":
            token, i = _read_word(text, i)
            yield token
            continue
        raise SparqlSyntaxError(f"unexpected character {char!r}", i)
    yield Token(TokenType.EOF, "", length)


def _read_literal(text: str, start: int) -> tuple[Token, int]:
    quote = text[start]
    i = start + 1
    value_chars: List[str] = []
    while i < len(text):
        char = text[i]
        if char == "\\" and i + 1 < len(text):
            value_chars.append(text[i : i + 2])
            i += 2
            continue
        if char == quote:
            break
        value_chars.append(char)
        i += 1
    else:
        raise SparqlSyntaxError("unterminated literal", start)
    i += 1  # closing quote
    suffix = ""
    if i < len(text) and text[i] == "@":
        j = i + 1
        while j < len(text) and (text[j].isalnum() or text[j] == "-"):
            j += 1
        suffix = text[i:j]
        i = j
    elif text.startswith("^^", i):
        j = i + 2
        if j < len(text) and text[j] == "<":
            end = text.find(">", j)
            if end < 0:
                raise SparqlSyntaxError("unterminated datatype IRI", j)
            suffix = text[i : end + 1]
            i = end + 1
        else:
            while j < len(text) and (text[j] in NAME_CHARS or text[j] == ":"):
                j += 1
            suffix = text[i:j]
            i = j
    raw = quote + "".join(value_chars) + quote + suffix
    return Token(TokenType.LITERAL, raw, start), i


def _read_word(text: str, start: int) -> tuple[Token, int]:
    i = start
    while i < len(text) and (text[i] in NAME_CHARS or text[i] == ":"):
        i += 1
    word = text[start:i]
    lowered = word.lower()
    if word == "a":
        return Token(TokenType.A, word, start), i
    if lowered in KEYWORDS:
        return Token(TokenType.KEYWORD, lowered, start), i
    if ":" in word:
        return Token(TokenType.PREFIXED_NAME, word, start), i
    raise SparqlSyntaxError(f"unrecognised token {word!r}", start)
