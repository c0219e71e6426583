"""Fuzzing the SPARQL parser: malformed text fails with a typed, located error.

Whatever text reaches :func:`parse_query` — arbitrary strings, or the
workload queries with tokens deleted, duplicated, swapped or replaced — the
parser either returns a query or raises :class:`SparqlSyntaxError` with the
offset it gave up at.  No other exception may escape.  The deep settings
run under the ``slow`` marker.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets import DATASETS, get_dataset
from repro.sparql import SparqlSyntaxError, format_query, parse_query
from repro.sparql.tokenizer import TokenType, tokenize

#: Every workload query of every registered dataset, as SPARQL text.
WORKLOAD_TEXTS = [
    format_query(query)
    for name in sorted(DATASETS)
    for query in get_dataset(name).queries().values()
]

#: Fragments worth splicing in: every punctuation, keyword and term shape the
#: grammar knows, plus the malformed suffixes and numbers it must reject.
FRAGMENTS = [
    "{", "}", ".", ";", ",", "*", "a", "SELECT", "ASK", "WHERE", "DISTINCT",
    "PREFIX", "LIMIT", "OFFSET", "BASE", "?x", "$y", "?", "<http://x/p>", "<",
    ">", "ex:p", ":", "x:", "-1", "1.5", "0", '"a"', '"a"@', '"a"@en', '"a"@-',
    '"a"^^', '"a"^^x', '"a"^^<', '"a"^^<http://x/t>', "'b'", '"', "#", "\\",
]

texts = st.text(
    alphabet=st.sampled_from(list("{}.;,*?$<>:\"'@^#-_ \n\tAaSELCTWHRIMPFXQN0123456789xyz")),
    max_size=80,
) | st.text(max_size=80)


def parses_or_fails_with_a_located_syntax_error(text: str) -> None:
    try:
        parse_query(text)
    except SparqlSyntaxError as error:
        assert 0 <= error.position <= len(text), (text, error)


@st.composite
def mutated_workload_queries(draw) -> str:
    """A workload query with one to three token-level edits."""
    text = draw(st.sampled_from(WORKLOAD_TEXTS))
    tokens = [token for token in tokenize(text) if token.type is not TokenType.EOF]
    spans = []
    for token, following in zip(tokens, tokens[1:] + [None]):
        end = following.position if following is not None else len(text)
        spans.append(text[token.position:end].rstrip())
    pieces = list(spans)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        position = draw(st.integers(min_value=0, max_value=len(pieces) - 1))
        edit = draw(st.sampled_from(["delete", "duplicate", "swap", "replace", "insert"]))
        if edit == "delete":
            del pieces[position]
        elif edit == "duplicate":
            pieces.insert(position, pieces[position])
        elif edit == "swap":
            other = draw(st.integers(min_value=0, max_value=len(pieces) - 1))
            pieces[position], pieces[other] = pieces[other], pieces[position]
        elif edit == "replace":
            pieces[position] = draw(st.sampled_from(FRAGMENTS + spans))
        else:
            pieces.insert(position, draw(st.sampled_from(FRAGMENTS)))
        if not pieces:
            break
    glue = draw(st.sampled_from([" ", "", "\n"]))
    return glue.join(pieces)


def test_every_workload_query_parses_back_from_its_text():
    assert len(WORKLOAD_TEXTS) >= 18
    for text in WORKLOAD_TEXTS:
        assert format_query(parse_query(text)) == text


@given(texts)
@settings(max_examples=300, deadline=None)
def test_arbitrary_text_parses_or_raises_a_syntax_error(text):
    parses_or_fails_with_a_located_syntax_error(text)


@given(mutated_workload_queries())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_mutated_workload_queries_parse_or_raise_a_syntax_error(text):
    parses_or_fails_with_a_located_syntax_error(text)


@pytest.mark.slow
@given(texts | mutated_workload_queries())
@settings(max_examples=20_000, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_deep_parser_fuzz(text):
    parses_or_fails_with_a_located_syntax_error(text)
