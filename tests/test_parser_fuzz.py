"""Fuzz test of both expression parsers: any short string over the grammars'
alphabet parses or raises ParseError, never another exception. The
alphabet holds `^`: the parser bounds the work of every product and power
(MAX_WORK), so no exponent can make the test hang."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from kgsym.parser import ParseError, parse_jet, parse_operator  # noqa: E402

ALPHABET = "0123456789 +-*/^()[]DxyJuf"


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet=ALPHABET, max_size=40))
def test_parsers_accept_or_raise_parse_error(text):
    for parse in (parse_operator, parse_jet):
        try:
            parse(text)
        except ParseError:
            pass
