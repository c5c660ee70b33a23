"""Query language for the dataset catalog.

"The dataset catalog service ... allows us either to browse for an
interesting dataset, or to search for interesting data using a query
language that operates on the metadata" (§3.3).  The language is a small
boolean expression grammar over metadata key/value pairs::

    experiment == "ilc" and energy >= 500 and name like "higgs*"
    (year > 2005 or detector == "sid") and not tag == "bad"

Grammar (recursive descent)::

    expr       := and_expr ('or' and_expr)*
    and_expr   := not_expr ('and' not_expr)*
    not_expr   := 'not' not_expr | primary
    primary    := '(' expr ')' | comparison
    comparison := IDENT OP literal
    OP         := '==' '!=' '<' '<=' '>' '>=' 'like'
    literal    := NUMBER | STRING

Comparisons against a missing key are false (and their negation true).
``like`` performs case-insensitive glob matching.
"""

from __future__ import annotations

import fnmatch
import re
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Union


class QueryError(Exception):
    """Raised on malformed query strings."""


_TOKEN_RE = re.compile(
    r"""
    \s*(?:
        (?P<lparen>\()
      | (?P<rparen>\))
      | (?P<op><=|>=|==|!=|<|>)
      | (?P<string>"[^"]*"|'[^']*')
      | (?P<number>-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
      | (?P<word>[A-Za-z_][A-Za-z0-9_.]*)
    )
    """,
    re.VERBOSE,
)

_KEYWORDS = {"and", "or", "not", "like"}


@dataclass(frozen=True)
class _Token:
    kind: str
    value: str


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None or match.end() == position:
            remainder = text[position:].strip()
            if not remainder:
                break
            raise QueryError(f"cannot tokenize at: {remainder[:20]!r}")
        position = match.end()
        kind = match.lastgroup
        value = match.group(kind)
        if kind == "word" and value.lower() in _KEYWORDS:
            tokens.append(_Token(value.lower(), value.lower()))
        else:
            tokens.append(_Token(kind, value))
    return tokens


# -- AST -----------------------------------------------------------------

@dataclass(frozen=True)
class Comparison:
    """``key op literal`` leaf node."""

    key: str
    op: str
    literal: Union[float, str]

    def evaluate(self, metadata: Dict[str, Any]) -> bool:
        """Evaluate against a metadata dict; missing keys compare false."""
        if self.key not in metadata:
            return False
        value = metadata[self.key]
        literal = self.literal
        if self.op == "like":
            return fnmatch.fnmatch(str(value).lower(), str(literal).lower())
        if isinstance(literal, float):
            try:
                value = float(value)
            except (TypeError, ValueError):
                return False
        else:
            value = str(value)
        if self.op == "==":
            return value == literal
        if self.op == "!=":
            return value != literal
        if self.op == "<":
            return value < literal
        if self.op == "<=":
            return value <= literal
        if self.op == ">":
            return value > literal
        if self.op == ">=":
            return value >= literal
        raise QueryError(f"unknown operator {self.op!r}")  # pragma: no cover


@dataclass(frozen=True)
class Not:
    """Logical negation node."""

    child: Any

    def evaluate(self, metadata: Dict[str, Any]) -> bool:
        """Negate the child."""
        return not self.child.evaluate(metadata)


@dataclass(frozen=True)
class BoolOp:
    """``and`` / ``or`` over two or more children."""

    op: str
    children: tuple

    def evaluate(self, metadata: Dict[str, Any]) -> bool:
        """Short-circuit evaluation."""
        if self.op == "and":
            return all(c.evaluate(metadata) for c in self.children)
        return any(c.evaluate(metadata) for c in self.children)


class _Parser:
    def __init__(self, tokens: List[_Token]) -> None:
        self._tokens = tokens
        self._index = 0

    def _peek(self) -> Optional[_Token]:
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            raise QueryError("unexpected end of query")
        self._index += 1
        return token

    def _expect(self, kind: str) -> _Token:
        token = self._next()
        if token.kind != kind:
            raise QueryError(f"expected {kind}, got {token.value!r}")
        return token

    def parse(self):
        expr = self._or_expr()
        if self._peek() is not None:
            raise QueryError(f"trailing input at {self._peek().value!r}")
        return expr

    def _or_expr(self):
        children = [self._and_expr()]
        while self._peek() is not None and self._peek().kind == "or":
            self._next()
            children.append(self._and_expr())
        return children[0] if len(children) == 1 else BoolOp("or", tuple(children))

    def _and_expr(self):
        children = [self._not_expr()]
        while self._peek() is not None and self._peek().kind == "and":
            self._next()
            children.append(self._not_expr())
        return children[0] if len(children) == 1 else BoolOp("and", tuple(children))

    def _not_expr(self):
        if self._peek() is not None and self._peek().kind == "not":
            self._next()
            return Not(self._not_expr())
        return self._primary()

    def _primary(self):
        token = self._peek()
        if token is None:
            raise QueryError("unexpected end of query")
        if token.kind == "lparen":
            self._next()
            expr = self._or_expr()
            self._expect("rparen")
            return expr
        return self._comparison()

    def _comparison(self) -> Comparison:
        key_token = self._expect("word")
        op_token = self._next()
        if op_token.kind == "like":
            op = "like"
        elif op_token.kind == "op":
            op = op_token.value
        else:
            raise QueryError(f"expected operator after {key_token.value!r}")
        literal_token = self._next()
        if literal_token.kind == "number":
            literal: Union[float, str] = float(literal_token.value)
        elif literal_token.kind == "string":
            literal = literal_token.value[1:-1]
        elif literal_token.kind == "word":
            # Bare words allowed as string literals for convenience.
            literal = literal_token.value
        else:
            raise QueryError(f"expected literal, got {literal_token.value!r}")
        if op == "like" and not isinstance(literal, str):
            raise QueryError("'like' requires a string pattern")
        return Comparison(key_token.value, op, literal)


def parse_query(text: str):
    """Parse a query string into an evaluable AST.

    Raises :class:`QueryError` on malformed input (including empty
    queries).
    """
    tokens = _tokenize(text)
    if not tokens:
        raise QueryError("empty query")
    return _Parser(tokens).parse()


def evaluate_query(text: str, metadata: Dict[str, Any]) -> bool:
    """Convenience: parse and evaluate *text* against *metadata*."""
    return parse_query(text).evaluate(metadata)
