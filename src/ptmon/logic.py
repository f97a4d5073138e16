"""Past-time STL formula language: AST, concrete syntax, structural queries.

Formulas are built from named predicates, conjunction, disjunction, and the
two past-time window operators ``G[a,b]`` (the value held throughout the last
``a``..``b`` steps) and ``F[a,b]`` (it held at least once in that window).
The concrete syntax, with whitespace insignificant:

    formula := or
    or      := and ("|" and)*
    and     := unary ("&" unary)*
    unary   := "G[" int "," int "]" unary
             | "F[" int "," int "]" unary
             | "(" formula ")"
             | IDENT
    IDENT   := [A-Za-z_][A-Za-z0-9_]*

``&`` binds tighter than ``|``; the window operators bind tighter than both,
so ``G[0,2] a & b`` means ``(G[0,2] a) & b``.

The language is restricted to positive normal form: there is no negation
operator. A negated measurement must be supplied as its own predicate (the
predicate for ``-h`` instead of ``not (h >= 0)``), which keeps every operator
monotone in the predicate values.

All node types are immutable; structural equality and hashing come from the
dataclass machinery, so formulas can key dictionaries and sets directly. A
formula node computes its hash, its :func:`format_formula` text and its
:func:`horizon` once, keeps them, and leaves them out of its pickled state
(a string's hash differs between interpreter runs).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from typing import NamedTuple, Sequence, Union


@dataclass(frozen=True)
class TimeInterval:
    """Discrete lag window ``[a, b]``, measured backwards in whole steps."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if not (isinstance(self.a, int) and isinstance(self.b, int)):
            raise ValueError(f"interval bounds must be integers, got [{self.a},{self.b}]")
        if self.a < 0 or self.b < 0:
            raise ValueError(f"interval bounds must be nonnegative, got [{self.a},{self.b}]")
        if self.a > self.b:
            raise ValueError(f"interval bounds reversed: [{self.a},{self.b}]")

    def __str__(self) -> str:
        return f"[{self.a},{self.b}]"


def _structural_hash(node) -> int:
    """The hash a frozen dataclass gives ``node``: that of its field tuple."""
    return hash(tuple(getattr(node, f.name) for f in fields(node)))


def _cached_hash(node) -> int:
    h = node.__dict__.get("_hash")
    if h is None:
        h = node.__dict__["_hash"] = _structural_hash(node)
    return h


def _fields_only(node) -> dict:
    # Leaves out what a node keeps beside its fields: ``_hash``, ``_text``
    # and ``_horizon``.
    return {k: v for k, v in node.__dict__.items() if not k.startswith("_")}


def _hash_once(cls):
    """Give a frozen dataclass its structural hash, computed once per node,
    and a pickled state of its fields alone.

    Looking a formula up in a dict would otherwise rehash its whole tree.
    """
    cls.__hash__ = _cached_hash
    cls.__getstate__ = _fields_only
    return cls


@_hash_once
@dataclass(frozen=True)
class Predicate:
    """A named atomic measurement; ``index`` is its row in the episode data."""

    name: str
    index: int


@_hash_once
@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@_hash_once
@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@_hash_once
@dataclass(frozen=True)
class Always:
    """Child held at every step of the backward window."""

    interval: TimeInterval
    child: "Formula"


@_hash_once
@dataclass(frozen=True)
class Eventually:
    """Child held at some step of the backward window."""

    interval: TimeInterval
    child: "Formula"


Formula = Union[Predicate, And, Or, Always, Eventually]


class FormulaSyntaxError(ValueError):
    """Parse failure, carrying 1-based ``line`` and ``column`` of the offence."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class UnknownPredicateError(FormulaSyntaxError):
    """An identifier that is not in the declared predicate suite."""


class NotInFragmentError(ValueError):
    """A formula falls outside the span of an atomic dictionary.

    ``offending`` is the maximal subtree that is neither a boolean combination
    nor syntactically equal to any dictionary atom.
    """

    def __init__(self, offending: Formula, message: str | None = None):
        super().__init__(message or f"subformula not in dictionary: {format_formula(offending)}")
        self.offending = offending


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

# One named group per token kind, tried in order; every character matches
# exactly one group, so the scan has no gaps. Whitespace is what
# ``str.isspace`` calls whitespace, and a newline starts a new line.
_TOKEN_RE = re.compile(
    r"(?P<newline>\n)|(?P<space>[^\S\n]+)|(?P<int>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<punct>[&|()\[\],])|(?P<negation>[!~¬])|(?P<other>.)"
)


class _Token(NamedTuple):
    kind: str  # "ident" | "int" | one of "&|()[]," | "end"
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind, ch, col = m.lastgroup, m.group(), m.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "negation":
            raise FormulaSyntaxError(
                f"negation ({ch!r}) is not part of the grammar: formulas are kept in "
                "positive normal form, so express a negated measurement as its own predicate",
                line,
                col,
            )
        elif kind == "other":
            raise FormulaSyntaxError(f"unexpected character {ch!r}", line, col)
        elif kind != "space":
            tokens.append(_Token(ch if kind == "punct" else kind, ch, line, col))
    tokens.append(_Token("end", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], name_to_index: dict[str, int]):
        self.tokens = tokens
        self.pos = 0
        self.names = name_to_index

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            shown = tok.text if tok.kind != "end" else "end of input"
            raise FormulaSyntaxError(f"expected {what}, found {shown!r}", tok.line, tok.column)
        return self.advance()

    def parse(self) -> Formula:
        f = self.or_level()
        tok = self.peek()
        if tok.kind != "end":
            raise FormulaSyntaxError(f"unexpected token {tok.text!r}", tok.line, tok.column)
        return f

    def or_level(self) -> Formula:
        f = self.and_level()
        while self.peek().kind == "|":
            self.advance()
            f = Or(f, self.and_level())
        return f

    def and_level(self) -> Formula:
        f = self.unary()
        while self.peek().kind == "&":
            self.advance()
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "(":
            self.advance()
            f = self.or_level()
            self.expect(")", "')'")
            return f
        if tok.kind == "ident":
            # G / F immediately followed by '[' are window operators;
            # otherwise any identifier (G and F included) is a predicate name.
            if tok.text in ("G", "F") and self.tokens[self.pos + 1].kind == "[":
                self.advance()
                interval = self.interval()
                child = self.unary()
                return Always(interval, child) if tok.text == "G" else Eventually(interval, child)
            self.advance()
            idx = self.names.get(tok.text)
            if idx is None:
                raise UnknownPredicateError(
                    f"unknown predicate {tok.text!r} (declared: {sorted(self.names)})",
                    tok.line,
                    tok.column,
                )
            return Predicate(tok.text, idx)
        shown = tok.text if tok.kind != "end" else "end of input"
        raise FormulaSyntaxError(f"expected a subformula, found {shown!r}", tok.line, tok.column)

    def interval(self) -> TimeInterval:
        open_tok = self.expect("[", "'['")
        a = int(self.expect("int", "an integer bound").text)
        self.expect(",", "','")
        b = int(self.expect("int", "an integer bound").text)
        self.expect("]", "']'")
        try:
            return TimeInterval(a, b)
        except ValueError as exc:
            raise FormulaSyntaxError(str(exc), open_tok.line, open_tok.column) from None


def parse_formula(text: str, predicate_names: Sequence[str]) -> Formula:
    """Parse concrete syntax into a formula, resolving predicate names.

    ``predicate_names`` fixes the order of predicates: the identifier at
    position ``k`` resolves to ``Predicate(name, k)``. Raises
    :class:`FormulaSyntaxError` (with line/column) on malformed input,
    reversed interval bounds, or any negation token, and
    :class:`UnknownPredicateError` for identifiers outside the suite.
    """
    name_to_index = {name: k for k, name in enumerate(predicate_names)}
    if len(name_to_index) != len(predicate_names):
        raise ValueError("predicate names must be unique")
    tokens = _tokenize(text)
    if tokens[0].kind == "end":
        raise FormulaSyntaxError("empty formula", tokens[0].line, tokens[0].column)
    return _Parser(tokens, name_to_index).parse()


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

_OR_LEVEL, _AND_LEVEL, _UNARY_LEVEL = 1, 2, 3


def _fmt(f: Formula, min_level: int) -> str:
    if isinstance(f, Predicate):
        return f.name
    if isinstance(f, Or):
        s = f"{_fmt(f.left, _OR_LEVEL)} | {_fmt(f.right, _AND_LEVEL)}"
        level = _OR_LEVEL
    elif isinstance(f, And):
        s = f"{_fmt(f.left, _AND_LEVEL)} & {_fmt(f.right, _UNARY_LEVEL)}"
        level = _AND_LEVEL
    elif isinstance(f, Always):
        s = f"G{f.interval} {_fmt(f.child, _UNARY_LEVEL)}"
        level = _UNARY_LEVEL
    else:
        s = f"F{f.interval} {_fmt(f.child, _UNARY_LEVEL)}"
        level = _UNARY_LEVEL
    return f"({s})" if level < min_level else s


def format_formula(f: Formula) -> str:
    """Render a formula so that reparsing reproduces it node for node.

    The text is computed once per formula object and kept on it.
    """
    text = f.__dict__.get("_text")
    if text is None:
        text = f.__dict__["_text"] = _fmt(f, _OR_LEVEL)
    return text


# ---------------------------------------------------------------------------
# Structural queries
# ---------------------------------------------------------------------------


def horizon(f: Formula) -> int:
    """Largest backward lag the formula can read at evaluation time,
    computed once per node object and kept on it."""
    h = f.__dict__.get("_horizon")
    if h is None:
        if isinstance(f, Predicate):
            h = 0
        elif isinstance(f, (And, Or)):
            h = max(horizon(f.left), horizon(f.right))
        else:
            h = f.interval.b + horizon(f.child)
        f.__dict__["_horizon"] = h
    return h
