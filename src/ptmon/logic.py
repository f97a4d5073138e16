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
dataclass machinery, so formulas can key dictionaries and sets directly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
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


@dataclass(frozen=True)
class Predicate:
    """A named atomic measurement; ``index`` is its row in the episode data."""

    name: str
    index: int


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Always:
    """Child held at every step of the backward window."""

    interval: TimeInterval
    child: "Formula"


@dataclass(frozen=True)
class Eventually:
    """Child held at some step of the backward window."""

    interval: TimeInterval
    child: "Formula"


Formula = Union[Predicate, And, Or, Always, Eventually]


class PredicateLag(NamedTuple):
    """A (predicate index, backward lag) coordinate of the history a formula reads."""

    pred: int
    lag: int


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

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT_RE = re.compile(r"\d+")
_NEGATION_CHARS = {"!", "~", "¬"}


@dataclass(frozen=True)
class _Token:
    kind: str  # "ident" | "int" | one of "&|()[]," | "end"
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in _NEGATION_CHARS:
            raise FormulaSyntaxError(
                f"negation ({ch!r}) is not part of the grammar: formulas are kept in "
                "positive normal form, so express a negated measurement as its own predicate",
                line,
                col,
            )
        if ch in "&|()[],":
            tokens.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        m = _INT_RE.match(text, i)
        if m:
            tokens.append(_Token("int", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            tokens.append(_Token("ident", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        raise FormulaSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", "", line, col))
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
    """Render a formula so that reparsing reproduces it node for node."""
    return _fmt(f, _OR_LEVEL)


# ---------------------------------------------------------------------------
# Structural queries
# ---------------------------------------------------------------------------


def horizon(f: Formula) -> int:
    """Largest backward lag the formula can read at evaluation time."""
    if isinstance(f, Predicate):
        return 0
    if isinstance(f, (And, Or)):
        return max(horizon(f.left), horizon(f.right))
    return f.interval.b + horizon(f.child)


def predicate_lag_support(f: Formula) -> set[PredicateLag]:
    """All (predicate, lag) history coordinates the formula reads.

    Window operators shift the lags of their child by every offset in the
    window; boolean nodes take the union of their children.
    """
    if isinstance(f, Predicate):
        return {PredicateLag(f.index, 0)}
    if isinstance(f, (And, Or)):
        return predicate_lag_support(f.left) | predicate_lag_support(f.right)
    child = predicate_lag_support(f.child)
    iv = f.interval
    return {
        PredicateLag(c.pred, c.lag + offset)
        for c in child
        for offset in range(iv.a, iv.b + 1)
    }


@dataclass(frozen=True)
class Decomposition:
    """How a formula splits into dictionary atoms under ``&`` / ``|``.

    ``op`` is ``"atom"`` (with ``index`` the dictionary position), ``"and"``,
    or ``"or"``; boolean nodes carry their two children.
    """

    op: str
    index: int | None = None
    children: tuple["Decomposition", ...] = ()


def check_membership(f: Formula, dictionary) -> Decomposition:
    """Decompose ``f`` over the atoms of ``dictionary`` or fail.

    Membership is syntactic: walking down from the root, every node must
    either equal a dictionary atom node-for-node (window bounds included) or
    be an ``&``/``|`` whose children decompose in turn. Semantically
    equivalent rewrites (e.g. a wider window that happens to coincide on some
    data) do not count. On failure raises :class:`NotInFragmentError`
    carrying the offending maximal subtree.
    """
    atom_index: dict[Formula, int] = {atom: q for q, atom in enumerate(dictionary.atoms)}

    def walk(node: Formula) -> Decomposition:
        q = atom_index.get(node)
        if q is not None:
            return Decomposition("atom", index=q)
        if isinstance(node, And):
            return Decomposition("and", children=(walk(node.left), walk(node.right)))
        if isinstance(node, Or):
            return Decomposition("or", children=(walk(node.left), walk(node.right)))
        raise NotInFragmentError(node)

    return walk(f)
