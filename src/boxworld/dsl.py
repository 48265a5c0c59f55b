"""Text notation for mixed coherent/incoherent state expressions.

Grammar, loosest binding first::

    expr    := term ( "(+)" term )*
    term    := factor ( "+" factor )*
    factor  := scalar ["*"] primary | primary
    primary := ket | "(" expr ")"
    ket     := "|" [01]+ ">"
    scalar  := number | number "/" number | "sqrt(" number ")"
             | "1/sqrt(" number ")" | "c" | "s"
    number  := [0-9]+ ( "." [0-9]+ )?

``(+)`` is the ASCII spelling of the mixing operator; the UTF-8 glyph
odot is accepted as an input alias. ``+`` binds tighter than ``(+)``, so
``a + b (+) c + d`` groups as ``(a+b) (+) (c+d)``. A scalar must be
followed by a ket or a parenthesized expression (there is no scalar-only
state). Parentheses nest at most MAX_NESTING deep, and a number must fit
in a float; its digits are ASCII 0-9 only. All reported offsets are byte
offsets into the input. The parser pulls tokens one at a time, only as
the grammar asks for them, so the first error in reading order is the one
reported and a rejected input costs work only up to that error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .hybrid import (
    BasisKet,
    CoherentSum,
    IncoherentSum,
    Scalar,
    Scaled,
    StateExpr,
    SYM_C,
    SYM_S,
)

__all__ = ["MAX_NESTING", "Token", "ParseError", "tokenize", "parse", "format"]

ODOT_GLYPH = "⊙"
# Each level of parentheses costs a few stack frames here and in the
# recursive evaluation and formatting of the tree; this keeps all of them
# well inside Python's default recursion limit.
MAX_NESTING = 100


class ParseError(ValueError):
    """Syntax or width error, carrying the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


@dataclass(frozen=True)
class Token:
    kind: str  # KET | SCALAR | SYMBOL_C | SYMBOL_S | PLUS | ODOT | LPAREN | RPAREN | STAR
    lexeme: str
    offset: int


def tokenize(text: str) -> list[Token]:
    """Split input into tokens; offsets are byte positions."""
    return list(_tokens(text))


def _is_digit(ch: str) -> bool:
    return "0" <= ch <= "9"


def _tokens(text: str) -> Iterator[Token]:
    """The tokens of ``text`` in order, read only as far as they are pulled.

    Raises :class:`ParseError` at the first character that starts no token.
    """
    n = len(text)
    i = 0  # the next character to read
    mark, mark_byte = 0, 0  # the start of the latest token and its byte offset

    def byte_at(j: int) -> int:
        # byte offset of character j >= mark; only the characters since mark are encoded
        return mark_byte + len(text[mark:j].encode("utf-8"))

    def _number_end(j: int) -> int:
        k = j
        while k < n and _is_digit(text[k]):
            k += 1
        if k < n and text[k] == "." and k + 1 < n and _is_digit(text[k + 1]):
            k += 1
            while k < n and _is_digit(text[k]):
                k += 1
        return k

    def _sqrt_end(j: int) -> int:
        # expects text[j:] to start with "sqrt("
        k = j + 5
        end = _number_end(k)
        if end == k:
            raise ParseError("expected a number inside sqrt(...)", byte_at(min(k, n - 1)))
        if end >= n or text[end] != ")":
            raise ParseError("unterminated sqrt(...)", byte_at(j))
        return end + 1

    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        off = mark_byte = byte_at(i)
        mark = i
        if ch == ODOT_GLYPH:
            yield Token("ODOT", ch, off)
            i += 1
        elif text.startswith("(+)", i):
            yield Token("ODOT", "(+)", off)
            i += 3
        elif ch == "(":
            yield Token("LPAREN", ch, off)
            i += 1
        elif ch == ")":
            yield Token("RPAREN", ch, off)
            i += 1
        elif ch == "+":
            yield Token("PLUS", ch, off)
            i += 1
        elif ch == "*":
            yield Token("STAR", ch, off)
            i += 1
        elif ch == "|":
            j = i + 1
            while j < n and text[j] in "01":
                j += 1
            if j >= n:
                raise ParseError("unterminated ket", off)
            if text[j] != ">":
                if j == i + 1:
                    raise ParseError(f"bad ket label character {text[j]!r}", byte_at(j))
                raise ParseError("expected '>' to close the ket", byte_at(j))
            if j == i + 1:
                raise ParseError("empty ket label", byte_at(j))
            yield Token("KET", text[i : j + 1], off)
            i = j + 1
        elif _is_digit(ch):
            j = _number_end(i)
            if j < n and text[j] == "/":
                k = j + 1
                if k < n and _is_digit(text[k]):
                    k = _number_end(k)
                elif text.startswith("sqrt(", k):
                    if text[i:j] != "1":
                        raise ParseError(
                            "only 1/sqrt(...) is supported for square-root fractions", off
                        )
                    k = _sqrt_end(k)
                else:
                    raise ParseError(
                        "expected digits or sqrt( after '/'", byte_at(k if k < n else j)
                    )
                j = k
            yield Token("SCALAR", text[i:j], off)
            i = j
        elif text.startswith("sqrt(", i):
            j = _sqrt_end(i)
            yield Token("SCALAR", text[i:j], off)
            i = j
        elif ch == "c":
            yield Token("SYMBOL_C", ch, off)
            i += 1
        elif ch == "s":
            yield Token("SYMBOL_S", ch, off)
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", off)


def _number(text: str, offset: int) -> float:
    value = float(text)
    if math.isinf(value):
        raise ParseError("number too large for a float", offset)
    return value


def _scalar_from_token(tok: Token) -> Scalar:
    if tok.kind == "SYMBOL_C":
        return SYM_C
    if tok.kind == "SYMBOL_S":
        return SYM_S
    lex, off = tok.lexeme, tok.offset  # an ASCII lexeme: its characters are bytes
    if lex.startswith("1/sqrt("):
        return Scalar("invsqrt", _number(lex[7:-1], off + 7))
    if lex.startswith("sqrt("):
        return Scalar("sqrt", _number(lex[5:-1], off + 5))
    if "/" in lex:
        num, den = lex.split("/")
        numerator = _number(num, off)
        denominator = _number(den, off + len(num) + 1)
        if denominator == 0.0:
            raise ParseError("fraction with zero denominator", off)
        return Scalar("frac", numerator, denominator)
    return Scalar("num", _number(lex, off))


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokens(text)
        self.next: Token | None = None
        self.pulled = False  # whether self.next holds the token after the last one taken
        self.end_offset = len(text.encode("utf-8"))
        self.width: int | None = None
        self.depth = 0

    def peek(self) -> Token | None:
        # a token is read only when the grammar asks for it, so the first error wins
        if not self.pulled:
            self.next, self.pulled = next(self.tokens, None), True
        return self.next

    def take(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.end_offset)
        self.pulled = False
        return tok

    def parse(self) -> StateExpr:
        node = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"trailing input starting at {tok.lexeme!r}", tok.offset)
        return node

    def expr(self) -> StateExpr:
        parts = [self.term()]
        while (tok := self.peek()) is not None and tok.kind == "ODOT":
            self.take()
            parts.append(self.term())
        return parts[0] if len(parts) == 1 else IncoherentSum(tuple(parts))

    def term(self) -> StateExpr:
        parts = [self.factor()]
        while (tok := self.peek()) is not None and tok.kind == "PLUS":
            self.take()
            parts.append(self.factor())
        return parts[0] if len(parts) == 1 else CoherentSum(tuple(parts))

    def factor(self) -> StateExpr:
        tok = self.peek()
        if tok is None:
            raise ParseError("expected a ket, scalar, or '('", self.end_offset)
        if tok.kind in ("SCALAR", "SYMBOL_C", "SYMBOL_S"):
            self.take()
            scalar = _scalar_from_token(tok)
            nxt = self.peek()
            if nxt is not None and nxt.kind == "STAR":
                self.take()
                nxt = self.peek()
            if nxt is None or nxt.kind not in ("KET", "LPAREN"):
                raise ParseError(
                    "scalar must be followed by a ket or a parenthesized state", tok.offset
                )
            return Scaled(scalar, self.primary())
        return self.primary()

    def primary(self) -> StateExpr:
        tok = self.take()
        if tok.kind == "KET":
            label = tok.lexeme[1:-1]
            if self.width is None:
                self.width = len(label)
            elif len(label) != self.width:
                raise ParseError(
                    f"ket width {len(label)} differs from {self.width} used earlier", tok.offset
                )
            return BasisKet(label)
        if tok.kind == "LPAREN":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", tok.offset)
            self.depth += 1
            node = self.expr()
            closing = self.peek()
            if closing is None or closing.kind != "RPAREN":
                raise ParseError("unbalanced parenthesis", tok.offset)
            self.take()
            self.depth -= 1
            return node
        raise ParseError(f"expected a ket or '(', got {tok.lexeme!r}", tok.offset)


def parse(text: str) -> StateExpr:
    """Parse a state expression; raises :class:`ParseError` with a byte offset."""
    return _Parser(text).parse()


def format(expr: StateExpr) -> str:
    """Canonical text for an expression.

    ``parse(format(e))`` rebuilds ``e`` structurally for any expression the
    grammar can produce (in particular, sums with two or more operands; a
    single-operand sum has no textual form and collapses to its operand).
    Parentheses are minimal: operands keep them only where precedence or
    explicit nesting of equal-precedence sums requires them.
    """
    return _format(expr)[0]


def _wrap(child: StateExpr, min_prec: int) -> str:
    text, prec = _format(child)
    return f"({text})" if prec < min_prec else text


def _format(node: StateExpr) -> tuple[str, int]:
    if isinstance(node, BasisKet):
        return f"|{node.label}>", 3
    if isinstance(node, Scaled):
        stext = node.scalar.render()
        ctext = _wrap(node.child, 3)
        symbolic = node.scalar.kind in ("c", "s")
        return f"{stext}{'' if symbolic else ' '}{ctext}", 2
    if isinstance(node, CoherentSum):
        return " + ".join(_wrap(ch, 2) for ch in node.children), 1
    if isinstance(node, IncoherentSum):
        return " (+) ".join(_wrap(ch, 1) for ch in node.children), 0
    raise ValueError(f"not a state expression node: {node!r}")

