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
in a float; its digits are ASCII 0-9 only.

The parser reads the text in one pass, by recursive descent over the
characters themselves, holding one token: the next token is read only
when the current one has been checked and consumed, and a scalar's value
is converted only then. So the first error in reading order is the one
reported, and a rejected input costs work only up to that error. Every
reported offset is a byte offset into the UTF-8 input; the parser keeps
character positions and converts one to bytes only when it raises.
"""

from __future__ import annotations

import math
import re

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

__all__ = ["MAX_NESTING", "ParseError", "parse", "format"]

ODOT_GLYPH = "⊙"
# Each level of parentheses costs a few stack frames here and in the
# recursive evaluation and formatting of the tree; this keeps all of them
# well inside Python's default recursion limit.
MAX_NESTING = 100

_SPACE = re.compile(r"\s*")  # \s is what str.isspace accepts
_BITS = re.compile("[01]*")
# digits, then "." and digits if a digit follows the point: it may match
# nothing, or a fraction alone, as in the accepted sqrt(.5)
_NUMBER = re.compile(r"[0-9]*(?:\.[0-9]+)?")


class ParseError(ValueError):
    """Syntax or width error, carrying the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


class _Parser:
    """One parse of ``text``, holding the current token: ``text[start:pos]``.

    Its ``kind`` is "" at the end of the input, "|" for a ket, "1" for a
    scalar (a number, a fraction, a square-root form, "c" or "s"), "⊙" for
    either spelling of the mixing operator, and otherwise the token's one
    character: "(", ")", "+" or "*".
    """

    def __init__(self, text: str):
        self.text = text
        self.kind = ""
        self.start = self.pos = 0
        self.width: int | None = None
        self.depth = 0

    def error(self, message: str, i: int) -> ParseError:
        """The error at character ``i``, reported at its byte offset."""
        return ParseError(message, len(self.text[:i].encode()))

    def advance(self) -> None:
        """Read the token after the current one."""
        text = self.text
        i = self.start = _SPACE.match(text, self.pos).end()
        if i == len(text):
            self.kind, self.pos = "", i
            return
        ch = text[i]
        if text.startswith("(+)", i):
            self.kind, self.pos = ODOT_GLYPH, i + 3
        elif text.startswith("sqrt(", i):
            self.kind, self.pos = "1", self._sqrt_end(i)
        elif ch in "()+*" or ch == ODOT_GLYPH:
            self.kind, self.pos = ch, i + 1
        elif ch in "cs":
            self.kind, self.pos = "1", i + 1
        elif ch == "|":
            self.kind, self.pos = "|", self._ket_end(i)
        elif "0" <= ch <= "9":
            self.kind, self.pos = "1", self._numeric_end(i)
        else:
            raise self.error(f"unexpected character {ch!r}", i)

    def _ket_end(self, i: int) -> int:
        text = self.text
        j = _BITS.match(text, i + 1).end()
        if j == len(text):
            raise self.error("unterminated ket", i)
        if text[j] != ">":
            if j == i + 1:
                raise self.error(f"bad ket label character {text[j]!r}", j)
            raise self.error("expected '>' to close the ket", j)
        if j == i + 1:
            raise self.error("empty ket label", j)
        return j + 1

    def _numeric_end(self, i: int) -> int:
        # a number, a fraction of two, or 1/sqrt(number), starting at a digit
        text = self.text
        j = _NUMBER.match(text, i).end()
        if text[j : j + 1] != "/":
            return j
        k = j + 1
        if "0" <= text[k : k + 1] <= "9":
            return _NUMBER.match(text, k).end()
        if text.startswith("sqrt(", k):
            if text[i:j] != "1":
                raise self.error("only 1/sqrt(...) is supported for square-root fractions", i)
            return self._sqrt_end(k)
        raise self.error("expected digits or sqrt( after '/'", k if k < len(text) else j)

    def _sqrt_end(self, i: int) -> int:
        # text[i:] starts with "sqrt("
        text = self.text
        k = i + 5
        end = _NUMBER.match(text, k).end()
        if end == k:
            raise self.error("expected a number inside sqrt(...)", min(k, len(text) - 1))
        if text[end : end + 1] != ")":
            raise self.error("unterminated sqrt(...)", i)
        return end + 1

    def _number(self, lexeme: str, i: int) -> float:
        value = float(lexeme)
        if math.isinf(value):
            raise self.error("number too large for a float", i)
        return value

    def _scalar(self) -> Scalar:
        # the current token is a scalar, whose lexeme is ASCII
        lex, i = self.text[self.start : self.pos], self.start
        if lex == "c":
            return SYM_C
        if lex == "s":
            return SYM_S
        if lex.startswith("1/sqrt("):
            return Scalar("invsqrt", self._number(lex[7:-1], i + 7))
        if lex.startswith("sqrt("):
            return Scalar("sqrt", self._number(lex[5:-1], i + 5))
        num, slash, den = lex.partition("/")
        if not slash:
            return Scalar("num", self._number(lex, i))
        numerator = self._number(num, i)
        denominator = self._number(den, i + len(num) + 1)
        if denominator == 0.0:
            raise self.error("fraction with zero denominator", i)
        return Scalar("frac", numerator, denominator)

    def parse(self) -> StateExpr:
        self.advance()
        node = self.expr()
        if self.kind:
            lexeme = self.text[self.start : self.pos]
            raise self.error(f"trailing input starting at {lexeme!r}", self.start)
        return node

    def expr(self) -> StateExpr:
        parts = [self.term()]
        while self.kind == ODOT_GLYPH:
            self.advance()
            parts.append(self.term())
        return parts[0] if len(parts) == 1 else IncoherentSum(tuple(parts))

    def term(self) -> StateExpr:
        parts = [self.factor()]
        while self.kind == "+":
            self.advance()
            parts.append(self.factor())
        return parts[0] if len(parts) == 1 else CoherentSum(tuple(parts))

    def factor(self) -> StateExpr:
        if not self.kind:
            raise self.error("expected a ket, scalar, or '('", len(self.text))
        if self.kind != "1":
            return self.primary()
        start = self.start
        scalar = self._scalar()
        self.advance()
        if self.kind == "*":
            self.advance()
        if self.kind not in ("|", "("):
            raise self.error("scalar must be followed by a ket or a parenthesized state", start)
        return Scaled(scalar, self.primary())

    def primary(self) -> StateExpr:
        start = self.start
        if self.kind == "|":
            label = self.text[start + 1 : self.pos - 1]
            if self.width is None:
                self.width = len(label)
            elif len(label) != self.width:
                raise self.error(
                    f"ket width {len(label)} differs from {self.width} used earlier", start
                )
            self.advance()
            return BasisKet(label)
        if self.kind == "(":
            if self.depth == MAX_NESTING:
                raise self.error(f"parentheses nested deeper than {MAX_NESTING}", start)
            self.depth += 1
            self.advance()
            node = self.expr()
            if self.kind != ")":
                raise self.error("unbalanced parenthesis", start)
            self.depth -= 1
            self.advance()
            return node
        raise self.error(f"expected a ket or '(', got {self.text[start : self.pos]!r}", start)


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

