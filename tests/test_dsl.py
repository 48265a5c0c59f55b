import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxworld import dsl
from boxworld.dsl import MAX_NESTING, ParseError, format, parse
from boxworld.hybrid import (
    BasisKet,
    CoherentSum,
    IncoherentSum,
    SYM_C,
    SYM_S,
    Scalar,
    Scaled,
    distribute,
)
from reference import _tokens, reference_parse

EQUAL_MIXTURE_TEXT = "1/2 (|00> (+) |11>)"
SUPERPOSED_MIXTURE_TEXT = "c(|00> (+) |11>) + s(|01> (+) |10>)"
PAIRED_SUPERPOSITIONS_TEXT = "1/sqrt(2) (|00> + |10>) (+) 1/sqrt(2) (|01> + |11>)"
# Where a 401-digit number, too large for a float, goes, and its byte offset.
OVERFLOWING_LITERALS = [
    ("{} |0>", 0), ("sqrt({}) |0>", 5), ("|0> + 1/sqrt({}) |1>", 13), ("3/{} |0>", 2)
]


class TestTokenize:
    """The tokens of the notation, as parse reads them."""

    def test_kinds_and_offsets(self):
        assert parse(EQUAL_MIXTURE_TEXT) == Scaled(
            Scalar("frac", 1.0, 2.0), IncoherentSum((BasisKet("00"), BasisKet("11")))
        )
        # each token starts where a bad character put in its place is reported
        for offset in [0, 4, 5, 10, 14, 18]:
            with pytest.raises(ParseError, match="unexpected character '@'") as err:
                parse(EQUAL_MIXTURE_TEXT[:offset] + "@")
            assert err.value.offset == offset

    def test_symbols_and_star(self):
        assert parse("c * |0> + s|1>") == CoherentSum(
            (Scaled(SYM_C, BasisKet("0")), Scaled(SYM_S, BasisKet("1")))
        )

    def test_odot_glyph_alias_and_byte_offsets(self):
        mixture = IncoherentSum((BasisKet("0"), BasisKet("1")))
        assert parse("|0> ⊙ |1>") == parse("|0> (+) |1>") == mixture
        # the glyph occupies 3 bytes, so the second ket starts at byte 8
        with pytest.raises(ParseError, match="differs") as err:
            parse("|0> ⊙ |11>")
        assert err.value.offset == 8
        with pytest.raises(ParseError, match="got '⊙'") as err:
            parse("|0> + ⊙ |1>")
        assert err.value.offset == 6

    def test_sqrt_forms(self):
        assert parse("sqrt(2) |0>") == Scaled(Scalar("sqrt", 2.0), BasisKet("0"))
        assert parse("1/sqrt(2) |0>") == Scaled(Scalar("invsqrt", 2.0), BasisKet("0"))
        assert parse("3.5 |0>") == Scaled(Scalar("num", 3.5), BasisKet("0"))
        assert parse("7/8 |0>") == Scaled(Scalar("frac", 7.0, 8.0), BasisKet("0"))

    def test_unknown_character(self):
        with pytest.raises(ParseError) as err:
            parse("|0> @ |1>")
        assert err.value.offset == 4

    def test_bad_ket_label(self):
        with pytest.raises(ParseError) as err:
            parse("|2>")
        assert err.value.offset == 1

    def test_unterminated_ket(self):
        with pytest.raises(ParseError) as err:
            parse("|01")
        assert err.value.offset == 0

    def test_empty_ket(self):
        with pytest.raises(ParseError) as err:
            parse("|>")
        assert err.value.offset == 1

    @pytest.mark.parametrize(
        "text, offset",
        [("² |0>", 0), ("٣ |0>", 0), ("|0> + 1٣ |1>", 7), ("sqrt(٣) |0>", 5), ("3/٣ |0>", 2)],
    )
    def test_only_ascii_digits_make_numbers(self, text, offset):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.offset == offset

    def test_sqrt_fraction_requires_unit_numerator(self):
        with pytest.raises(ParseError, match="only 1/sqrt") as err:
            parse("2/sqrt(2) |0>")
        assert err.value.offset == 0

    def test_a_lone_surrogate_is_an_unexpected_character(self):
        # an argv byte that is not UTF-8 arrives as a lone surrogate; the
        # parser once encoded the whole input up front and raised a codec error
        with pytest.raises(ParseError, match="unexpected character") as err:
            parse("|0> + \udcff |1>")
        assert err.value.offset == 6


class TestParse:
    def test_single_ket(self):
        assert parse("|0>") == BasisKet("0")

    def test_equal_mixture_structure(self):
        expr = parse(EQUAL_MIXTURE_TEXT)
        assert expr == Scaled(
            Scalar("frac", 1.0, 2.0), IncoherentSum((BasisKet("00"), BasisKet("11")))
        )

    def test_superposed_structure(self):
        expr = parse(SUPERPOSED_MIXTURE_TEXT)
        assert expr == CoherentSum(
            (
                Scaled(SYM_C, IncoherentSum((BasisKet("00"), BasisKet("11")))),
                Scaled(SYM_S, IncoherentSum((BasisKet("01"), BasisKet("10")))),
            )
        )

    def test_plus_binds_tighter_than_mixing(self):
        expr = parse("|00> + |01> (+) |10> + |11>")
        assert expr == IncoherentSum(
            (
                CoherentSum((BasisKet("00"), BasisKet("01"))),
                CoherentSum((BasisKet("10"), BasisKet("11"))),
            )
        )

    def test_star_is_optional(self):
        assert parse("c * |0>") == parse("c|0>") == parse("c |0>")

    def test_parenthesized_nesting_preserved(self):
        expr = parse("(|0> + |1>) + |0>")
        assert expr == CoherentSum((CoherentSum((BasisKet("0"), BasisKet("1"))), BasisKet("0")))

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError) as err:
            parse("(|0> (+) |1>")
        assert err.value.offset == 0

    def test_stray_rparen(self):
        with pytest.raises(ParseError) as err:
            parse("|0>)")
        assert err.value.offset == 3

    def test_width_mismatch_reports_offset(self):
        with pytest.raises(ParseError) as err:
            parse("|0> + |11>")
        assert err.value.offset == 6

    def test_bare_scalar_rejected(self):
        with pytest.raises(ParseError) as err:
            parse("1/2")
        assert err.value.offset == 0
        with pytest.raises(ParseError):
            parse("c + s")

    def test_trailing_input(self):
        with pytest.raises(ParseError) as err:
            parse("|0> |1>")
        assert err.value.offset == 4

    def test_first_error_in_reading_order_wins(self):
        # tokens are read only as the grammar asks, so a later bad character is never reached
        with pytest.raises(ParseError, match="trailing input") as err:
            parse("|0> |1> @")
        assert err.value.offset == 4
        with pytest.raises(ParseError, match="unexpected character") as err:
            parse("|0> + |1> @")
        assert err.value.offset == 10
        for tail in ("@", "²", "|2>", ")" * 5, "(" * 10**5):
            with pytest.raises(ParseError, match="nested deeper") as err:
                parse("(" * (MAX_NESTING + 1) + tail)
            assert err.value.offset == MAX_NESTING
        with pytest.raises(ParseError, match="nested deeper") as err:
            parse("|0> ⊙ (" + "(" * MAX_NESTING + "@")  # the glyph is 3 bytes
        assert err.value.offset == 8 + MAX_NESTING

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("")

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse("1/0 |0>")

    @pytest.mark.parametrize("template, offset", OVERFLOWING_LITERALS)
    def test_overflowing_literal_rejected_at_its_offset(self, template, offset):
        with pytest.raises(ParseError) as err:
            parse(template.format("1" + "0" * 400))
        assert err.value.offset == offset

    def test_nesting_limit(self):
        at_limit = "2 (" * MAX_NESTING + "|0> + |1>" + ")" * MAX_NESTING
        assert format(parse(at_limit)) == at_limit
        for depth in (MAX_NESTING + 1, 1000):
            with pytest.raises(ParseError) as err:
                parse("(" * depth + "|0>" + ")" * depth)
            assert err.value.offset == MAX_NESTING


class TestFormat:
    def test_equal_mixture_golden(self):
        assert format(parse(EQUAL_MIXTURE_TEXT)) == EQUAL_MIXTURE_TEXT

    def test_superposed_golden(self):
        assert format(parse(SUPERPOSED_MIXTURE_TEXT)) == SUPERPOSED_MIXTURE_TEXT

    def test_paired_superpositions_golden(self):
        assert format(parse(PAIRED_SUPERPOSITIONS_TEXT)) == PAIRED_SUPERPOSITIONS_TEXT

    def test_redundant_parens_collapse(self):
        assert format(parse("((|0>))")) == "|0>"
        assert format(parse("(((|0> + |1>)))")) == "|0> + |1>"
        assert format(parse("|0> + (s|1>)")) == "|0> + s|1>"

    def test_needed_parens_survive(self):
        assert format(parse("(|0> (+) |1>) (+) |0>")) == "(|0> (+) |1>) (+) |0>"
        assert format(parse("(|0> + |1>) + |0>")) == "(|0> + |1>) + |0>"

    def test_star_normalizes_away(self):
        assert format(parse("c * |0>")) == "c|0>"

    def test_glyph_normalizes_to_ascii(self):
        assert format(parse("|0> ⊙ |1>")) == "|0> (+) |1>"

    def test_complex_scalar_unrepresentable(self):
        for scalar in (1j, math.inf, math.nan, Scalar("sqrt", math.inf)):
            with pytest.raises(ValueError):
                format(Scaled(scalar, BasisKet("0")))


# --- property-based round trip ------------------------------------------------

# Small integers, and every non-negative finite float: exponent-sized ones
# such as 1e-05 and 1e+16 must print in a form the grammar reads back.
_numbers = st.one_of(
    st.integers(min_value=0, max_value=9).map(float),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
)
_denominators = _numbers.filter(lambda x: x > 0.0)

_scalars = st.one_of(
    _numbers.map(lambda x: Scalar("num", x)),
    st.tuples(_numbers, _denominators).map(lambda ab: Scalar("frac", *ab)),
    _numbers.map(lambda x: Scalar("sqrt", x)),
    _numbers.map(lambda x: Scalar("invsqrt", x)),
    st.just(SYM_C),
    st.just(SYM_S),
)


def _expr_strategy(width: int):
    kets = st.sampled_from([BasisKet(bin(i)[2:].zfill(width)) for i in range(2**width)])
    return st.recursive(
        kets,
        lambda children: st.one_of(
            st.tuples(_scalars, children).map(lambda t: Scaled(*t)),
            st.lists(children, min_size=2, max_size=3).map(lambda c: CoherentSum(tuple(c))),
            st.lists(children, min_size=2, max_size=3).map(lambda c: IncoherentSum(tuple(c))),
        ),
        max_leaves=12,
    )


expressions = st.integers(min_value=1, max_value=3).flatmap(_expr_strategy)


@given(expressions)
@settings(max_examples=300)
def test_parse_format_roundtrip(expr):
    assert parse(format(expr)) == expr


@given(expressions)
@settings(max_examples=50)
def test_error_offsets_count_the_bytes_of_formatted_text(expr):
    text = format(expr).replace("(+)", "⊙")  # 3 bytes, 1 character
    with pytest.raises(ParseError, match="unexpected character '@'") as err:
        parse(text + " @")
    assert err.value.offset == len(text.encode()) + 1


# --- the parser against the lexer and token-pulling parser it replaced -------

# Pieces of the grammar, and characters next to it that it rejects: a digit
# no ket label takes, characters no token starts with, Unicode digits, and
# spaces, a no-break and an em space among them.
GRAMMAR_FRAGMENTS = [
    "|", "0", "1", ">", "(", ")", "(+)", "⊙", "+", "*", "/", ".", "7", "42", "3.25",
    "sqrt(", "1/sqrt(", "c", "s",
]
HAZARDS = ["2", "@", "e", "²", "٣", " ", "\u00a0", "\u2003"]


def _outcome(parser, text: str):
    """The tree ``parser`` returns, or the type, message and offset of its error."""
    try:
        return parser(text)
    except ParseError as exc:
        return type(exc), str(exc), exc.offset


@given(st.lists(st.sampled_from(GRAMMAR_FRAGMENTS + HAZARDS), max_size=30).map("".join))
@settings(max_examples=1000)
def test_parse_agrees_with_the_reference_parser(text):
    assert _outcome(parse, text) == _outcome(reference_parse, text)


@pytest.mark.parametrize(
    "text",
    [template.format("1" + "0" * 400) for template, _ in OVERFLOWING_LITERALS]
    + ["(" * 10**5, "|0> ⊙ (" + "(" * MAX_NESTING + "@", "|0> 1" + "0" * 400],
    ids=["overflow", "overflow-in-sqrt", "overflow-in-invsqrt", "overflow-denominator",
         "deep", "deep-after-glyph", "trailing-overflow"],
)
def test_parse_agrees_with_the_reference_parser_on_long_inputs(text):
    assert _outcome(parse, text) == _outcome(reference_parse, text)


# --- work bounded by the input, not by wall time -------------------------------


def _token_reads(text: str) -> int:
    """The number of tokens ``parse(text)`` reads, whether or not it succeeds."""
    with mock.patch.object(
        dsl._Parser, "advance", autospec=True, side_effect=dsl._Parser.advance
    ) as advance:
        try:
            parse(text)
        except ParseError:
            pass
    return advance.call_count


def test_a_valid_input_reads_each_token_once():
    text = "(|0> ⊙ c * |1>) + sqrt(2) |0>" + " + 7/8 * (|0> + s|1>)" * 1110
    tokens = sum(1 for _ in _tokens(text))
    assert tokens == 10_000 and isinstance(parse(text), CoherentSum)
    assert _token_reads(text) <= tokens + 1  # the last read finds the end


def test_deep_nesting_stops_reading_at_the_limit():
    assert _token_reads("(" * 10**5 + "|0>") <= MAX_NESTING + 2


def test_parsed_paper_expressions_evaluate():
    theta = 0.8
    c, s = math.cos(theta), math.sin(theta)

    rho_mix = distribute(parse(EQUAL_MIXTURE_TEXT)).to_density()
    assert np.array_equal(rho_mix.matrix, np.diag([0.5, 0, 0, 0.5]).astype(complex))

    rho_sup = distribute(parse(SUPERPOSED_MIXTURE_TEXT), theta).to_density()
    branches = [
        np.array([c, s, 0, 0]),
        np.array([c, 0, s, 0]),
        np.array([0, s, 0, c]),
        np.array([0, 0, s, c]),
    ]
    expected = sum(0.25 * np.outer(v, v.conj()) for v in branches)
    np.testing.assert_allclose(rho_sup.matrix, expected, atol=1e-15)
