import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxworld.dsl import MAX_NESTING, ParseError, format, parse, tokenize
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

EQUAL_MIXTURE_TEXT = "1/2 (|00> (+) |11>)"
SUPERPOSED_MIXTURE_TEXT = "c(|00> (+) |11>) + s(|01> (+) |10>)"
PAIRED_SUPERPOSITIONS_TEXT = "1/sqrt(2) (|00> + |10>) (+) 1/sqrt(2) (|01> + |11>)"


class TestTokenize:
    def test_kinds_and_offsets(self):
        toks = tokenize(EQUAL_MIXTURE_TEXT)
        assert [t.kind for t in toks] == ["SCALAR", "LPAREN", "KET", "ODOT", "KET", "RPAREN"]
        assert [t.offset for t in toks] == [0, 4, 5, 10, 14, 18]
        assert toks[0].lexeme == "1/2"
        assert toks[3].lexeme == "(+)"

    def test_symbols_and_star(self):
        toks = tokenize("c * |0> + s|1>")
        assert [t.kind for t in toks] == [
            "SYMBOL_C",
            "STAR",
            "KET",
            "PLUS",
            "SYMBOL_S",
            "KET",
        ]

    def test_odot_glyph_alias_and_byte_offsets(self):
        toks = tokenize("|0> ⊙ |1>")
        assert [t.kind for t in toks] == ["KET", "ODOT", "KET"]
        # the glyph occupies 3 bytes, so the second ket starts at byte 8
        assert toks[1].offset == 4
        assert toks[2].offset == 8

    def test_sqrt_forms(self):
        assert tokenize("sqrt(2)")[0].lexeme == "sqrt(2)"
        assert tokenize("1/sqrt(2)")[0].lexeme == "1/sqrt(2)"
        assert tokenize("3.5")[0].lexeme == "3.5"
        assert tokenize("7/8")[0].lexeme == "7/8"

    def test_unknown_character(self):
        with pytest.raises(ParseError) as err:
            tokenize("|0> @ |1>")
        assert err.value.offset == 4

    def test_bad_ket_label(self):
        with pytest.raises(ParseError) as err:
            tokenize("|2>")
        assert err.value.offset == 1

    def test_unterminated_ket(self):
        with pytest.raises(ParseError) as err:
            tokenize("|01")
        assert err.value.offset == 0

    def test_empty_ket(self):
        with pytest.raises(ParseError) as err:
            tokenize("|>")
        assert err.value.offset == 1

    def test_sqrt_fraction_requires_unit_numerator(self):
        with pytest.raises(ParseError):
            tokenize("2/sqrt(2)")


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

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("")

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse("1/0 |0>")

    @pytest.mark.parametrize(
        "template, offset",
        [("{} |0>", 0), ("sqrt({}) |0>", 5), ("|0> + 1/sqrt({}) |1>", 13), ("3/{} |0>", 2)],
    )
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

    def test_plain_number_scalars_renderable(self):
        assert format(Scaled(2, BasisKet("0"))) == "2 |0>"
        assert format(Scaled(0.25, BasisKet("0"))) == "0.25 |0>"

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
def test_formatted_text_retokenizes_with_increasing_offsets(expr):
    toks = tokenize(format(expr))
    offsets = [t.offset for t in toks]
    assert offsets == sorted(set(offsets))


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
