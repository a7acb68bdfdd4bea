import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qcalc.catalog import names, source
from qcalc.errors import ParseError
from qcalc.exterior import Form
from qcalc.parser import MAX_EXPONENT, form_text, parse, print_document


def tiny(body, dim=4, header_extra=""):
    lines = [f"algebra tiny dim {dim}{header_extra}"]
    filled = set()
    for entry in body:
        lines.append(entry)
        if entry.startswith("d e"):
            filled.add(int(entry[3]))
    for k in range(1, dim + 1):
        if k not in filled:
            lines.append(f"d e{k} = 0")
    return "\n".join(lines) + "\n"


def err(text):
    with pytest.raises(ParseError) as info:
        parse(text)
    return info.value


# ---------------------------------------------------------------------------
# round trips


@pytest.mark.parametrize("name", names())
def test_catalog_round_trip(name):
    doc = parse(source(name))
    printed = print_document(doc)
    doc2 = parse(printed)
    assert doc2 == doc
    assert print_document(doc2) == printed


coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=8)
keys = st.lists(
    st.tuples(st.integers(1, 7), st.integers(1, 7)).filter(lambda p: p[0] < p[1]),
    max_size=5,
    unique=True,
)


@given(keys, st.lists(coeffs, min_size=5, max_size=5))
def test_printed_form_reparses(pairs, values):
    f = Form.make(7, 2, {k: v for k, v in zip(pairs, values)})
    text = tiny([f"d e1 = {form_text(f)}"], dim=7)
    assert parse(text).algebra.differential(1) == f


# ---------------------------------------------------------------------------
# expression grammar


def test_distribution_and_scaling():
    doc = parse(source("g1"))
    d5 = doc.algebra.differential(5)
    assert d5.coeff((1, 2)) == 2
    assert d5.coeff((3, 4)) == 2
    assert d5.coeff((4, 6)) == -1


def test_fractional_coefficients():
    doc = parse(source("g2"))
    d2 = doc.algebra.differential(2)
    assert d2.coeff((1, 2)) == Fraction(2, 3)
    assert d2.coeff((1, 5)) == Fraction(1, 6)
    assert d2.coeff((3, 4)) == Fraction(-1, 3)
    assert d2.coeff((4, 6)) == Fraction(1, 6)


def test_descending_indices_flip_sign():
    doc = parse(tiny(["d e4 = e31"]))
    assert doc.algebra.differential(4).coeff((1, 3)) == -1


def test_wedge_spellings_agree():
    for spelling in ("e1^e2", "e1 e2", "e1*e2", "(e1)(e2)"):
        doc = parse(tiny([f"d e4 = {spelling}"]))
        assert doc.algebra.differential(4) == Form.monomial(4, Fraction(1), (1, 2))


def test_scalar_power():
    doc = parse(tiny(["d e4 = 2^3 e12 + (1/2)^2 e13"]))
    assert doc.algebra.differential(4).coeff((1, 2)) == 8
    assert doc.algebra.differential(4).coeff((1, 3)) == Fraction(1, 4)


def test_exponent_is_bounded():
    # a power is one multiplication per unit of exponent, quadratic in it for a polynomial
    start = time.perf_counter()
    e = err(tiny(["d e4 = mu^100000 e12"], header_extra=" param mu"))
    assert time.perf_counter() - start < 1
    assert (e.line, e.col, e.message) == (2, 10, f"exponent 100000 is above {MAX_EXPONENT}")
    assert err(tiny([f"d e4 = 2^{MAX_EXPONENT + 1} e12"])).message == f"exponent {MAX_EXPONENT + 1} is above {MAX_EXPONENT}"
    # nesting cannot get round the bound: it holds for the degree in the parameter
    e = err(tiny([f"d e4 = (mu^2 + 1)^{MAX_EXPONENT} e12"], header_extra=" param mu"))
    assert e.message == f"degree {2 * MAX_EXPONENT} in mu is above {MAX_EXPONENT}"
    d4 = parse(tiny([f"d e4 = mu^2 e12 + mu^{MAX_EXPONENT} e13"], header_extra=" param mu")).algebra.differential(4)
    assert str(d4.coeff((1, 2))) == "mu^2"
    assert d4.coeff((1, 3)).degree == MAX_EXPONENT


@pytest.mark.parametrize("factors", [10, 40])
def test_a_run_of_products_is_bounded(factors):
    # each product is checked, so the degree cannot grow one factor at a time; the
    # error sits at the '*' or, for juxtaposed factors, at the second factor (column 14)
    over = f"degree {2 * MAX_EXPONENT} in mu is above {MAX_EXPONENT}"
    for sep in (" ", " * "):
        start = time.perf_counter()
        e = err(tiny(["d e4 = " + sep.join([f"mu^{MAX_EXPONENT}"] * factors) + " e12"], header_extra=" param mu"))
        assert time.perf_counter() - start < 0.1
        assert (e.line, e.col, e.message) == (2, 14, over)
    e = err(tiny([f"d e4 = (mu^{MAX_EXPONENT} e1)(mu e2)"], header_extra=" param mu"))
    assert (e.col, e.message) == (18, f"degree {MAX_EXPONENT + 1} in mu is above {MAX_EXPONENT}")


def test_comments_and_blank_lines():
    text = "algebra c dim 2  # header\n\n# whole line comment\nd e1 = 0\nd e2 = 0  # trailing\n"
    doc = parse(text)
    assert doc.algebra.name == "c"
    assert doc.algebra.dim == 2


def test_param_arithmetic():
    text = tiny(["d e4 = (1 + mu)e12 - mu^2 e13"], header_extra=" param mu")
    doc = parse(text)
    d4 = doc.algebra.differential(4)
    assert str(d4.coeff((1, 2))) == "mu+1"
    assert str(d4.coeff((1, 3))) == "-mu^2"
    assert doc.algebra.param == "mu"


def test_qc_block_and_defaults():
    doc = parse(source("g1"))
    frame = doc.frame
    assert frame.horizontal == (1, 2, 3, 4)
    assert frame.vertical == (5, 6, 7)
    assert frame.scale == 2
    assert parse(source("heisenberg")).frame.scale == 1

    noscale = source("g1").replace(" scale 2", "")
    assert parse(noscale).frame.scale == 2


def test_flag_parses_cumulatively():
    doc = parse(source("heisenberg"))
    flag = doc.flag
    assert len(flag.levels) == 7
    assert [len(level) for level in flag.levels] == list(range(1, 8))


# the parameter in the differentials, the omegas and the flag
PARAMETRIC_SOURCES = {
    "prop31_family": source("prop31_family"),
    "omega_and_flag": source("heisenberg")
    .replace(" dim 7", " dim 7 param mu")
    .replace("omega1 = e12 + e34", "omega1 = e12 + e34 + mu e13")
    .replace("e1, e2, e3 |", "e1, e2, e3 - (mu^2 - 1/2)e5 |", 1),
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(PARAMETRIC_SOURCES)), st.fractions(min_value=-5, max_value=5, max_denominator=7))
def test_substitute_is_parsing_the_value_in_place(name, value):
    header, body = PARAMETRIC_SOURCES[name].split("\n", 1)
    assert header.endswith(" param mu")
    written = parse(header.removesuffix(" param mu") + "\n" + re.sub(r"\bmu\b", f"({value})", body))
    doc = parse(PARAMETRIC_SOURCES[name]).substitute(value)
    assert doc.algebra == written.algebra
    assert doc.frame == written.frame
    assert doc.flag == written.flag


# ---------------------------------------------------------------------------
# diagnostics carry positions


def test_unexpected_character_position():
    e = err("algebra x dim 2\nd e1 = e1 @ e2\nd e2 = 0\n")
    assert "unexpected character" in e.message
    assert (e.line, e.col) == (2, 11)


def test_duplicate_differential():
    e = err("algebra x dim 2\nd e1 = 0\nd e1 = 0\nd e2 = 0\n")
    assert "duplicate differential for e1" in e.message
    assert e.line == 3


def test_degree_mismatch():
    e = err("algebra x dim 2\nd e1 = e2\nd e2 = 0\n")
    assert "degree-2" in e.message
    assert e.line == 2


def test_sum_errors_name_the_operator():
    # "d e4 = " puts the first term at column 8
    e = err(tiny(["d e4 = e12 + e13 - e1"]))
    assert e.message == "cannot add a degree-2 and a degree-1 form"
    assert (e.line, e.col) == (2, 18)
    e = err(tiny(["d e4 = e12 + e13 + 1"]))
    assert e.message == "cannot add a scalar and a form"
    assert (e.line, e.col) == (2, 18)
    e = err(tiny(["d e4 = e12 - e12 + e3"]))  # a zero sum gives way to e3
    assert e.message == "d e4 must be a degree-2 form, got degree 1"


def test_zero_sums_give_way_to_other_degrees():
    doc = parse(tiny(["d e4 = e12 - e12 + e3 - e3 + 0 + e13 + 2 e23"]))
    assert doc.algebra.differential(4) == Form.make(4, 2, {(1, 3): Fraction(1), (2, 3): Fraction(2)})


signed_terms = st.lists(
    st.tuples(st.sampled_from([-2, -1, 1, 2]), st.sampled_from(["e12", "e13", "e21", "e34"])),
    min_size=1,
    max_size=12,
)


@given(signed_terms)
def test_a_sum_is_the_sum_of_its_terms(terms):
    text = " ".join(f"{'-' if c < 0 else '+'} {abs(c)} {m}" for c, m in terms)
    expected = Form.zero(4, 2)
    for c, m in terms:
        expected = expected + Form.monomial(4, Fraction(c), tuple(int(i) for i in m[1:]))
    assert parse(tiny([f"d e4 = {text}"])).algebra.differential(4) == expected


def test_index_out_of_range():
    e = err(tiny(["d e4 = e15"]))
    assert "out of range" in e.message
    for mono in ("e102", "e120"):  # a 0 after the first digit
        e = err(tiny([f"d e4 = e13 + {mono}"]))
        assert e.message == "index 0 out of range for dimension 4"
        assert (e.line, e.col) == (2, 14)


def test_unknown_identifier():
    e = err(tiny(["d e4 = nu e12"]))
    assert "unknown identifier 'nu'" in e.message


def test_dimension_cap():
    e = err("algebra x dim 12\n")
    assert "outside" in e.message
    assert e.line == 1


def test_missing_differential():
    e = err("algebra x dim 3\nd e1 = 0\n")
    assert "missing differential for e2" in e.message


def test_empty_document():
    e = err("# nothing here\n")
    assert "empty document" in e.message


def test_qc_requires_dim_7():
    e = err(tiny(["qc horizontal 1 2 3 4 vertical 5 6 7"]))
    assert "dimension 7" in e.message


def test_qc_indices_must_be_distinct():
    base = tiny([], dim=7)
    e = err(base + "qc horizontal 1 2 3 4 vertical 5 6 6\n")
    assert "distinct" in e.message


def test_omega_requires_qc_line_first():
    e = err(tiny(["omega1 = e12"], dim=7))
    assert "must follow the qc line" in e.message


def test_missing_omega_reported_at_end():
    base = tiny([], dim=7)
    e = err(base + "qc horizontal 1 2 3 4 vertical 5 6 7\nomega1 = e12 + e34\nomega2 = e13 + e42\n")
    assert "lacks omega3" in e.message


def test_duplicate_omega():
    base = tiny([], dim=7)
    e = err(
        base
        + "qc horizontal 1 2 3 4 vertical 5 6 7\nomega1 = e12 + e34\nomega1 = e12 + e34\n"
    )
    assert "duplicate omega1" in e.message


def test_flag_level_counts():
    e = err(tiny([], dim=7) + "flag = e1 | e2 | e1, e2, e3 | e1,e2,e3,e4 | e1,e2,e3,e4,e5 | e1,e2,e3,e4,e5,e6 | e1,e2,e3,e4,e5,e6,e7\n")
    assert "flag level 2 must list 2 covectors" in e.message


def test_trailing_tokens():
    e = err(tiny(["d e4 = 0 )"]))
    assert "trailing" in e.message


def test_division_rules():
    e = err(tiny(["d e4 = e12 / e13"]))
    assert "divide by a rational" in e.message
    e = err(tiny(["d e4 = e12 / 0"]))
    assert "division by zero" in e.message
    halved = parse(tiny(["d e4 = (1/2)e12 + e13"])).algebra.differential(4)
    for spelling in ("e12/2 + e13", "e12 / 2 + e13", "e1/2 e2 + e13", "e12/(4/2) + e13"):
        assert parse(tiny([f"d e4 = {spelling}"])).algebra.differential(4) == halved


QC_LINE = "qc horizontal 1 2 3 4 vertical 5 6 7 scale "


@pytest.mark.parametrize("text, line, col, digits", [
    (tiny([f"d e1 = {'9' * 5000} e23"], dim=7), 2, 8, 5000),
    (tiny([], dim=7) + QC_LINE + "1" * 5001 + "\n", 9, 44, 5001),
    (tiny([], dim=7) + QC_LINE + "1/" + "3" * 4301 + "\n", 9, 46, 4301),
    (tiny([], dim=7) + "qc horizontal 1 2 " + "0" * 4400 + "3 4 vertical 5 6 7\n", 9, 19, 4401),
    ("algebra x dim " + "1" * 4401 + "\n", 1, 15, 4401),
], ids=["coefficient", "scale", "denominator", "index", "dim"])
def test_a_number_past_the_digit_limit_is_a_parse_error(text, line, col, digits):
    # int() refuses more than 4300 digits; the limit stays, the token is rejected
    e = err(text)
    assert (e.line, e.col, e.message) == (line, col, f"number of {digits} digits is too long")


def test_parse_error_str_contains_position():
    e = err(tiny(["d e4 = e15"]))
    assert str(e.line) in str(e)
    assert str(e.col) in str(e)


# ---------------------------------------------------------------------------
# edited catalog sources parse or raise ParseError, nothing else

GRAMMAR_TOKENS = ["/", "^", "e0", "e102", "mu", "(", ")", "0", "1", "2", "7"]
# a monomial's last digit is its own piece, so an edit can land inside it (e1/2)
PIECE_RE = re.compile(r"e\d(?=\d)|\w+|\S")


@st.composite
def edited_sources(draw):
    """A catalog source with one to three edits on one line, each inserting a
    grammar token after a piece or deleting a piece.  Few edits keep any
    exponent the digits spell small."""
    lines = source(draw(st.sampled_from(names()))).splitlines()
    k = draw(st.integers(0, len(lines) - 1))
    for _ in range(draw(st.integers(1, 3))):
        start, end = draw(st.sampled_from([m.span() for m in PIECE_RE.finditer(lines[k])] or [(0, 0)]))
        if draw(st.booleans()):
            lines[k] = lines[k][:end] + draw(st.sampled_from(GRAMMAR_TOKENS)) + lines[k][end:]
        else:
            lines[k] = lines[k][:start] + lines[k][end:]
    return "\n".join(lines)


@settings(max_examples=1000)
@given(edited_sources())
def test_edited_sources_parse_or_raise_parse_error(text):
    try:
        parse(text)
    except ParseError:
        pass
