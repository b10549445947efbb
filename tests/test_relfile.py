from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from nhomalg.algebra import GradedAlgebra
from nhomalg.catalog import artin_schelter, parafermion, plactic
from nhomalg.relfile import (
    RelationParseError,
    format_presentation,
    parse_relation_file,
    parse_relations,
    write_relation_file,
)


def test_parse_single_relation():
    pres = parse_relations("D=2 N=3\n1*121 - 1*211\n")
    assert pres.D == 2 and pres.N == 3
    assert pres.relations.dim == 1
    row = pres.relations.rows[0]
    assert row.coefficient((2, 1, 1)) == 1
    assert row.coefficient((1, 2, 1)) == -1


def test_parse_rational_coefficients():
    pres = parse_relations("D=2 N=3\n1/2*221 - 1/2*212\n")
    assert pres.relations.dim == 1
    assert pres.relations.rows[0].coefficient((2, 2, 1)) == 1


def test_parse_empty_relation_list_gives_free_algebra():
    pres = parse_relations("D=2 N=3\n")
    assert pres.relations.dim == 0
    assert GradedAlgebra(pres).component_dim(4) == 16


def test_parse_blank_lines_and_comments():
    pres = parse_relations("# free-form notes\nD=2 N=3\n\n1*121 - 1*211\n\n")
    assert pres.relations.dim == 1


def test_parse_letter_range_error_cites_position():
    with pytest.raises(RelationParseError) as info:
        parse_relations("D=2 N=3\n1*131 - 1*211\n")
    assert info.value.line == 2
    assert info.value.column == 4
    assert "outside 1..2" in str(info.value)


@pytest.mark.parametrize("separator", ["\x85", "\u2028", "\x0c"])
def test_lines_end_at_newline_only(separator, tmp_path):
    with pytest.raises(RelationParseError) as info:
        parse_relations(f"D=2 N=3\n1*121 - 1*211{separator}1*131\n")
    assert info.value.line == 2
    # The bad byte is located on the same lines.
    path = tmp_path / "rels.txt"
    path.write_bytes(f"D=2 N=3\n# a{separator}b".encode("utf-8") + b"\xff\n")
    with pytest.raises(RelationParseError) as info:
        parse_relation_file(path)
    assert (info.value.line, info.value.column) == (2, 6)


@pytest.mark.parametrize("text, line, column", [
    ("D=2 N=3\n1*121 - 1*211\u2028\n", 2, 14),  # at the end of a line
    ("D=2 N=3\n1*121 - 1*211\x85+ 1*121\n", 2, 14),  # between terms
    ("D=2 N=3\n\u2028\n1*121 - 1*211\n", 2, 1),  # alone on a line
    ("\u2028\nD=2 N=3\n", 1, 1),  # alone, before the header
    ("D=2 N=3\n\u3000# note\n", 2, 1),  # before a comment sign
], ids=["line-end", "between-terms", "alone", "before-header", "before-comment"])
def test_only_ascii_whitespace_is_whitespace(text, line, column):
    # A Unicode space is text wherever it stands, and the error is at it;
    # an ASCII space in its place parses.
    with pytest.raises(RelationParseError) as info:
        parse_relations(text)
    assert (info.value.line, info.value.column) == (line, column)
    parse_relations(text.translate({0x85: " ", 0x2028: " ", 0x3000: " "}))


def test_crlf_file_parses_as_its_lf_copy(tmp_path):
    text = "# notes\nD=3 N=3\n\n1*121 - 1*211\n1/2*331 + 2/3*123 - 1*312\n"
    crlf = text.replace("\n", "\r\n")
    assert parse_relations(crlf).relations == parse_relations(text).relations
    path = tmp_path / "crlf.rel"
    path.write_bytes(crlf.encode("utf-8"))
    assert parse_relation_file(path).relations == parse_relations(text).relations
    with pytest.raises(RelationParseError) as info:
        parse_relations("D=2 N=3\r\n1*121\r\n1*131\r\n")
    assert (info.value.line, info.value.column) == (3, 4)
    # A lone CR ends no line, so a CR-only file is one line and no header.
    with pytest.raises(RelationParseError) as info:
        parse_relations("D=2 N=3\r1*121 - 1*211\r")
    assert info.value.line == 1


def test_parse_degree_mismatch_error():
    with pytest.raises(RelationParseError) as info:
        parse_relations("D=2 N=3\n1*12 + 1*21\n")
    assert info.value.line == 2
    assert "does not match N=3" in str(info.value)


def test_parse_header_errors():
    with pytest.raises(RelationParseError, match="header"):
        parse_relations("1*121 - 1*211\n")
    with pytest.raises(RelationParseError, match="header"):
        parse_relations("")
    with pytest.raises(RelationParseError):
        parse_relations("D=12 N=3\n")


def test_parse_malformed_term_errors():
    with pytest.raises(RelationParseError, match="coeff"):
        parse_relations("D=2 N=3\n121 - 211\n")
    with pytest.raises(RelationParseError, match="missing"):
        parse_relations("D=2 N=3\n1*121 1*211\n")
    with pytest.raises(RelationParseError, match="denominator"):
        parse_relations("D=2 N=3\n1/0*121\n")


def test_roundtrip_through_writer(tmp_path):
    for pres in (plactic(2), parafermion(3), artin_schelter(Fraction(1, 2), 3)):
        path = tmp_path / "relations.txt"
        write_relation_file(path, pres)
        parsed = parse_relation_file(path)
        assert parsed.D == pres.D and parsed.N == pres.N
        assert parsed.relations == pres.relations


def test_file_is_read_as_utf8_and_a_bad_byte_is_located(tmp_path):
    path = tmp_path / "rels.txt"
    path.write_bytes("D=2 N=3\n# caf\u00e9\n1*121 - 1*211\n".encode("utf-8"))
    assert parse_relation_file(path).relations.dim == 1
    # The column counts characters: the two bytes of the e-acute are one.
    path.write_bytes(b"D=2 N=3\r\n# caf\xc3\xa9\xff\n")
    with pytest.raises(RelationParseError) as err:
        parse_relation_file(path)
    assert (err.value.line, err.value.column) == (2, 7)
    assert err.value.message == "byte 0xff is not UTF-8"


def test_format_is_canonical():
    text = format_presentation(plactic(2))
    assert text.splitlines()[0] == "D=2 N=3"
    assert "1*221 - 1*212" in text
    assert "1*211 - 1*121" in text


LONG = "9" * 5000  # more digits than int() converts by default


@pytest.mark.parametrize("text, line, column", [
    (f"D={LONG} N=3\n", 1, 3),
    (f"D=2 N={LONG}\n", 1, 7),
    (f"D=2 N=3\n1*121 - {LONG}*211\n", 2, 9),
    (f"D=2 N=3\n1/{LONG}*121\n", 2, 3),
], ids=["D", "N", "coefficient", "denominator"])
def test_overlong_numeral_is_a_parse_error(text, line, column):
    with pytest.raises(RelationParseError, match="numeral too long") as info:
        parse_relations(text)
    assert (info.value.line, info.value.column) == (line, column)


def test_non_ascii_digits_are_rejected():
    # Arabic-Indic digits: str.isdigit() and int() accept them, the format does not.
    with pytest.raises(RelationParseError) as info:
        parse_relations("D=2 N=3\n1*\u0661\u0662\u0661\n")
    assert (info.value.line, info.value.column) == (2, 1)
    with pytest.raises(RelationParseError, match="header"):
        parse_relations("D=\u0662 N=3\n")


# The file alphabet, a few non-ASCII decimal digits, and an overlong numeral.
_FILE_TEXT = st.lists(
    st.sampled_from(list("0123456789D=N*/+-# \n") + ["\u0661", "\u0663", "\uff12", LONG]),
    max_size=60).map("".join)


@given(st.one_of(_FILE_TEXT,
                 st.tuples(st.sampled_from(["D=2 N=3", "D=1 N=2", "D=3 N=2"]),
                           _FILE_TEXT).map("\n".join)))
@example(f"D=2 N=3\n1/{LONG}*121")
@example(f"D={LONG} N=3")
def test_fuzzed_text_raises_only_parse_errors(text):
    try:
        parse_relations(text)
    except RelationParseError:
        pass
