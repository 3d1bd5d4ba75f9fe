import pytest

from qromkit import ParseError, format_table, parse_table_text
from helpers import random_table


def test_round_trip():
    table = random_table(20, 6, seed=3)
    assert parse_table_text(format_table(table)) == table


def test_hex_and_comments():
    table = parse_table_text("# demo\n4 8  # N b\n0x10\n2\n0xff\n0\n")
    assert table.entries == (16, 2, 255, 0)
    assert table.bit_width == 8


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "missing header"),
        ("4\n1\n2\n3\n4\n", "expected header"),
        ("2 3\n1\n", "expected 2 data lines"),
        ("2 3\n1\n2\n3\n", "more than N"),
        ("2 3\n1\n9\n", "does not fit"),
        ("2 3\nona\n1\n", "bad entry"),
        ("0 3\n", "positive"),
        ("-2 3\n", "positive"),
        ("1_0 3\n", "bad header"),
        ("2 +3\n1\n2\n", "bad header"),
        ("\u0662 3\n1\n2\n", "bad header"),
        ("0x2 3\n1\n2\n", "bad header"),
        # Past the int-to-str digit limit, which int() refuses.
        pytest.param("9" * 5000 + " 3\n", "bad header", id="header_past_digit_limit"),
    ],
)
def test_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_table_text(text)


@pytest.mark.parametrize(
    "entry,value",
    [("007", 7), ("0", 0), ("000", 0), ("0x1F", 31), ("0XfF", 255), ("0x00a", 10)],
)
def test_entry_grammar_accepts_decimal_and_hex(entry, value):
    assert parse_table_text(f"1 8\n{entry}\n").entries == (value,)


@pytest.mark.parametrize(
    "entry", ["0b11", "0o7", "1_0", "0x_f", "+5", "0x", "x1", "1e3", "1 2", "\u0663", "- 1"]
)
def test_entry_grammar_rejects_other_spellings(entry):
    with pytest.raises(ParseError, match="bad entry"):
        parse_table_text(f"1 8\n{entry}\n")


def test_out_of_range_entry_is_reported_as_written():
    # A value past the int-to-str digit limit must still get this message.
    with pytest.raises(ParseError, match="entry 0x1ff does not fit in 8 bits"):
        parse_table_text("1 8\n0x1ff\n")
    with pytest.raises(ParseError, match="does not fit in 8 bits"):
        parse_table_text("1 8\n0x" + "f" * 5000 + "\n")
    with pytest.raises(ParseError, match="bad entry"):
        parse_table_text("1 100000\n" + "9" * 5000 + "\n")


def test_huge_declared_width_is_checked_without_allocating():
    # Range checks compare bit lengths; 1 << 10**11 would need ~12 GB.
    table = parse_table_text("2 100000000000\n1\n0x" + "f" * 40 + "\n")
    assert table.bit_width == 10**11
    with pytest.raises(ParseError, match="does not fit"):
        parse_table_text("1 100000000000\n-1\n")
