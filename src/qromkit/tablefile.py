"""Text format for lookup tables.

First non-comment line is ``N b``, two decimal numbers; each of the next N
lines holds one entry, decimal (leading zeros allowed) or hexadecimal with an
``0x``/``0X`` prefix, below 2^b. No other spelling is a number: not
``0b``/``0o`` prefixes, ``_`` separators, a ``+`` sign or non-ASCII digits. A
leading ``-`` is read so that a negative value is reported as out of range.
``#`` starts a comment. Lines end where the gate-file format's lines end (see
``qromkit.gatefile``): at every line boundary of ``str.splitlines``, so a
comment ends at any of them too.

A file as ``format_table`` writes it, the header and N bare decimal lines, is
checked and converted in C-level passes. Any other file, and every file with
an error, is read line by line, which alone reports ``ParseError``.
"""
from __future__ import annotations

import re

from .gatefile import DECIMAL, ParseError, _read_text
from .qrom import LookupTable

__all__ = ["parse_table_text", "load_table_file", "format_table"]

_ENTRY = re.compile(r"(-?)(?:0[xX]([0-9a-fA-F]+)|([0-9]+))")


def parse_table_text(text: str) -> LookupTable:
    lines = text.splitlines()
    table = _parse_plain(text, lines)
    return _parse_lines(lines) if table is None else table


def _parse_plain(text: str, lines: list[str]) -> LookupTable | None:
    """The table of an ASCII file as ``format_table`` writes it: header
    ``N b`` and N bare decimal lines, checked and converted in C-level
    passes. None for any other file, including every file with an error, so
    that ``_parse_lines`` stays the one source of ``ParseError``."""
    # isascii() reads a flag of the string; it keeps out the non-ASCII
    # digits that isdecimal() accepts.
    if not (lines and text.isascii()):
        return None
    n_s, _, b_s = lines[0].partition(" ")
    body = lines[1:]
    if not (n_s.isdecimal() and b_s.isdecimal() and all(map(str.isdecimal, body))):
        return None
    try:
        # int() refuses decimal strings past sys.get_int_max_str_digits().
        n, b, entries = int(n_s), int(b_s), list(map(int, body))
    except ValueError:
        return None
    if n != len(entries) or n < 1 or b < 1 or max(entries).bit_length() > b:
        return None
    return LookupTable(tuple(entries), b)


def _parse_lines(lines: list[str]) -> LookupTable:
    header: tuple[int, int] | None = None
    entries: list[int] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(lineno, "expected header: <N> <b>")
            if not all(map(DECIMAL.fullmatch, parts)):
                raise ParseError(lineno, f"bad header {line!r}")
            try:
                n, b = int(parts[0]), int(parts[1])
            except ValueError:  # past sys.get_int_max_str_digits()
                raise ParseError(lineno, f"bad header {line!r}") from None
            if n < 1 or b < 1:
                raise ParseError(lineno, "N and b must be positive")
            header = (n, b)
            continue
        if len(entries) >= header[0]:
            raise ParseError(lineno, f"more than N = {header[0]} data lines")
        match = _ENTRY.fullmatch(line)
        if match is None:
            raise ParseError(lineno, f"bad entry {line!r}")
        sign, hex_digits, dec_digits = match.groups()
        try:
            # int() refuses decimal strings past sys.get_int_max_str_digits().
            value = int(hex_digits, 16) if hex_digits else int(dec_digits)
        except ValueError:
            raise ParseError(lineno, f"bad entry {line!r}") from None
        if sign:
            value = -value
        if value < 0 or value.bit_length() > header[1]:
            # The entry as written: a huge value has no decimal str().
            raise ParseError(lineno, f"entry {line} does not fit in {header[1]} bits")
        entries.append(value)

    if header is None:
        raise ParseError(1, "missing header line")
    if len(entries) != header[0]:
        raise ParseError(
            len(lines) or 1,
            f"expected {header[0]} data lines, found {len(entries)}",
        )
    return LookupTable(tuple(entries), header[1])


def load_table_file(path: str) -> LookupTable:
    return parse_table_text(_read_text(path))


def format_table(table: LookupTable) -> str:
    lines = [f"{table.n_entries} {table.bit_width}"]
    lines.extend(str(value) for value in table.entries)
    return "\n".join(lines) + "\n"
