"""Text format for homogeneous relation files.

    D=2 N=3
    1*121 - 1*211
    1/2*221 - 1/2*212

The header fixes the generator count and the relation degree.  Each
following nonblank line is one relation: terms ``coeff*word`` joined by
``+`` or ``-``, coefficients integers or ``p/q`` rationals, words digit
strings over ``1..D`` (single-digit letters, so D <= 9); all digits are
ASCII.  Lines starting with ``#`` are comments.  Every malformed input
raises :class:`RelationParseError`, with 1-based line and column numbers.
"""

from __future__ import annotations

import re
from fractions import Fraction
from pathlib import Path

from .algebra import Presentation
from .linalg import TensorVector, format_vector, rref


class RelationParseError(ValueError):
    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        self.message = message
        super().__init__(f"line {line}, column {column}: {message}")


_HEADER_RE = re.compile(r"\s*D\s*=\s*(\d+)\s+N\s*=\s*(\d+)\s*$", re.ASCII)
_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?P<num>\d+)(?:\s*/\s*(?P<den>\d+))?\s*\*\s*(?P<word>\d+)",
    re.ASCII)


def _numeral(match: re.Match, group, lineno: int) -> int:
    """The integer value of a matched digit string."""
    try:
        return int(match.group(group))
    except ValueError as err:  # over the interpreter's int digit limit
        raise RelationParseError(lineno, match.start(group) + 1,
                                 "numeral too long") from err


def _parse_header(line: str, lineno: int) -> tuple[int, int]:
    match = _HEADER_RE.match(line)
    if not match:
        raise RelationParseError(lineno, 1, "expected header 'D=<int> N=<int>'")
    D = _numeral(match, 1, lineno)
    N = _numeral(match, 2, lineno)
    if not 1 <= D <= 9:
        raise RelationParseError(lineno, match.start(1) + 1,
                                 "D must be between 1 and 9 (single-digit letters)")
    if N < 2:
        raise RelationParseError(lineno, match.start(2) + 1, "N must be at least 2")
    return D, N


def _parse_relation(line: str, lineno: int, D: int, N: int) -> TensorVector:
    terms = []
    pos = 0
    first = True
    while pos < len(line) and line[pos:].strip():
        match = _TERM_RE.match(line, pos)
        if not match:
            column = pos + len(line[pos:]) - len(line[pos:].lstrip()) + 1
            raise RelationParseError(lineno, column, "expected a 'coeff*word' term")
        if not first and match.group("sign") is None:
            raise RelationParseError(lineno, match.start("num") + 1,
                                     "missing '+' or '-' between terms")
        coeff = Fraction(_numeral(match, "num", lineno))
        if match.group("den") is not None:
            den = _numeral(match, "den", lineno)
            if den == 0:
                raise RelationParseError(lineno, match.start("den") + 1,
                                         "zero denominator")
            coeff /= den
        if match.group("sign") == "-":
            coeff = -coeff
        digits = match.group("word")
        word = []
        for offset, ch in enumerate(digits):
            letter = int(ch)
            if not 1 <= letter <= D:
                raise RelationParseError(lineno, match.start("word") + offset + 1,
                                         f"letter {ch} outside 1..{D}")
            word.append(letter)
        if len(word) != N:
            raise RelationParseError(lineno, match.start("word") + 1,
                                     f"relation degree {len(word)} does not match N={N}")
        terms.append((tuple(word), coeff))
        pos = match.end()
        first = False
    return TensorVector(N, terms)


def parse_relations(text: str) -> Presentation:
    """Parse the relation-file format into a presentation."""
    header = None
    vectors = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if header is None:
            header = _parse_header(line, lineno)
            continue
        vector = _parse_relation(line, lineno, *header)
        if not vector.is_zero():
            vectors.append(vector)
    if header is None:
        raise RelationParseError(1, 1, "missing header 'D=<int> N=<int>'")
    D, N = header
    return Presentation(D, N, rref(vectors, D, N))


def parse_relation_file(path) -> Presentation:
    return parse_relations(Path(path).read_text())


def format_presentation(presentation: Presentation) -> str:
    """Canonical text for a presentation; parses back to equal relations."""
    if presentation.D > 9:
        raise ValueError("the file format supports single-digit letters only")
    lines = [f"D={presentation.D} N={presentation.N}"]
    lines.extend(format_vector(row) for row in presentation.relations.rows)
    return "\n".join(lines) + "\n"


def write_relation_file(path, presentation: Presentation):
    Path(path).write_text(format_presentation(presentation))
