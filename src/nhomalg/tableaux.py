"""Schensted insertion, plactic normal forms and tableau counts.

Words over 1..D are sent to semistandard Young tableaux by row bumping,
one pass over the word on plain lists with one tableau built at the end;
two words are Knuth equivalent exactly when they share a tableau.  The
tableaux of every cell count up to a bound are counted shape by shape
by the Weyl dimension formula, with no tableau built: an independent
combinatorial count of graded dimensions.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import comb

from .algebra import DEFAULT_WORD_LIMIT, GradedAlgebra, MemoryGuardError, guard_words
from .linalg import InternalConsistencyError, Word


class Tableau:
    """Semistandard Young tableau: weakly increasing rows, strictly
    increasing columns, weakly decreasing row lengths."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(row) for row in rows)
        for i, row in enumerate(rows):
            if not row:
                raise ValueError("empty row in tableau")
            if any(x < 1 for x in row):
                raise ValueError("tableau entries must be positive")
            if any(a > b for a, b in zip(row, row[1:])):
                raise ValueError(f"row {row} is not weakly increasing")
            if i:
                above = rows[i - 1]
                if len(row) > len(above):
                    raise ValueError("row lengths must weakly decrease")
                if any(row[j] <= above[j] for j in range(len(row))):
                    raise ValueError("columns must strictly increase")
        self.rows = rows

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(row) for row in self.rows)

    @property
    def size(self) -> int:
        return sum(len(row) for row in self.rows)

    def render_lines(self) -> list[str]:
        return [" ".join(str(x) for x in row) for row in self.rows]

    def __eq__(self, other) -> bool:
        return isinstance(other, Tableau) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"Tableau({[list(r) for r in self.rows]!r})"


EMPTY_TABLEAU = Tableau(())


def word_to_tableau(word) -> Tableau:
    """Plactic normal form by Schensted row bumping, letter by letter: a
    letter replaces the leftmost entry of a row strictly greater than it,
    the displaced entry goes on into the next row, and a letter that no
    entry exceeds ends its row.  The rows are bumped in place as lists,
    and one tableau is built and checked at the end."""
    rows: list[list[int]] = []
    for x in word:
        if x < 1:
            raise ValueError(f"letter {x} out of range")
        for row in rows:
            pos = bisect_right(row, x)
            if pos == len(row):
                row.append(x)
                break
            x, row[pos] = row[pos], x
        else:
            rows.append([x])
    return Tableau(rows)


def reading_word(tableau: Tableau) -> Word:
    """Row word: bottom row to top row, each read left to right.

    Inserting it reproduces the tableau.
    """
    out: list[int] = []
    for row in reversed(tableau.rows):
        out.extend(row)
    return tuple(out)


def row_insert(tableau: Tableau, x: int) -> Tableau:
    """Schensted row bumping of one letter into a tableau: the insertion
    of its reading word, which reproduces it, followed by x."""
    return word_to_tableau(reading_word(tableau) + (x,))


def _shapes(n: int, rows: int):
    """The partitions of n with at most ``rows`` parts, ascending lex; a first
    part below ceil(n / rows) would leave too much for the other parts."""
    def gen(remaining, cap, parts):
        if remaining == 0:
            yield ()
            return
        for first in range(-(-remaining // parts), min(cap, remaining) + 1):
            for rest in gen(remaining - first, first, parts - 1):
                yield (first,) + rest
    return gen(n, n, rows)


def _guard_shapes(D: int, n: int, word_limit: int):
    """Refuse a count whose shapes, which :func:`count_tableaux` walks,
    exceed ``word_limit``.  For D >= 2 ``guard_words`` has bounded them:
    there are at most 2^n <= D^n shapes of at most n cells, since each
    partition of k is one of the 2^(k-1) compositions of k.  For D = 1
    they are the n + 1 one-row shapes, which 1^n = 1 does not bound.
    """
    if D == 1 and n + 1 > word_limit:
        raise MemoryGuardError(
            f"{n} cells need {n + 1} one-row shapes, "
            f"above the configured limit of {word_limit}")


def count_tableaux(D: int, n: int, word_limit: int = DEFAULT_WORD_LIMIT) -> list[int]:
    """Numbers of tableaux with 0..n cells and entries up to D, none of them
    built.

    The tableaux of shape lam with entries up to D number s_lam(1^D) =
    prod_(i<j<=D) (lam_i - lam_j + j - i) / (j - i), the Weyl dimension
    formula (Macdonald, *Symmetric Functions*, I.3 Ex. 1), summed over the
    shapes of each cell count with at most D rows.  Refused, before any
    shape is walked, by ``guard_words`` at degree n (D^n bounds the
    tableaux) and when the shapes exceed the limit.
    """
    if D < 1:
        raise ValueError("need D >= 1")
    guard_words(D, n, word_limit)
    _guard_shapes(D, n, word_limit)
    return [sum(_weyl_dimension(shape, D) for shape in _shapes(k, D))
            for k in range(n + 1)]


def _weyl_dimension(shape: tuple[int, ...], D: int) -> int:
    """s_shape(1^D), at a cost set by the shape and not by D: the factors
    with j past the last row l of the shape have lam_j = 0, and for each
    row i their product over l <= j < D telescopes to
    C(lam_i + D-1-i, lam_i) / C(lam_i + l-1-i, lam_i) (rows from 0)."""
    rows = len(shape)
    num = den = 1
    for i, part in enumerate(shape):
        num *= comb(part + D - 1 - i, part)
        den *= comb(part + rows - 1 - i, part)
        for j in range(i + 1, rows):
            num *= part - shape[j] + j - i
            den *= j - i
    return num // den


@dataclass(frozen=True)
class DimensionCrossCheck:
    """Per-degree agreement of tableau counts with two algebra dimensions."""

    D: int
    n_max: int
    counts: tuple[int, ...]


def dimension_cross_check(D: int, n_max: int,
                          word_limit: int = DEFAULT_WORD_LIMIT) -> DimensionCrossCheck:
    """Assert the three-way count identity degree by degree.

    Tableau count == plactic component dimension == parafermionic
    component dimension; any mismatch raises with the offending degree.
    """
    from .catalog import parafermion, plactic

    plactic_algebra = GradedAlgebra(plactic(D), word_limit=word_limit)
    parafermi_algebra = GradedAlgebra(parafermion(D), word_limit=word_limit)
    counts = count_tableaux(D, n_max, word_limit)
    for n, tableaux in enumerate(counts):
        from_plactic = plactic_algebra.component_dim(n)
        from_parafermion = parafermi_algebra.component_dim(n)
        if not tableaux == from_plactic == from_parafermion:
            raise InternalConsistencyError(
                f"dimension mismatch at degree {n}: {tableaux} tableaux, "
                f"plactic {from_plactic}, parafermionic {from_parafermion}")
    return DimensionCrossCheck(D, n_max, tuple(counts))
