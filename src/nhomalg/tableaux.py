"""Schensted insertion, plactic normal forms, tableau enumeration and counts.

Words over 1..D are sent to semistandard Young tableaux by row bumping;
two words are Knuth equivalent exactly when they share a tableau.  The
tableaux of every cell count up to a bound are counted in one pass, as
chains of horizontal strips, with no tableau built: an independent
combinatorial count of graded dimensions.  Their enumeration stays for
the listing tests.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

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


def row_insert(tableau: Tableau, x: int, max_letter: int | None = None) -> Tableau:
    """Schensted row bumping: replace the leftmost entry strictly greater
    than x, push the displaced entry into the next row, append at the end."""
    if x < 1 or (max_letter is not None and x > max_letter):
        raise ValueError(f"letter {x} out of range")
    rows = [list(row) for row in tableau.rows]
    current = x
    for row in rows:
        pos = bisect_right(row, current)
        if pos == len(row):
            row.append(current)
            return Tableau(rows)
        current, row[pos] = row[pos], current
    rows.append([current])
    return Tableau(rows)


def word_to_tableau(word) -> Tableau:
    """Plactic normal form: insert the letters left to right."""
    tableau = EMPTY_TABLEAU
    for letter in word:
        tableau = row_insert(tableau, letter)
    return tableau


def reading_word(tableau: Tableau) -> Word:
    """Row word: bottom row to top row, each read left to right.

    Inserting it reproduces the tableau.
    """
    out: list[int] = []
    for row in reversed(tableau.rows):
        out.extend(row)
    return tuple(out)


def knuth_equivalent(w1, w2) -> bool:
    return word_to_tableau(w1) == word_to_tableau(w2)


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """Partitions of n as weakly decreasing tuples, ascending lex order."""
    return tuple(_shapes(n, n))


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


def tableaux_of_shape(shape, max_letter: int):
    """All semistandard fillings of a shape with entries up to max_letter,
    in lexicographic order of the concatenated rows."""
    shape = tuple(shape)
    if not shape:
        yield EMPTY_TABLEAU
        return
    if len(shape) > max_letter:
        return
    rows: list[list[int]] = []

    def fill_row(r):
        if r == len(shape):
            yield Tableau([list(row) for row in rows])
            return
        row = [0] * shape[r]

        def fill_cell(c):
            if c == shape[r]:
                rows.append(row)
                yield from fill_row(r + 1)
                rows.pop()
                return
            lo = row[c - 1] if c else 1
            if r:
                lo = max(lo, rows[r - 1][c] + 1)
            for value in range(lo, max_letter + 1):
                row[c] = value
                yield from fill_cell(c + 1)
            row[c] = 0

        yield from fill_cell(0)

    yield from fill_row(0)


def _guard_cells(D: int, n: int, word_limit: int):
    """Refuse n cells as guard_words refuses degree n: D^n bounds the tableaux."""
    if D < 1:
        raise ValueError("need D >= 1")
    guard_words(D, n, word_limit)


def _all_tableaux(D: int, n: int, word_limit: int):
    """Iterate the tableaux with n cells and entries up to D, by shape then
    filling; only the shapes with at most D rows are walked."""
    _guard_cells(D, n, word_limit)
    for shape in _shapes(n, D):
        yield from tableaux_of_shape(shape, D)


def enumerate_tableaux(D: int, n: int,
                       word_limit: int = DEFAULT_WORD_LIMIT) -> list[Tableau]:
    """Every tableau with n cells and entries up to D, by shape then filling."""
    return list(_all_tableaux(D, n, word_limit))


def _horizontal_strips(shape: tuple[int, ...], room: int):
    """The shapes lam with lam / ``shape`` a horizontal strip of at most
    ``room`` cells: lam_1 >= shape_1 >= lam_2 >= shape_2 >= ... >= lam_(k+1),
    k the number of rows of ``shape``, with no trailing zero part."""
    lows = shape + (0,)
    highs = (lows[0] + room,) + shape

    def grow(i, left):
        if i == len(lows):
            yield ()
            return
        for part in range(lows[i], min(highs[i], lows[i] + left) + 1):
            for rest in grow(i + 1, left - (part - lows[i])):
                yield (part,) + rest

    for lam in grow(0, room):
        yield lam if lam[-1] else lam[:-1]


def _guard_shapes(D: int, n: int, word_limit: int):
    """Refuse a count whose shapes, the keys :func:`count_tableaux` holds,
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
    built, in one pass.

    The cells holding entries up to k form a shape lam^k, and a tableau
    is a chain () = lam^0 <= lam^1 <= ... <= lam^D in which every lam^k /
    lam^(k-1) is a horizontal strip (Macdonald, *Symmetric Functions*,
    I.5).  The chains are counted letter by letter, keyed by their last
    shape, with at most n cells throughout, and summed by the size of
    that shape.  Refused, before any chain is counted, by
    ``guard_words`` at degree n and when the shapes exceed the limit.
    """
    _guard_cells(D, n, word_limit)
    _guard_shapes(D, n, word_limit)
    chains = {(): 1}
    for _ in range(D):
        grown: dict[tuple[int, ...], int] = {}
        for shape, count in chains.items():
            for lam in _horizontal_strips(shape, n - sum(shape)):
                grown[lam] = grown.get(lam, 0) + count
        chains = grown
    counts = [0] * (n + 1)
    for shape, count in chains.items():
        counts[sum(shape)] += count
    return counts


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
