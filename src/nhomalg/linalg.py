"""Exact linear algebra on sparse rational vectors indexed by words.

A *word* is a tuple of letters ``1..D`` and indexes the monomial basis of
the degree-n tensor power of a D-dimensional space.  Vectors are sparse
maps from words to nonzero ``Fraction`` coefficients; spans are kept in a
canonical reduced row-echelon form, so every computation is exact and
deterministic: rerunning a pipeline reproduces bit-identical rows.

The word order is degreewise lexicographic with ``1 < 2 < ... < D`` and
the pivot of a row is its greatest word, which makes the non-pivot
(normal) monomials the lexicographically small ones.

A span is built from vectors by :func:`rref` (the checked
:class:`Subspace` constructor, which always eliminates) and from other
spans by :meth:`Subspace.join`, :func:`shift`, :func:`annihilator` and
:func:`intersect`.  Row reduction works on integer-scaled primitive rows
(fraction-free elimination, Geddes, Czapor and Labahn, *Algorithms for
Computer Algebra*, 1992, ch. 9), and a span stores its rows in that form
only, so no operation on spans leaves the integers; Fractions, in lowest
terms, are made only in the vectors handed back to callers (``rows``,
``reduce``, ``coordinates``).  Only the remainder table, whose columns
give the annihilator and whose rows the tower of W_n in
:mod:`nhomalg.algebra` reads, lists every word of its degree.  A
:class:`Matrix` likewise stores integer rows over one scale, and its
rank runs the same elimination kernel.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from typing import Iterable, Iterator

Word = tuple[int, ...]

_ZERO = Fraction(0)


class DegreeMismatchError(ValueError):
    """Operands live in tensor powers of different degrees."""


class InternalConsistencyError(RuntimeError):
    """An invariant guaranteed by construction was violated: a bug."""


def all_words(alphabet: int, degree: int) -> Iterator[Word]:
    """All words of one degree over ``1..alphabet``, ascending lex."""
    return product(range(1, alphabet + 1), repeat=degree)


def format_word(word: Word) -> str:
    if all(letter <= 9 for letter in word):
        return "".join(str(letter) for letter in word) or "()"
    return "(" + ".".join(str(letter) for letter in word) + ")"


def _check_letters(v: "TensorVector", alphabet: int):
    """Refuse a vector with a word that uses a letter above ``alphabet``."""
    # One max over every letter; the loop only names the word at fault.
    if v.degree and v.terms and max(map(max, v.terms)) > alphabet:
        word = next(w for w in v.terms if max(w) > alphabet)
        raise ValueError(f"word {word} uses letters above {alphabet}")


class TensorVector:
    """Sparse exact vector in a fixed tensor-power degree.

    Immutable by convention: no method mutates ``terms`` after
    construction.
    """

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms=()):
        items = terms.items() if isinstance(terms, dict) else terms
        acc: dict[Word, Fraction] = {}
        for word, coeff in items:
            word = tuple(word)
            if len(word) != degree:
                raise DegreeMismatchError(
                    f"word {word} has degree {len(word)}, expected {degree}")
            if any(letter < 1 for letter in word):
                raise ValueError(f"letters must be positive integers, got {word}")
            acc[word] = acc.get(word, _ZERO) + Fraction(coeff)
        self.degree = degree
        self.terms = {word: c for word, c in acc.items() if c}

    @classmethod
    def _trusted(cls, degree: int, terms: dict[Word, Fraction]) -> "TensorVector":
        """Wrap ``terms`` as they are, without the checks of the constructor.

        For internal results that are valid by construction: distinct
        words of length ``degree`` over positive letters, each with a
        nonzero Fraction.  The dict is taken over, not copied.
        """
        v = cls.__new__(cls)
        v.degree = degree
        v.terms = terms
        return v

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, word) -> Fraction:
        return self.terms.get(tuple(word), _ZERO)

    def support(self) -> set[Word]:
        return set(self.terms)

    def sorted_terms(self) -> list[tuple[Word, Fraction]]:
        return [(word, self.terms[word]) for word in sorted(self.terms, reverse=True)]

    def __add__(self, other: "TensorVector") -> "TensorVector":
        if not isinstance(other, TensorVector):
            return NotImplemented
        if other.degree != self.degree:
            raise DegreeMismatchError(f"{self.degree} != {other.degree}")
        merged = dict(self.terms)
        for word, c in other.terms.items():
            merged[word] = merged.get(word, _ZERO) + c
        return TensorVector(self.degree, merged)

    def __neg__(self) -> "TensorVector":
        return TensorVector(self.degree, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "TensorVector") -> "TensorVector":
        return self + (-other)

    def __mul__(self, scalar) -> "TensorVector":
        scalar = Fraction(scalar)
        return TensorVector(self.degree, {w: c * scalar for w, c in self.terms.items()})

    __rmul__ = __mul__

    def tensor(self, other: "TensorVector") -> "TensorVector":
        out: dict[Word, Fraction] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                word = w1 + w2
                out[word] = out.get(word, _ZERO) + c1 * c2
        return TensorVector(self.degree + other.degree, out)

    def __eq__(self, other) -> bool:
        return (isinstance(other, TensorVector)
                and self.degree == other.degree and self.terms == other.terms)

    def __hash__(self):
        return hash((self.degree, frozenset(self.terms.items())))

    def __repr__(self):
        return f"TensorVector({self.degree}, {format_vector(self)!r})"


def word_vector(word) -> TensorVector:
    word = tuple(word)
    return TensorVector(len(word), {word: Fraction(1)})


def format_vector(v: TensorVector) -> str:
    if v.is_zero():
        return "0"
    parts = []
    for word, coeff in v.sorted_terms():
        sign = "-" if coeff < 0 else "+"
        parts.append((sign, f"{abs(coeff)}*{format_word(word)}"))
    first_sign, first_term = parts[0]
    text = ("-" if first_sign == "-" else "") + first_term
    for sign, term in parts[1:]:
        text += f" {sign} {term}"
    return text


# ---------------------------------------------------------------------------
# Integer-scaled row reduction core.

_IntRow = dict[Word, int]


def _primitive(row: _IntRow) -> _IntRow:
    g = gcd(*row.values()) if len(row) > 1 else abs(next(iter(row.values())))
    if g > 1:
        return {w: c // g for w, c in row.items()}
    return row


def _over_lcm(terms: dict) -> tuple[dict, int]:
    """``(ints, den)`` with ints / den the rationals ``terms``: den is the lcm
    of their denominators, so no factor of den divides every int."""
    den = lcm(*(c.denominator for c in terms.values()))
    if den == 1:
        return {k: c.numerator for k, c in terms.items()}, 1
    return {k: c.numerator * (den // c.denominator) for k, c in terms.items()}, den


def _combine(row: _IntRow, other: _IntRow, word: Word) -> _IntRow:
    """Primitive ``a*row - b*other`` killing ``word``, a/b the ratio of its
    coefficients in lowest terms: dividing by their gcd first changes no
    primitive result and keeps the products small."""
    a = other[word]
    b = row[word]
    if a != 1:
        g = gcd(a, b)
        if g > 1:
            a //= g
            b //= g
    new = dict(row) if a == 1 else {w: a * c for w, c in row.items()}
    for w, c in other.items():
        nc = new.get(w, 0) - b * c
        if nc:
            new[w] = nc
        elif w in new:
            del new[w]
    return _primitive(new) if new else new


def _echelon(rows: Iterable[_IntRow],
             pivots: dict[Word, _IntRow] | None = None) -> dict[Word, _IntRow]:
    """Forward pass: map pivot word -> row whose support is <= that pivot.

    ``pivots``, if given, already holds echelon rows; it is extended in
    place by the new ones and returned.
    """
    if pivots is None:
        pivots = {}
    for row in rows:
        row = dict(row)
        while row:
            w = max(row)
            hit = pivots.get(w)
            if hit is None:
                pivots[w] = _primitive(row)
                break
            row = _combine(row, hit, w)
    return pivots


def _full_reduce(pivots: dict[Word, _IntRow]) -> dict[Word, _IntRow]:
    """Backward pass: eliminate every pivot from every other row.

    Each finished row is made to have a positive pivot coefficient, so it
    is the unique primitive integer multiple of its reduced Fraction row.
    """
    done: dict[Word, _IntRow] = {}
    for w in sorted(pivots):
        row = pivots[w]
        # A finished row's support is its pivot plus free words only, so a
        # single pass over the current pivot hits suffices.  Their pivot
        # coefficients are positive, so combining keeps the sign at w.
        for hit in [k for k in row if k != w and k in done]:
            row = _combine(row, done[hit], hit)
        if row[w] < 0:
            row = {k: -c for k, c in row.items()}
        done[w] = row
    return done


def _reduced(rows: list[_IntRow],
             pivots: dict[Word, _IntRow] | None = None) -> dict[Word, _IntRow]:
    """Canonical rows of the span of ``pivots`` and ``rows``, pivots decreasing."""
    done = _full_reduce(_echelon(rows, pivots))
    return {w: done[w] for w in sorted(done, reverse=True)}


class Subspace:
    """Canonical row-reduced span inside one tensor power.

    Invariants: each row's pivot is its greatest word, no row has support
    at another row's pivot, and rows are listed with strictly decreasing
    pivots.  The constructor checks its vectors and eliminates, so every
    span it builds keeps these invariants; :func:`rref` is the same
    construction with the degree taken from the vectors.

    The rows are stored in one form only: primitive integer rows, each
    with a positive pivot coefficient, keyed by pivot.  Each is the unique
    such multiple of the reduced row with coefficient 1 at its pivot, so
    equal spans store equal rows.  Every operation reads and builds these
    rows; Fractions are made only in what a method returns
    (:attr:`rows`, :meth:`reduce`, :meth:`coordinates`).
    """

    __slots__ = ("alphabet", "degree", "_ints")

    def __init__(self, alphabet: int, degree: int, vectors: Iterable[TensorVector]):
        """Row-reduced span of ``vectors``, each of ``degree`` over ``1..alphabet``."""
        self.alphabet = alphabet
        self.degree = degree
        rows = []
        for v in vectors:
            self._check(v)
            if not v.is_zero():
                rows.append(_primitive(_over_lcm(v.terms)[0]))
        self._ints = _reduced(rows)

    @classmethod
    def _from_ints(cls, alphabet: int, degree: int, ints: dict[Word, _IntRow]) -> "Subspace":
        """Wrap canonical integer rows keyed by pivot, pivots decreasing.

        The one path that skips elimination; only for rows that are
        canonical by construction.
        """
        space = cls.__new__(cls)
        space.alphabet = alphabet
        space.degree = degree
        space._ints = ints
        return space

    @classmethod
    def zero(cls, alphabet: int, degree: int) -> "Subspace":
        return cls._from_ints(alphabet, degree, {})

    @classmethod
    def full(cls, alphabet: int, degree: int) -> "Subspace":
        words = list(all_words(alphabet, degree))[::-1]
        return cls._from_ints(alphabet, degree, {w: {w: 1} for w in words})

    @property
    def pivots(self) -> tuple[Word, ...]:
        return tuple(self._ints)

    @property
    def rows(self) -> tuple[TensorVector, ...]:
        """The rows as Fraction vectors with coefficient 1 at the pivot,
        made anew on each read."""
        return tuple(
            TensorVector._trusted(self.degree,
                                  {k: Fraction(c, row[p]) for k, c in row.items()})
            for p, row in self._ints.items())

    @property
    def dim(self) -> int:
        return len(self._ints)

    def codim(self) -> int:
        return self.alphabet ** self.degree - self.dim

    def _check(self, v: TensorVector):
        if v.degree != self.degree:
            raise DegreeMismatchError(f"vector degree {v.degree} != {self.degree}")
        _check_letters(v, self.alphabet)

    def _check_ambient(self, other: "Subspace"):
        if other.degree != self.degree:
            raise DegreeMismatchError(f"{self.degree} != {other.degree}")
        if other.alphabet != self.alphabet:
            raise ValueError("subspaces live in different ambients")

    def _remainder(self, num: _IntRow) -> tuple[_IntRow, int]:
        """``(rem, m)`` with rem / m the canonical remainder of ``num``.

        No row meets another's pivot, so the coordinates are num_p / L_p,
        L_p the pivot coefficients hit; with m their lcm, fraction-free,
        ``rem = m num - sum num_p (m // L_p) row_p``.
        """
        ints = self._ints
        hits = [(p, ints[p]) for p in num if p in ints]
        m = lcm(*(row[p] for p, row in hits))
        rem = {w: m * c for w, c in num.items()} if m > 1 else dict(num)
        for p, row in hits:
            a = num[p] * (m // row[p])
            for k, c in row.items():
                nc = rem.get(k, 0) - a * c
                if nc:
                    rem[k] = nc
                else:
                    del rem[k]
        return rem, m

    def reduce(self, v: TensorVector) -> TensorVector:
        """Canonical remainder of ``v``: no pivot word left in its support."""
        self._check(v)
        num, den = _over_lcm(v.terms)
        rem, m = self._remainder(num)
        den *= m
        return TensorVector._trusted(self.degree,
                                     {w: Fraction(c, den) for w, c in rem.items()})

    def join(self, other: "Subspace") -> "Subspace":
        """Row-reduced sum of this space and ``other``, on integer rows."""
        self._check_ambient(other)
        return self._extend(list(other._ints.values()))

    def _extend(self, rows: list[_IntRow]) -> "Subspace":
        """Span of this space and the integer ``rows``.

        The rows here are already reduced, so they seed the pivots; each
        new row is first cut to its remainder (:meth:`_remainder`, one
        pass), and only the nonzero remainders are eliminated.  A row of
        this space changes only if it holds a new pivot word, and is
        reused as it is if not.
        """
        if self._ints:
            rows = [rem for rem, _ in map(self._remainder, rows) if rem]
        return Subspace._from_ints(self.alphabet, self.degree,
                                   _reduced(rows, dict(self._ints)))

    def contains(self, v: TensorVector) -> bool:
        return self.reduce(v).is_zero()

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return all(not self._remainder(row)[0] for row in other._ints.values())

    def coordinates(self, v: TensorVector) -> list[Fraction] | None:
        """Coefficients of ``v`` over the rows, or None if v is outside."""
        if not self.contains(v):
            return None
        # In full RREF the coordinate over a row is v's pivot coefficient.
        return [v.coefficient(p) for p in self.pivots]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace)
                and self.alphabet == other.alphabet
                and self.degree == other.degree
                and self.pivots == other.pivots
                and self._ints == other._ints)

    def __hash__(self):
        return hash((self.alphabet, self.degree, self.pivots))

    def __repr__(self):
        return f"Subspace(D={self.alphabet}, degree={self.degree}, dim={self.dim})"


def rref(vectors: Iterable[TensorVector], alphabet: int,
         degree: int | None = None) -> Subspace:
    """Row-reduced span of the given vectors: :class:`Subspace` itself.

    ``degree`` is required when the span is empty; otherwise it is taken
    from the vectors (which must all agree).
    """
    vectors = list(vectors)
    if degree is None:
        if not vectors:
            raise ValueError("degree is required for an empty span")
        degree = vectors[0].degree
    return Subspace(alphabet, degree, vectors)


def _remainder_table(space: Subspace) -> tuple[dict[Word, dict[int, int]], int, int]:
    """``(table, scale, free)``: the remainder modulo ``space`` of every word
    of its degree, over one scale; the rows are read by the tower of
    W_n in :mod:`nhomalg.algebra` and the columns by :func:`annihilator`.

    ``free`` is the number of non-pivot words f and ``scale`` the lcm M of
    the pivot coefficients; ``table[t]`` is the remainder of M t, keyed by
    the position of each f among the non-pivot words, ascending lex.  A
    free word is its own remainder; a pivot word t, its row L t + sum a_f f
    meeting no other pivot, leaves -(M / L) sum a_f f.  Those f lie below
    t, so the words are numbered as the ascending scan meets them.
    """
    ints = space._ints
    scale = lcm(*(row[p] for p, row in ints.items()))
    position: dict[Word, int] = {}
    table = {}
    for t in all_words(space.alphabet, space.degree):
        row = ints.get(t)
        if row is None:
            position[t] = len(position)
            table[t] = {position[t]: scale}
        else:
            a = scale // row[t]
            table[t] = {position[f]: -a * c for f, c in row.items() if f != t}
    return table, scale, len(position)


def annihilator(space: Subspace) -> Subspace:
    """All dual vectors vanishing on the space, in the word basis.

    dim(space) + dim(annihilator) = alphabet ** degree.  The coefficient
    at a free word f of the remainder of M t (:func:`_remainder_table`)
    is a functional of t that vanishes on the space and is M at f and 0
    at every other free word, so these columns of the table, one per
    free word, span the annihilator.  Each lists the pivot words,
    descending, then f.
    """
    ints = space._ints
    table, scale, free = _remainder_table(space)
    columns: list[_IntRow] = [{} for _ in range(free)]
    for p in ints:
        for f, c in table[p].items():
            columns[f][p] = c
    frees = (t for t in table if t not in ints)
    rows = [{**column, t: scale} for column, t in zip(columns, frees)]
    return Subspace.zero(space.alphabet, space.degree)._extend(rows)


def _lex_index(word: Word, alphabet: int) -> int:
    """Position of ``word`` among the words of its length, ascending lex."""
    index = 0
    for letter in word:
        index = index * alphabet + letter - 1
    return index


def _column_labels(rows: list[dict[int, int]]) -> dict[int, int]:
    """Key j >= 0 -> its label in :func:`_markowitz`: the fewer ``rows``
    hold j, the higher it ranks, ties going to the greater key."""
    counts = Counter(j for row in rows for j in row)
    ascending = sorted(j for j in counts if j >= 0)
    # A stable sort keeps the ascending keys of equal counts in order.
    return {j: k for k, j in enumerate(sorted(ascending, key=counts.__getitem__, reverse=True))}


def _markowitz(rows: list[dict[int, int]]) -> list[dict[int, int]]:
    """``rows`` for :func:`_echelon` in a static Markowitz order
    (Management Sci. 3, 1957): the keys j >= 0 relabelled by
    :func:`_column_labels` and the rows fed shortest first, so each row is
    pivoted on its sparsest column, which keeps the fill-in low.  Negative
    keys are kept as they are, below every relabelled one."""
    label = _column_labels(rows)
    return sorted(({label.get(j, j): v for j, v in row.items()} for row in rows), key=len)


def _kernel(tagged: list[dict[int, int]]) -> dict[int, _IntRow]:
    """Canonical rows of the kernel of a linear map, in pivot coordinates:
    the elimination half of the meet.

    Row i of ``tagged`` is the image of a basis vector y_i, scaled by any
    positive factor, on nonnegative integer keys, plus its coordinate
    under the tag -1 - i: the coefficient of the scaled y_i at its pivot,
    which no other y_j meets.  Every tag ranks below every key, so an
    echelon row led by a tag has no key left and these rows span the
    kernel in pivot coordinates; fully reduced, they are its canonical
    rows there, whatever the scales, the keys or the order of the
    elimination, which runs in :func:`_markowitz` order.  Returned by lead
    tag, descending: the order of the pivots of the y_i, if they decrease.
    """
    coords = {tag: row for tag, row in _echelon(_markowitz(tagged)).items() if tag < 0}
    return dict(sorted(_full_reduce(coords).items(), reverse=True))


def _assemble(ys: list[tuple[Word, _IntRow]],
              kernel: dict[int, _IntRow]) -> dict[Word, _IntRow]:
    """The word rows of a kernel found by :func:`_kernel`: the assembly half
    of the meet.

    ``ys`` are (pivot, row) pairs of a reduced span, pivots decreasing,
    L_i the pivot coefficient of y_i; coordinates t_i give back the row
    sum (t_i / L_i) y_i.  Its coefficient at the pivot of y_i is t_i, so a
    kernel row fully reduced in pivot coordinates gives a row of the
    canonical form, and the rows come out keyed by pivot, decreasing.
    """
    meet: dict[Word, _IntRow] = {}
    for tag, coord in kernel.items():
        terms = [(t, *ys[-1 - j]) for j, t in coord.items()]
        scale = lcm(*(y[p] for _, p, y in terms))
        vector: _IntRow = {}
        for t, p, y in terms:
            a = t * (scale // y[p])
            for w, c in y.items():
                nc = vector.get(w, 0) + a * c
                if nc:
                    vector[w] = nc
                else:
                    del vector[w]
        meet[ys[-1 - tag][0]] = _primitive(vector)
    return meet


def intersect(s1: Subspace, s2: Subspace) -> Subspace:
    """Intersection, as the kernel (:func:`_kernel`, :func:`_assemble`) of
    the remainder map modulo the larger space on the rows of the smaller,
    the remainder of m_i y_i tagged with m_i L_i.

    Only the rows of the two spaces are read, so nothing grows with
    alphabet ** degree.
    """
    s1._check_ambient(s2)
    if s2.dim < s1.dim:
        s1, s2 = s2, s1
    ys = list(s1._ints.items())
    tagged = []
    for i, (p, y) in enumerate(ys):
        rem, m = s2._remainder(y)
        row = {_lex_index(w, s1.alphabet): c for w, c in rem.items()}
        row[-1 - i] = m * y[p]
        tagged.append(row)
    return Subspace._from_ints(s1.alphabet, s1.degree, _assemble(ys, _kernel(tagged)))


def shift(space: Subspace, left: int, right: int) -> Subspace:
    """E^(x left) (x) space (x) E^(x right), with no elimination.

    Prefixing u and suffixing w keeps the order of equal-length words,
    so the row ``u.r.w`` has pivot ``u.p.w`` for the pivot p of r, and it
    meets no other shifted row's pivot: the shifted rows are already the
    reduced row-echelon form.  The words of the rows' supports are
    numbered once; for each (u, w) every shifted word ``u.x.w`` is built
    once, and every row that holds x, as a term or as its pivot key,
    shares that one tuple.  The loops run prefix, then pivot, then suffix,
    so the pivots come out strictly decreasing.
    """
    if left < 0 or right < 0:
        raise ValueError("shift lengths must be nonnegative")
    prefixes = list(all_words(space.alphabet, left))[::-1]
    suffixes = list(all_words(space.alphabet, right))[::-1]
    index: dict[Word, int] = {}
    rows = [(index.setdefault(p, len(index)),
             [(index.setdefault(x, len(index)), c) for x, c in row.items()])
            for p, row in space._ints.items()]
    words = list(index)
    shifted = {}
    for u in prefixes:
        keys = [[u + x + w for x in words] for w in suffixes]
        for i, terms in rows:
            for key in keys:
                shifted[key[i]] = {key[k]: c for k, c in terms}
    return Subspace._from_ints(space.alphabet, left + space.degree + right, shifted)


def shifted_span(space: Subspace, left: int, right: int) -> list[TensorVector]:
    """Spanning set of E^(x left) (x) space (x) E^(x right): the rows of :func:`shift`."""
    return list(shift(space, left, right).rows)


# ---------------------------------------------------------------------------
# Sparse matrices over the rationals (chain-complex mechanics).

class Matrix:
    """Sparse exact-rational matrix: integer rows ``{i: {j: value}}`` over one
    positive ``scale``, entry (i, j) being ``rows[i][j] / scale``.

    Only nonzero entries are stored, no stored row is empty and no factor
    of the scale divides every entry, so two matrices of one shape are
    equal exactly when their rows and scales are.  Every operation walks
    the nonzeros only, on integers; a scale changes no rank, so
    :meth:`rank` hands the stored rows to the elimination kernel of
    :func:`rref` in the static Markowitz order that the meet also uses
    (:func:`_markowitz`), which keeps the fill-in of the slice matrices
    low.  Only :meth:`entry` and :attr:`entries` make Fractions, in lowest
    terms.
    """

    __slots__ = ("nrows", "ncols", "rows", "scale")

    def __init__(self, nrows: int, ncols: int, rows=None):
        """Matrix of the rational entries ``rows[i][j]``."""
        ints, self.scale = _over_lcm({(i, j): Fraction(v) for i, row in (rows or {}).items()
                                      for j, v in row.items() if v})
        self.nrows, self.ncols, self.rows = nrows, ncols, {}
        for (i, j), v in ints.items():
            self.rows.setdefault(i, {})[j] = v

    @classmethod
    def _from_ints(cls, nrows: int, ncols: int, rows: dict[int, dict[int, int]],
                   scale: int = 1) -> "Matrix":
        """Integer ``rows`` over a positive ``scale``, taken over unchecked.  One
        pass drops zeros (copying only the rows that hold one), empty rows and
        the common factor of scale and entries."""
        kept = {}
        g = scale
        for i, row in rows.items():
            if 0 in row.values():
                row = {j: v for j, v in row.items() if v}
            if row:
                kept[i] = row
                if g > 1:
                    g = gcd(g, *row.values())
        rows = kept
        if g > 1:
            rows = {i: {j: v // g for j, v in row.items()} for i, row in rows.items()}
        matrix = cls.__new__(cls)
        matrix.nrows, matrix.ncols, matrix.rows, matrix.scale = nrows, ncols, rows, scale // g
        return matrix

    @classmethod
    def kron_sum(cls, nrows: int, ncols: int, pairs) -> "Matrix":
        """Sum of the Kronecker products ``a (x) b`` over ``pairs``, in one
        pass, each brought from scale ``a.scale * b.scale`` to their lcm."""
        pairs = list(pairs)
        if any((a.nrows * b.nrows, a.ncols * b.ncols) != (nrows, ncols) for a, b in pairs):
            raise ValueError("shape mismatch")
        scale = lcm(*(a.scale * b.scale for a, b in pairs))
        acc: dict[int, dict[int, int]] = {}
        for a, b in pairs:
            factor = scale // (a.scale * b.scale)
            for i, arow in a.rows.items():
                arow = {j: factor * x for j, x in arow.items()} if factor > 1 else arow
                for k, brow in b.rows.items():
                    target = acc.setdefault(i * b.nrows + k, {})
                    for j, x in arow.items():
                        base = j * b.ncols
                        for l, y in brow.items():
                            target[base + l] = target.get(base + l, 0) + x * y
        return cls._from_ints(nrows, ncols, acc, scale)

    def entry(self, i: int, j: int) -> Fraction:
        value = self.rows.get(i, {}).get(j)
        return Fraction(value, self.scale) if value else _ZERO

    # No caller in the package builds a sum or a dense grid; the traced
    # benchmark run (perfbench/tracer.py) names ``__add__`` and reads
    # ``entries``, so both stay until that tracer moves to ``rows``.
    @property
    def entries(self) -> list[list[Fraction]]:
        grid = [[_ZERO] * self.ncols for _ in range(self.nrows)]
        for i, row in self.rows.items():
            for j, value in row.items():
                grid[i][j] = Fraction(value, self.scale)
        return grid

    def __add__(self, other: "Matrix") -> "Matrix":
        one = Matrix._from_ints(1, 1, {0: {0: 1}})  # a (x) [1] = a
        return Matrix.kron_sum(self.nrows, self.ncols, [(self, one), (other, one)])

    def is_zero(self) -> bool:
        return not self.rows

    def mul(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch: {self.ncols} != {other.nrows}")
        out: dict[int, dict[int, int]] = {}
        for i, row in self.rows.items():
            target = out[i] = {}
            for k, a in row.items():
                for j, b in other.rows.get(k, {}).items():
                    target[j] = target.get(j, 0) + a * b
        return Matrix._from_ints(self.nrows, other.ncols, out, self.scale * other.scale)

    def transpose(self) -> "Matrix":
        out: dict[int, dict[int, int]] = {}
        for i, row in self.rows.items():
            for j, value in row.items():
                out.setdefault(j, {})[i] = value
        return Matrix._from_ints(self.ncols, self.nrows, out, self.scale)

    def kron(self, other: "Matrix") -> "Matrix":
        return Matrix.kron_sum(self.nrows * other.nrows, self.ncols * other.ncols,
                               [(self, other)])

    def rank(self) -> int:
        """Rank by :func:`_echelon` in :func:`_markowitz` order; rank does
        not depend on the pivot order."""
        return len(_echelon(_markowitz(list(self.rows.values()))))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix)
                and self.nrows == other.nrows and self.ncols == other.ncols
                and self.scale == other.scale and self.rows == other.rows)

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols})"
