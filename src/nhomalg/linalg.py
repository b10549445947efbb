"""Exact linear algebra on sparse rational vectors indexed by words.

A *word* is a tuple of letters ``1..D`` and indexes the monomial basis of
the degree-n tensor power of a D-dimensional space.  Vectors are sparse
maps from words to nonzero ``Fraction`` coefficients; spans are kept in a
canonical reduced row-echelon form, so every computation is exact and
deterministic: rerunning a pipeline reproduces bit-identical rows.

The word order is degreewise lexicographic with ``1 < 2 < ... < D`` and
the pivot of a row is its greatest word, which makes the non-pivot
(normal) monomials the lexicographically small ones.  ``order="revlex"``
compares with the letter order reversed; it exists so callers can verify
that exported quantities do not depend on this section choice.

Row reduction internally works on integer-scaled primitive rows (fraction
free elimination); only the exported rows and coordinates are Fractions,
always in lowest terms.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, lcm
from typing import Iterable, Iterator

Word = tuple[int, ...]

ORDERS = ("lex", "revlex")

_ZERO = Fraction(0)


class DegreeMismatchError(ValueError):
    """Operands live in tensor powers of different degrees."""


class InternalConsistencyError(RuntimeError):
    """An invariant guaranteed by construction was violated: a bug."""


def order_key(order: str):
    """Sort key on words; the pivot of a row is the key-greatest word."""
    if order == "lex":
        return lambda word: word
    if order == "revlex":
        return lambda word: tuple(-letter for letter in word)
    raise ValueError(f"unknown word order {order!r}, expected one of {ORDERS}")


def all_words(alphabet: int, degree: int) -> Iterator[Word]:
    """All words of one degree over ``1..alphabet``, ascending lex."""
    return product(range(1, alphabet + 1), repeat=degree)


def format_word(word: Word) -> str:
    if all(letter <= 9 for letter in word):
        return "".join(str(letter) for letter in word) or "()"
    return "(" + ".".join(str(letter) for letter in word) + ")"


class TensorVector:
    """Sparse exact vector in a fixed tensor-power degree.

    Immutable by convention: no method mutates ``terms`` after
    construction, so instances are safe to share across threads.
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

    def sorted_terms(self, order: str = "lex") -> list[tuple[Word, Fraction]]:
        key = order_key(order)
        return sorted(self.terms.items(), key=lambda item: key(item[0]), reverse=True)

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


def zero_vector(degree: int) -> TensorVector:
    return TensorVector(degree, ())


def word_vector(word) -> TensorVector:
    word = tuple(word)
    return TensorVector(len(word), {word: Fraction(1)})


def format_vector(v: TensorVector, order: str = "lex") -> str:
    if v.is_zero():
        return "0"
    parts = []
    for word, coeff in v.sorted_terms(order):
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


def _int_row(terms: dict) -> dict:
    """Primitive integer multiple of a nonzero row of rationals."""
    den = lcm(*(c.denominator for c in terms.values()))
    return _primitive({w: c.numerator * (den // c.denominator) for w, c in terms.items()})


def _int_rows(vectors: Iterable[TensorVector]) -> list[_IntRow]:
    return [_int_row(v.terms) for v in vectors if not v.is_zero()]


def _combine(row: _IntRow, other: _IntRow, word: Word) -> _IntRow:
    """Return ``a*row - b*other`` killing ``word`` (a, b its coefficients)."""
    a = other[word]
    b = row[word]
    new = dict(row) if a == 1 else {w: a * c for w, c in row.items()}
    for w, c in other.items():
        nc = new.get(w, 0) - b * c
        if nc:
            new[w] = nc
        elif w in new:
            del new[w]
    return _primitive(new) if new else new


def _echelon(rows: list[_IntRow], key,
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
            w = max(row, key=key)
            hit = pivots.get(w)
            if hit is None:
                pivots[w] = _primitive(row)
                break
            row = _combine(row, hit, w)
    return pivots


def _full_reduce(pivots: dict[Word, _IntRow], key) -> dict[Word, _IntRow]:
    """Backward pass: eliminate every pivot from every other row."""
    done: dict[Word, _IntRow] = {}
    for w in sorted(pivots, key=key):
        row = pivots[w]
        # A finished row's support is its pivot plus free words only, so a
        # single pass over the current pivot hits suffices.
        for hit in [k for k in row if k != w and k in done]:
            row = _combine(row, done[hit], hit)
        done[w] = row
    return done


class Subspace:
    """Canonical row-reduced span inside one tensor power.

    Invariants: each row has coefficient 1 at its pivot (its greatest word
    under the span's order), no row has support at another row's pivot,
    and rows are listed with strictly decreasing pivots.  Built through
    :func:`rref`, :meth:`extend` or :func:`shift`; instances are immutable.
    """

    __slots__ = ("alphabet", "degree", "order", "rows", "pivots", "_by_pivot")

    def __init__(self, alphabet: int, degree: int, rows, order: str = "lex"):
        key = order_key(order)
        self.alphabet = alphabet
        self.degree = degree
        self.order = order
        self.rows = tuple(rows)
        self.pivots = tuple(max(r.terms, key=key) for r in self.rows)
        self._by_pivot = dict(zip(self.pivots, self.rows))

    @classmethod
    def _trusted(cls, alphabet: int, degree: int, rows, pivots,
                 order: str) -> "Subspace":
        """Wrap rows that already satisfy the invariants, with their pivots."""
        space = cls.__new__(cls)
        space.alphabet = alphabet
        space.degree = degree
        space.order = order
        space.rows = tuple(rows)
        space.pivots = tuple(pivots)
        space._by_pivot = dict(zip(space.pivots, space.rows))
        return space

    @classmethod
    def zero(cls, alphabet: int, degree: int, order: str = "lex") -> "Subspace":
        return cls(alphabet, degree, (), order)

    @classmethod
    def full(cls, alphabet: int, degree: int, order: str = "lex") -> "Subspace":
        key = order_key(order)
        words = sorted(all_words(alphabet, degree), key=key, reverse=True)
        return cls(alphabet, degree, [word_vector(w) for w in words], order)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def codim(self) -> int:
        return self.alphabet ** self.degree - self.dim

    def _check(self, v: TensorVector):
        if v.degree != self.degree:
            raise DegreeMismatchError(f"vector degree {v.degree} != {self.degree}")
        for word in v.terms:
            if any(letter > self.alphabet for letter in word):
                raise ValueError(f"word {word} uses letters above {self.alphabet}")

    def reduce(self, v: TensorVector) -> TensorVector:
        """Canonical remainder of ``v``: no pivot word left in its support."""
        self._check(v)
        rem = dict(v.terms)
        for w in [w for w in rem if w in self._by_pivot]:
            c = rem.pop(w)
            for k, rc in self._by_pivot[w].terms.items():
                if k == w:
                    continue
                nc = rem.get(k, _ZERO) - c * rc
                if nc:
                    rem[k] = nc
                elif k in rem:
                    del rem[k]
        return TensorVector._trusted(self.degree, rem)

    def extend(self, vectors: Iterable[TensorVector]) -> "Subspace":
        """Row-reduced span of this space and ``vectors``.

        The rows here are already reduced, so they seed the pivots and
        only the new vectors are eliminated; a row of this space changes
        only if it holds a new pivot word, and is reused as it is if not.
        """
        vectors = list(vectors)
        for v in vectors:
            self._check(v)
        key = order_key(self.order)
        seeds = {p: _int_row(row.terms) for p, row in self._by_pivot.items()}
        done = _full_reduce(_echelon(_int_rows(vectors), key, dict(seeds)), key)
        pivots = sorted(done, key=key, reverse=True)
        rows = []
        for w in pivots:
            row = done[w]
            if row is seeds.get(w):
                rows.append(self._by_pivot[w])
            else:
                lead = row[w]
                rows.append(TensorVector._trusted(
                    self.degree, {k: Fraction(c, lead) for k, c in row.items()}))
        return Subspace._trusted(self.alphabet, self.degree, rows, pivots, self.order)

    def contains(self, v: TensorVector) -> bool:
        return self.reduce(v).is_zero()

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(row) for row in other.rows)

    def coordinates(self, v: TensorVector) -> list[Fraction] | None:
        """Coefficients of ``v`` over the rows, or None if v is outside."""
        if not self.reduce(v).is_zero():
            return None
        # In full RREF the coordinate over a row is v's pivot coefficient.
        return [v.coefficient(p) for p in self.pivots]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace)
                and self.alphabet == other.alphabet
                and self.degree == other.degree
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.alphabet, self.degree, self.rows))

    def __repr__(self):
        return (f"Subspace(D={self.alphabet}, degree={self.degree}, "
                f"dim={self.dim}, order={self.order!r})")


def rref(vectors: Iterable[TensorVector], alphabet: int, degree: int | None = None,
         order: str = "lex") -> Subspace:
    """Row-reduced span of the given vectors.

    ``degree`` is required when the span is empty; otherwise it is taken
    from the vectors (which must all agree).
    """
    vectors = list(vectors)
    if degree is None:
        if not vectors:
            raise ValueError("degree is required for an empty span")
        degree = vectors[0].degree
    for v in vectors:
        if v.degree != degree:
            raise DegreeMismatchError(
                f"mixed degrees in span: {v.degree} != {degree}")
    return Subspace.zero(alphabet, degree, order).extend(vectors)


def _annihilator_vectors(space: Subspace) -> list[TensorVector]:
    """Raw spanning set of the annihilator, one vector per free word.

    With the self-dual word pairing, a row ``e_p + sum c_f e_f`` forces
    ``w_p = -c_f`` on the functional that is 1 at free word f.
    """
    pivotset = set(space.pivots)
    vecs: dict[Word, dict[Word, Fraction]] = {
        w: {w: Fraction(1)}
        for w in all_words(space.alphabet, space.degree) if w not in pivotset
    }
    for pivot, row in zip(space.pivots, space.rows):
        for word, coeff in row.terms.items():
            if word != pivot:
                vecs[word][pivot] = -coeff
    return [TensorVector._trusted(space.degree, terms) for terms in vecs.values()]


def annihilator(space: Subspace) -> Subspace:
    """All dual vectors vanishing on the space, in the word basis.

    dim(space) + dim(annihilator) = alphabet ** degree.
    """
    return rref(_annihilator_vectors(space), space.alphabet, space.degree,
                space.order)


def intersect(s1: Subspace, s2: Subspace) -> Subspace:
    """Intersection, computed by stacking the two annihilators."""
    if s1.degree != s2.degree:
        raise DegreeMismatchError(f"{s1.degree} != {s2.degree}")
    if s1.alphabet != s2.alphabet or s1.order != s2.order:
        raise ValueError("subspaces live in different ambients")
    constraints = rref(_annihilator_vectors(s1) + _annihilator_vectors(s2),
                       s1.alphabet, s1.degree, s1.order)
    return annihilator(constraints)


def shift(space: Subspace, left: int, right: int) -> Subspace:
    """E^(x left) (x) space (x) E^(x right), with no elimination.

    Under either word order, prefixing u and suffixing w keeps the order
    of equal-length words, so the row ``u.r.w`` has pivot ``u.p.w`` for
    the pivot p of r, and it meets no other shifted row's pivot: the
    shifted rows are already the reduced row-echelon form.
    """
    if left < 0 or right < 0:
        raise ValueError("shift lengths must be nonnegative")
    key = order_key(space.order)
    prefixes = sorted(all_words(space.alphabet, left), key=key, reverse=True)
    suffixes = sorted(all_words(space.alphabet, right), key=key, reverse=True)
    degree = left + space.degree + right
    rows, pivots = [], []
    for u in prefixes:
        for p, row in zip(space.pivots, space.rows):
            for w in suffixes:
                rows.append(TensorVector._trusted(
                    degree, {u + x + w: c for x, c in row.terms.items()}))
                pivots.append(u + p + w)
    return Subspace._trusted(space.alphabet, degree, rows, pivots, space.order)


def shifted_span(space: Subspace, left: int, right: int) -> list[TensorVector]:
    """Spanning set of E^(x left) (x) space (x) E^(x right): the rows of :func:`shift`."""
    return list(shift(space, left, right).rows)


# ---------------------------------------------------------------------------
# Sparse matrices over the rationals (chain-complex mechanics).

class Matrix:
    """Sparse exact-rational matrix: a dict of nonzero rows ``{i: {j: value}}``.

    Only nonzero entries are stored and no stored row is empty, so two
    matrices of one shape are equal exactly when their row dicts are.
    The boundary maps of the contraction slices are a few percent
    nonzero; every operation walks the nonzeros only, and :meth:`rank`
    runs the same fraction-free elimination kernel as :func:`rref`.
    """

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows=None):
        self.nrows = nrows
        self.ncols = ncols
        self.rows: dict[int, dict[int, Fraction]] = {}
        for i, row in (rows or {}).items():
            row = {j: value for j, value in row.items() if value}
            if row:
                self.rows[i] = row

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "Matrix":
        return cls(nrows, ncols)

    @classmethod
    def kron_sum(cls, nrows: int, ncols: int, pairs) -> "Matrix":
        """Sum of the Kronecker products ``a (x) b`` over ``pairs``, in one pass."""
        acc: dict[int, dict[int, Fraction]] = {}
        for a, b in pairs:
            if (a.nrows * b.nrows, a.ncols * b.ncols) != (nrows, ncols):
                raise ValueError("shape mismatch")
            for i, arow in a.rows.items():
                for k, brow in b.rows.items():
                    target = acc.setdefault(i * b.nrows + k, {})
                    for j, x in arow.items():
                        base = j * b.ncols
                        for l, y in brow.items():
                            target[base + l] = target.get(base + l, _ZERO) + x * y
        return cls(nrows, ncols, acc)

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows.get(i, {}).get(j, _ZERO)

    # No caller in the package builds a sum or a dense grid; the traced
    # benchmark run (perfbench/tracer.py) names ``__add__`` and reads
    # ``entries``, so both stay until that tracer moves to ``rows``.
    @property
    def entries(self) -> list[list[Fraction]]:
        return [[self.entry(i, j) for j in range(self.ncols)] for i in range(self.nrows)]

    def __add__(self, other: "Matrix") -> "Matrix":
        one = Matrix(1, 1, {0: {0: Fraction(1)}})  # a (x) [1] = a
        return Matrix.kron_sum(self.nrows, self.ncols, [(self, one), (other, one)])

    def is_zero(self) -> bool:
        return not self.rows

    def mul(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch: {self.ncols} != {other.nrows}")
        out: dict[int, dict[int, Fraction]] = {}
        for i, row in self.rows.items():
            target = out[i] = {}
            for k, a in row.items():
                for j, b in other.rows.get(k, {}).items():
                    target[j] = target.get(j, _ZERO) + a * b
        return Matrix(self.nrows, other.ncols, out)

    def transpose(self) -> "Matrix":
        out: dict[int, dict[int, Fraction]] = {}
        for i, row in self.rows.items():
            for j, value in row.items():
                out.setdefault(j, {})[i] = value
        return Matrix(self.ncols, self.nrows, out)

    def kron(self, other: "Matrix") -> "Matrix":
        return Matrix.kron_sum(self.nrows * other.nrows, self.ncols * other.ncols,
                               [(self, other)])

    def rank(self) -> int:
        return len(_echelon([_int_row(row) for row in self.rows.values()], None))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix)
                and self.nrows == other.nrows and self.ncols == other.ncols
                and self.rows == other.rows)

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols})"
