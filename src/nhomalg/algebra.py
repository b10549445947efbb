"""Graded quotients of a tensor algebra by homogeneous relations.

A presentation is D generators and a subspace of relations in degree N.
The quotient algebra is handled degree by degree: each graded piece is
the ambient word space modulo the corresponding component of the
two-sided ideal, with the non-pivot words as a normal monomial basis.
The dual-side components (annihilator presentation and the intersection
spaces underlying the canonical complexes) live here as well.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction

from .linalg import (
    DegreeMismatchError,
    Matrix,
    Subspace,
    TensorVector,
    Word,
    all_words,
    annihilator,
    intersect,
    order_key,
    rref,
    shifted_span,
    word_vector,
)

DEFAULT_WORD_LIMIT = 10_000_000


class MemoryGuardError(RuntimeError):
    """A requested degree needs more basis words than the configured limit."""


@dataclass(frozen=True)
class Presentation:
    """D generators with a relation subspace in degree N."""

    D: int
    N: int
    relations: Subspace

    def __post_init__(self):
        if self.D < 1:
            raise ValueError("need at least one generator")
        if self.N < 2:
            raise ValueError("relation degree must be at least 2")
        if self.relations.degree != self.N:
            raise DegreeMismatchError(
                f"relations have degree {self.relations.degree}, expected {self.N}")
        if self.relations.alphabet != self.D:
            raise ValueError(
                f"relations are over {self.relations.alphabet} letters, expected {self.D}")

    def dual(self) -> "Presentation":
        """Same generators and degree, relations replaced by their annihilator.

        Applying this twice returns a presentation with the original
        relation subspace.
        """
        return Presentation(self.D, self.N, annihilator(self.relations))


def dual_presentation(presentation: Presentation) -> Presentation:
    return presentation.dual()


def free_presentation(D: int, N: int, order: str = "lex") -> Presentation:
    """Tensor algebra on D generators viewed as N-homogeneous (no relations)."""
    return Presentation(D, N, Subspace.zero(D, N, order))


class GradedAlgebra:
    """Degreewise view of the quotient algebra with memoised components.

    All cached values are immutable once stored.  Cache fills use
    double-checked locking: a value may be recomputed under a race but
    computation is referentially transparent, so readers always see
    equal results.
    """

    def __init__(self, presentation: Presentation,
                 word_limit: int = DEFAULT_WORD_LIMIT, order: str = "lex"):
        relations = presentation.relations
        if relations.order != order:
            relations = rref(relations.rows, presentation.D, presentation.N, order)
            presentation = Presentation(presentation.D, presentation.N, relations)
        self.presentation = presentation
        self.D = presentation.D
        self.N = presentation.N
        self.order = order
        self.word_limit = word_limit
        self._lock = threading.Lock()
        self._ideal: dict[int, Subspace] = {}
        self._dims: dict[int, int] = {}
        self._normal: dict[int, tuple[Word, ...]] = {}
        self._dual: dict[int, Subspace] = {}
        self._word_mats: dict[tuple, Matrix] = {}

    # -- plumbing -----------------------------------------------------------

    def guard(self, degree: int):
        """Refuse degrees whose ambient basis exceeds the word limit."""
        estimate = self.D ** degree
        if estimate > self.word_limit:
            raise MemoryGuardError(
                f"degree {degree} needs D^n = {estimate} basis words, "
                f"above the configured limit of {self.word_limit}")

    def _cached(self, cache: dict, key, compute):
        with self._lock:
            if key in cache:
                return cache[key]
        value = compute()
        with self._lock:
            return cache.setdefault(key, value)

    # -- quotient side ------------------------------------------------------

    def ideal_component(self, n: int) -> Subspace:
        """Degree-n piece of the two-sided ideal generated by the relations."""
        def compute():
            self.guard(n)
            if n < self.N:
                return Subspace.zero(self.D, n, self.order)
            with self._lock:
                dead = any(self._dims.get(m) == 0 for m in range(self.N, n))
            if dead:
                # Once some graded piece vanishes, so do all higher ones
                # (the algebra is generated in degree 1).
                return Subspace.full(self.D, n, self.order)
            vectors = []
            relations = self.presentation.relations
            for r in range(n - self.N + 1):
                vectors.extend(shifted_span(relations, r, n - self.N - r))
            return rref(vectors, self.D, n, self.order)
        return self._cached(self._ideal, n, compute)

    def ideal_component_stepwise(self, n: int) -> Subspace:
        """Recompute the ideal component from the previous degree.

        Consistency route only; the direct union of shifts is normative.
        """
        if n <= self.N:
            return self.ideal_component(n)
        prev = self.ideal_component(n - 1)
        vectors = shifted_span(prev, 1, 0) + shifted_span(prev, 0, 1)
        return rref(vectors, self.D, n, self.order)

    def component_dim(self, n: int) -> int:
        dim = self.D ** n - self.ideal_component(n).dim
        with self._lock:
            self._dims.setdefault(n, dim)
        return dim

    def normal_basis(self, n: int) -> tuple[Word, ...]:
        """Non-pivot words of the ideal component, ascending in the word order."""
        def compute():
            pivots = set(self.ideal_component(n).pivots)
            key = order_key(self.order)
            return tuple(w for w in sorted(all_words(self.D, n), key=key)
                         if w not in pivots)
        return self._cached(self._normal, n, compute)

    def reduce_to_normal(self, v: TensorVector) -> TensorVector:
        """Canonical representative of v modulo the ideal component."""
        return self.ideal_component(v.degree).reduce(v)

    def normal_coordinates(self, v: TensorVector) -> list[Fraction]:
        """Coordinates of v over the normal basis of its degree."""
        remainder = self.reduce_to_normal(v)
        return [remainder.coefficient(w) for w in self.normal_basis(v.degree)]

    def word_matrix(self, n: int, word, side: str = "right") -> Matrix:
        """Matrix of multiplication by a fixed word, in normal bases.

        Maps degree n to degree ``n + len(word)``; ``side`` selects
        ``a -> a*word`` (right) or ``a -> word*a`` (left).
        """
        word = tuple(word)
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        if any(not 1 <= letter <= self.D for letter in word):
            raise ValueError(f"word {word} is not over 1..{self.D}")

        def compute():
            source = self.normal_basis(n)
            target_dim = self.component_dim(n + len(word))
            rows: dict[int, dict[int, Fraction]] = {}
            for j, b in enumerate(source):
                product_word = b + word if side == "right" else word + b
                for i, c in enumerate(self.normal_coordinates(word_vector(product_word))):
                    if c:
                        rows.setdefault(i, {})[j] = c
            return Matrix(target_dim, len(source), rows)
        return self._cached(self._word_mats, (n, word, side), compute)

    def generator_matrix(self, n: int, k: int, side: str = "right") -> Matrix:
        """Multiplication by the k-th generator, degree n to degree n + 1."""
        if not 1 <= k <= self.D:
            raise ValueError(f"generator index {k} outside 1..{self.D}")
        return self.word_matrix(n, (k,), side)

    # -- dual side ----------------------------------------------------------

    def dual_space(self, n: int) -> Subspace:
        """Intersection of all shifted relation spaces in degree n.

        Full space below the relation degree, the relations themselves at
        degree N, and the iterated intersection above.  These spaces nest:
        each one sits inside the previous one tensored with a letter on
        either side, so once one vanishes all higher ones do.
        """
        def compute():
            self.guard(n)
            if n < self.N:
                return Subspace.full(self.D, n, self.order)
            relations = self.presentation.relations
            if n == self.N:
                return relations
            if self.dual_dim(n - 1) == 0:
                return Subspace.zero(self.D, n, self.order)
            space = rref(shifted_span(relations, 0, n - self.N), self.D, n, self.order)
            for r in range(1, n - self.N + 1):
                if space.dim == 0:
                    break
                shifted = rref(shifted_span(relations, r, n - self.N - r),
                               self.D, n, self.order)
                space = intersect(space, shifted)
            return space
        return self._cached(self._dual, n, compute)

    def dual_dim(self, n: int) -> int:
        return self.dual_space(n).dim

    def __repr__(self):
        return (f"GradedAlgebra(D={self.D}, N={self.N}, "
                f"relations dim {self.presentation.relations.dim})")
