"""Graded quotients of a tensor algebra by homogeneous relations.

A presentation is D generators and a subspace of relations in degree N.
The quotient algebra is handled degree by degree: each graded piece is
the ambient word space modulo the corresponding component of the
two-sided ideal, with the non-pivot words as a normal monomial basis.
The dual-side components (annihilator presentation and the intersection
spaces underlying the canonical complexes) live here as well.

Both families are built one degree at a time from the previous one:
I_n = I_{n-1} (x) E + E^(n-N) (x) R and
W_n = (W_{n-1} (x) E) cap (E^(n-N) (x) R).  The direct routes (the
union, respectively the intersection, of all n-N+1 shifts of R) are
cross-checks in :mod:`nhomalg.checks` and the tests.
"""

from __future__ import annotations

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
    rref,  # not called here; perfbench/test_perfbench.py checks this traced binding
    shift,
    word_vector,
)

DEFAULT_WORD_LIMIT = 10_000_000


class MemoryGuardError(RuntimeError):
    """A requested degree needs more basis words than the configured limit."""


def guard_words(D: int, degree: int, word_limit: int):
    """Refuse a degree whose D^degree basis words exceed ``word_limit``.

    The count is bounded below by 2^(degree (b - 1)), b the bit length
    of D: past the limit by that bound it is not computed, and from
    2^4096 on it is written as a power.
    """
    low_bits = degree * (D.bit_length() - 1)  # D^degree >= 2^low_bits
    if low_bits <= max(4096, word_limit.bit_length()):
        count = D ** degree
        if count <= word_limit:
            return
    estimate = count if low_bits < 4096 else f"{D}^{degree}"
    raise MemoryGuardError(
        f"degree {degree} needs D^n = {estimate} basis words, "
        f"above the configured limit of {word_limit}")


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


def free_presentation(D: int, N: int, order: str = "lex") -> Presentation:
    """Tensor algebra on D generators viewed as N-homogeneous (no relations)."""
    return Presentation(D, N, Subspace.zero(D, N, order))


class GradedAlgebra:
    """Degreewise view of the quotient algebra with memoised components.

    Each component is computed once, on first request, and cached by
    degree (word matrices by degree, word and side).
    """

    def __init__(self, presentation: Presentation,
                 word_limit: int = DEFAULT_WORD_LIMIT, order: str = "lex"):
        relations = presentation.relations
        if relations.order != order:
            relations = Subspace.zero(presentation.D, presentation.N, order)._extend(
                list(relations._ints.values()))
            presentation = Presentation(presentation.D, presentation.N, relations)
        self.presentation = presentation
        self.D = presentation.D
        self.N = presentation.N
        self.order = order
        self.word_limit = word_limit
        self._ideal: dict[int, Subspace] = {}
        self._normal: dict[int, dict[Word, int]] = {}
        self._dual: dict[int, Subspace] = {}
        self._word_mats: dict[tuple, Matrix] = {}

    # -- plumbing -----------------------------------------------------------

    def _cached(self, cache: dict, key, compute):
        if key not in cache:
            cache[key] = compute()
        return cache[key]

    # -- quotient side ------------------------------------------------------

    def ideal_component(self, n: int) -> Subspace:
        """Degree-n piece of the two-sided ideal generated by the relations."""
        def compute():
            guard_words(self.D, n, self.word_limit)
            if n < self.N:
                return Subspace.zero(self.D, n, self.order)
            if n == self.N:
                return self.presentation.relations
            return self.ideal_component_stepwise(n)
        return self._cached(self._ideal, n, compute)

    def ideal_component_stepwise(self, n: int) -> Subspace:
        """I_n = I_{n-1} (x) E + E^(n-N) (x) R, from the cached degree n - 1.

        The rows of I_{n-1} (x) E are already reduced (see :func:`shift`),
        so only the D^(n-N) dim R shifted relations are eliminated, on
        integer rows.  :meth:`ideal_component` caches this step.
        """
        guard_words(self.D, n, self.word_limit)
        if n <= self.N:
            return self.ideal_component(n)
        prev = self.ideal_component(n - 1)
        if prev.codim() == 0:
            # Once some graded piece vanishes, so do all higher ones
            # (the algebra is generated in degree 1).
            return Subspace.full(self.D, n, self.order)
        return shift(prev, 0, 1).join(shift(self.presentation.relations, n - self.N, 0))

    def component_dim(self, n: int) -> int:
        return self.ideal_component(n).codim()

    def normal_basis(self, n: int) -> dict[Word, int]:
        """Non-pivot words of the ideal component, ascending in the word
        order, each mapped to its position."""
        def compute():
            pivots = set(self.ideal_component(n).pivots)
            words = sorted(all_words(self.D, n), key=order_key(self.order))
            return {w: i for i, w in enumerate(w for w in words if w not in pivots)}
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
            target = self.normal_basis(n + len(word))
            rows: dict[int, dict[int, Fraction]] = {}
            for j, b in enumerate(source):
                product_word = b + word if side == "right" else word + b
                remainder = self.reduce_to_normal(word_vector(product_word))
                # Ascending i, the row order a scan of the normal basis gives.
                for i, c in sorted((target[w], c) for w, c in remainder.terms.items()):
                    rows.setdefault(i, {})[j] = c
            return Matrix(len(target), len(source), rows)
        return self._cached(self._word_mats, (n, word, side), compute)

    # -- dual side ----------------------------------------------------------

    def dual_space(self, n: int) -> Subspace:
        """W_n, the intersection of E^r (x) R (x) E^(n-N-r) over all r.

        Full space below the relation degree and the relations themselves
        at degree N.  Above, W_n = (W_{n-1} (x) E) cap (E^(n-N) (x) R):
        the shifts with r < n - N are exactly W_{n-1} (x) E, so one
        intersection per degree suffices.  Once one W_n vanishes all
        higher ones do.
        """
        def compute():
            guard_words(self.D, n, self.word_limit)
            if n < self.N:
                return Subspace.full(self.D, n, self.order)
            relations = self.presentation.relations
            if n == self.N:
                return relations
            prev = self.dual_space(n - 1)
            if prev.dim == 0:
                return Subspace.zero(self.D, n, self.order)
            return intersect(shift(prev, 0, 1), shift(relations, n - self.N, 0))
        return self._cached(self._dual, n, compute)

    def dual_dim(self, n: int) -> int:
        return self.dual_space(n).dim

    def __repr__(self):
        return (f"GradedAlgebra(D={self.D}, N={self.N}, "
                f"relations dim {self.presentation.relations.dim})")
