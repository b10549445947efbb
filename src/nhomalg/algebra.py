"""Graded quotients of a tensor algebra by homogeneous relations.

A presentation is D generators and a subspace of relations in degree N.
The quotient algebra is handled degree by degree through a truncated
reduced Groebner basis G of the two-sided ideal (Bergman's diamond
lemma): the words that contain no leading word of G are a basis of each
graded piece, and rewriting an occurrence of a leading word gives the
normal form of every element.  G is built one degree at a time from the
overlap ambiguities of its leading words, so nothing D^n wide is stored.
The graded dimensions are counted without listing a word, as walks in
the Aho-Corasick automaton of the leading words that avoid its dead
states (Ufnarovski's graph); the list of normal words is built only
where something reads it, and :mod:`nhomalg.checks` compares its length
with the count.  The stepwise ideal component
I_n = I_{n-1} (x) E + E^(n-N) (x) R is kept as the cross-check, built
only by :mod:`nhomalg.checks` and the tests.

The dual-side components (annihilator presentation and the intersection
spaces underlying the canonical complexes) live here as well, built one
degree at a time from the previous one:
W_n = (W_{n-1} (x) E) cap (E^(n-N) (x) R), each meet the kernel of a
remainder map on rows (:func:`nhomalg.linalg.intersect`), so no D^n-wide
annihilator is built.  The direct routes are cross-checks: the union of
all n-N+1 shifts of R in :mod:`nhomalg.checks` and the tests, their
intersection in the tests only, where it runs through Fraction
annihilators.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .linalg import (
    DegreeMismatchError,
    Matrix,
    Subspace,
    TensorVector,
    Word,
    _echelon,
    _full_reduce,
    _IntRow,
    _over_lcm,
    annihilator,
    intersect,
    rref,  # not called here; perfbench/test_perfbench.py checks this traced binding
    shift,
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


# ---------------------------------------------------------------------------
# Rewriting by a truncated reduced Groebner basis.  A basis maps each
# leading word to its primitive integer row, positive at the lead; the row
# with lead p is the canonical row of the ideal component at pivot p.  A
# normal form is ``(row, den)``: an integer row over normal words and a
# positive denominator with no common factor, the vector row / den.

_Form = tuple[_IntRow, int]


def _occurrence(word: Word, basis: dict[Word, _IntRow],
                lengths: tuple[int, ...]) -> tuple[int, Word] | None:
    """Start and lead of the leftmost leading word of ``basis`` in ``word``.

    ``lengths`` are the lead lengths, ascending.  No lead is a prefix of
    another, so at most one starts at each position.
    """
    size = len(word)
    for start in range(size):
        for length in lengths:
            if start + length > size:
                break
            lead = word[start:start + length]
            if lead in basis:
                return start, lead
    return None


def _combine_forms(terms: list[tuple[Word, int]], memo: dict[Word, _Form],
                   scale: int) -> _Form:
    """Normal form of ``sum c * word`` over ``terms``, divided by ``scale`` > 0.

    Every word of ``terms`` must already have its form in ``memo``.
    """
    den = lcm(*(memo[word][1] for word, _ in terms))
    acc: _IntRow = {}
    for word, c in terms:
        row, d = memo[word]
        factor = c * (den // d)
        for k, x in row.items():
            acc[k] = acc.get(k, 0) + factor * x
    row = {k: x for k, x in acc.items() if x}
    den *= scale
    g = gcd(den, *row.values())
    if g > 1:
        row = {k: x // g for k, x in row.items()}
        den //= g
    return row, den


def _normal_form(word: Word, basis: dict[Word, _IntRow], lengths: tuple[int, ...],
                 memo: dict[Word, _Form]) -> _Form:
    """Normal form of ``word`` modulo the ideal that ``basis`` generates.

    A word with no lead in it is its own normal form.  Otherwise the
    leftmost occurrence u.p.w of a lead p is rewritten by the rest of p's
    row, and the memoised forms of the tail words u.k.w, each smaller
    than the word, are combined.  Normal forms are unique, so the choice
    of occurrence changes no result.  Tails wait on an explicit stack:
    rewriting chains can be longer than the recursion limit.
    """
    pending = [word]
    while pending:
        t = pending[-1]
        if t in memo:
            pending.pop()
            continue
        hit = _occurrence(t, basis, lengths)
        if hit is None:
            memo[t] = ({t: 1}, 1)
            pending.pop()
            continue
        start, lead = hit
        row = basis[lead]
        u, w = t[:start], t[start + len(lead):]
        tails = [(u + k + w, -c) for k, c in row.items() if k != lead]
        missing = [tail for tail, _ in tails if tail not in memo]
        if missing:
            pending.extend(missing)
            continue
        memo[t] = _combine_forms(tails, memo, row[lead])
        pending.pop()
    return memo[word]


def _avoiding_counts(leads, D: int, n: int) -> list[int]:
    """Numbers of words of lengths 0..n over 1..D with no lead in them.

    They are the walks from the root of the Aho-Corasick automaton of
    ``leads`` that never enter a dead state: one that ends a lead, or
    whose failure chain reaches one (Aho-Corasick, CACM 18, 1975;
    Ufnarovski, Math. Notes 31, 1982).  Each length costs one step of
    states x D, and no word is built.
    """
    children: list[dict[int, int]] = [{}]
    dead = [False]
    for lead in leads:
        state = 0
        for x in lead:
            if x not in children[state]:
                children[state][x] = len(children)
                children.append({})
                dead.append(False)
            state = children[state][x]
        dead[state] = True
    # Breadth first, so a state's failure target and its transitions are
    # complete before the state's own; moves[s][x - 1] is the state of
    # the longest suffix of s.x that is in the trie.
    fail = [0] * len(children)
    moves: list[list[int]] = [[]] * len(children)
    moves[0] = [children[0].get(x, 0) for x in range(1, D + 1)]
    queue = deque(children[0].values())
    while queue:
        state = queue.popleft()
        back = moves[fail[state]]
        dead[state] = dead[state] or dead[fail[state]]
        moves[state] = [children[state].get(x, back[x - 1]) for x in range(1, D + 1)]
        for x, child in children[state].items():
            fail[child] = back[x - 1]
            queue.append(child)
    live = [state for state in range(len(children)) if not dead[state]]
    edges = {state: [t for t in moves[state] if not dead[t]] for state in live}
    walks = {state: 0 for state in live}
    walks[0] = 1
    counts = [1]
    for _ in range(n):
        step = {state: 0 for state in live}
        for state, count in walks.items():
            if count:
                for target in edges[state]:
                    step[target] += count
        walks = step
        counts.append(sum(walks.values()))
    return counts


def _extend_basis(basis: dict[Word, _IntRow], degree: int):
    """Add to ``basis``, complete below ``degree``, its elements of that degree.

    For leads a = x.y and b = y.z with y nonempty and |x.y.z| = degree,
    the S-element L_b (g_a . z) - L_a (x . g_b) cancels at x.y.z; its
    normal form modulo the lower basis is in the ideal.  The nonzero ones,
    echeloned and fully reduced, are the new elements: each lead is longer
    than the old ones and contains none of them, so the basis stays
    reduced and has no inclusion ambiguities.
    """
    lengths = tuple(sorted({len(lead) for lead in basis}))
    by_prefix: dict[Word, list[Word]] = {}
    for b in basis:
        for k in range(1, len(b)):
            by_prefix.setdefault(b[:k], []).append(b)
    memo: dict[Word, _Form] = {}
    rows = []
    for a, ga in basis.items():
        for k in range(1, len(a)):
            for b in by_prefix.get(a[len(a) - k:], ()):
                if len(a) + len(b) - k != degree:
                    continue
                gb = basis[b]
                x, z = a[:len(a) - k], b[k:]
                la, lb = ga[a], gb[b]
                s = {word + z: lb * c for word, c in ga.items()}
                for word, c in gb.items():
                    word = x + word
                    s[word] = s.get(word, 0) - la * c
                terms = [(word, c) for word, c in s.items() if c]
                for word, _ in terms:
                    _normal_form(word, basis, lengths, memo)
                row, _ = _combine_forms(terms, memo, 1)
                if row:
                    rows.append(row)
    basis.update(_full_reduce(_echelon(rows)))


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


def free_presentation(D: int, N: int) -> Presentation:
    """Tensor algebra on D generators viewed as N-homogeneous (no relations)."""
    return Presentation(D, N, Subspace.zero(D, N))


class GradedAlgebra:
    """Degreewise view of the quotient algebra with memoised components.

    The quotient side rests on the truncated reduced Groebner basis G,
    extended degree by degree on first request; the graded dimensions
    are cached up to the highest degree counted, normal bases and normal
    forms by degree, word matrices by degree, word and side, and the
    dual spaces by degree.
    """

    def __init__(self, presentation: Presentation,
                 word_limit: int = DEFAULT_WORD_LIMIT):
        self.presentation = presentation
        self.D = presentation.D
        self.N = presentation.N
        self.word_limit = word_limit
        self._ideal: dict[int, Subspace] = {}
        self._basis: dict[Word, _IntRow] = {}
        self._basis_degree = 0  # G is complete through this degree
        self._lengths: tuple[int, ...] = ()
        self._dims: list[int] = []  # dim A_m for m = 0..len - 1
        self._normal: dict[int, dict[Word, int]] = {}
        self._forms: dict[int, dict[Word, _Form]] = {}
        self._dual: dict[int, Subspace] = {}
        self._word_mats: dict[tuple, Matrix] = {}

    # -- plumbing -----------------------------------------------------------

    def _cached(self, cache: dict, key, compute):
        if key not in cache:
            cache[key] = compute()
        return cache[key]

    # -- quotient side ------------------------------------------------------

    def _complete_basis(self, n: int):
        """Extend G through degree n: the relation rows at degree N, then the
        reduced overlap S-elements of each higher degree."""
        for m in range(self._basis_degree + 1, n + 1):
            if m == self.N:
                self._basis.update(self.presentation.relations._ints)
            elif m > self.N:
                _extend_basis(self._basis, m)
            self._basis_degree = m
        self._lengths = tuple(sorted({len(lead) for lead in self._basis}))

    def _form(self, word: Word) -> _Form:
        """Normal form of a word, memoised by degree.  A degree's memo is
        made only once G is complete to that degree."""
        memo = self._forms.get(len(word))
        if memo is None:
            self._complete_basis(len(word))
            memo = self._forms[len(word)] = {}
        return _normal_form(word, self._basis, self._lengths, memo)

    def ideal_component(self, n: int) -> Subspace:
        """Degree-n piece of the two-sided ideal generated by the relations.

        Built stepwise as explicit rows; the cross-check of the Groebner
        route, read by :mod:`nhomalg.checks` and the tests.
        """
        def compute():
            guard_words(self.D, n, self.word_limit)
            if n < self.N:
                return Subspace.zero(self.D, n)
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
            return Subspace.full(self.D, n)
        return shift(prev, 0, 1).join(shift(self.presentation.relations, n - self.N, 0))

    def component_dim(self, n: int) -> int:
        """dim A_n, the number of words of degree n with no leading word of
        G in them, counted by the automaton of the leads of length <= n
        (:func:`_avoiding_counts`) for every degree up to n at once.

        No word is listed, and :meth:`normal_basis` is not read even when
        it is cached: ``checks`` compares the two routes.
        """
        guard_words(self.D, n, self.word_limit)
        if n >= len(self._dims):
            self._complete_basis(n)
            leads = [lead for lead in self._basis if len(lead) <= n]
            self._dims = _avoiding_counts(leads, self.D, n)
        return self._dims[n]

    def normal_basis(self, n: int) -> dict[Word, int]:
        """Words of degree n with no leading word of G in them, ascending
        lex, each mapped to its position: a basis of A_n.

        Each normal word of degree n - 1 is extended by one letter and kept
        when no lead is a suffix.  The list is built for its readers (word
        matrices, coordinates, ``checks``); :meth:`component_dim` counts
        the same words without it.  They are the non-pivot words of the
        stepwise ideal component, the cross-check.
        """
        def compute():
            guard_words(self.D, n, self.word_limit)
            if n == 0:
                return {(): 0}
            self._complete_basis(n)
            basis = self._basis
            lengths = [k for k in self._lengths if k <= n]
            letters = [(x,) for x in range(1, self.D + 1)]
            words = (w + x for w in self.normal_basis(n - 1) for x in letters)
            normal = (w for w in words if not any(w[-k:] in basis for k in lengths))
            return {w: i for i, w in enumerate(normal)}
        return self._cached(self._normal, n, compute)

    def reduce_to_normal(self, v: TensorVector) -> TensorVector:
        """Normal form of v: its canonical representative modulo the ideal,
        supported on normal words.

        Combines the memoised normal forms of v's words under G; the
        stepwise ``ideal_component(v.degree).reduce(v)`` is the cross-check.
        """
        n = v.degree
        guard_words(self.D, n, self.word_limit)
        for word in v.terms:
            if any(letter > self.D for letter in word):
                raise ValueError(f"word {word} uses letters above {self.D}")
        num, den = _over_lcm(v.terms)
        row, den = _combine_forms(list(num.items()), {w: self._form(w) for w in num}, den)
        return TensorVector._trusted(n, {w: Fraction(c, den) for w, c in row.items()})

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
            guard_words(self.D, n, self.word_limit)
            guard_words(self.D, n + len(word), self.word_limit)
            source = self.normal_basis(n)
            target = self.normal_basis(n + len(word))
            forms = [self._form(b + word if side == "right" else word + b) for b in source]
            scale = lcm(*(den for _, den in forms))
            rows: dict[int, dict[int, int]] = {}
            for j, (row, den) in enumerate(forms):
                # Ascending i, the row order a scan of the normal basis gives.
                for i, c in sorted((target[w], c) for w, c in row.items()):
                    rows.setdefault(i, {})[j] = c * (scale // den)
            return Matrix._from_ints(len(target), len(source), rows, scale)
        return self._cached(self._word_mats, (n, word, side), compute)

    # -- dual side ----------------------------------------------------------

    def dual_space(self, n: int) -> Subspace:
        """W_n, the intersection of E^r (x) R (x) E^(n-N-r) over all r.

        Full space below the relation degree and the relations themselves
        at degree N.  Above, W_n = (W_{n-1} (x) E) cap (E^(n-N) (x) R):
        the shifts with r < n - N are exactly W_{n-1} (x) E, so one
        intersection per degree suffices.  It is the kernel of the
        remainder map modulo one space on the rows of the other, so
        nothing D^n wide is built beside the two shifted spaces.  Once
        one W_n vanishes all higher ones do.
        """
        def compute():
            guard_words(self.D, n, self.word_limit)
            if n < self.N:
                return Subspace.full(self.D, n)
            relations = self.presentation.relations
            if n == self.N:
                return relations
            prev = self.dual_space(n - 1)
            if prev.dim == 0:
                return Subspace.zero(self.D, n)
            return intersect(shift(prev, 0, 1), shift(relations, n - self.N, 0))
        return self._cached(self._dual, n, compute)

    def dual_dim(self, n: int) -> int:
        return self.dual_space(n).dim

    def __repr__(self):
        return (f"GradedAlgebra(D={self.D}, N={self.N}, "
                f"relations dim {self.presentation.relations.dim})")
