"""Graded quotients of a tensor algebra by homogeneous relations.

A presentation is D generators and a subspace of relations in degree N.
The quotient algebra is handled degree by degree through a truncated
reduced Groebner basis G of the two-sided ideal (Bergman's diamond
lemma): the words that contain no leading word of G are a basis of each
graded piece, and every word has a unique normal form modulo G.  G is
built one degree at a time from the overlap ambiguities of its leading
words, so nothing D^n wide is stored.  One Aho-Corasick automaton of the
leading words, rebuilt each time G grows, serves counting, scanning and
listing: the graded dimensions are counted without listing a word, as
walks in it that avoid its dead states (Ufnarovski's graph); a word's
first lead, and with it its longest normal prefix, is found by one scan
of the word through it; and the normal words are listed by carrying each
word's state to the next degree.  The list is built only where something
reads it, and :mod:`nhomalg.checks` compares its length with the count.

Normal forms are tabled only for the border words b.x, b normal
(:meth:`GradedAlgebra._fill_borders`), and any other word is walked from
its border prefix one letter at a time (:meth:`GradedAlgebra._form`), so
the left one-letter matrices follow from the right ones by
associativity.  The S-elements of the G completion are each reduced as
one row, greatest word first (:func:`_reduce_overlap`), and the overlaps
that the chain criterion proves redundant are skipped; every overlap,
each word reduced on its own, is the oracle in the tests.

The stepwise ideal component I_n = I_{n-1} (x) E + E^(n-N) (x) R is kept
as the cross-check, built once per degree, only by :mod:`nhomalg.checks`
and the tests.

The dual algebra A^! (:meth:`GradedAlgebra.dual`, on the annihilator
presentation) runs on the same machinery: its dimensions are the dual
dimensions, and as W_n = (A^!_n)^* its word matrices give the canonical
complexes of :mod:`nhomalg.koszul`.  W_n by intersection is kept as the
cross-check that ``dual`` and ``checks`` read, built degree by degree,
W_n = (W_{n-1} (x) E) cap (E^(n-N) (x) R), each meet the kernel K_n of
the remainder map on the rows of W_{n-1} (x) E, as a tower of kernels
with no word row (:func:`_next_level`): the remainders are read off a
table of the degree-N words modulo R, and neither the shifted relations
nor a D^n-wide annihilator is built.  Word rows are assembled from the
tower only for their readers (:meth:`GradedAlgebra.dual_space`).  The
direct routes, the union of all n-N+1 shifts of R and their
intersection, the meet with the shifted relations built in full, and
the meet on the word rows, are oracles in the tests only; the
intersection runs there through Fraction annihilators.
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
    _assemble,
    _kernel,
    _lex_index,
    _over_lcm,
    all_words,
    annihilator,
    rref,  # not called here; perfbench/test_perfbench.py checks this traced binding
    shift,
)

DEFAULT_WORD_LIMIT = 10_000_000


class MemoryGuardError(RuntimeError):
    """A requested degree needs more basis words than the configured limit."""


def guard_words(D: int, degree: int, word_limit: int):
    """Refuse a degree whose D^degree basis words exceed ``word_limit``,
    and a negative degree.

    The count is bounded below by 2^(degree (b - 1)), b the bit length
    of D: past the limit by that bound it is not computed, and from
    2^4096 on it is written as a power.
    """
    if degree < 0:
        raise ValueError(f"degree {degree} is negative")
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
# W_n by intersection, as a tower of kernels with no word row.  The rows of
# W_{l-1} (x) E are the pairs (row a of W_{l-1}, letter x), numbered
# i = a D + D - x as :func:`nhomalg.linalg.shift` orders them.  A row of W_l
# is led by the pair at its pivot word, and is 0 at every other row's lead
# pair, so an element of W_l has its coordinates over the rows, each scaled
# to 1 at its lead pair, at their lead pairs: read off, with no solve.

def _tail_remainders(relations: Subspace) -> tuple[dict[Word, dict[int, int]], int, int]:
    """``(table, scale, free)``: the remainder modulo ``relations`` of every
    word of their degree, over one scale, for :func:`_next_level`.

    ``free`` is the number of non-pivot words f and ``scale`` the lcm M of
    the pivot coefficients; ``table[t]`` is the remainder of M t, keyed by
    the position of each f among the non-pivot words, ascending lex.  A
    remainder holds only words below t, so the words are numbered as the
    ascending scan meets them.
    """
    ints = relations._ints
    scale = lcm(*(row[p] for p, row in ints.items()))
    position: dict[Word, int] = {}
    table = {}
    for t in all_words(relations.alphabet, relations.degree):
        if t not in ints:
            position[t] = len(position)
        rem, m = relations._remainder({t: 1})
        table[t] = {position[f]: c * (scale // m) for f, c in rem.items()}
    return table, scale, len(position)


class _Level:
    """W_l: ``leads`` maps each row's lead pair to the row.  From l = N on,
    ``tails[k]`` expands a multiple v of row k over W_{l+1-N} (x) E^(N-1),
    tail word -> {row of W_{l+1-N}: integer}, and ``pivots[k]`` is the
    coefficient of v at its pivot word; above N, ``kernel`` is K_l, the
    rows of W_l in pivot coordinates (:func:`nhomalg.linalg._kernel`)."""

    __slots__ = ("leads", "pivots", "tails", "kernel")

    def __init__(self, leads: dict[int, int], pivots: list[int] | None = None,
                 tails: list[dict[Word, dict[int, int]]] | None = None,
                 kernel: dict[int, _IntRow] | None = None):
        self.leads, self.pivots, self.tails, self.kernel = leads, pivots, tails, kernel


def _base_levels(relations: Subspace) -> list[_Level]:
    """W_0..W_N: the full spaces, their rows the words (descending, so a
    word's row is its pair index), and R, its rows split after the first
    letter a, whose row in W_1 is D - a."""
    D, N = relations.alphabet, relations.degree
    levels = [_Level({i: i for i in range(D ** l)}) for l in range(N)]
    leads, pivots, tails = {}, [], []
    for k, (p, row) in enumerate(relations._ints.items()):
        leads[D ** N - 1 - _lex_index(p, D)] = k
        pivots.append(row[p])
        split: dict[Word, dict[int, int]] = {}
        for w, c in row.items():
            split.setdefault(w[1:], {})[D - w[0]] = c
        tails.append(split)
    levels.append(_Level(leads, pivots, tails))
    return levels


def _next_level(levels: list[_Level], remainders, D: int, N: int) -> _Level:
    """W_{n+1} from the tower W_0..W_n, n >= N; ``remainders`` is
    :func:`_tail_remainders` of R.

    W_{n+1} = (W_n (x) E) cap (E^(n+1-N) (x) R).  With a row of W_n
    expanded as v = sum c_{j,t} w_j (x) t, the remainder of M v.x modulo
    E^(n+1-N) (x) R is sum c_{j,t} w_j (x) (table row of t.x), keyed by
    (j, free word): dim W_{n+1-N} times the free words wide.  K_{n+1} is
    the kernel of that map, each pair tagged with M times the pivot
    coefficient L of v, as :func:`nhomalg.linalg.intersect` tags it.  The
    row of K_{n+1} with coordinates t_i is sum (t_i / L_{a_i}) v_{a_i} (x) x_i;
    its part at a new tail t'.x, the sum of c_{j,t} w_j (x) y over the tails
    t = y.t' with x_i = x, lies in W_{n+2-N}, where its coordinates are
    read at the lead pairs (j, y).  The row is scaled to an integral
    expansion, and its pivot coefficient t_lead with it.
    """
    table, scale, free = remainders
    n = len(levels) - 1
    top, target = levels[n], levels[n + 2 - N]
    tagged = []
    for split, pivot in zip(top.tails, top.pivots):
        for x in range(D, 0, -1):
            rem: dict[int, int] = {}
            for t, part in split.items():
                for f, a in table[t + (x,)].items():
                    for j, c in part.items():
                        key = j * free + f
                        nc = rem.get(key, 0) + a * c
                        if nc:
                            rem[key] = nc
                        else:
                            del rem[key]
            rem[-1 - len(tagged)] = scale * pivot
            tagged.append(rem)
    kernel = _kernel(tagged)
    # Per row of W_n, (t', k, c_{j,t}) for each t = y.t' with (j, y) the
    # lead pair of row k of W_{n+2-N}.
    reads = [[(old[1:], target.leads[j * D + D - old[0]], c)
              for old, part in split.items() for j, c in part.items()
              if j * D + D - old[0] in target.leads]
             for split in top.tails]
    leads, pivots, tails = {}, [], []
    for lead, coords in kernel.items():
        leads[-1 - lead] = len(pivots)
        common = lcm(*(top.pivots[(-1 - tag) // D] for tag in coords))
        parts: dict[tuple[Word, int, int], int] = {}  # (t', x, k) -> coordinate
        for tag, t in coords.items():
            a, r = divmod(-1 - tag, D)
            u = t * (common // top.pivots[a])
            x = D - r
            for rest, k, c in reads[a]:
                key = (rest, x, k)
                parts[key] = parts.get(key, 0) + u * c
        lead_scale = common * coords[lead]
        g = gcd(lead_scale, *parts.values())
        pivots.append(lead_scale // g)
        split: dict[Word, dict[int, int]] = {}
        for (rest, x, k), c in parts.items():
            if c:
                split.setdefault(rest + (x,), {})[k] = c // g
        tails.append(split)
    return _Level(leads, pivots, tails, kernel)


# ---------------------------------------------------------------------------
# Normal forms by a truncated reduced Groebner basis.  A basis maps each
# leading word to its primitive integer row, positive at the lead; the row
# with lead p is the canonical row of the ideal component at pivot p.  A
# normal form is ``(row, den)``: an integer row over normal words and a
# positive denominator with no common factor, the vector row / den.  Forms
# are shared between tables and never changed in place.

_Form = tuple[_IntRow, int]


class _LeadAutomaton:
    """Aho-Corasick automaton of a set of leading words over 1..D
    (Aho-Corasick, CACM 18, 1975).

    ``moves[s][x - 1]`` is the state reached from state s by letter x:
    the longest suffix of s.x that is a prefix of a lead.  ``ends[s]`` is
    the length of a lead that is a suffix of state s, through its failure
    chain, or 0: a state is dead when it is nonzero.  One automaton serves
    counting (:func:`_walk_step`), scanning (:meth:`occurrence`) and
    listing (:meth:`GradedAlgebra.normal_basis`).
    """

    __slots__ = ("moves", "ends")

    def __init__(self, leads, D: int):
        children: list[dict[int, int]] = [{}]
        ends = [0]
        for lead in leads:
            state = 0
            for x in lead:
                if x not in children[state]:
                    children[state][x] = len(children)
                    children.append({})
                    ends.append(0)
                state = children[state][x]
            ends[state] = len(lead)
        # Breadth first, so a state's failure target and its moves are
        # complete before the state's own.
        fail = [0] * len(children)
        moves: list[list[int]] = [[]] * len(children)
        moves[0] = [children[0].get(x, 0) for x in range(1, D + 1)]
        queue = deque(children[0].values())
        while queue:
            state = queue.popleft()
            back = moves[fail[state]]
            ends[state] = ends[state] or ends[fail[state]]
            moves[state] = [children[state].get(x, back[x - 1]) for x in range(1, D + 1)]
            for x, child in children[state].items():
                fail[child] = back[x - 1]
                queue.append(child)
        self.moves = moves
        self.ends = ends

    def state(self, word: Word) -> int:
        """The state that ``word`` leads to from the root."""
        state = 0
        for x in word:
            state = self.moves[state][x - 1]
        return state

    def occurrence(self, word: Word) -> tuple[int, Word] | None:
        """Start and lead of the first lead ending in ``word``, scanning left
        to right.  When no lead contains another, as in a reduced basis, it
        is the leftmost occurrence: one starting further left would end
        later only by containing it."""
        moves, ends = self.moves, self.ends
        state = 0
        for end, x in enumerate(word, 1):
            state = moves[state][x - 1]
            length = ends[state]
            if length:
                return end - length, word[end - length:end]
        return None


def _combine_forms(terms: list[tuple[_Form, int]], scale: int) -> _Form:
    """The normal form ``sum c * form`` over ``terms``, divided by ``scale`` > 0."""
    den = lcm(*[d for (_, d), _ in terms])
    acc: _IntRow = {}
    get = acc.get
    for (row, d), c in terms:
        factor = c if d == den else c * (den // d)
        for k, x in row.items():
            acc[k] = get(k, 0) + factor * x
    row = {k: x for k, x in acc.items() if x}
    den *= scale
    g = gcd(den, *row.values())
    if g > 1:
        row = {k: x // g for k, x in row.items()}
        den //= g
    return row, den


def _border_step(form: _Form, x: int, borders: dict[Word, _Form]) -> _Form:
    """The normal form of (form).x, one degree up: the combination of the
    border forms NF(c.x) over the normal words c of ``form``, read from
    ``borders``, the table of that degree.  A form that is one normal word
    with coefficient 1 returns its border form itself, with no combination.
    """
    row, den = form
    if den == 1 and len(row) == 1:
        (c, a), = row.items()
        if a == 1:
            return borders[c + (x,)]
    return _combine_forms([(borders[c + (x,)], a) for c, a in row.items()], den)


def _walk_step(leads: _LeadAutomaton, walks: dict[int, int]) -> dict[int, int]:
    """The walks one letter longer than ``walks``, a map from each state
    to the number of walks from the root that end there and never enter
    a dead state (Ufnarovski's graph, Math. Notes 31, 1982).  One step
    costs at most states x D, and no word is built."""
    moves, ends = leads.moves, leads.ends
    step: dict[int, int] = {}
    for state, count in walks.items():
        for target in moves[state]:
            if not ends[target]:
                step[target] = step.get(target, 0) + count
    return step


def _reduce_overlap(f: _IntRow, basis: dict[Word, _IntRow], leads: _LeadAutomaton) -> _IntRow:
    """A positive multiple of the normal form of the integer row ``f``
    modulo the ideal that ``basis`` generates; ``leads`` is the automaton
    of its leads.

    The greatest word w of f is taken first.  A normal one is kept; it is
    greater than every word left, and than every word a later step makes.
    Otherwise w = u.p.v at the leftmost occurrence of a lead p
    (:meth:`_LeadAutomaton.occurrence`), and f becomes a f - m u.g_p.v,
    with c the coefficient of w, L > 0 that of p in its row g_p, and
    a = L / gcd(L, c), m = c / gcd(L, c): w cancels and every new word is
    below it, so the loop ends.  The normal form is linear and vanishes on
    u.g_p.v, so each step multiplies the normal form of f by a > 0; a
    normal f is its own form.  Cancellation happens at the top, so an
    S-element that reduces to zero never builds a dense form.
    """
    normal: _IntRow = {}
    while f:
        w = max(f)
        c = f.pop(w)
        hit = leads.occurrence(w)
        if hit is None:
            normal[w] = c
            continue
        start, lead = hit
        row = basis[lead]
        g = gcd(row[lead], c)
        a, m = row[lead] // g, c // g
        if a != 1:
            f = {t: a * e for t, e in f.items()}
            normal = {t: a * e for t, e in normal.items()}
        u, v = w[:start], w[start + len(lead):]
        for k, e in row.items():
            if k != lead:
                t = u + k + v
                ne = f.get(t, 0) - m * e
                if ne:
                    f[t] = ne
                else:
                    del f[t]
    return normal


def _extend_basis(basis: dict[Word, _IntRow], degree: int, leads: _LeadAutomaton):
    """Add to ``basis``, complete below ``degree``, its elements of that degree;
    ``leads`` is the automaton of its leads.

    For leads a = x.y and b = y.z with y nonempty and |x.y.z| = degree,
    the S-element S_ab = L_b (g_a . z) - L_a (x . g_b) cancels at
    w = x.y.z.  Each is reduced as one integer row (:func:`_reduce_overlap`)
    to a positive multiple of its normal form modulo the lower basis,
    which is in the ideal.  The nonzero ones, echeloned and fully reduced,
    are the new elements: each lead is longer than the old ones and
    contains none of them, so the basis stays reduced and has no
    inclusion ambiguities.  :func:`_echelon` makes each row primitive, so
    the positive factor of a reduction changes no new element.

    Chain criterion (Gebauer-Moeller, J. Symbolic Comput. 6, 1988; Mora,
    Theoret. Comput. Sci. 134, 1994): an overlap whose w holds a lead c
    strictly inside, at neither its first nor its last letter, is
    skipped.  As the basis is reduced, c lies inside neither a nor b, so
    a and c span a proper prefix a.t = p.c of w = p.c.s, and c and b a
    proper suffix c.s = q.b.  With S_ac = L_c (g_a . t) - L_a (p . g_c)
    and S_cb = L_b (g_c . s) - L_c (q . g_b),
    L_c S_ab = L_b (S_ac . s) + L_a (p . S_cb).  Where a and c overlap,
    S_ac is an S-element of lower degree; where they are disjoint,
    t = m.c and S_ac = r_a.m.g_c - g_a.m.r_c, r the non-lead part of a
    row.  The basis is complete below ``degree``, so either way S_ac is a
    sum of terms u.g.v with u.lm(g).v below a.t, S_cb likewise, and S_ab
    one of such terms below w.  By induction on w, the normal form of
    S_ab lies in the span of those of the overlaps kept (Bergman's
    diamond lemma, Adv. Math. 29, 1978), and the new elements are the
    same.
    """
    by_prefix: dict[tuple[Word, int], list[Word]] = {}  # (prefix, length) -> leads
    for b in basis:
        for k in range(1, len(b)):
            by_prefix.setdefault((b[:k], len(b)), []).append(b)
    rows = []
    for a, ga in basis.items():
        for k in range(1, len(a)):
            for b in by_prefix.get((a[len(a) - k:], degree - len(a) + k), ()):
                x, z = a[:len(a) - k], b[k:]
                if leads.occurrence((x + b)[1:-1]) is not None:
                    continue
                gb = basis[b]
                la, lb = ga[a], gb[b]
                f = {word + z: lb * c for word, c in ga.items() if word != a}
                for word, c in gb.items():
                    if word != b:
                        t = x + word
                        e = f.get(t, 0) - la * c
                        if e:
                            f[t] = e
                        else:
                            del f[t]
                row = _reduce_overlap(f, basis, leads)
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
    are cached up to the highest degree counted, normal bases by degree,
    the normal forms of the border words b.x (b normal) in one table per
    degree, those of the other words asked for (the words x.b of the
    left one-letter matrices) in one memo, and word matrices by degree,
    word and side.  The dual algebra is built once, on first request;
    the intersection spaces W_n, its cross-check, are kept as the levels
    of a tower and, where read, as word rows cached by degree.
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
        self._leads = _LeadAutomaton((), self.D)  # of G's leads, rebuilt as G grows
        self._frontier: tuple[int, list[int]] | None = None  # states of the top listed degree
        self._dims: list[int] = []  # dim A_m for m = 0..len - 1
        self._walks: tuple[_LeadAutomaton, dict[int, int]] | None = None  # at the top dim
        self._normal: dict[int, dict[Word, int]] = {}
        self._borders: list[dict[Word, _Form]] = []  # NF(b.x) by degree
        self._forms: dict[Word, _Form] = {}  # words past their border prefix
        self._tower: list[_Level] = []  # W_n by intersection, without word rows
        self._dual: dict[int, Subspace] = {}  # word rows of W_n, built for their readers
        self._tails = None  # remainders of the degree-N words modulo R
        self._dual_algebra: GradedAlgebra | None = None
        self._word_mats: dict[tuple, Matrix] = {}

    # -- plumbing -----------------------------------------------------------

    def _cached(self, cache: dict, key, compute):
        if key not in cache:
            cache[key] = compute()
        return cache[key]

    # -- quotient side ------------------------------------------------------

    def _complete_basis(self, n: int):
        """Extend G through degree n: the relation rows at degree N, then the
        reduced overlap S-elements of each higher degree.  The automaton of
        the leads is rebuilt after each degree that adds one; the states
        of listed words go stale with it."""
        for m in range(self._basis_degree + 1, n + 1):
            size = len(self._basis)
            if m == self.N:
                self._basis.update(self.presentation.relations._ints)
            elif m > self.N:
                _extend_basis(self._basis, m, self._leads)
            self._basis_degree = m
            if len(self._basis) > size:
                self._leads = _LeadAutomaton(self._basis, self.D)
                self._frontier = None

    def _fill_borders(self, n: int):
        """Extend the border tables through degree n, each degree after the
        ones below it.  The table of degree m maps every border word b.x,
        b a normal word of degree m - 1, to NF(b.x): D dim A_{m-1} forms.

        The border words are taken ascending lex (b ascending, then x).  A
        normal one is its own form.  In any other, a lead p of G is a
        suffix, as b is normal, so b.x = u.p and
        NF(b.x) = -(1/L_p) sum_{k != p} c_k NF(u.k) over the row of p.
        Each NF(u.k) is built from the normal word u one letter of k at a
        time (:func:`_border_step`), and each step reads only tables that
        are complete: NF(v) holds no word above v, and u.k < u.p, so the
        forms of degree m that it reads come earlier in the scan.  The
        forms of the prefixes u.k[:i] are kept while the degree is filled
        and dropped after it.
        """
        while len(self._borders) <= n:
            m = len(self._borders)
            normal = self.normal_basis(m)
            basis, leads, borders = self._basis, self._leads, self._borders
            table: dict[Word, _Form] = {}
            borders.append(table)
            tails: dict[Word, _Form] = {}
            for b in self.normal_basis(m - 1) if m else ():
                for x in range(1, self.D + 1):
                    w = b + (x,)
                    if w in normal:
                        table[w] = ({w: 1}, 1)
                        continue
                    start, lead = leads.occurrence(w)
                    row = basis[lead]
                    u = w[:start]
                    terms = [(self._walk(u + k, start, ({u: 1}, 1), tails), -c)
                             for k, c in row.items() if k != lead]
                    table[w] = _combine_forms(terms, row[lead])

    def _walk(self, word: Word, start: int, form: _Form,
              memo: dict[Word, _Form]) -> _Form:
        """Normal form of ``word`` from ``form``, the form of its first
        ``start`` letters, or from its longest longer prefix in ``memo``:
        one :func:`_border_step` per remaining letter, each prefix it
        reaches memoised.  The border tables must be filled to its degree.
        """
        for j in range(len(word), start, -1):
            found = memo.get(word[:j])
            if found is not None:
                start, form = j, found
                break
        for j in range(start, len(word)):
            form = memo[word[:j + 1]] = _border_step(form, word[j], self._borders[j + 1])
        return form

    def _form(self, word: Word) -> _Form:
        """Normal form of a word, from the border tables.

        A normal word is its own form.  Any other word is walked
        (:meth:`_walk`) from its border prefix, its longest normal prefix
        and one letter more, whose form is in the table, or from its
        longest memoised prefix; the words past the border prefix are
        memoised.  For the words x.b of a left one-letter matrix they are
        the words x.b' of the matrix one degree down, so its column at
        b'.y is R(y) applied to that column at b'.
        """
        self._fill_borders(len(word))
        hit = self._leads.occurrence(word)
        if hit is None:
            return {word: 1}, 1
        start, lead = hit
        edge = start + len(lead)
        return self._walk(word, edge, self._borders[edge][word[:edge]], self._forms)

    def ideal_component(self, n: int) -> Subspace:
        """Degree-n piece of the two-sided ideal generated by the relations,
        as explicit rows: :meth:`ideal_component_stepwise`, cached by degree.

        The cross-check of the Groebner route, read by :mod:`nhomalg.checks`
        and the tests.
        """
        return self._cached(self._ideal, n, lambda: self.ideal_component_stepwise(n))

    def ideal_component_stepwise(self, n: int) -> Subspace:
        """I_n = I_{n-1} (x) E + E^(n-N) (x) R, from the cached degree n - 1.

        Zero below the relation degree and the relations at degree N; full
        after a degree where the algebra vanishes.  Otherwise the rows of
        I_{n-1} (x) E are already reduced (see :func:`shift`), so one join
        eliminates only the D^(n-N) dim R shifted relations, on integer
        rows.
        """
        guard_words(self.D, n, self.word_limit)
        if n < self.N:
            return Subspace.zero(self.D, n)
        if n == self.N:
            return self.presentation.relations
        prev = self.ideal_component(n - 1)
        if prev.codim() == 0:
            # Once some graded piece vanishes, so do all higher ones
            # (the algebra is generated in degree 1).
            return Subspace.full(self.D, n)
        return shift(prev, 0, 1).join(shift(self.presentation.relations, n - self.N, 0))

    def component_dim(self, n: int) -> int:
        """dim A_n, the number of words of degree n with no leading word of
        G in them, counted as walks in the automaton of the leads
        (:func:`_walk_step`).  The degrees past the cache are completed
        and counted one at a time, each one step on from the walks of the
        degree below; only when completing G rebuilt the automaton are the
        walks counted again from the root.  Once a degree is 0 every
        higher one is 0 (the algebra is generated in degree 1), so G is
        not completed past the first vanishing degree.

        No word is listed, and :meth:`normal_basis` is not read even when
        it is cached: ``checks`` compares the two routes.
        """
        guard_words(self.D, n, self.word_limit)
        while n >= len(self._dims):
            if self._dims and not self._dims[-1]:
                return 0
            top = len(self._dims)
            self._complete_basis(top)
            leads = self._leads
            if self._walks is not None and self._walks[0] is leads:
                walks = _walk_step(leads, self._walks[1])
            else:
                walks = {0: 1}
                for _ in range(top):
                    walks = _walk_step(leads, walks)
            self._walks = (leads, walks)
            self._dims.append(sum(walks.values()))
        return self._dims[n]

    def normal_basis(self, n: int) -> dict[Word, int]:
        """Words of degree n with no leading word of G in them, ascending
        lex, each mapped to its position: a basis of A_n.

        Each normal word of degree n - 1 carries its automaton state; it is
        extended by each letter whose move avoids the dead states.  The
        states of the top listed degree are kept for the next one, and
        found again by a walk from the root once G has grown.  The list is
        built for its readers (word matrices, coordinates, ``checks``);
        :meth:`component_dim` counts the same words without it.  They are
        the non-pivot words of the stepwise ideal component, the
        cross-check.
        """
        def compute():
            guard_words(self.D, n, self.word_limit)
            if n == 0:
                return {(): 0}
            self._complete_basis(n)
            previous = self.normal_basis(n - 1)
            leads = self._leads
            if self._frontier is not None and self._frontier[0] == n - 1:
                states = self._frontier[1]
            else:
                states = [leads.state(w) for w in previous]
            words, next_states = [], []
            for w, state in zip(previous, states):
                for x, target in enumerate(leads.moves[state], 1):
                    if not leads.ends[target]:
                        words.append(w + (x,))
                        next_states.append(target)
            self._frontier = (n, next_states)
            return {w: i for i, w in enumerate(words)}
        return self._cached(self._normal, n, compute)

    def reduce_to_normal(self, v: TensorVector) -> TensorVector:
        """Normal form of v: its canonical representative modulo the ideal,
        supported on normal words.

        Combines the normal forms of v's words, each read off the border
        tables or walked from its border prefix (:meth:`_form`); the
        stepwise ``ideal_component(v.degree).reduce(v)`` is the cross-check.
        """
        n = v.degree
        guard_words(self.D, n, self.word_limit)
        for word in v.terms:
            if any(letter > self.D for letter in word):
                raise ValueError(f"word {word} uses letters above {self.D}")
        num, den = _over_lcm(v.terms)
        row, den = _combine_forms([(self._form(w), c) for w, c in num.items()], den)
        return TensorVector._trusted(n, {w: Fraction(c, den) for w, c in row.items()})

    def normal_coordinates(self, v: TensorVector) -> list[Fraction]:
        """Coordinates of v over the normal basis of its degree."""
        remainder = self.reduce_to_normal(v)
        return [remainder.coefficient(w) for w in self.normal_basis(v.degree)]

    def word_matrix(self, n: int, word, side: str = "right") -> Matrix:
        """Matrix of multiplication by a fixed word, in normal bases.

        Maps degree n to degree ``n + len(word)``; ``side`` selects
        ``a -> a*word`` (right) or ``a -> word*a`` (left).  A right
        one-letter matrix is read off the border table of degree n + 1.
        The column of a left one L(x) at b = b'.y is the form of x.b, which
        :meth:`_form` builds as R(y) applied to its column at b' one degree
        down.  A longer word u_1...u_k is the product of its memoised
        one-letter matrices, R(u_k)...R(u_1) on the right and
        L(u_1)...L(u_k) on the left, so no longer word is reduced.
        """
        word = tuple(word)
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        if any(not 1 <= letter <= self.D for letter in word):
            raise ValueError(f"word {word} is not over 1..{self.D}")

        def compute():
            guard_words(self.D, n, self.word_limit)
            guard_words(self.D, n + len(word), self.word_limit)
            if len(word) < 2:
                return self._read_off_forms(n, word, side)
            letters = word if side == "right" else word[::-1]
            product = None
            for i, x in enumerate(letters):
                factor = self._cached(self._word_mats, (n + i, (x,), side),
                                      lambda: self._read_off_forms(n + i, (x,), side))
                product = factor if product is None else factor.mul(product)
            return product
        return self._cached(self._word_mats, (n, word, side), compute)

    def _read_off_forms(self, n: int, word: Word, side: str) -> Matrix:
        """The matrix of :meth:`word_matrix`, column b the normal form of
        b.word (right) or word.b (left) for each normal word b of degree n.
        A right one-letter matrix is read straight off the border table."""
        source = self.normal_basis(n)
        target = self.normal_basis(n + len(word))
        if side == "right" and word:
            self._fill_borders(n + 1)
            borders = self._borders[n + 1]
            forms = [borders[b + word] for b in source]
        else:
            forms = [self._form(word + b) for b in source]
        scale = lcm(*(den for _, den in forms))
        rows: dict[int, dict[int, int]] = {}
        for j, (row, den) in enumerate(forms):
            # Ascending i, the row order a scan of the normal basis gives.
            for i, c in sorted((target[w], c) for w, c in row.items()):
                rows.setdefault(i, {})[j] = c * (scale // den)
        return Matrix._from_ints(len(target), len(source), rows, scale)

    # -- dual side ----------------------------------------------------------

    def dual(self) -> "GradedAlgebra":
        """The dual algebra A^!, on the annihilator presentation and with the
        same word limit, built once."""
        if self._dual_algebra is None:
            self._dual_algebra = GradedAlgebra(self.presentation.dual(),
                                               word_limit=self.word_limit)
        return self._dual_algebra

    def _dual_level(self, n: int) -> _Level:
        """W_n in the tower, n >= N, built on from the highest level held."""
        tower = self._tower
        if not tower:
            tower.extend(_base_levels(self.presentation.relations))
        while len(tower) <= n:
            if self._tails is None:
                self._tails = _tail_remainders(self.presentation.relations)
            tower.append(_next_level(tower, self._tails, self.D, self.N))
        return tower[n]

    def intersection_dim(self, n: int) -> int:
        """dim W_n, the cross-check of :meth:`dual_dim` that ``dual`` and
        ``checks`` read: D^n below the relation degree, and from there the
        number of rows of W_n in the tower (:func:`_next_level`), where no
        word row is built.  Once one W_n vanishes, the levels above have no
        rows either."""
        guard_words(self.D, n, self.word_limit)
        if n < self.N:
            return self.D ** n
        return len(self._dual_level(n).pivots)

    def dual_space(self, n: int) -> Subspace:
        """W_n, the intersection of E^r (x) R (x) E^(n-N-r) over all r, as
        word rows, for the nesting check of ``checks`` and the tests.

        Full space below the relation degree and the relations themselves
        at degree N.  Above, W_n = (W_{n-1} (x) E) cap (E^(n-N) (x) R): the
        shifts with r < n - N are exactly W_{n-1} (x) E, so one meet per
        degree suffices.  Its kernel K_n is read off the tower
        (:meth:`_dual_level`), and the rows are assembled from K_n and the
        rows of W_{n-1} (x) E (:func:`nhomalg.linalg._assemble`): the same
        canonical rows as :func:`nhomalg.linalg.intersect` of the two, with
        no row of the shifted relations built.
        """
        def compute():
            guard_words(self.D, n, self.word_limit)
            if n < self.N:
                return Subspace.full(self.D, n)
            if n == self.N:
                return self.presentation.relations
            kernel = self._dual_level(n).kernel
            ys = [(p + (x,), {w + (x,): c for w, c in y.items()})
                  for p, y in self.dual_space(n - 1)._ints.items()
                  for x in range(self.D, 0, -1)]
            return Subspace._from_ints(self.D, n, _assemble(ys, kernel))
        return self._cached(self._dual, n, compute)

    def dual_dim(self, n: int) -> int:
        """dim W_n = dim A^!_n, counted on the dual algebra."""
        return self.dual().component_dim(n)

    def __repr__(self):
        return (f"GradedAlgebra(D={self.D}, N={self.N}, "
                f"relations dim {self.presentation.relations.dim})")
