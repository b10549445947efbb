"""Independent oracles for the test suite.

Everything here except the last section is deliberately written without
importing the package's linear algebra or series code: dense textbook
Gaussian elimination over Fractions, plain list-based polynomial
arithmetic, direct expansions of the defining relation sets and of the
parafermionic dual span (its symmetric part from cubes of functionals,
against the package's symmetrisers), and tableau counts as chains of
horizontal strips, against the package's Weyl dimension formula.  Tests
freeze values computed by these oracles and compare the package against
them.  The last section keeps the direct, slower routes on top of the
package's ``rref``: the annihilator from hit lists of the relation
rows, against the columns of the package's remainder table, and that
table by reducing each word; the annihilator and the intersection
through Fraction spanning vectors (the intersection as the annihilator
of both stacked annihilators, D^n wide, where the package takes the
kernel of a remainder map), and the dual spaces by iterated intersection on that
Fraction route, so no dual oracle calls the package's ``intersect``;
the leftmost lead occurrence by slicing every start and lead length,
against the automaton scan; the word matrices by normal forms of the
whole products, against the products of one-letter matrices; the
relabelling x -> D + 1 - x of the letters, under which a lex run stands
for a run under the reversed letter order; the ideal component as the
union of all n-N+1 shifts of the relations, joined from zero, against
the stepwise route and the one-join check of ``checks``; and the tail
split of W_m on its rows by intersection, against the transposed word
matrices of the dual algebra that the complexes use; and W_n by the
two-shift step, each degree the package's ``intersect`` with the
D^(n-N) dim R rows of E^(n-N) (x) R, and by the word-row meet, each
degree's remainders modulo that space read off a table of the degree-N
words for the word rows of W_{n-1} (x) E, both against ``dual_space``,
which assembles its rows from a tower of kernels that carries no word
row; the
elimination kernel with undivided multipliers, each new row of a span
eliminated whole, against the package's kernel, which divides the
multipliers by their gcd and cuts new rows to their remainders first and
must give bit-identical rows; ``Matrix._from_ints`` in two passes,
every row copied, against the one-pass one; and the Groebner basis from
every overlap, each word of an S-element reduced to its memoised normal
form on its own, against the completion that skips the overlaps of the
chain criterion and reduces each S-element as one row; and, on the
package's tableaux and insertion, the tableau enumeration shape by shape,
Knuth equivalence as equal insertion tableaux, and Schensted insertion
one letter at a time, each step copying the rows and building a checked
tableau, against the package's single pass on plain lists; and the
invariance of a relation span under all D^2 elementary derivations,
against the 2D - 1 generators of gl(D) that ``catalog.gl_invariance``
checks.
"""

from bisect import bisect_right
from fractions import Fraction
from itertools import product


def all_words(D, n):
    return list(product(range(1, D + 1), repeat=n))


def dense_rank(vectors, D, degree):
    """Rank of a list of {word: coeff} dicts, by dense elimination."""
    basis = all_words(D, degree)
    index = {w: i for i, w in enumerate(basis)}
    rows = []
    for vec in vectors:
        row = [Fraction(0)] * len(basis)
        for word, coeff in vec.items():
            row[index[word]] += Fraction(coeff)
        rows.append(row)
    rank = 0
    for col in range(len(basis)):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col] / lead
                rows[i] = [a - factor * b if b else a
                           for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def dense_matrix_rank(matrix):
    """Rank of a matrix read entry by entry through ``entry(i, j)``, by the
    same dense elimination, with column j as the one-letter word (j + 1,)."""
    rows = [{(col + 1,): value for col in range(matrix.ncols)
             if (value := matrix.entry(i, col))}
            for i in range(matrix.nrows)]
    return dense_rank(rows, matrix.ncols, 1)


# -- polynomial helpers (plain integer lists, index = degree) ---------------

def pmul(a, b, order):
    out = [0] * (order + 1)
    for i, x in enumerate(a[:order + 1]):
        if x:
            for j, y in enumerate(b[:order + 1 - i]):
                if y:
                    out[i + j] += x * y
    return out


def ppow(base, exponent, order):
    out = [1]
    for _ in range(exponent):
        out = pmul(out, base, order)
    return out


def pinv(a, order):
    assert a[0] == 1
    out = [0] * (order + 1)
    out[0] = 1
    for n in range(1, order + 1):
        acc = 0
        for k in range(1, n + 1):
            if k < len(a) and a[k]:
                acc -= a[k] * out[n - k]
        out[n] = acc
    return out


def parafermion_dims(D, order):
    """Coefficients of (1-t)^-D (1-t^2)^-(D(D-1)/2)."""
    denom = pmul(ppow([1, -1], D, order), ppow([1, 0, -1], D * (D - 1) // 2, order),
                 order)
    return pinv(denom, order)


def paraboson_dims(D, order):
    """Coefficients of (1+t)^D (1-t^2)^-(D(D+1)/2)."""
    numer = ppow([1, 1], D, order)
    denom = ppow([1, 0, -1], D * (D + 1) // 2, order)
    return pmul(numer, pinv(denom, order), order)


def dual_dims_formula(D, order):
    """1, D, D^2, D(D^2-1)/3, D^2(D^2-1)/12, then zeros."""
    dims = [1, D, D * D, D * (D * D - 1) // 3, D * D * (D * D - 1) // 12]
    return (dims + [0] * (order + 1))[:order + 1]


# -- defining relation sets, expanded by hand ------------------------------

def bracket_vectors(D):
    """[[e_i, e_j], e_k] = ijk - jik - kij + kji, all index triples."""
    out = []
    for i, j, k in all_words(D, 3):
        vec = {}
        for word, sign in (((i, j, k), 1), ((j, i, k), -1),
                           ((k, i, j), -1), ((k, j, i), 1)):
            vec[word] = vec.get(word, 0) + sign
        out.append({w: c for w, c in vec.items() if c})
    return out


def anti_bracket_vectors(D):
    """[{e_i, e_j}, e_k] = ijk + jik - kij - kji, all index triples."""
    out = []
    for i, j, k in all_words(D, 3):
        vec = {}
        for word, sign in (((i, j, k), 1), ((j, i, k), 1),
                           ((k, i, j), -1), ((k, j, i), -1)):
            vec[word] = vec.get(word, 0) + sign
        out.append({w: c for w, c in vec.items() if c})
    return out


def knuth_vectors(D):
    out = []
    for k, l, m in all_words(D, 3):
        if k < l <= m:
            out.append({(l, m, k): 1, (l, k, m): -1})
        if k <= l < m:
            out.append({(k, m, l): 1, (m, k, l): -1})
    return out


def knuth_moves(word):
    """All words reachable by one rewrite of either Knuth family."""
    word = tuple(word)
    out = []
    for i in range(len(word) - 2):
        x, y, z = word[i:i + 3]
        # l m k <-> l k m for k < l <= m
        if z < x <= y or y < x <= z:
            out.append(word[:i] + (x, z, y) + word[i + 3:])
        # k m l <-> m k l for k <= l < m
        if x <= z < y or y <= z < x:
            out.append(word[:i] + (y, x, z) + word[i + 3:])
    return out


def cube_dual_span(D):
    """abc - cba for all a, b, c, zeros dropped, and the cubes of the
    multiset sums of up to three basis functionals (such as 2 e1 + e2),
    which span the symmetric tensors by polarization."""
    from itertools import combinations_with_replacement

    letters = range(1, D + 1)
    out = [{(a, b, c): 1, (c, b, a): -1} for a, b, c in all_words(D, 3) if a != c]
    for size in (1, 2, 3):
        for multiset in combinations_with_replacement(letters, size):
            weight = {letter: multiset.count(letter) for letter in multiset}
            out.append({(i, j, k): weight[i] * weight[j] * weight[k]
                        for i, j, k in product(weight, repeat=3)})
    return out


# -- tableau counts without the Weyl formula -------------------------------

def partitions(n, rows=None):
    """Partitions of n with at most ``rows`` parts (any number if None) as
    weakly decreasing tuples, ascending lex."""
    def gen(remaining, cap, parts):
        if remaining == 0:
            yield ()
            return
        if parts == 0:
            return
        for first in range(1, min(cap, remaining) + 1):
            for rest in gen(remaining - first, first, parts - 1):
                yield (first,) + rest
    return tuple(gen(n, n, n if rows is None else rows))


def horizontal_strips(shape, room):
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


def strip_counts(D, n):
    """Numbers of tableaux with 0..n cells and entries up to D, as chains
    () = lam^0 <= lam^1 <= ... <= lam^D in which every lam^k / lam^(k-1)
    is a horizontal strip (Macdonald, *Symmetric Functions*, I.5), counted
    letter by letter and keyed by their last shape."""
    chains = {(): 1}
    for _ in range(D):
        grown = {}
        for shape, count in chains.items():
            for lam in horizontal_strips(shape, n - sum(shape)):
                grown[lam] = grown.get(lam, 0) + count
        chains = grown
    counts = [0] * (n + 1)
    for shape, count in chains.items():
        counts[sum(shape)] += count
    return counts


# -- direct routes on the package's exact kernels ---------------------------

def _fraction_annihilator_vectors(space):
    """One Fraction vector per free word spanning the annihilator.

    With the self-dual word pairing, a row ``e_p + sum c_f e_f`` forces
    ``w_p = -c_f`` on the functional that is 1 at free word f.
    """
    from nhomalg.linalg import TensorVector

    pivots = set(space.pivots)
    vecs = {w: {w: Fraction(1)} for w in all_words(space.alphabet, space.degree)
            if w not in pivots}
    for pivot, row in zip(space.pivots, space.rows):
        for word, coeff in row.terms.items():
            if word != pivot:
                vecs[word][pivot] = -coeff
    return [TensorVector(space.degree, terms) for terms in vecs.values()]


def fraction_annihilator(space):
    """The annihilator, by ``rref`` of its Fraction spanning vectors."""
    from nhomalg.linalg import rref

    return rref(_fraction_annihilator_vectors(space), space.alphabet, space.degree)


def hit_list_annihilator(space):
    """The annihilator from hit lists of the relation rows: for each free
    word f, the pivots whose row holds f, scaled by the lcm m of their
    pivot coefficients L_p into the row ``m e_f - sum a_f (m // L_p) e_p``,
    against the package's columns of the remainder table."""
    from math import lcm

    from nhomalg.linalg import Subspace

    ints = space._ints
    hits = {w: [] for w in all_words(space.alphabet, space.degree) if w not in ints}
    for pivot, row in ints.items():
        lead = row[pivot]
        for word, coeff in row.items():
            if word != pivot:
                hits[word].append((pivot, coeff, lead))
    rows = []
    for free, entries in hits.items():
        m = lcm(*(lead for _, _, lead in entries))
        row = {pivot: -coeff * (m // lead) for pivot, coeff, lead in entries}
        row[free] = m
        rows.append(row)
    return Subspace.zero(space.alphabet, space.degree)._extend(rows)


def reduced_remainder_table(space):
    """``linalg._remainder_table`` by ``Subspace.reduce``: the row of each
    word t is M times the remainder of t, M the lcm of the pivot
    coefficients, keyed by the position of each free word, ascending lex."""
    from math import lcm

    from nhomalg.linalg import word_vector

    ints = space._ints
    scale = lcm(*(row[p] for p, row in ints.items()))
    words = all_words(space.alphabet, space.degree)
    position = {f: i for i, f in enumerate(w for w in words if w not in ints)}
    table = {t: {position[f]: scale * c for f, c in space.reduce(word_vector(t)).terms.items()}
             for t in words}
    return table, scale, len(position)


def seeded_artin_schelter(seed):
    """A_{q,r} with q and r drawn as signed p/q, p and q in 100..999."""
    import random

    from nhomalg.catalog import artin_schelter

    rng = random.Random(seed)

    def rational():
        return Fraction(rng.choice((1, -1)) * rng.randint(100, 999), rng.randint(100, 999))

    return artin_schelter(rational(), rational())


def fraction_intersect(s1, s2):
    """The intersection, as the annihilator of both stacked annihilators."""
    from nhomalg.linalg import rref

    constraints = rref(_fraction_annihilator_vectors(s1) + _fraction_annihilator_vectors(s2),
                       s1.alphabet, s1.degree)
    return fraction_annihilator(constraints)


def iterated_intersection(relations, n):
    """W_n as E^0 (x) R (x) E^(n-N) met with every further shift in turn,
    each meet by :func:`fraction_intersect`."""
    from nhomalg.linalg import Subspace, rref, shifted_span

    D, N = relations.alphabet, relations.degree
    if n < N:
        return Subspace.full(D, n)
    space = rref(shifted_span(relations, 0, n - N), D, n)
    for r in range(1, n - N + 1):
        shifted = rref(shifted_span(relations, r, n - N - r), D, n)
        space = fraction_intersect(space, shifted)
    return space


def stepwise_normal_words(algebra, n):
    """The words of degree n that are not pivots of the stepwise ideal
    component, ascending lex."""
    pivots = set(algebra.ideal_component(n).pivots)
    return [w for w in all_words(algebra.D, n) if w not in pivots]


def occurrence(word, basis):
    """Start and lead of the leftmost leading word of ``basis`` in ``word``,
    by slicing every start and every lead length, shortest first."""
    lengths = sorted({len(lead) for lead in basis})
    for start in range(len(word)):
        for length in lengths:
            if start + length > len(word):
                break
            lead = word[start:start + length]
            if lead in basis:
                return start, lead
    return None


def ideal_word_matrix(algebra, n, word, side):
    """The matrix of multiplication by ``word`` from degree n: column b
    holds the whole word b + word (right) or word + b (left) reduced modulo
    the stepwise ideal component, over the normal words.  That route reads
    no Groebner basis, and its canonical remainder, supported on the
    non-pivot words, is the normal form.  Built by the checked ``Matrix``
    constructor from Fraction entries."""
    from nhomalg.linalg import Matrix, word_vector

    word = tuple(word)
    source = algebra.normal_basis(n)
    target = algebra.normal_basis(n + len(word))
    ideal = algebra.ideal_component(n + len(word))
    rows = {}
    for j, b in enumerate(source):
        form = ideal.reduce(word_vector(b + word if side == "right" else word + b))
        for w, c in form.terms.items():
            rows.setdefault(target[w], {})[j] = c
    return Matrix(len(target), len(source), rows)


def relabel_vector(v, D):
    """The vector with every letter x replaced by D + 1 - x."""
    from nhomalg.linalg import TensorVector

    return TensorVector(v.degree, {tuple(D + 1 - x for x in word): c
                                   for word, c in v.terms.items()})


def relabel(space):
    """The span relabelled by x -> D + 1 - x, reduced again by ``rref``.

    The relabelling reverses the letter order, so the normal words of a
    relabelled presentation are the relabelled normal words of the given
    one under the reversed order (revlex): comparing the two presentations
    checks that an invariant does not depend on the word order.
    """
    from nhomalg.linalg import rref

    return rref([relabel_vector(row, space.alphabet) for row in space.rows],
                space.alphabet, space.degree)


def relabelled(presentation):
    """The presentation with its relations relabelled by :func:`relabel`."""
    from nhomalg.algebra import Presentation

    return Presentation(presentation.D, presentation.N, relabel(presentation.relations))


def direct_ideal_component(algebra, n):
    """I_n as the span of all n-N+1 shifts E^r (x) R (x) E^(n-N-r), joined
    one at a time from zero: the direct route, against the stepwise one."""
    from nhomalg.linalg import Subspace, shift

    relations = algebra.presentation.relations
    space = Subspace.zero(algebra.D, n)
    for r in range(n - algebra.N + 1):
        space = space.join(shift(relations, r, n - algebra.N - r))
    return space


def dual_row_tails(algebra, m, j):
    """The tail split of W_m on the rows of ``dual_space``: per length-j
    prefix u, the matrix whose column c holds the coordinates, over the
    rows of W_{m-j}, of the tail after u of row c of W_m.  A tail outside
    W_{m-j} would break the nesting of the dual spaces, and raises."""
    from nhomalg.linalg import Matrix, TensorVector

    source = algebra.dual_space(m)
    target = algebra.dual_space(m - j)
    columns = {}
    for c, row in enumerate(source.rows):
        tails = {}
        for word, coeff in row.terms.items():
            tails.setdefault(word[:j], {})[word[j:]] = coeff
        for prefix, tail in tails.items():
            coordinates = target.coordinates(TensorVector(m - j, tail))
            if coordinates is None:
                raise AssertionError(f"a tail of a row of W_{m} escapes W_{m - j}")
            rows = columns.setdefault(prefix, {})
            for i, value in enumerate(coordinates):
                rows.setdefault(i, {})[c] = value
    return {prefix: Matrix(target.dim, source.dim, rows)
            for prefix, rows in columns.items()}


def two_shift_dual_spaces(relations, top):
    """W_0..W_top by W_n = (W_{n-1} (x) E) cap (E^(n-N) (x) R), both shifts
    built in full by ``shift`` and met by the package's ``intersect``."""
    from nhomalg.linalg import Subspace, intersect, shift

    D, N = relations.alphabet, relations.degree
    spaces = [Subspace.full(D, n) for n in range(min(N, top + 1))]
    if top >= N:
        spaces.append(relations)
    for n in range(N + 1, top + 1):
        prev = spaces[-1]
        spaces.append(intersect(shift(prev, 0, 1), shift(relations, n - N, 0))
                      if prev.dim else Subspace.zero(D, n))
    return spaces


def word_row_dual_spaces(relations, top):
    """W_0..W_top by the word-row meet: each degree the kernel of the
    remainder map modulo E^(n-N) (x) R on the word rows of W_{n-1} (x) E.
    The remainder of a word u.t.x, |u| = n - N, is u (x) (the remainder of
    t.x modulo R), a row of the package's table of the degree-N words,
    its keys offset by lex(u) times the number of free words."""
    from nhomalg.linalg import Subspace, _assemble, _kernel, _lex_index, _remainder_table

    D, N = relations.alphabet, relations.degree
    spaces = [Subspace.full(D, n) for n in range(min(N, top + 1))]
    if top >= N:
        spaces.append(relations)
    table, scale, free = _remainder_table(relations)
    for n in range(N + 1, top + 1):
        k = n - N
        ys, tagged = [], []
        for p, y in spaces[-1]._ints.items():
            for x in range(D, 0, -1):
                rem = {}
                for w, c in y.items():
                    offset = _lex_index(w[:k], D) * free
                    for f, a in table[w[k:] + (x,)].items():
                        rem[offset + f] = rem.get(offset + f, 0) + c * a
                rem = {key: c for key, c in rem.items() if c}
                rem[-1 - len(tagged)] = scale * y[p]
                tagged.append(rem)
                ys.append((p + (x,), {w + (x,): c for w, c in y.items()}))
        spaces.append(Subspace._from_ints(D, n, _assemble(ys, _kernel(tagged))))
    return spaces


def whole_row_combine(row, other, word):
    """Primitive ``a*row - b*other`` killing ``word``, a and b its two
    coefficients as they stand: the kernel step with no gcd taken first,
    against ``linalg._combine``."""
    from nhomalg.linalg import _primitive

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


def whole_row_echelon(rows, pivots=None):
    """``linalg._echelon`` on :func:`whole_row_combine`."""
    from nhomalg.linalg import _primitive

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
            row = whole_row_combine(row, hit, w)
    return pivots


def whole_row_extend(space, rows):
    """The span of ``space`` and the integer ``rows``, each new row eliminated
    whole with no remainder pass first, and reduced back to front on
    :func:`whole_row_combine`: against ``Subspace._extend``."""
    from nhomalg.linalg import Subspace

    done = {}
    pivots = whole_row_echelon(rows, dict(space._ints))
    for w in sorted(pivots):
        row = pivots[w]
        for hit in [k for k in row if k != w and k in done]:
            row = whole_row_combine(row, done[hit], hit)
        if row[w] < 0:
            row = {k: -c for k, c in row.items()}
        done[w] = row
    return Subspace._from_ints(space.alphabet, space.degree,
                               {w: done[w] for w in sorted(done, reverse=True)})


def two_pass_matrix(nrows, ncols, rows, scale=1):
    """``Matrix._from_ints`` in two passes, every row copied: zeros and empty
    rows dropped first, then the common factor of scale and entries."""
    from math import gcd

    from nhomalg.linalg import Matrix

    rows = {i: row for i, row in ((i, {j: v for j, v in row.items() if v})
                                  for i, row in rows.items()) if row}
    g = scale
    for row in rows.values():
        if g == 1:
            break
        g = gcd(g, *row.values())
    if g > 1:
        rows = {i: {j: v // g for j, v in row.items()} for i, row in rows.items()}
    matrix = Matrix.__new__(Matrix)
    matrix.nrows, matrix.ncols, matrix.rows, matrix.scale = nrows, ncols, rows, scale // g
    return matrix


def _word_normal_form(word, basis, leads, memo):
    """Normal form ``(row, den)`` of ``word`` modulo the ideal that ``basis``
    generates: the first lead occurrence that ``leads`` finds is rewritten
    by the rest of its row, and the memoised forms of the tail words, each
    smaller than the word, are combined.  Tails wait on an explicit stack."""
    from nhomalg.algebra import _combine_forms

    pending = [word]
    while pending:
        t = pending[-1]
        if t in memo:
            pending.pop()
            continue
        hit = leads.occurrence(t)
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
        memo[t] = _combine_forms([(memo[tail], c) for tail, c in tails], row[lead])
        pending.pop()
    return memo[word]


def all_overlaps_basis(presentation, top, overlaps=None):
    """The truncated reduced Groebner basis through degree ``top`` from every
    overlap ambiguity, each S-element's words reduced one by one to their
    memoised normal forms and then added up: against ``_extend_basis``,
    which skips the overlaps of the chain criterion and reduces each
    S-element as one row.  ``overlaps``, if given, maps each degree above
    N to the number of overlaps of that degree."""
    from nhomalg.algebra import _combine_forms, _LeadAutomaton
    from nhomalg.linalg import _echelon, _full_reduce

    basis = {}
    leads = _LeadAutomaton((), presentation.D)
    for degree in range(presentation.N, top + 1):
        size = len(basis)
        if degree == presentation.N:
            basis.update(presentation.relations._ints)
        else:
            by_prefix = {}
            for b in basis:
                for k in range(1, len(b)):
                    by_prefix.setdefault(b[:k], []).append(b)
            memo, rows, count = {}, [], 0
            for a, ga in basis.items():
                for k in range(1, len(a)):
                    for b in by_prefix.get(a[len(a) - k:], ()):
                        if len(a) + len(b) - k != degree:
                            continue
                        count += 1
                        gb = basis[b]
                        x, z = a[:len(a) - k], b[k:]
                        terms = [(_word_normal_form(w + z, basis, leads, memo), gb[b] * c)
                                 for w, c in ga.items() if w != a]
                        terms += [(_word_normal_form(x + w, basis, leads, memo), -ga[a] * c)
                                  for w, c in gb.items() if w != b]
                        row, _ = _combine_forms(terms, 1)
                        if row:
                            rows.append(row)
            if overlaps is not None:
                overlaps[degree] = count
            basis.update(_full_reduce(_echelon(rows)))
        if len(basis) > size:
            leads = _LeadAutomaton(basis, presentation.D)
    return basis


def per_letter_step(tableau, x):
    """Schensted row bumping: replace the leftmost entry strictly greater
    than x, push the displaced entry into the next row, append at the end."""
    from nhomalg.tableaux import Tableau

    if x < 1:
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


def per_letter_insertion(word):
    """Plactic normal form: insert the letters left to right."""
    from nhomalg.tableaux import EMPTY_TABLEAU

    tableau = EMPTY_TABLEAU
    for letter in word:
        tableau = per_letter_step(tableau, letter)
    return tableau


def knuth_equivalent(w1, w2):
    from nhomalg.tableaux import word_to_tableau

    return word_to_tableau(w1) == word_to_tableau(w2)


def tableaux_of_shape(shape, max_letter):
    """All semistandard fillings of a shape with entries up to max_letter,
    in lexicographic order of the concatenated rows."""
    from nhomalg.tableaux import EMPTY_TABLEAU, Tableau

    shape = tuple(shape)
    if not shape:
        yield EMPTY_TABLEAU
        return
    if len(shape) > max_letter:
        return
    rows = []

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


def enumerate_tableaux(D, n):
    """Every tableau with n cells and entries up to D, by shape then
    filling; only the shapes with at most D rows are filled."""
    return [t for shape in partitions(n, D) for t in tableaux_of_shape(shape, D)]


def all_derivations_invariance(relations):
    """Invariance of a relation span under every one of the D^2 elementary
    derivations E_ij, i and j ascending, each reported as
    ``catalog.gl_invariance`` reports the generators of gl(D) it checks."""
    from nhomalg.catalog import (
        DerivationFailure,
        GlInvarianceReport,
        apply_derivation,
    )

    D = relations.alphabet
    rows = relations.rows
    results = []
    failures = []
    for i in range(1, D + 1):
        for j in range(1, D + 1):
            ok = True
            for index, row in enumerate(rows):
                image = apply_derivation(row, i, j)
                remainder = relations.reduce(image)
                if not remainder.is_zero():
                    lead = max(remainder.terms)
                    witness = remainder * (1 / remainder.terms[lead])
                    failures.append(DerivationFailure(i, j, index, image, witness))
                    ok = False
                    break
            results.append((i, j, ok))
    return GlInvarianceReport(D, tuple(results), tuple(failures))
