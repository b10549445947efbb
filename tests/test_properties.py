"""Property tests: the stepwise routes against the direct ones on random
presentations with D = 1..3 generators, relations in degree N = 2..4
(empty, full, or spanned by random integer and p/q vectors or by rows
of mixed ratios), as drawn or with their letters relabelled by
x -> D + 1 - x, in degrees with at most 729 words; the Groebner route
(normal words and their count, normal forms, basis rows) against the
stepwise ideal components; one left join from the union of shifts in
degree n - 1 against the union in degree n; the dual dimensions by quotient and by
intersection, the tail split of the rows of W_n against the transposed
word matrices of the dual algebra (also on the catalogue), the
dimensions against those of the relabelled
presentation, the dims of the tower of kernels against the quotient
route and the word rows assembled from it against the two-shift and
word-row oracles, row for row (also on dense presentations and signed
binomials, and on the duals of all three), chi by two routes,
Koszul-slice ranks against the dense oracle and the relation-file round
trip on the same presentations; the integer-row annihilator and
intersection against the Fraction route, the laws of the intersection,
and remainders and coordinates against the dense oracle, on random
spaces of the same kind; and, on denser presentations whose Groebner
basis mostly grows past degree N, the Groebner route against the
stepwise ideal and the dual spaces of their annihilator presentations
against the Fraction oracle and the quotient of the double dual; the
rows of G against the all-overlaps route, bit for bit, on all three
kinds of presentation and their duals; the
one-letter word matrices on both sides and the normal forms, all read
from the border tables, against the stepwise ideal on both kinds of
presentation and on presentations by signed two-term relations u +- v;
and the
integer-scaled matrices against dense Fraction grids, on small random
matrices whose entries have different denominators; and the rank in
sparsest-column order against the dense oracle, on sparse integer
matrices with repeated, empty and tied rows and columns; and the rows of
``_echelon``, ``_extend`` and ``join`` against the whole-row elimination
oracle, bit for bit, with the untouched rows of a span reused, on rows
with large rational coefficients; and the annihilator read off the
remainder table against the hit-list oracle, row for row, and each row
of that table against the reduced word, on the relations of both kinds
of presentation and on their annihilators."""

from collections import Counter
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from nhomalg.algebra import GradedAlgebra, Presentation
from nhomalg.catalog import artin_schelter, paraboson, parafermion, plactic
from nhomalg.koszul import build_koszul_slice, euler_agrees_with_chi
from nhomalg.linalg import (
    Matrix,
    Subspace,
    TensorVector,
    _column_labels,
    _echelon,
    _over_lcm,
    _primitive,
    _remainder_table,
    all_words,
    annihilator,
    intersect,
    rref,
    shift,
    shifted_span,
    word_vector,
)
from nhomalg.relfile import format_presentation, parse_relations
from nhomalg.series import chi_via_product

from _oracles import (
    all_overlaps_basis,
    dense_matrix_rank,
    dense_rank,
    direct_ideal_component,
    dual_row_tails,
    fraction_annihilator,
    fraction_intersect,
    hit_list_annihilator,
    ideal_word_matrix,
    iterated_intersection,
    reduced_remainder_table,
    relabel,
    relabelled,
    stepwise_normal_words,
    two_shift_dual_spaces,
    whole_row_echelon,
    whole_row_extend,
    word_row_dual_spaces,
)

MAX_WORDS = 729

coefficients = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=5))


def top_degree(D, cap):
    """Largest degree up to ``cap`` with at most MAX_WORDS words."""
    n = 0
    while n < cap and D ** (n + 1) <= MAX_WORDS:
        n += 1
    return n


# Whether to relabel a drawn space by x -> D + 1 - x.  A two-valued
# sampled_from, not st.booleans(): another strategy here would redraw the
# examples of every property test that draws it.
relabellings = st.sampled_from((False, True))

# Ratios for spans whose reduced rows have pivot coefficients other than 1.
ratios = st.sampled_from([Fraction(p, q) for p in (3, -2, 5, -1) for q in (7, 2, 3, 1)])


@st.composite
def subspaces(draw, D, degree, relabel_letters):
    """Empty, full, "random" or "scaled" spans, relabelled if asked.  The
    "scaled" rows mix the ``ratios``, so their integer rows mostly have
    pivot coefficients above 1, which the integer kernels must scale by
    ("random" rows rarely do); listed twice, they give about a third of
    the drawn spaces such rows."""
    kind = draw(st.sampled_from(["scaled", "random", "scaled", "empty", "full"]))
    if kind == "empty":
        return Subspace.zero(D, degree)
    if kind == "full":
        return Subspace.full(D, degree)
    words = list(all_words(D, degree))
    if kind == "scaled":
        rows = draw(st.lists(st.dictionaries(st.sampled_from(words), ratios,
                                             min_size=min(2, len(words)), max_size=4),
                             min_size=1, max_size=6))
        vectors = [TensorVector(degree, row) for row in rows]
    else:
        vectors = []
        for _ in range(draw(st.integers(1, 8))):
            support = draw(st.lists(st.sampled_from(words), min_size=1, max_size=4))
            vectors.append(TensorVector(degree, [(w, draw(coefficients)) for w in support]))
    space = rref(vectors, D, degree)
    return relabel(space) if relabel_letters else space


@st.composite
def algebras(draw):
    # Listed largest first: the one-generator algebras are the least telling.
    D = draw(st.sampled_from([3, 2, 1]))
    N = draw(st.sampled_from([2, 3, 4]))
    relabel_letters = draw(relabellings)
    relations = draw(subspaces(D, N, relabel_letters))
    top = draw(st.integers(N, max(N, top_degree(D, N + 4))))
    return GradedAlgebra(Presentation(D, N, relations)), top


def rational_quadratic_case():
    """Three p/q relations among three generators in degree 2, relabelled,
    up to degree 6."""
    vectors = [
        TensorVector(2, {(1, 2): 1, (2, 1): Fraction(-2, 3)}),
        TensorVector(2, {(3, 3): Fraction(1, 2), (1, 3): 1, (2, 2): -1}),
        TensorVector(2, {(3, 1): 1, (1, 1): Fraction(5, 4)}),
    ]
    relations = relabel(rref(vectors, 3, 2))
    return GradedAlgebra(Presentation(3, 2, relations)), 6


@given(algebras())
@example(rational_quadratic_case())
def test_stepwise_ideal_equals_union_of_shifts(case):
    algebra, top = case
    for n in range(top + 1):
        assert algebra.ideal_component(n) == direct_ideal_component(algebra, n)


@given(algebras())
@example(rational_quadratic_case())
@example((GradedAlgebra(Presentation(2, 3, Subspace.zero(2, 3))), 6))
@example((GradedAlgebra(Presentation(3, 2, Subspace.full(3, 2))), 5))
def test_one_left_join_builds_the_union_of_shifts(case):
    # The identity behind the ideal check of ``checks``: from the union of
    # shifts in degree n - 1, one join with R (x) E^(n-N) gives degree n.
    algebra, top = case
    relations, N = algebra.presentation.relations, algebra.N
    for n in range(N + 1, top + 1):
        left_built = shift(direct_ideal_component(algebra, n - 1), 1, 0).join(
            shift(relations, 0, n - N))
        assert left_built == direct_ideal_component(algebra, n)


@given(algebras())
@example(rational_quadratic_case())
def test_groebner_route_equals_the_stepwise_ideal(case):
    algebra, top = case
    for n in range(top + 1):
        assert list(algebra.normal_basis(n)) == stepwise_normal_words(algebra, n)
        if n == 0:
            continue
        # Words b.x with b normal: the products a word matrix reduces.
        ideal = algebra.ideal_component(n)
        products = [b + (x,) for b in list(algebra.normal_basis(n - 1))[:50]
                    for x in range(1, algebra.D + 1)]
        for word in products:
            v = word_vector(word)
            assert algebra.reduce_to_normal(v) == ideal.reduce(v)
        mixed = TensorVector(n, [(word, Fraction((-1) ** i * (i + 2), 2 * i + 3))
                                 for i, word in enumerate(products)])
        assert algebra.reduce_to_normal(mixed) == ideal.reduce(mixed)
    for lead, row in algebra._basis.items():
        assert algebra.ideal_component(len(lead))._ints[lead] == row


@given(algebras())
@example(rational_quadratic_case())
def test_stepwise_dual_equals_iterated_intersection(case):
    algebra, top = case
    relations = algebra.presentation.relations
    for n in range(top + 1):
        assert algebra.dual_space(n) == iterated_intersection(relations, n)


def _dual_change_of_basis(algebra, m):
    """T_m[b][c], the coefficient of row c of W_m by intersection at the
    normal word b of the dual algebra in degree m."""
    rows = algebra.dual_space(m).rows
    normal = algebra.dual().normal_basis(m)
    return Matrix(len(normal), len(rows),
                  {i: {c: row.coefficient(b) for c, row in enumerate(rows)}
                   for b, i in normal.items()})


@given(algebras())
@example(rational_quadratic_case())
@example((GradedAlgebra(parafermion(2)), 7))
@example((GradedAlgebra(parafermion(3)), 5))
@example((GradedAlgebra(plactic(2)), 7))
@example((GradedAlgebra(paraboson(2)), 6))
@example((GradedAlgebra(artin_schelter(Fraction(-3, 7), Fraction(5, 2))), 7))
def test_dual_word_matrices_carry_the_tail_split_of_the_rows(case):
    # W_m = (A^!_m)^*: on the rows of W_m by intersection, the tail split
    # after a prefix u is the transposed left multiplication by u in the
    # dual algebra, up to the invertible change of basis T_m.
    algebra, top = case
    dual = algebra.dual()
    bases = []
    for m in range(top + 1):
        basis = _dual_change_of_basis(algebra, m)
        assert basis.nrows == basis.ncols == basis.rank()
        bases.append(basis)
    for j in range(1, algebra.N):
        for m in range(j, top + 1):
            tails = dual_row_tails(algebra, m, j)
            for u in all_words(algebra.D, j):
                tail = tails.get(u, Matrix(bases[m - j].ncols, bases[m].ncols))
                assert bases[m - j].mul(tail) == \
                    dual.word_matrix(m - j, u, "left").transpose().mul(bases[m])


@given(algebras())
@example(rational_quadratic_case())
def test_dual_dims_and_chi_agree_by_both_routes(case):
    algebra, top = case
    quotient = GradedAlgebra(algebra.presentation.dual())
    for n in range(top + 1):
        assert quotient.component_dim(n) == algebra.dual_space(n).dim
    chi_via_product(algebra, top)  # raises if it differs from chi_direct


@given(algebras())
@example(rational_quadratic_case())
def test_dimensions_do_not_depend_on_the_word_order(case):
    algebra, top = case
    # The relabelled presentation stands for this one under the reversed
    # letter order.
    reordered = GradedAlgebra(relabelled(algebra.presentation))
    for n in range(top + 1):
        assert reordered.component_dim(n) == algebra.component_dim(n)
        assert reordered.dual_dim(n) == algebra.dual_dim(n)


@given(algebras())
@example(rational_quadratic_case())
def test_relation_file_round_trips(case):
    presentation = case[0].presentation
    relations = presentation.relations
    parsed = parse_relations(format_presentation(presentation))
    assert (parsed.D, parsed.N) == (presentation.D, presentation.N)
    assert parsed.relations == relations
    assert parsed.relations.rows == relations.rows


@given(algebras())
@example(rational_quadratic_case())
def test_koszul_slices_against_the_dense_oracle(case):
    algebra, top = case
    # At most 243 words per degree: the dense oracle is cubic in the size.
    n_max = min(top, 6 if algebra.D < 3 else 5)
    assert euler_agrees_with_chi(algebra, n_max)
    for n in range(1, n_max + 1):
        for matrix in build_koszul_slice(algebra, n).matrices:
            assert matrix.rank() == dense_matrix_rank(matrix)


@st.composite
def shift_cases(draw):
    D = draw(st.sampled_from([3, 2, 1]))
    degree = draw(st.integers(1, 3))
    space = draw(subspaces(D, degree, draw(relabellings)))
    room = top_degree(D, 8) - degree
    left = draw(st.integers(0, max(0, room)))
    right = draw(st.integers(0, max(0, room - left)))
    return space, left, right


@given(shift_cases())
def test_shift_equals_reduced_shifted_span(case):
    space, left, right = case
    degree = left + space.degree + right
    shifted = shift(space, left, right)
    direct = rref(shifted_span(space, left, right), space.alphabet, degree)
    assert shifted == direct
    assert shifted.pivots == direct.pivots
    assert shifted.dim == space.alphabet ** (left + right) * space.dim


@st.composite
def space_pairs(draw):
    D = draw(st.sampled_from([3, 2, 1]))
    degree = draw(st.integers(1, top_degree(D, 4)))
    relabel_letters = draw(relabellings)
    return (draw(subspaces(D, degree, relabel_letters)),
            draw(subspaces(D, degree, relabel_letters)))


@given(space_pairs())
def test_integer_annihilator_and_intersection_equal_fraction_route(pair):
    s1, s2 = pair
    for got, want in ((annihilator(s1), fraction_annihilator(s1)),
                      (intersect(s1, s2), fraction_intersect(s1, s2))):
        assert got == want
        assert got.pivots == want.pivots
        assert got.rows == want.rows


@given(space_pairs())
def test_reading_a_space_leaves_its_integer_rows(pair):
    space, other = pair
    untouched = shift(space, 0, 0)
    public = Subspace(space.alphabet, space.degree, space.rows)
    assert untouched == public and public == untouched
    assert hash(untouched) == hash(public)
    stored = untouched._ints
    snapshot = {p: dict(row) for p, row in stored.items()}
    for row in other.rows:
        untouched.reduce(row)
        untouched.coordinates(row)
    assert untouched.rows == public.rows
    assert untouched._ints is stored and stored == snapshot
    assert untouched == public and hash(untouched) == hash(public)
    assert space == public and hash(space) == hash(public)


@st.composite
def reduce_cases(draw):
    """A space, a vector that often meets its pivots, and weights for a
    random element of the span."""
    D = draw(st.sampled_from([3, 2, 1]))
    degree = draw(st.integers(1, top_degree(D, 3)))
    relabel_letters = draw(relabellings)
    words = list(all_words(D, degree))
    space = draw(subspaces(D, degree, relabel_letters))
    support = draw(st.lists(st.sampled_from(list(space.pivots) + words), max_size=6))
    v = TensorVector(degree, [(w, draw(coefficients)) for w in support])
    weights = draw(st.lists(coefficients, min_size=space.dim, max_size=space.dim))
    return space, v, weights


def combination(degree, coords, rows):
    total = TensorVector(degree)
    for c, row in zip(coords, rows):
        total = total + row * c
    return total


@given(reduce_cases())
def test_reduce_and_coordinates_are_exact(case):
    space, v, weights = case
    rows = space.rows
    remainder = space.reduce(v)
    assert not remainder.support() & set(space.pivots)
    assert dense_rank([row.terms for row in rows] + [(v - remainder).terms],
                      space.alphabet, space.degree) == space.dim
    s = combination(space.degree, weights, rows)
    assert space.reduce(v + s) == remainder
    assert combination(space.degree, space.coordinates(s), rows) == s
    coords = space.coordinates(v)
    assert (coords is None) == (not remainder.is_zero())
    if coords is not None:
        assert combination(space.degree, coords, rows) == v


def scaled_pair():
    """A 3-row space whose integer rows have pivot coefficients 3, 2 and 5,
    and a 2-row space meeting it in y1 + y2 only: y1 and y2 have
    remainders 3 e_211 and -2 e_211 with scales 3 and 2, so the meet is
    right only if each row is weighed by its own scale."""
    larger = rref([TensorVector(3, {(2, 2, 2): 3, (1, 1, 1): 1}),
                   TensorVector(3, {(2, 2, 1): 2, (1, 1, 2): 1}),
                   TensorVector(3, {(2, 1, 2): 5, (1, 2, 1): 1})], 2, 3)
    smaller = rref([TensorVector(3, {(2, 2, 2): 3, (1, 1, 1): 1, (2, 1, 1): 1}),
                    TensorVector(3, {(2, 2, 1): 2, (1, 1, 2): 1, (2, 1, 1): -1})], 2, 3)
    return larger, smaller


@given(space_pairs())
@example(scaled_pair())
@example(scaled_pair()[::-1])
def test_intersect_laws(pair):
    s1, s2 = pair
    meet = intersect(s1, s2)
    assert intersect(s2, s1) == meet
    assert s1.contains_subspace(meet) and s2.contains_subspace(meet)
    assert meet.dim + s1.join(s2).dim == s1.dim + s2.dim


@st.composite
def dense_presentations(draw):
    """One to three relations of three to five p/q terms among D = 2..3
    generators in degree N = 2..4, up to degree N + 3 or the last one
    with at most MAX_WORDS words.  Unlike most of ``algebras()``, most
    of these grow their Groebner basis past degree N, and their
    annihilator presentations have a proper, nonzero W_n in most degrees
    above N."""
    D = draw(st.sampled_from([3, 2]))
    N = draw(st.sampled_from([2, 3, 4]))
    relabel_letters = draw(relabellings)
    words = list(all_words(D, N))
    coefficient = st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool)
    # Sizes listed most telling first: the draws favour the first entry.
    rows = []
    for _ in range(draw(st.sampled_from([2, 3, 1]))):
        size = min(len(words), draw(st.sampled_from([4, 5, 3])))
        rows.append(draw(st.dictionaries(st.sampled_from(words), coefficient,
                                         min_size=size, max_size=size)))
    relations = rref([TensorVector(N, row) for row in rows], D, N)
    if relabel_letters:
        relations = relabel(relations)
    return GradedAlgebra(Presentation(D, N, relations)), top_degree(D, N + 3)


# Fewer examples than the suite profile's 60: these cases run to 729
# words, and the dual test compares with a D^n-wide Fraction oracle.
@settings(max_examples=20)
@given(dense_presentations())
def test_groebner_route_on_dense_presentations(case):
    algebra, top = case
    for n in range(top + 1):
        assert list(algebra.normal_basis(n)) == stepwise_normal_words(algebra, n)
    for lead, row in algebra._basis.items():
        assert algebra.ideal_component(len(lead))._ints[lead] == row


@settings(max_examples=10)
@given(dense_presentations())
def test_dual_route_on_dense_annihilator_presentations(case):
    algebra, top = case
    dual = GradedAlgebra(algebra.presentation.dual())
    double = GradedAlgebra(dual.presentation.dual())
    relations = dual.presentation.relations
    for n in range(top + 1):
        assert dual.dual_space(n).dim == double.component_dim(n)
        # The oracle stacks D^n-wide Fraction annihilators: at most 243 words.
        if algebra.D ** n <= 243:
            assert dual.dual_space(n) == iterated_intersection(relations, n)


@given(algebras())
@example(rational_quadratic_case())
def test_counted_dimensions_equal_the_stepwise_normal_words(case):
    algebra, top = case
    fresh = GradedAlgebra(algebra.presentation)
    for n in range(top + 1):
        assert fresh.component_dim(n) == len(stepwise_normal_words(algebra, n))
    assert not fresh._normal


@settings(max_examples=20)
@given(dense_presentations())
def test_counted_dimensions_on_dense_presentations(case):
    algebra, top = case
    fresh = GradedAlgebra(algebra.presentation)
    for n in range(top + 1):
        assert fresh.component_dim(n) == len(stepwise_normal_words(algebra, n))
    assert not fresh._normal


@given(st.one_of(algebras(), dense_presentations()))
@example(rational_quadratic_case())
@example((GradedAlgebra(Presentation(2, 3, Subspace.zero(2, 3))), 6))
@example((GradedAlgebra(Presentation(3, 4, Subspace.full(3, 4))), 5))
@example((GradedAlgebra(Presentation(2, 2, rref([TensorVector(2, {(2, 1): 1, (1, 2): 1})],
                                                2, 2))), 6))
@example((GradedAlgebra(parafermion(2)), 7))
def test_border_forms_equal_the_stepwise_ideal(case):
    # The one-letter matrices on both sides and ``reduce_to_normal``
    # against remainders modulo the stepwise ideal, which reads no G.  The
    # left matrices are asked degree by degree, each column one border
    # step on from the matrix below, and on a fresh algebra at the top
    # degree alone, each column walked from its border prefix.  In the
    # examples yx = -xy and parafermion(2), a step starts from a form
    # that is one normal word with coefficient -1.
    algebra, top = case
    D = algebra.D
    for n in range(top):
        for x in range(1, D + 1):
            for side in ("right", "left"):
                assert algebra.word_matrix(n, (x,), side) == \
                    ideal_word_matrix(algebra, n, (x,), side), (n, x, side)
    fresh = GradedAlgebra(algebra.presentation)
    for x in range(1, D + 1):
        assert fresh.word_matrix(top - 1, (x,), "left") == \
            algebra.word_matrix(top - 1, (x,), "left")
    ideal = algebra.ideal_component(top)
    words = list(all_words(D, top))
    for word in words[::max(1, len(words) // 40)]:
        v = word_vector(word)
        assert fresh.reduce_to_normal(v) == ideal.reduce(v), word
    mixed = TensorVector(top, [(word, Fraction((-1) ** i * (i + 2), 2 * i + 3))
                               for i, word in enumerate(words)])
    assert fresh.reduce_to_normal(mixed) == ideal.reduce(mixed)


@st.composite
def signed_binomials(draw):
    """One to three relations u + v or u - v, u and v distinct words, among
    D = 2..3 generators in degree N = 2..3, up to degree N + 3 or the last
    one with at most MAX_WORDS words.  Rewriting by such rows gives forms
    that are one normal word with coefficient -1, which ``algebras()`` and
    ``dense_presentations()`` almost never draw."""
    D = draw(st.sampled_from([3, 2]))
    N = draw(st.sampled_from([3, 2]))
    words = list(all_words(D, N))
    vectors = []
    for _ in range(draw(st.sampled_from([2, 3, 1]))):
        u, v = draw(st.lists(st.sampled_from(words), min_size=2, max_size=2, unique=True))
        sign = draw(st.sampled_from([-1, 1]))
        vectors.append(TensorVector(N, {u: 1, v: sign}))
    relations = rref(vectors, D, N)
    return GradedAlgebra(Presentation(D, N, relations)), top_degree(D, N + 3)


@given(signed_binomials())
def test_border_forms_of_signed_binomials_equal_the_stepwise_ideal(case):
    # The one-letter matrices on both sides and ``reduce_to_normal`` on a
    # fresh algebra against remainders modulo the stepwise ideal.
    algebra, top = case
    D = algebra.D
    for n in range(top):
        for x in range(1, D + 1):
            for side in ("right", "left"):
                assert algebra.word_matrix(n, (x,), side) == \
                    ideal_word_matrix(algebra, n, (x,), side), (n, x, side)
    fresh = GradedAlgebra(algebra.presentation)
    ideal = algebra.ideal_component(top)
    words = list(all_words(D, top))
    for word in words[::max(1, len(words) // 40)]:
        v = word_vector(word)
        assert fresh.reduce_to_normal(v) == ideal.reduce(v), word


def _groebner_basis_equals_all_overlaps(algebra, top):
    # For the presentation and its dual: G row for row, in the same order,
    # against every overlap, each word of an S-element reduced on its own.
    for pres in (algebra.presentation, algebra.presentation.dual()):
        fresh = GradedAlgebra(pres)
        fresh._complete_basis(top)
        assert list(fresh._basis.items()) == list(all_overlaps_basis(pres, top).items())


@given(algebras())
@example(rational_quadratic_case())
@example((GradedAlgebra(Presentation(2, 3, Subspace.zero(2, 3))), 6))
@example((GradedAlgebra(Presentation(3, 4, Subspace.full(3, 4))), 5))
def test_groebner_basis_equals_all_overlaps_on_random_presentations(case):
    _groebner_basis_equals_all_overlaps(*case)


@settings(max_examples=20)
@given(dense_presentations())
def test_groebner_basis_equals_all_overlaps_on_dense_presentations(case):
    _groebner_basis_equals_all_overlaps(*case)


@given(signed_binomials())
def test_groebner_basis_equals_all_overlaps_on_signed_binomials(case):
    _groebner_basis_equals_all_overlaps(*case)


def _tower_equals_the_word_row_routes(algebra, top):
    # For the presentation and its dual: each dim counted on top of the
    # tower against the level then built and the quotient route, on a
    # fresh algebra before any word row is built, and the assembled rows
    # against both word-row oracles, row for row.
    for pres in (algebra.presentation, algebra.presentation.dual()):
        fresh = GradedAlgebra(pres)
        for n in range(top + 1):
            counted = fresh.intersection_dims(n)[n]
            assert counted == len(fresh._dual_level(n).leads) == fresh.dual_dim(n), n
        assert not fresh._dual
        oracles = (two_shift_dual_spaces(pres.relations, top),
                   word_row_dual_spaces(pres.relations, top))
        for n in range(top + 1):
            space = fresh.dual_space(n)
            for oracle in oracles:
                assert (space.pivots, space._ints) == (oracle[n].pivots, oracle[n]._ints), n


@given(algebras())
@example(rational_quadratic_case())
@example((GradedAlgebra(Presentation(2, 3, Subspace.zero(2, 3))), 6))
@example((GradedAlgebra(Presentation(3, 4, Subspace.full(3, 4))), 5))
def test_dual_tower_on_random_presentations(case):
    _tower_equals_the_word_row_routes(*case)


@settings(max_examples=20)
@given(dense_presentations())
def test_dual_tower_on_dense_presentations(case):
    _tower_equals_the_word_row_routes(*case)


@given(signed_binomials())
def test_dual_tower_on_signed_binomials(case):
    _tower_equals_the_word_row_routes(*case)


# ---------------------------------------------------------------------------
# Integer-scaled matrices against dense Fraction grids.

matrix_entries = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.integers(-3, 3).map(Fraction))


def grids(nrows, ncols):
    return st.lists(st.lists(matrix_entries, min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows)


def from_grid(grid, ncols):
    return Matrix(len(grid), ncols, {i: dict(enumerate(row)) for i, row in enumerate(grid)})


def read_grid(matrix):
    return [[matrix.entry(i, j) for j in range(matrix.ncols)] for i in range(matrix.nrows)]


@st.composite
def matrix_cases(draw):
    """Pairs of one shape for a Kronecker sum, a grid to multiply the first
    factor by, and a cell to change."""
    r1, c1, r2, c2, c3 = (draw(st.integers(0, 3)) for _ in range(5))
    pairs = [(draw(grids(r1, c1)), draw(grids(r2, c2)))
             for _ in range(draw(st.integers(1, 3)))]
    right = draw(grids(c1, c3))
    cell = (draw(st.integers(0, 8)), draw(st.integers(0, 8)))
    return (r1, c1, r2, c2, c3), pairs, right, cell


@given(matrix_cases())
def test_integer_matrices_equal_dense_fraction_grids(case):
    (r1, c1, r2, c2, c3), pairs, right, cell = case
    nrows, ncols = r1 * r2, c1 * c2
    total = [[sum((a[i][j] * b[k][l] for a, b in pairs), Fraction(0))
              for j in range(c1) for l in range(c2)]
             for i in range(r1) for k in range(r2)]
    matrices = [(from_grid(a, c1), from_grid(b, c2)) for a, b in pairs]
    got = Matrix.kron_sum(nrows, ncols, matrices)
    assert read_grid(got) == total
    assert got == from_grid(total, ncols)
    # The same sum with each pair's factors rescaled by 2 and 1/2 lands on
    # other scales before the common factor is divided out.
    half = Matrix(1, 1, {0: {0: Fraction(1, 2)}})
    two = Matrix(1, 1, {0: {0: 2}})
    rescaled = [(a.kron(two), b.kron(half)) for a, b in matrices]
    assert Matrix.kron_sum(nrows, ncols, rescaled) == got
    assert got.rank() == dense_rank(
        [{(j + 1,): v for j, v in enumerate(row)} for row in total], ncols, 1)
    assert read_grid(got.transpose()) == [[total[i][j] for i in range(nrows)]
                                          for j in range(ncols)]
    assert got.transpose().transpose() == got
    a = pairs[0][0]
    product = [[sum((a[i][k] * right[k][j] for k in range(c1)), Fraction(0))
                for j in range(c3)] for i in range(r1)]
    assert read_grid(matrices[0][0].mul(from_grid(right, c3))) == product
    # Equal exactly when every entry is: halve them all, or change one cell.
    assert (got.kron(half) == got) == got.is_zero()
    if nrows and ncols:
        i, j = cell[0] % nrows, cell[1] % ncols
        changed = [list(row) for row in total]
        changed[i][j] += Fraction(1, 7)
        assert from_grid(changed, ncols) != got
        changed[i][j] -= Fraction(1, 7)
        assert from_grid(changed, ncols) == got


# ---------------------------------------------------------------------------
# Rank in sparsest-column order against the dense oracle.

@st.composite
def sparse_integer_matrices(draw):
    """Mostly zero integer rows over a scale; a row after the first may
    repeat an earlier one, a multiple of it, or be empty, so columns tie
    on their counts and rows on their lengths."""
    nrows, ncols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    cells = st.one_of(st.just(0), st.just(0), st.integers(-3, 3))
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(("fresh", "repeat", "multiple", "empty"))) if rows else "fresh"
        if kind == "fresh":
            rows.append({j: v for j in range(ncols) if (v := draw(cells))})
        elif kind == "empty":
            rows.append({})
        else:
            factor = 1 if kind == "repeat" else draw(st.sampled_from((-2, 3)))
            rows.append({j: factor * v for j, v in draw(st.sampled_from(rows)).items()})
    return nrows, ncols, rows, draw(st.integers(1, 6))


@example((0, 4, [], 1))
@example((4, 0, [{}, {}, {}, {}], 2))
@given(sparse_integer_matrices())
def test_rank_in_sparsest_column_order_equals_dense_rank(case):
    nrows, ncols, rows, scale = case
    matrix = Matrix._from_ints(nrows, ncols, dict(enumerate(rows)), scale)
    assert matrix == Matrix(nrows, ncols, {i: {j: Fraction(v, scale) for j, v in row.items()}
                                           for i, row in enumerate(rows)})
    assert matrix.rank() == dense_matrix_rank(matrix)
    # The fewer nonzeros a column holds, the higher its label; ties go to
    # the greater index.
    counts = Counter(j for row in rows for j in row)
    labels = _column_labels(list(matrix.rows.values()))
    assert sorted(labels) == sorted(counts)
    assert sorted(labels, key=labels.get) == sorted(counts, key=lambda j: (-counts[j], j))


# ---------------------------------------------------------------------------
# The elimination kernel against the whole-row oracle, on large coefficients.

# Numerators k * f and denominators d with f and d large powers, so the
# integer rows carry large coefficients whose pivots share large factors.
large_coefficients = st.builds(
    lambda k, f, d: Fraction(k * f, d),
    st.sampled_from((-7, -2, -1, 1, 3, 4, 9)),
    st.sampled_from((1, 2 ** 40, 6 ** 15, 10 ** 12 + 39)),
    st.sampled_from((1, 7, 2 ** 30, 3 ** 20)))


@st.composite
def kernel_cases(draw):
    """Two lists of primitive integer rows, from p/q vectors with
    ``large_coefficients``, in one degree with at most 27 words."""
    D = draw(st.sampled_from([3, 2, 1]))
    degree = draw(st.integers(1, top_degree(D, 3)))
    words = list(all_words(D, degree))

    def integer_rows():
        vectors = draw(st.lists(st.dictionaries(st.sampled_from(words), large_coefficients,
                                                min_size=1, max_size=5), max_size=7))
        return [_primitive(_over_lcm(v)[0]) for v in vectors]

    return D, degree, integer_rows(), integer_rows()


@example((2, 2, [{(2, 2): 3, (1, 1): 1}, {(2, 1): 2, (1, 2): 1}], [{(1, 2): 5}]))
@given(kernel_cases())
def test_kernel_rows_are_bit_identical_to_the_whole_row_oracle(case):
    D, degree, base_rows, new_rows = case
    assert list(_echelon(new_rows).items()) == list(whole_row_echelon(new_rows).items())
    empty = Subspace.zero(D, degree)
    space = empty._extend(base_rows)
    assert list(space._ints.items()) == list(whole_row_extend(empty, base_rows)._ints.items())
    assert space == Subspace(D, degree, [TensorVector(degree, row) for row in base_rows])
    other = empty._extend(new_rows)
    joined = space.join(other)
    want = whole_row_extend(space, list(other._ints.values()))
    assert list(joined._ints.items()) == list(want._ints.items())
    extended = space._extend(new_rows)
    want = whole_row_extend(space, new_rows)
    assert list(extended._ints.items()) == list(want._ints.items())
    # A row of the space that holds no new pivot word is reused as it is.
    fresh = set(extended._ints) - set(space._ints)
    for pivot, row in space._ints.items():
        if not fresh & row.keys():
            assert extended._ints[pivot] is row


def _annihilator_equals_the_hit_list_route(relations):
    for space in (relations, annihilator(relations)):
        got, want = annihilator(space), hit_list_annihilator(space)
        assert got.pivots == want.pivots
        assert [list(row.items()) for row in got._ints.values()] == \
            [list(row.items()) for row in want._ints.values()]
        assert _remainder_table(space) == reduced_remainder_table(space)


@given(algebras())
def test_annihilator_from_the_remainder_table_on_random_presentations(case):
    _annihilator_equals_the_hit_list_route(case[0].presentation.relations)


@settings(max_examples=20)
@given(dense_presentations())
def test_annihilator_from_the_remainder_table_on_dense_presentations(case):
    _annihilator_equals_the_hit_list_route(case[0].presentation.relations)
