"""Property tests: the stepwise routes against the direct ones on random
presentations with D = 1..3 generators, relations in degree N = 2..4
(empty, full, or spanned by random integer and p/q vectors), under both
word orders, in degrees with at most 729 words; the dual dimensions by
quotient and by intersection, lex against revlex, chi by two routes and
the relation-file round trip on the same presentations; the integer-row
annihilator and intersection against the Fraction route, and remainders
and coordinates against the dense oracle, on random spaces of the same
kind."""

from fractions import Fraction

from hypothesis import example, given, strategies as st

from nhomalg.algebra import GradedAlgebra, Presentation
from nhomalg.checks import direct_ideal_component
from nhomalg.linalg import (
    ORDERS,
    Subspace,
    TensorVector,
    all_words,
    annihilator,
    intersect,
    rref,
    shift,
    shifted_span,
)
from nhomalg.relfile import format_presentation, parse_relations
from nhomalg.series import chi_via_product

from _oracles import (
    dense_rank,
    fraction_annihilator,
    fraction_intersect,
    iterated_intersection,
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


@st.composite
def subspaces(draw, D, degree, order):
    kind = draw(st.sampled_from(["random", "empty", "full"]))
    if kind == "empty":
        return Subspace.zero(D, degree, order)
    if kind == "full":
        return Subspace.full(D, degree, order)
    words = list(all_words(D, degree))
    vectors = []
    for _ in range(draw(st.integers(1, 8))):
        support = draw(st.lists(st.sampled_from(words), min_size=1, max_size=4))
        vectors.append(TensorVector(degree, [(w, draw(coefficients)) for w in support]))
    return rref(vectors, D, degree, order)


@st.composite
def algebras(draw):
    # Listed largest first: the one-generator algebras are the least telling.
    D = draw(st.sampled_from([3, 2, 1]))
    N = draw(st.sampled_from([2, 3, 4]))
    order = draw(st.sampled_from(ORDERS))
    relations = draw(subspaces(D, N, order))
    top = draw(st.integers(N, max(N, top_degree(D, N + 4))))
    return GradedAlgebra(Presentation(D, N, relations), order=order), top


def rational_quadratic_case():
    """Three p/q relations among three generators in degree 2, up to degree 6."""
    vectors = [
        TensorVector(2, {(1, 2): 1, (2, 1): Fraction(-2, 3)}),
        TensorVector(2, {(3, 3): Fraction(1, 2), (1, 3): 1, (2, 2): -1}),
        TensorVector(2, {(3, 1): 1, (1, 1): Fraction(5, 4)}),
    ]
    relations = rref(vectors, 3, 2, "revlex")
    return GradedAlgebra(Presentation(3, 2, relations), order="revlex"), 6


@given(algebras())
@example(rational_quadratic_case())
def test_stepwise_ideal_equals_union_of_shifts(case):
    algebra, top = case
    for n in range(top + 1):
        assert algebra.ideal_component(n) == direct_ideal_component(algebra, n)


@given(algebras())
@example(rational_quadratic_case())
def test_stepwise_dual_equals_iterated_intersection(case):
    algebra, top = case
    relations = algebra.presentation.relations
    for n in range(top + 1):
        assert algebra.dual_space(n) == iterated_intersection(relations, n)


@given(algebras())
@example(rational_quadratic_case())
def test_dual_dims_and_chi_agree_by_both_routes(case):
    algebra, top = case
    quotient = GradedAlgebra(algebra.presentation.dual(), order=algebra.order)
    for n in range(top + 1):
        assert quotient.component_dim(n) == algebra.dual_dim(n)
    chi_via_product(algebra, top)  # raises if it differs from chi_direct


@given(algebras())
@example(rational_quadratic_case())
def test_dimensions_do_not_depend_on_the_word_order(case):
    algebra, top = case
    other = "revlex" if algebra.order == "lex" else "lex"
    reordered = GradedAlgebra(algebra.presentation, order=other)
    for n in range(top + 1):
        assert reordered.component_dim(n) == algebra.component_dim(n)
        assert reordered.dual_dim(n) == algebra.dual_dim(n)


@given(algebras())
@example(rational_quadratic_case())
def test_relation_file_round_trips(case):
    presentation = case[0].presentation
    relations = presentation.relations
    parsed = parse_relations(format_presentation(presentation), relations.order)
    assert (parsed.D, parsed.N) == (presentation.D, presentation.N)
    assert parsed.relations == relations
    assert parsed.relations.rows == relations.rows


@st.composite
def shift_cases(draw):
    D = draw(st.sampled_from([3, 2, 1]))
    degree = draw(st.integers(1, 3))
    order = draw(st.sampled_from(ORDERS))
    space = draw(subspaces(D, degree, order))
    room = top_degree(D, 8) - degree
    left = draw(st.integers(0, max(0, room)))
    right = draw(st.integers(0, max(0, room - left)))
    return space, left, right


@given(shift_cases())
def test_shift_equals_reduced_shifted_span(case):
    space, left, right = case
    degree = left + space.degree + right
    shifted = shift(space, left, right)
    direct = rref(shifted_span(space, left, right), space.alphabet, degree, space.order)
    assert shifted == direct
    assert shifted.pivots == direct.pivots
    assert shifted.dim == space.alphabet ** (left + right) * space.dim


@st.composite
def space_pairs(draw):
    D = draw(st.sampled_from([3, 2, 1]))
    degree = draw(st.integers(1, top_degree(D, 4)))
    order = draw(st.sampled_from(ORDERS))
    return draw(subspaces(D, degree, order)), draw(subspaces(D, degree, order))


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
    public = Subspace(space.alphabet, space.degree, space.rows, space.order)
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


# Ratios for spans whose reduced rows have pivot coefficients other than 1.
ratios = st.sampled_from([Fraction(p, q) for p in (3, -2, 5, -1) for q in (7, 2, 3, 1)])


@st.composite
def reduce_cases(draw):
    """A space, a vector that often meets its pivots, and weights for a
    random element of the span."""
    D = draw(st.sampled_from([3, 2, 1]))
    degree = draw(st.integers(1, top_degree(D, 3)))
    order = draw(st.sampled_from(ORDERS))
    words = list(all_words(D, degree))
    if draw(st.booleans()):
        space = draw(subspaces(D, degree, order))
    else:
        rows = draw(st.lists(st.dictionaries(st.sampled_from(words), ratios,
                                             min_size=min(2, len(words)), max_size=4),
                             min_size=1, max_size=6))
        space = rref([TensorVector(degree, row) for row in rows], D, degree, order)
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
