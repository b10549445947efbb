import random
from fractions import Fraction

import pytest

from nhomalg.linalg import (
    DegreeMismatchError,
    Matrix,
    Subspace,
    TensorVector,
    all_words,
    annihilator,
    format_vector,
    intersect,
    rref,
    shift,
    shifted_span,
    word_vector,
    zero_vector,
)

from _oracles import bracket_vectors, dense_rank


def tv(degree, terms):
    return TensorVector(degree, terms)


def test_tensor_vector_basics():
    v = tv(3, {(1, 2, 1): 1, (2, 1, 1): -1})
    assert not v.is_zero()
    assert v.coefficient((1, 2, 1)) == 1
    assert v.coefficient((1, 1, 1)) == 0
    assert (v - v).is_zero()
    assert (2 * v).coefficient((2, 1, 1)) == -2
    w = word_vector((1, 2)).tensor(word_vector((1,)))
    assert w == word_vector((1, 2, 1))
    assert zero_vector(2).is_zero()


def test_tensor_vector_merges_duplicate_terms():
    v = TensorVector(2, [((1, 2), 1), ((1, 2), -1)])
    assert v.is_zero()
    v = TensorVector(2, [((1, 2), Fraction(1, 2)), ((1, 2), Fraction(1, 2))])
    assert v.coefficient((1, 2)) == 1


def test_tensor_vector_rejects_bad_words():
    with pytest.raises(DegreeMismatchError):
        TensorVector(2, {(1, 2, 1): 1})
    with pytest.raises(ValueError):
        TensorVector(1, {(0,): 1})


def test_rref_empty_span_is_zero_subspace():
    space = rref([], alphabet=2, degree=3)
    assert space.dim == 0
    assert space.codim() == 8


def test_rref_full_space_for_two_generators():
    space = rref([tv(1, {(1,): 1, (2,): 1}), tv(1, {(1,): 1, (2,): -1})],
                 alphabet=2, degree=1)
    assert space.dim == 2


def test_rref_knuth_difference_vectors():
    # The two spanning vectors have disjoint leading words 221 and 211.
    vectors = [tv(3, {(2, 2, 1): 1, (2, 1, 2): -1}),
               tv(3, {(1, 2, 1): 1, (2, 1, 1): -1})]
    space = rref(vectors, alphabet=2)
    assert space.dim == 2
    assert space.pivots == ((2, 2, 1), (2, 1, 1))
    # Pivot coefficients are one and rows carry decreasing pivots.
    for row, pivot in zip(space.rows, space.pivots):
        assert row.coefficient(pivot) == 1


def test_rref_pivot_unique_across_rows():
    vectors = [tv(2, {(1, 1): 1, (1, 2): 2, (2, 1): 3}),
               tv(2, {(1, 2): 1, (2, 1): 1}),
               tv(2, {(2, 2): 5, (1, 1): 1})]
    space = rref(vectors, alphabet=2)
    for row in space.rows:
        hits = [p for p in space.pivots if row.coefficient(p)]
        assert len(hits) == 1


def test_reduce_against_trivial_cases():
    space = rref([tv(3, {(2, 2, 1): 1, (2, 1, 2): -1}),
                  tv(3, {(1, 2, 1): 1, (2, 1, 1): -1})], alphabet=2)
    assert space.reduce(zero_vector(3)).is_zero()
    for row in space.rows:
        assert space.reduce(row).is_zero()
        assert space.contains(row)


def test_reduce_rejects_degree_mismatch():
    space = rref([tv(3, {(2, 2, 1): 1, (2, 1, 2): -1})], alphabet=2)
    with pytest.raises(DegreeMismatchError):
        space.reduce(word_vector((1, 2)))


def test_membership_equals_rank_stability():
    rows = [tv(3, {(2, 2, 1): 1, (2, 1, 2): -1}),
            tv(3, {(1, 2, 1): 1, (2, 1, 1): -1})]
    space = rref(rows, alphabet=2)
    inside = rows[0] - 2 * rows[1]
    outside = word_vector((1, 2, 2))
    assert space.reduce(inside).is_zero()
    assert rref(rows + [inside], alphabet=2).dim == space.dim
    assert not space.reduce(outside).is_zero()
    assert rref(rows + [outside], alphabet=2).dim == space.dim + 1


def test_reduce_against_nonmember():
    space = rref([tv(3, {(2, 2, 1): 1, (2, 1, 2): -1}),
                  tv(3, {(1, 2, 1): 1, (2, 1, 1): -1})], alphabet=2)
    v = tv(3, {(1, 2, 2): 1, (2, 1, 2): -1})
    remainder = space.reduce(v)
    assert not remainder.is_zero()
    assert not space.contains(v)


def test_reduction_is_canonical():
    rng = random.Random(7)
    vectors = [tv(3, {(2, 2, 1): 1, (2, 1, 2): -1}),
               tv(3, {(1, 2, 1): 1, (2, 1, 1): -1})]
    space = rref(vectors, alphabet=2)
    words = list(all_words(2, 3))
    for _ in range(25):
        v = tv(3, {w: rng.randint(-4, 4) for w in rng.sample(words, 3)})
        s = (vectors[0] * rng.randint(-3, 3)) + (vectors[1] * rng.randint(-3, 3))
        assert space.reduce(v) == space.reduce(v + s)


def test_coordinates_recover_membership():
    rows = [tv(3, {(2, 2, 1): 1, (2, 1, 2): -1}),
            tv(3, {(1, 2, 1): 1, (2, 1, 1): -1})]
    space = rref(rows, alphabet=2)
    v = rows[0] * Fraction(3, 2) - rows[1] * 5
    coords = space.coordinates(v)
    assert coords is not None
    rebuilt = zero_vector(3)
    for c, row in zip(coords, space.rows):
        rebuilt = rebuilt + c * row
    assert rebuilt == v
    assert space.coordinates(word_vector((1, 2, 2))) is None


def test_intersect_trivial_identities():
    space = rref([tv(3, {(2, 2, 1): 1, (2, 1, 2): -1})], alphabet=2)
    zero = Subspace.zero(2, 3)
    assert intersect(space, space) == space
    assert intersect(space, zero).dim == 0
    assert intersect(zero, space).dim == 0


def test_intersect_shifted_bracket_spans():
    # (E (x) R) meets (R (x) E) in a line for two generators.
    relations = rref([tv(3, t) for t in bracket_vectors(2)], alphabet=2)
    left = shift(relations, 1, 0)
    right = shift(relations, 0, 1)
    meet = intersect(left, right)
    assert meet.dim == 1
    assert left.contains_subspace(meet) and right.contains_subspace(meet)


def test_intersect_dimension_formula():
    rng = random.Random(3)
    words = list(all_words(2, 3))
    for _ in range(10):
        s1 = rref([tv(3, {w: rng.randint(-2, 2) for w in rng.sample(words, 4)})
                   for _ in range(3)], alphabet=2, degree=3)
        s2 = rref([tv(3, {w: rng.randint(-2, 2) for w in rng.sample(words, 4)})
                   for _ in range(3)], alphabet=2, degree=3)
        join = rref(list(s1.rows) + list(s2.rows), alphabet=2, degree=3)
        meet = intersect(s1, s2)
        assert join.dim + meet.dim == s1.dim + s2.dim
        assert intersect(s2, s1) == meet


def test_annihilator_trivialities():
    full = Subspace.full(2, 2)
    zero = Subspace.zero(2, 2)
    assert annihilator(full).dim == 0
    assert annihilator(zero).dim == 4


def test_annihilator_of_bracket_relations():
    relations = rref([tv(3, t) for t in bracket_vectors(2)], alphabet=2)
    assert relations.dim == 2
    ann = annihilator(relations)
    assert ann.dim == 8 - 2
    for row in ann.rows:
        for rel in relations.rows:
            pairing = sum(row.coefficient(w) * c for w, c in rel.terms.items())
            assert pairing == 0


def test_rank_nullity_random_spans():
    rng = random.Random(11)
    words = list(all_words(3, 2))
    for _ in range(10):
        vectors = [tv(2, {w: rng.randint(-3, 3) for w in rng.sample(words, 3)})
                   for _ in range(rng.randint(0, 5))]
        space = rref(vectors, alphabet=3, degree=2)
        assert space.dim + annihilator(space).dim == 9
        assert annihilator(annihilator(space)) == space


def test_shifted_span_counts():
    relations = rref([tv(3, t) for t in bracket_vectors(2)], alphabet=2)
    assert shifted_span(relations, 0, 0) == list(relations.rows)
    assert len(shifted_span(relations, 1, 0)) == 2 * 2
    big = rref([tv(3, t) for t in bracket_vectors(3)], alphabet=3)
    assert big.dim == 8
    vectors = shifted_span(big, 1, 1)
    assert len(vectors) == 3 * 8 * 3
    assert all(v.degree == 5 for v in vectors)
    with pytest.raises(ValueError, match="nonnegative"):
        shift(big, -1, 0)


@pytest.mark.parametrize("order", ["lex", "revlex"])
def test_extend_equals_rref_of_the_union(order):
    rng = random.Random(5)
    words = list(all_words(2, 4))
    for _ in range(20):
        old = [tv(4, {w: rng.randint(-2, 2) for w in rng.sample(words, 4)})
               for _ in range(rng.randint(0, 6))]
        new = [tv(4, {w: Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                      for w in rng.sample(words, 3)})
               for _ in range(rng.randint(0, 6))]
        base = rref(old, alphabet=2, degree=4, order=order)
        extended = base.extend(new)
        assert extended == rref(old + new, alphabet=2, degree=4, order=order)
        assert extended.pivots == rref(old + new, 2, 4, order).pivots
    with pytest.raises(DegreeMismatchError):
        base.extend([word_vector((1, 2))])
    with pytest.raises(ValueError, match="letters above"):
        base.extend([word_vector((1, 2, 3, 1))])


def test_join_equals_rref_of_the_union():
    rng = random.Random(9)
    words = list(all_words(3, 2))
    for order in ("lex", "revlex"):
        for _ in range(10):
            s1, s2 = (rref([tv(2, {w: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                   for w in rng.sample(words, 3)})
                            for _ in range(rng.randint(0, 4))], 3, 2, order)
                      for _ in range(2))
            union = rref(list(s1.rows) + list(s2.rows), 3, 2, order)
            assert s1.join(s2) == union and s1.join(s2).pivots == union.pivots
    with pytest.raises(DegreeMismatchError):
        s1.join(Subspace.zero(3, 3, "revlex"))
    with pytest.raises(ValueError, match="ambients"):
        s1.join(Subspace.zero(3, 2, "lex"))


def test_extend_reuses_untouched_rows():
    base = rref([tv(2, {(2, 2): 1, (1, 1): 1}), tv(2, {(2, 1): 1})], alphabet=2)
    extended = base.extend([tv(2, {(1, 1): 1})])
    assert extended.dim == 3
    # The integer row of pivot 21 holds no new pivot word and is reused
    # as it is; (1, 1) was eliminated from the row of pivot 22.
    old, new = base._ints, extended._ints
    assert new[(2, 1)] is old[(2, 1)]
    assert new[(2, 2)] is not old[(2, 2)]


def test_rref_matches_dense_oracle_rank():
    for D in (2, 3):
        vectors = bracket_vectors(D)
        expected = dense_rank(vectors, D, 3)
        space = rref([tv(3, t) for t in vectors], alphabet=D)
        assert space.dim == expected


def test_rref_is_deterministic():
    vectors = [tv(3, t) for t in bracket_vectors(3)]
    first = rref(vectors, alphabet=3)
    second = rref(list(reversed(vectors)), alphabet=3)
    # Same span arriving in any order reduces to identical rows.
    assert first == second
    assert [dict(r.terms) for r in first.rows] == [dict(r.terms) for r in second.rows]


def test_mixed_degree_span_rejected():
    with pytest.raises(DegreeMismatchError):
        rref([word_vector((1,)), word_vector((1, 2))], alphabet=2)


def test_format_vector():
    v = tv(3, {(2, 1, 1): 1, (1, 2, 1): -1})
    assert format_vector(v) == "1*211 - 1*121"
    assert format_vector(zero_vector(3)) == "0"
    assert format_vector(tv(2, {(1, 2): Fraction(-1, 2)})) == "-1/2*12"


def test_matrix_rank_and_kron():
    m = Matrix(2, 2, {0: {0: Fraction(1), 1: Fraction(2)},
                      1: {0: Fraction(2), 1: Fraction(4)}})
    assert m.rank() == 1
    eye = Matrix(3, 3, {i: {i: Fraction(1)} for i in range(3)})
    assert eye.rank() == 3
    k = eye.kron(m)
    assert (k.nrows, k.ncols) == (6, 6)
    assert k.rank() == 3
    assert m.mul(Matrix.zero(2, 5)).is_zero()
    assert m.transpose().entry(0, 1) == 2


def test_matrix_stores_nonzeros_only():
    assert Matrix(2, 2, {0: {0: Fraction(0)}, 1: {}}) == Matrix.zero(2, 2)
    a = Matrix(2, 2, {0: {1: Fraction(1, 2)}, 1: {0: Fraction(-3)}})
    b = Matrix(1, 2, {0: {0: Fraction(2), 1: Fraction(5)}})
    minus_a = Matrix(2, 2, {i: {j: -v for j, v in row.items()}
                            for i, row in a.rows.items()})
    assert Matrix.kron_sum(2, 4, [(a, b), (minus_a, b)]).is_zero()
    assert Matrix.kron_sum(2, 4, [(a, b)]) == a.kron(b)
    assert a.kron(b).entry(0, 2) == 1 and a.kron(b).entry(1, 1) == -15
    assert a.mul(a) == Matrix(2, 2, {0: {0: Fraction(-3, 2)}, 1: {1: Fraction(-3, 2)}})
    assert a.transpose().transpose() == a
    assert a.rank() == 2 and b.rank() == 1


def test_matrix_sum_and_dense_view():
    a = Matrix(2, 2, {0: {1: Fraction(1, 2)}, 1: {0: Fraction(-3)}})
    b = Matrix(2, 2, {0: {0: Fraction(1), 1: Fraction(-1, 2)}})
    assert a + b == Matrix(2, 2, {0: {0: Fraction(1)}, 1: {0: Fraction(-3)}})
    assert (a + b).rows == {0: {0: 1}, 1: {0: -3}}
    assert a.entries == [[0, Fraction(1, 2)], [Fraction(-3), 0]]
    assert Matrix.zero(2, 0).entries == [[], []]
    with pytest.raises(ValueError):
        a + Matrix.zero(2, 3)


def test_matrix_empty_shapes():
    for nrows, ncols in ((0, 0), (0, 3), (3, 0)):
        m = Matrix.zero(nrows, ncols)
        assert m.rank() == 0 and m.is_zero()
        assert m.transpose() == Matrix.zero(ncols, nrows)
    eye = Matrix(2, 2, {0: {0: Fraction(1)}, 1: {1: Fraction(1)}})
    assert eye.kron(Matrix.zero(0, 3)) == Matrix.zero(0, 6)
    assert Matrix.zero(3, 0).mul(Matrix.zero(0, 2)) == Matrix.zero(3, 2)
    assert Matrix.kron_sum(0, 4, []) == Matrix.zero(0, 4)
    with pytest.raises(ValueError):
        Matrix.zero(2, 3).mul(Matrix.zero(2, 3))
    with pytest.raises(ValueError):
        Matrix.kron_sum(4, 4, [(eye, Matrix.zero(2, 3))])
