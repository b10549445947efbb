import random
from fractions import Fraction

import pytest

from nhomalg import linalg
from nhomalg.catalog import paraboson, parafermion, plactic
from nhomalg.linalg import (
    DegreeMismatchError,
    Matrix,
    Subspace,
    TensorVector,
    _remainder_table,
    all_words,
    annihilator,
    format_vector,
    intersect,
    rref,
    shift,
    shifted_span,
    word_vector,
)

from _oracles import (
    bracket_vectors,
    dense_rank,
    hit_list_annihilator,
    reduced_remainder_table,
    relabel,
    relabel_vector,
    seeded_artin_schelter,
    two_pass_matrix,
)


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
    assert TensorVector(2).is_zero()


def test_tensor_vector_merges_duplicate_terms():
    v = TensorVector(2, [((1, 2), 1), ((1, 2), -1)])
    assert v.is_zero()
    v = TensorVector(2, [((1, 2), Fraction(1, 2)), ((1, 2), Fraction(1, 2))])
    assert v.coefficient((1, 2)) == 1


def test_format_word_separates_letters_above_nine():
    assert linalg.format_word((1, 2, 1)) == "121"
    assert linalg.format_word((1, 10, 2)) == "(1.10.2)"
    assert linalg.format_word(()) == "()"


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


def test_rref_checks_every_vector_and_scales_each_to_integers():
    with pytest.raises(DegreeMismatchError, match="^vector degree 3 != 2$"):
        rref([tv(2, {(1, 2): 1}), tv(3, {(1, 2, 1): 1})], alphabet=2, degree=2)
    # The greatest word, 21, is in range; the letter 3 of 13 is not.
    with pytest.raises(ValueError, match=r"^word \(1, 3\) uses letters above 2$"):
        rref([tv(2, {(2, 1): 1, (1, 3): 1})], alphabet=2)
    # Integer, rational and mixed coefficients, and the empty word.
    assert rref([tv(2, {(1, 2): 4, (2, 1): -6})], 2)._ints == {(2, 1): {(2, 1): 3, (1, 2): -2}}
    assert rref([tv(2, {(1, 2): Fraction(1, 2), (2, 1): Fraction(-1, 3)})], 2)._ints == \
        {(2, 1): {(2, 1): 2, (1, 2): -3}}
    assert rref([tv(2, {(1, 2): Fraction(4, 3), (2, 1): 2})], 2)._ints == \
        {(2, 1): {(2, 1): 3, (1, 2): 2}}
    assert rref([tv(0, {(): Fraction(3, 2)})], 2)._ints == {(): {(): 1}}
    assert rref([tv(2, {}), tv(2, {(1, 1): 5})], 2)._ints == {(1, 1): {(1, 1): 1}}


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
    assert space.reduce(TensorVector(3)).is_zero()
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
    rebuilt = TensorVector(3)
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


# A "revlex" case relabels every letter x by D + 1 - x, which stands for
# the reversed letter order.
@pytest.mark.parametrize("relabel_letters", [False, True], ids=["lex", "revlex"])
def test_intersect_of_two_rows_among_ten_million_words(relabel_letters, monkeypatch):
    # 10^7 words of degree 7 over 10 letters: the meet comes from the rows
    # alone, so listing the words of the degree is an error here.
    def no_words(alphabet, degree):
        raise AssertionError(f"listed all {alphabet}^{degree} words")

    monkeypatch.setattr(linalg, "all_words", no_words)
    top, low, nine, two, five = (10,) * 7, (1,) * 7, (9,) * 7, (2,) * 7, (5,) * 7
    u = tv(7, {top: 3, low: 2})
    v = tv(7, {nine: 2, two: -5})
    s1 = rref([u, v], 10, 7)
    s2 = rref([u + v, word_vector(five)], 10, 7)
    want = rref([u + v], 10, 7)
    if relabel_letters:
        s1, s2, want = relabel(s1), relabel(s2), relabel(want)
    meet = intersect(s1, s2)
    assert meet == want
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


CATALOGUE_RELATIONS = [
    pytest.param(make, D, id=f"{make.__name__}{D}")
    for make in (parafermion, paraboson, plactic) for D in range(1, 6)
] + [pytest.param(seeded_artin_schelter, seed, id=f"as-seed{seed}") for seed in (1, 2, 3)]


@pytest.mark.parametrize("make, arg", CATALOGUE_RELATIONS)
def test_annihilator_equals_the_hit_list_route_row_for_row(make, arg):
    # On the relations and on their annihilators, whose rows are dense.
    relations = make(arg).relations
    for space in (relations, annihilator(relations)):
        got, want = annihilator(space), hit_list_annihilator(space)
        assert got.pivots == want.pivots
        # Equal integer rows, each with its terms in the same order.
        assert [list(row.items()) for row in got._ints.values()] == \
            [list(row.items()) for row in want._ints.values()]


@pytest.mark.parametrize("make, arg", CATALOGUE_RELATIONS)
def test_remainder_table_rows_are_scaled_remainders(make, arg):
    relations = make(arg).relations
    for space in (relations, annihilator(relations)):
        assert _remainder_table(space) == reduced_remainder_table(space)


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


@pytest.mark.parametrize("left, right", [(0, 0), (2, 0), (0, 1), (1, 1), (2, 1), (1, 2)])
def test_shift_shares_one_key_per_word(left, right):
    # Both rows hold 11 and 12; the pivot coefficients are 3 and 2.
    space = rref([tv(2, {(2, 1): Fraction(1, 3), (1, 1): 2, (1, 2): 1}),
                  tv(2, {(2, 2): Fraction(1, 2), (1, 1): -1, (1, 2): 3})], alphabet=2)
    assert space.dim == 2 and len({w for row in space._ints.values() for w in row}) == 4
    shifted = shift(space, left, right)
    assert shifted.degree == left + 2 + right
    pivots = list(shifted._ints)
    assert all(a > b for a, b in zip(pivots, pivots[1:]))
    assert shifted._ints == {u + p + w: {u + x + w: c for x, c in row.items()}
                             for u in all_words(2, left) for p, row in space._ints.items()
                             for w in all_words(2, right)}
    assert shifted == rref(shifted.rows, alphabet=2)
    keys = {}
    for p, row in shifted._ints.items():
        assert next(k for k in row if k == p) is p
        for k in row:
            assert keys.setdefault(k, k) is k
    assert len(keys) == 4 * 2 ** (left + right)
    empty = shift(Subspace.zero(2, 2), left, right)
    assert empty == Subspace.zero(2, left + 2 + right) and empty.dim == 0


@pytest.mark.parametrize("relabel_letters", [False, True], ids=["lex", "revlex"])
def test_extend_equals_rref_of_the_union(relabel_letters):
    rng = random.Random(5)
    words = list(all_words(2, 4))
    for _ in range(20):
        old = [tv(4, {w: rng.randint(-2, 2) for w in rng.sample(words, 4)})
               for _ in range(rng.randint(0, 6))]
        new = [tv(4, {w: Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                      for w in rng.sample(words, 3)})
               for _ in range(rng.randint(0, 6))]
        if relabel_letters:
            old = [relabel_vector(v, 2) for v in old]
            new = [relabel_vector(v, 2) for v in new]
        base = rref(old, alphabet=2, degree=4)
        extended = base.join(rref(new, 2, 4))
        assert extended == rref(old + new, alphabet=2, degree=4)
        assert extended.pivots == rref(old + new, 2, 4).pivots
    with pytest.raises(DegreeMismatchError):
        Subspace(2, 4, [word_vector((1, 2))])
    with pytest.raises(ValueError, match="letters above"):
        Subspace(2, 4, [word_vector((1, 2, 3, 1))])


def test_join_equals_rref_of_the_union():
    rng = random.Random(9)
    words = list(all_words(3, 2))
    for relabel_letters in (False, True):
        for _ in range(10):
            s1, s2 = (rref([tv(2, {w: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                   for w in rng.sample(words, 3)})
                            for _ in range(rng.randint(0, 4))], 3, 2)
                      for _ in range(2))
            if relabel_letters:
                s1, s2 = relabel(s1), relabel(s2)
            union = rref(list(s1.rows) + list(s2.rows), 3, 2)
            assert s1.join(s2) == union and s1.join(s2).pivots == union.pivots
    with pytest.raises(DegreeMismatchError):
        s1.join(Subspace.zero(3, 3))


def test_operands_over_different_alphabets_are_refused():
    two = rref([tv(2, {(1, 2): 1, (2, 1): -1})], alphabet=2)
    three = Subspace.full(3, 2)
    for operation in (Subspace.join, Subspace.contains_subspace, intersect):
        for a, b in ((two, three), (three, two)):
            with pytest.raises(ValueError, match="subspaces live in different ambients"):
                operation(a, b)
        with pytest.raises(DegreeMismatchError):
            operation(two, Subspace.zero(2, 3))


def test_extend_reuses_untouched_rows():
    base = rref([tv(2, {(2, 2): 1, (1, 1): 1}), tv(2, {(2, 1): 1})], alphabet=2)
    extended = base.join(rref([tv(2, {(1, 1): 1})], alphabet=2))
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


@pytest.mark.parametrize("relabel_letters", [False, True], ids=["lex", "revlex"])
def test_the_constructor_eliminates(relabel_letters):
    # Both rows have the greatest word 22; a constructor that keyed each
    # row by that word kept one row only.  The span is {22+11, 12-11}.
    # Relabelled, the rows share their least word 11 instead.
    def vec(terms):
        v = tv(2, terms)
        return relabel_vector(v, 2) if relabel_letters else v

    rows = [vec({(2, 2): 1, (1, 1): 1}), vec({(2, 2): 1, (1, 2): 1})]
    space = Subspace(2, 2, rows)
    assert space == rref(rows, 2)
    assert space.dim == 2
    assert space.contains(rows[0]) and space.contains(rows[1])
    assert space.contains(vec({(1, 2): 1, (1, 1): -1}))
    assert not space.contains(vec({(2, 2): 1}))
    assert Subspace(2, 2, rows + [vec({(1, 1): 1})]).contains(vec({(2, 2): 1}))


def test_format_vector():
    v = tv(3, {(2, 1, 1): 1, (1, 2, 1): -1})
    assert format_vector(v) == "1*211 - 1*121"
    assert format_vector(TensorVector(3)) == "0"
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
    assert m.mul(Matrix(2, 5)).is_zero()
    assert m.transpose().entry(0, 1) == 2


def test_matrix_stores_nonzeros_only():
    assert Matrix(2, 2, {0: {0: Fraction(0)}, 1: {}}) == Matrix(2, 2)
    a = Matrix(2, 2, {0: {1: Fraction(1, 2)}, 1: {0: Fraction(-3)}})
    b = Matrix(1, 2, {0: {0: Fraction(2), 1: Fraction(5)}})
    minus_a = Matrix(2, 2, {i: {j: -a.entry(i, j) for j in range(2)} for i in range(2)})
    assert Matrix.kron_sum(2, 4, [(a, b), (minus_a, b)]).is_zero()
    assert Matrix.kron_sum(2, 4, [(a, b)]) == a.kron(b)
    assert a.kron(b).entry(0, 2) == 1 and a.kron(b).entry(1, 1) == -15
    assert a.mul(a) == Matrix(2, 2, {0: {0: Fraction(-3, 2)}, 1: {1: Fraction(-3, 2)}})
    assert a.transpose().transpose() == a
    assert a.rank() == 2 and b.rank() == 1


def test_matrix_from_ints_drops_zeros_empty_rows_and_common_factor_in_one_pass():
    cases = [
        # explicit zeros, an all-zero row and an empty row
        (3, 3, {0: {0: 2, 1: 0}, 1: {0: 0, 2: 0}, 2: {}}, 1),
        # a common factor 6 of scale and entries, a zero among them
        (2, 3, {0: {0: 12, 2: -18}, 1: {1: 0, 2: 30}}, 12),
        # entries whose gcd shares only part of the scale
        (2, 2, {0: {0: 4}, 1: {1: 10}}, 6),
        # scale 1: nothing to divide, even with a common factor of entries
        (2, 2, {0: {0: 4, 1: -8}, 1: {1: 12}}, 1),
        # no factor shared with the scale
        (1, 2, {0: {0: 3, 1: 5}}, 4),
    ]
    for nrows, ncols, rows, scale in cases:
        snapshot = {i: dict(row) for i, row in rows.items()}
        got = Matrix._from_ints(nrows, ncols, rows, scale)
        want = two_pass_matrix(nrows, ncols, snapshot, scale)
        assert got == want
        assert list(got.rows.items()) == list(want.rows.items())
        assert all(got.rows.values()) and all(all(row.values()) for row in got.rows.values())
    # With nothing to divide out, a row holding no zero is taken over as it
    # is and a row holding one is copied, leaving the caller's dict alone.
    clean, holed = {0: 3, 2: -1}, {1: 0, 2: 5}
    m = Matrix._from_ints(2, 3, {0: clean, 1: holed}, 2)
    assert m.rows[0] is clean
    assert m.rows[1] == {2: 5} and holed == {1: 0, 2: 5}
    assert m.scale == 2


def test_matrix_sum_and_dense_view():
    a = Matrix(2, 2, {0: {1: Fraction(1, 2)}, 1: {0: Fraction(-3)}})
    b = Matrix(2, 2, {0: {0: Fraction(1), 1: Fraction(-1, 2)}})
    assert a + b == Matrix(2, 2, {0: {0: Fraction(1)}, 1: {0: Fraction(-3)}})
    assert [[(a + b).entry(i, j) for j in range(2)] for i in range(2)] == [[1, 0], [-3, 0]]
    assert a.entries == [[0, Fraction(1, 2)], [Fraction(-3), 0]]
    assert Matrix(2, 0).entries == [[], []]
    with pytest.raises(ValueError):
        a + Matrix(2, 3)


def test_matrix_empty_shapes():
    for nrows, ncols in ((0, 0), (0, 3), (3, 0)):
        m = Matrix(nrows, ncols)
        assert m.rank() == 0 and m.is_zero()
        assert m.transpose() == Matrix(ncols, nrows)
    eye = Matrix(2, 2, {0: {0: Fraction(1)}, 1: {1: Fraction(1)}})
    assert eye.kron(Matrix(0, 3)) == Matrix(0, 6)
    assert Matrix(3, 0).mul(Matrix(0, 2)) == Matrix(3, 2)
    assert Matrix.kron_sum(0, 4, []) == Matrix(0, 4)
    with pytest.raises(ValueError):
        Matrix(2, 3).mul(Matrix(2, 3))
    with pytest.raises(ValueError):
        Matrix.kron_sum(4, 4, [(eye, Matrix(2, 3))])
