import random
from collections import Counter
from fractions import Fraction

import pytest

from nhomalg.algebra import (
    GradedAlgebra,
    MemoryGuardError,
    Presentation,
    _LeadAutomaton,
    _walk_step,
    free_presentation,
)
from nhomalg.catalog import artin_schelter, paraboson, parafermion, plactic
from nhomalg.koszul import gorenstein_probe
from nhomalg.series import poincare_series
from nhomalg.linalg import (
    Subspace,
    TensorVector,
    all_words,
    rref,
    shift,
    word_vector,
)

from _oracles import (
    all_overlaps_basis,
    bracket_vectors,
    dense_rank,
    direct_ideal_component,
    ideal_word_matrix,
    iterated_intersection,
    occurrence,
    parafermion_dims,
    relabelled,
    stepwise_normal_words,
    two_shift_dual_spaces,
)


@pytest.fixture(scope="module")
def parafermi2():
    return GradedAlgebra(parafermion(2))


@pytest.fixture(scope="module")
def parafermi3():
    return GradedAlgebra(parafermion(3))


@pytest.fixture(scope="module")
def plactic2():
    return GradedAlgebra(plactic(2))


@pytest.fixture(scope="module")
def plactic3():
    return GradedAlgebra(plactic(3))


def test_presentation_validation():
    with pytest.raises(ValueError):
        Presentation(0, 3, Subspace.zero(1, 3))
    with pytest.raises(ValueError):
        Presentation(2, 1, Subspace.zero(2, 1))
    with pytest.raises(Exception):
        Presentation(2, 3, Subspace.zero(2, 2))


def test_ideal_component_below_relation_degree(parafermi2):
    assert parafermi2.ideal_component(0).dim == 0
    assert parafermi2.ideal_component(2).dim == 0


def test_ideal_component_matches_bracket_rank(parafermi2, parafermi3):
    # Freeze the ranks of the expanded bracket span via the dense oracle.
    assert dense_rank(bracket_vectors(2), 2, 3) == 2
    assert dense_rank(bracket_vectors(3), 3, 3) == 8
    assert parafermi2.ideal_component(3).dim == 2
    assert parafermi3.ideal_component(3).dim == 8
    assert parafermi3.component_dim(3) == 27 - 8 == 19


def test_component_dims_against_series_oracle(parafermi2, parafermi3, plactic3):
    assert parafermion_dims(2, 7) == [1, 2, 4, 6, 9, 12, 16, 20]
    assert [parafermi2.component_dim(n) for n in range(8)] == \
        [1, 2, 4, 6, 9, 12, 16, 20]
    assert list(poincare_series(parafermi3, 8).coefficients()) == parafermion_dims(3, 8)
    assert parafermion_dims(3, 5) == [1, 3, 9, 19, 39, 69]
    assert [plactic3.component_dim(n) for n in range(6)] == [1, 3, 9, 19, 39, 69]


def test_connected_in_degree_zero(parafermi2, plactic2):
    for algebra in (parafermi2, plactic2):
        assert algebra.component_dim(0) == 1
        assert list(algebra.normal_basis(0)) == [()]


def test_component_dim_equals_normal_basis_size(parafermi3):
    for n in range(5):
        assert parafermi3.component_dim(n) == len(parafermi3.normal_basis(n))
        assert parafermi3.component_dim(n) == \
            3 ** n - parafermi3.ideal_component(n).dim


def test_component_dim_never_reads_the_normal_basis(monkeypatch):
    listed = GradedAlgebra(plactic(3))
    expected = [len(listed.normal_basis(n)) for n in range(8)]

    def refuse(self, n):
        raise AssertionError("component_dim must not list the normal words")

    monkeypatch.setattr(GradedAlgebra, "normal_basis", refuse)
    # Also when the list is cached already.
    assert [listed.component_dim(n) for n in range(8)] == expected
    fresh = GradedAlgebra(plactic(3))
    assert [fresh.component_dim(n) for n in range(8)] == expected
    assert not fresh._normal


def test_avoiding_counts_against_brute_force():
    # Lead sets that are not reduced: one lead inside another, and leads
    # that end inside a longer one, so some states are dead only through
    # their failure chain.
    for D, leads in ((2, [(1, 2), (2, 1, 2, 2)]),
                     (3, [(2,), (1, 3, 1), (3, 3)]),
                     (3, [(1, 2, 1), (2, 1, 1), (2, 1)]),
                     (2, []),
                     (1, [(1, 1, 1)])):
        automaton = _LeadAutomaton(leads, D)
        walks, counts = {0: 1}, [1]
        for _ in range(6):
            walks = _walk_step(automaton, walks)
            counts.append(sum(walks.values()))
        for n, count in enumerate(counts):
            free = [w for w in all_words(D, n)
                    if not any(w[i:i + len(p)] == p for p in leads
                               for i in range(n - len(p) + 1))]
            assert count == len(free), (D, leads, n)


def test_reduce_to_normal(plactic2):
    inside = plactic2.ideal_component(3).rows[0]
    assert plactic2.reduce_to_normal(inside).is_zero()
    assert all(c == 0 for c in plactic2.normal_coordinates(inside))
    normal_word = next(iter(plactic2.normal_basis(3)))
    coords = plactic2.normal_coordinates(word_vector(normal_word))
    assert coords.count(0) == len(coords) - 1 and 1 in coords


def test_knuth_equivalent_words_reduce_equally(plactic2):
    # Words 121 and 211 agree in the quotient.
    c1 = plactic2.normal_coordinates(word_vector((1, 2, 1)))
    c2 = plactic2.normal_coordinates(word_vector((2, 1, 1)))
    assert c1 == c2 and any(c1)


def test_multiply_by_generator_degree_zero(parafermi2):
    for k in (1, 2):
        matrix = parafermi2.word_matrix(0, (k,), "right")
        assert (matrix.nrows, matrix.ncols) == (2, 1)
        column = [matrix.entry(i, 0) for i in range(matrix.nrows)]
        assert column == parafermi2.normal_coordinates(word_vector((k,)))
    for word in ((3,), (0,), (1, 3)):
        with pytest.raises(ValueError, match="not over 1..2"):
            parafermi2.word_matrix(0, word)


def test_multiplication_composes_along_words(parafermi2):
    # Multiplying degree by degree along 1, 2, 1 equals the normal forms
    # of the whole words; the word's own matrix is that product.
    m1 = parafermi2.word_matrix(0, (1,), "right")
    m2 = parafermi2.word_matrix(1, (2,), "right")
    m3 = parafermi2.word_matrix(2, (1,), "right")
    composed = m3.mul(m2.mul(m1))
    column = [composed.entry(i, 0) for i in range(composed.nrows)]
    assert column == parafermi2.normal_coordinates(word_vector((1, 2, 1)))
    direct = parafermi2.word_matrix(0, (1, 2, 1), "right")
    assert direct == composed
    assert direct == ideal_word_matrix(parafermi2, 0, (1, 2, 1), "right")


def test_word_matrices_equal_normal_forms_of_whole_words(parafermi2, parafermi3, plactic3):
    # Words of two and three letters on both sides, built as products of
    # one-letter matrices, against the normal forms of b.u and u.b.
    generic = GradedAlgebra(artin_schelter(Fraction(-3, 7), Fraction(5, 2)))
    for algebra, n_max in ((parafermi2, 3), (parafermi3, 2), (plactic3, 2), (generic, 3)):
        words = [w for length in (2, 3) for w in all_words(algebra.D, length)]
        for n in range(n_max + 1):
            for word in words:
                for side in ("right", "left"):
                    assert algebra.word_matrix(n, word, side) == \
                        ideal_word_matrix(algebra, n, word, side), (algebra, n, word, side)
    assert generic.word_matrix(2, (2, 1), "left").scale > 1


def test_normal_forms_are_memoised_on_border_words_only():
    # Every one-letter matrix of the Gorenstein probe comes from the border
    # forms NF(b.x), b normal: D dim A_{m-1} of them in degree m.  The
    # memo of other words holds only the words x.b of the left matrices.
    algebra = GradedAlgebra(parafermion(2))
    gorenstein_probe(algebra, 20)
    memoised = Counter(len(word) for word in algebra._forms)
    assert len(algebra._borders) == 21
    for m in range(1, 21):
        border_words = 2 * algebra.component_dim(m - 1)
        assert len(algebra._borders[m]) == border_words
        assert memoised[m] <= border_words
    assert len(algebra._borders[20]) == 220


def test_lead_automaton_scan_matches_slicing():
    # The first lead end the automaton meets marks the leftmost occurrence
    # of a lead, on every word up to length 7.
    for presentation in (plactic(3), paraboson(3),
                         artin_schelter(Fraction(682, 967), Fraction(361, 220))):
        algebra = GradedAlgebra(presentation)
        algebra._complete_basis(7)
        hits = 0
        for n in range(8):
            for word in all_words(algebra.D, n):
                expected = occurrence(word, algebra._basis)
                assert algebra._leads.occurrence(word) == expected, word
                hits += expected is not None
        assert hits


def test_normal_words_survive_a_grown_basis():
    # Listing carries automaton states from one degree to the next; when
    # G grows in between, the states are found again by a walk.
    for presentation in (plactic(3), artin_schelter(Fraction(-3, 7), Fraction(5, 2))):
        grown = GradedAlgebra(presentation)
        assert len(grown.normal_basis(3)) == grown.component_dim(3)
        grown._complete_basis(7)
        ascending = GradedAlgebra(presentation)
        for n in range(7):
            assert list(grown.normal_basis(n)) == stepwise_normal_words(grown, n)
            assert ascending.normal_basis(n) == grown.normal_basis(n)
        assert list(GradedAlgebra(presentation).normal_basis(6)) == \
            stepwise_normal_words(grown, 6)


def test_multiplication_matrix_shape_and_rank(parafermi2):
    matrix = parafermi2.word_matrix(2, (1,), "right")
    assert matrix.ncols == 4
    assert matrix.nrows == 6
    assert matrix.rank() <= 6


def test_left_and_right_multiplication_differ(plactic2):
    left = plactic2.word_matrix(2, (1,), "left")
    right = plactic2.word_matrix(2, (1,), "right")
    assert left != right


def test_dual_presentation_free_and_involutive(parafermi2):
    free = free_presentation(2, 3)
    assert free.dual().relations.dim == 8
    pres = parafermi2.presentation
    assert pres.dual().relations.dim == 6
    assert pres.dual().dual().relations == pres.relations


def test_dual_space_at_relation_degree_is_relations(parafermi2):
    assert parafermi2.dual_space(3) == parafermi2.presentation.relations


def test_dual_space_dimensions(parafermi2, parafermi3):
    assert parafermi2.dual_dim(4) == 1
    assert [parafermi3.dual_dim(n) for n in range(6)] == [1, 3, 9, 8, 6, 0]


def test_dual_dims_agree_with_quotient_route(parafermi3):
    for n in range(6):
        assert parafermi3.dual_space(n).dim == parafermi3.dual_dim(n)


def test_component_dim_steps_on_from_the_cached_walks(monkeypatch):
    import nhomalg.algebra as module

    steps = []
    step = module._walk_step

    def counting(leads, walks):
        steps.append(leads)
        return step(leads, walks)

    monkeypatch.setattr(module, "_walk_step", counting)
    # G of parafermion(2) is its degree-3 relations: one step per degree,
    # and three more when the automaton is rebuilt at degree 3.
    algebra = GradedAlgebra(parafermion(2))
    assert algebra.component_dim(20) == parafermion_dims(2, 20)[20]
    assert len(steps) == 20 + 2
    # G of plactic(3) grows in degrees 3, 4 and 5: a recount from the
    # root after each rebuild, one step per degree otherwise.
    steps.clear()
    algebra = GradedAlgebra(plactic(3))
    assert [algebra.component_dim(n) for n in (8, 4, 12)] == [parafermion_dims(3, 12)[n]
                                                              for n in (8, 4, 12)]
    assert len(steps) == 12 + 2 + 3 + 4
    assert sorted({len(lead) for lead in algebra._basis}) == [3, 4, 5]


def test_dual_dims_stop_completing_at_the_first_vanishing_degree():
    # A^! of parafermion(2) vanishes from degree 5 on: G is not completed
    # past it, however high the degree asked.
    dual = GradedAlgebra(parafermion(2), word_limit=2 ** 40).dual()
    assert dual.component_dim(40) == 0
    assert dual._basis_degree <= 5
    assert [dual.component_dim(n) for n in range(7)] == [1, 2, 4, 2, 1, 0, 0]


def _seeded_artin_schelter(seed):
    rng = random.Random(seed)

    def rational():
        return Fraction(rng.choice((1, -1)) * rng.randint(100, 999), rng.randint(100, 999))

    return artin_schelter(rational(), rational())


DUAL_SPACE_CASES = [
    pytest.param(make, D, top, id=f"{make.__name__}{D}")
    for make, tops in ((parafermion, (10, 7, 6)), (paraboson, (10, 7, 6)), (plactic, (10, 7, 6)))
    for D, top in zip((2, 3, 4), tops)
] + [pytest.param(_seeded_artin_schelter, seed, 9, id=f"as-seed{seed}")
     for seed in (1, 2, 3)] + [
    pytest.param(lambda D: free_presentation(D, 3), 2, 6, id="empty"),
    pytest.param(lambda D: Presentation(D, 3, Subspace.full(D, 3)), 2, 6, id="full"),
    pytest.param(lambda D: Presentation(D, 2, Subspace.full(D, 2)), 3, 5, id="full-quadratic"),
]


GROEBNER_CASES = [
    pytest.param(make, D, top, id=f"{make.__name__}{D}")
    for make, tops in ((parafermion, (10, 8, 7)), (paraboson, (10, 8, 7)))
    for D, top in zip((2, 3, 4), tops)
] + [pytest.param(plactic, D, 10, id=f"plactic{D}") for D in (2, 3, 4, 5)] + [
    pytest.param(_seeded_artin_schelter, seed, 10, id=f"as-seed{seed}") for seed in (1, 2, 3)]


@pytest.mark.parametrize("make, arg, top", GROEBNER_CASES)
def test_groebner_basis_equals_the_all_overlaps_route(make, arg, top):
    # G row for row, in the same order, against every overlap with each
    # word of its S-element reduced to its normal form on its own.
    presentation = make(arg)
    for pres in (presentation, presentation.dual()):
        algebra = GradedAlgebra(pres)
        algebra._complete_basis(top)
        assert list(algebra._basis.items()) == list(all_overlaps_basis(pres, top).items())


def test_chain_criterion_skips_overlaps(monkeypatch):
    # The S-elements reduced per degree, against the overlaps of each
    # degree: only those with no lead strictly inside their word.
    import nhomalg.algebra

    reduced = Counter()
    degree = [0]
    extend, reduce = nhomalg.algebra._extend_basis, nhomalg.algebra._reduce_overlap

    def extend_spy(basis, m, leads):
        degree[0] = m
        extend(basis, m, leads)

    def reduce_spy(f, basis, leads):
        reduced[degree[0]] += 1
        return reduce(f, basis, leads)

    monkeypatch.setattr(nhomalg.algebra, "_extend_basis", extend_spy)
    monkeypatch.setattr(nhomalg.algebra, "_reduce_overlap", reduce_spy)
    for presentation, top, expected in (
            (parafermion(4).dual(), 6, {4: (120, 120), 5: (177, 453), 6: (129, 234)}),
            (paraboson(4), 7, {4: (24, 24), 5: (36, 54), 6: (3, 7), 7: (0, 0)}),
            (plactic(5), 10, {4: (65, 65), 5: (180, 234), 6: (403, 426), 7: (387, 574),
                              8: (514, 666), 9: (457, 622), 10: (389, 557)})):
        reduced.clear()
        GradedAlgebra(presentation)._complete_basis(top)
        overlaps = {}
        all_overlaps_basis(presentation, top, overlaps)
        assert {m: (reduced[m], overlaps[m]) for m in overlaps} == expected


@pytest.mark.parametrize("make, arg, top", DUAL_SPACE_CASES)
def test_dual_space_equals_the_two_shift_step(make, arg, top):
    presentation = make(arg)
    for pres in (presentation, presentation.dual()):
        algebra = GradedAlgebra(pres, word_limit=10 ** 9)
        oracle = two_shift_dual_spaces(pres.relations, top)
        for n in range(top + 1):
            space = algebra.dual_space(n)
            assert (space.pivots, space._ints) == (oracle[n].pivots, oracle[n]._ints), n


def test_dual_space_builds_no_shift_of_the_relations(monkeypatch):
    import nhomalg.algebra
    import nhomalg.linalg

    shifted = []

    def spy(space, left, right):
        shifted.append(space)
        return shift(space, left, right)

    monkeypatch.setattr(nhomalg.linalg, "shift", spy)
    monkeypatch.setattr(nhomalg.algebra, "shift", spy)
    for presentation, top in ((parafermion(3).dual(), 7), (_seeded_artin_schelter(4).dual(), 9)):
        algebra = GradedAlgebra(presentation)
        assert algebra.dual_space(top).dim > 0
        assert not any(space == presentation.relations for space in shifted)


def test_dual_space_nesting(parafermi3):
    for n in (4, 5):
        space = parafermi3.dual_space(n)
        prev = parafermi3.dual_space(n - 1)
        left = shift(prev, 1, 0)
        right = shift(prev, 0, 1)
        for row in space.rows:
            assert left.contains(row)
            assert right.contains(row)


def test_ideal_component_stepwise_agrees(parafermi2, plactic3):
    for algebra, top in ((parafermi2, 6), (plactic3, 5)):
        for n in range(algebra.N + 1, top + 1):
            assert algebra.ideal_component_stepwise(n) == algebra.ideal_component(n)
            assert algebra.ideal_component(n) == direct_ideal_component(algebra, n)


# A "revlex" case runs the presentation relabelled by x -> D + 1 - x, which
# stands for the given one under the reversed letter order.  Relabelling
# fixes the GL(D)-invariant parafermion and paraboson spans, so those
# entries have no such case.
CATALOGUE_ROUTES = (
    pytest.param(lambda: parafermion(2), 7, id="parafermion2-lex"),
    pytest.param(lambda: parafermion(3), 5, id="parafermion3-lex"),
    pytest.param(lambda: paraboson(3), 5, id="paraboson3-lex"),
    pytest.param(lambda: plactic(2), 7, id="plactic2-lex"),
    pytest.param(lambda: relabelled(plactic(2)), 7, id="plactic2-revlex"),
    pytest.param(lambda: plactic(3), 5, id="plactic3-lex"),
    pytest.param(lambda: relabelled(plactic(3)), 5, id="plactic3-revlex"),
    pytest.param(lambda: artin_schelter(Fraction(3, 7), Fraction(-5, 2)), 7,
                 id="as-3/7,-5/2-lex"),
    pytest.param(lambda: relabelled(artin_schelter(Fraction(3, 7), Fraction(-5, 2))), 7,
                 id="as-3/7,-5/2-revlex"),
)


@pytest.mark.parametrize("make, top", CATALOGUE_ROUTES)
def test_stepwise_routes_equal_direct_routes_on_catalogue(make, top):
    presentation = make()
    for pres in (presentation, presentation.dual()):
        algebra = GradedAlgebra(pres)
        for n in range(top + 1):
            assert algebra.ideal_component(n) == direct_ideal_component(algebra, n)
            assert algebra.dual_space(n) == iterated_intersection(
                algebra.presentation.relations, n)
            assert list(algebra.normal_basis(n)) == stepwise_normal_words(algebra, n)
        for lead, row in algebra._basis.items():
            assert algebra.ideal_component(len(lead))._ints[lead] == row


def test_memory_guard_fires_before_lower_degrees_are_built():
    algebra = GradedAlgebra(parafermion(2), word_limit=100)
    message = "degree 7 needs D^n = 128 basis words, above the configured limit of 100"
    refused = (
        lambda: algebra.ideal_component(7),
        lambda: algebra.component_dim(7),
        lambda: algebra.normal_basis(7),
        lambda: algebra.reduce_to_normal(word_vector((1, 2) * 3 + (1,))),
        lambda: algebra.word_matrix(6, (1,)),
        lambda: algebra.word_matrix(4, (2, 1, 2), "left"),
    )
    for call in refused:
        with pytest.raises(MemoryGuardError) as err:
            call()
        assert str(err.value) == message
    assert not algebra._ideal
    assert not algebra._basis and not algebra._normal
    assert not algebra._borders and not algebra._forms
    assert not algebra._word_mats and not algebra._dims


def test_memory_guard():
    algebra = GradedAlgebra(parafermion(2), word_limit=100)
    assert algebra.component_dim(6) == 16  # 2^6 = 64 stays under the limit
    with pytest.raises(MemoryGuardError, match="128"):
        algebra.component_dim(7)


@pytest.mark.parametrize("warm", [False, True])
def test_negative_degrees_are_refused(warm):
    algebra = GradedAlgebra(parafermion(2))
    if warm:
        for n in range(6):
            algebra.component_dim(n)
            algebra.normal_basis(n)
            algebra.word_matrix(n, (1,))
            algebra.dual_dim(n)
            algebra.ideal_component(n)
    refused = (
        lambda: algebra.component_dim(-1),
        lambda: algebra.normal_basis(-1),
        lambda: algebra.word_matrix(-1, (1,)),
        lambda: algebra.dual_dim(-1),
        lambda: algebra.ideal_component(-1),
    )
    for call in refused:
        with pytest.raises(ValueError, match="degree -1 is negative"):
            call()


def test_caching_is_referentially_transparent(parafermi2):
    fresh = GradedAlgebra(parafermion(2))
    assert fresh.ideal_component(4) == parafermi2.ideal_component(4)
    assert fresh.ideal_component(4) == fresh.ideal_component(4)


def test_reversed_order_changes_basis_not_dimensions():
    # The relabelled presentation stands for the given one under the
    # reversed letter order.  It changes the normal words of the plactic
    # algebras; it maps A_{q,r} to A_{1/q,1/r}, another algebra with the
    # same leading words.
    for presentation, top, new_basis in (
            (plactic(2), 7, True),
            (plactic(3), 5, True),
            (artin_schelter(Fraction(2, 3), Fraction(5, 7)), 7, False)):
        algebra = GradedAlgebra(presentation)
        reversed_algebra = GradedAlgebra(relabelled(presentation))
        assert reversed_algebra.presentation.relations != presentation.relations
        for n in range(top + 1):
            assert reversed_algebra.component_dim(n) == algebra.component_dim(n)
            assert reversed_algebra.dual_dim(n) == algebra.dual_dim(n)
        assert (list(reversed_algebra.normal_basis(3))
                != list(algebra.normal_basis(3))) == new_basis


def test_dead_algebra_short_circuits():
    # Full relation space kills everything from degree N on.
    pres = Presentation(2, 3, Subspace.full(2, 3))
    algebra = GradedAlgebra(pres)
    assert [algebra.component_dim(n) for n in range(6)] == [1, 2, 4, 0, 0, 0]


def test_paraboson_dims_match_parafermion():
    for D in (2, 3):
        bos = GradedAlgebra(paraboson(D))
        fer = GradedAlgebra(parafermion(D))
        top = 7 if D == 2 else 5
        assert [bos.component_dim(n) for n in range(top + 1)] == \
            [fer.component_dim(n) for n in range(top + 1)]
