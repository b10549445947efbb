from fractions import Fraction

import pytest

from nhomalg.algebra import (
    GradedAlgebra,
    MemoryGuardError,
    Presentation,
    dual_presentation,
    free_presentation,
)
from nhomalg.catalog import artin_schelter, paraboson, parafermion, plactic
from nhomalg.checks import direct_ideal_component
from nhomalg.series import poincare_series
from nhomalg.linalg import (
    Subspace,
    TensorVector,
    rref,
    shift,
    word_vector,
)

from _oracles import bracket_vectors, dense_rank, iterated_intersection, parafermion_dims


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
        assert algebra.normal_basis(0) == ((),)


def test_component_dim_equals_normal_basis_size(parafermi3):
    for n in range(5):
        assert parafermi3.component_dim(n) == len(parafermi3.normal_basis(n))
        assert parafermi3.component_dim(n) == \
            3 ** n - parafermi3.ideal_component(n).dim


def test_reduce_to_normal(plactic2):
    inside = plactic2.ideal_component(3).rows[0]
    assert plactic2.reduce_to_normal(inside).is_zero()
    assert all(c == 0 for c in plactic2.normal_coordinates(inside))
    normal_word = plactic2.normal_basis(3)[0]
    coords = plactic2.normal_coordinates(word_vector(normal_word))
    assert coords.count(0) == len(coords) - 1 and 1 in coords


def test_knuth_equivalent_words_reduce_equally(plactic2):
    # Words 121 and 211 agree in the quotient.
    c1 = plactic2.normal_coordinates(word_vector((1, 2, 1)))
    c2 = plactic2.normal_coordinates(word_vector((2, 1, 1)))
    assert c1 == c2 and any(c1)


def test_multiply_by_generator_degree_zero(parafermi2):
    for k in (1, 2):
        matrix = parafermi2.generator_matrix(0, k, "right")
        assert (matrix.nrows, matrix.ncols) == (2, 1)
        column = [matrix.entry(i, 0) for i in range(matrix.nrows)]
        assert column == parafermi2.normal_coordinates(word_vector((k,)))


def test_multiplication_composes_along_words(parafermi2):
    # Multiplying degree by degree along 1, 2, 1 equals direct reduction.
    m1 = parafermi2.generator_matrix(0, 1, "right")
    m2 = parafermi2.generator_matrix(1, 2, "right")
    m3 = parafermi2.generator_matrix(2, 1, "right")
    composed = m3.mul(m2.mul(m1))
    column = [composed.entry(i, 0) for i in range(composed.nrows)]
    assert column == parafermi2.normal_coordinates(word_vector((1, 2, 1)))
    direct = parafermi2.word_matrix(0, (1, 2, 1), "right")
    assert column == [direct.entry(i, 0) for i in range(direct.nrows)]


def test_multiplication_matrix_shape_and_rank(parafermi2):
    matrix = parafermi2.generator_matrix(2, 1, "right")
    assert matrix.ncols == 4
    assert matrix.nrows == 6
    assert matrix.rank() <= 6


def test_left_and_right_multiplication_differ(plactic2):
    left = plactic2.generator_matrix(2, 1, "left")
    right = plactic2.generator_matrix(2, 1, "right")
    assert left != right


def test_dual_presentation_free_and_involutive(parafermi2):
    free = free_presentation(2, 3)
    assert free.dual().relations.dim == 8
    pres = parafermi2.presentation
    assert pres.dual().relations.dim == 6
    assert dual_presentation(dual_presentation(pres)).relations == pres.relations


def test_dual_space_at_relation_degree_is_relations(parafermi2):
    assert parafermi2.dual_space(3) == parafermi2.presentation.relations


def test_dual_space_dimensions(parafermi2, parafermi3):
    assert parafermi2.dual_dim(4) == 1
    assert [parafermi3.dual_dim(n) for n in range(6)] == [1, 3, 9, 8, 6, 0]


def test_dual_dims_agree_with_quotient_route(parafermi3):
    dual_quotient = GradedAlgebra(parafermi3.presentation.dual())
    for n in range(6):
        assert parafermi3.dual_dim(n) == dual_quotient.component_dim(n)


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


CATALOGUE_ROUTES = (
    pytest.param(lambda: parafermion(2), 7, id="parafermion2"),
    pytest.param(lambda: parafermion(3), 5, id="parafermion3"),
    pytest.param(lambda: paraboson(3), 5, id="paraboson3"),
    pytest.param(lambda: plactic(2), 7, id="plactic2"),
    pytest.param(lambda: plactic(3), 5, id="plactic3"),
    pytest.param(lambda: artin_schelter(Fraction(3, 7), Fraction(-5, 2)), 7,
                 id="as-3/7,-5/2"),
)


@pytest.mark.parametrize("order", ["lex", "revlex"])
@pytest.mark.parametrize("make, top", CATALOGUE_ROUTES)
def test_stepwise_routes_equal_direct_routes_on_catalogue(make, top, order):
    presentation = make()
    for pres in (presentation, presentation.dual()):
        algebra = GradedAlgebra(pres, order=order)
        for n in range(top + 1):
            assert algebra.ideal_component(n) == direct_ideal_component(algebra, n)
            assert algebra.dual_space(n) == iterated_intersection(
                algebra.presentation.relations, n)


def test_memory_guard_fires_before_lower_degrees_are_built():
    algebra = GradedAlgebra(parafermion(2), word_limit=100)
    with pytest.raises(MemoryGuardError, match="128"):
        algebra.ideal_component(7)
    assert not algebra._ideal


def test_memory_guard():
    algebra = GradedAlgebra(parafermion(2), word_limit=100)
    assert algebra.component_dim(6) == 16  # 2^6 = 64 stays under the limit
    with pytest.raises(MemoryGuardError, match="128"):
        algebra.component_dim(7)


def test_caching_is_referentially_transparent(parafermi2):
    fresh = GradedAlgebra(parafermion(2))
    assert fresh.ideal_component(4) == parafermi2.ideal_component(4)
    assert fresh.ideal_component(4) == fresh.ideal_component(4)


def test_reversed_order_changes_basis_not_dimensions(parafermi2):
    reversed_algebra = GradedAlgebra(parafermion(2), order="revlex")
    for n in range(6):
        assert reversed_algebra.component_dim(n) == parafermi2.component_dim(n)
        assert reversed_algebra.dual_dim(n) == parafermi2.dual_dim(n)
    assert reversed_algebra.normal_basis(3) != parafermi2.normal_basis(3)


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
