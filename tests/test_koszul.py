from fractions import Fraction

import pytest

from _oracles import dense_rank
from nhomalg.algebra import GradedAlgebra, Presentation, free_presentation
from nhomalg.catalog import artin_schelter, paraboson, parafermion, plactic
from nhomalg.koszul import (
    _differential,
    _dual_slice,
    _splitting_matrices,
    build_contraction_slice,
    build_koszul_slice,
    contraction_dual_degrees,
    euler_agrees_with_chi,
    gorenstein_probe,
    homology,
    koszul_probe,
)
from nhomalg.linalg import Matrix, Subspace, TensorVector
from nhomalg.series import chi_direct


@pytest.fixture(scope="module")
def parafermi2():
    return GradedAlgebra(parafermion(2))


@pytest.fixture(scope="module")
def parafermi3():
    return GradedAlgebra(parafermion(3))


@pytest.fixture(scope="module")
def plactic2():
    return GradedAlgebra(plactic(2))


def test_contraction_dual_degrees_pattern():
    # Distinguished contraction: 0, 1, N, N+1, 2N, ...
    assert contraction_dual_degrees(3, 2, 0, 8) == [0, 1, 3, 4, 6, 7]
    # The other cubic contractions.
    assert contraction_dual_degrees(3, 1, 0, 7) == [0, 2, 3, 5, 6]
    assert contraction_dual_degrees(3, 2, 1, 8) == [1, 2, 4, 5, 7, 8]


def test_slice_degree_one_is_exact(parafermi2):
    s = build_koszul_slice(parafermi2, 1)
    assert s.positions == ((1, 0), (0, 1))
    assert s.dims == (2, 2)
    assert homology(s).homology_dims == (0, 0)


def test_slice_below_relation_degree(parafermi2):
    s = build_koszul_slice(parafermi2, 2)
    assert s.positions == ((2, 0), (1, 1))
    report = homology(s)
    assert report.homology_dims == (0, 0)


def test_parafermion_slice_dimensions(parafermi2):
    s = build_koszul_slice(parafermi2, 4)
    assert s.positions == ((4, 0), (3, 1), (1, 3), (0, 4))
    assert s.dims == (9, 12, 4, 1)
    for (a, m), dim in zip(s.positions, s.dims):
        assert dim == parafermi2.component_dim(a) * parafermi2.dual_dim(m)


def test_plactic_slice_has_same_dimension_data(parafermi2, plactic2):
    for n in range(1, 6):
        assert build_koszul_slice(plactic2, n).dims == \
            build_koszul_slice(parafermi2, n).dims


def test_composition_zero_along_slices(parafermi3):
    for n in range(1, 6):
        s = build_koszul_slice(parafermi3, n)
        for left, right in zip(s.matrices, s.matrices[1:]):
            assert left.mul(right).is_zero()


def test_contraction_reproduces_distinguished_slice(parafermi2):
    for n in (3, 4, 5):
        a = build_contraction_slice(parafermi2, parafermi2.N - 1, 0, n)
        b = build_koszul_slice(parafermi2, n)
        assert a.positions == b.positions and a.dims == b.dims
        assert all(x == y for x, y in zip(a.matrices, b.matrices))


def test_other_contractions(parafermi2):
    s = build_contraction_slice(parafermi2, 2, 1, 3)
    assert s.positions == ((2, 1), (1, 2))
    assert s.dims == (8, 8)
    assert homology(s).homology_dims == (0, 0)

    s = build_contraction_slice(parafermi2, 1, 0, 3)
    assert s.positions == ((3, 0), (1, 2), (0, 3))
    assert s.dims == (6, 8, 2)
    assert homology(s).homology_dims == (0, 0, 0)

    free = GradedAlgebra(free_presentation(2, 3))
    s = build_contraction_slice(free, 1, 0, 2)
    assert s.positions == ((2, 0), (0, 2))
    assert homology(s).homology_dims == (0, 0)


def test_contraction_parameter_validation(parafermi2):
    with pytest.raises(ValueError):
        build_contraction_slice(parafermi2, 1, 1, 3)
    with pytest.raises(ValueError):
        build_contraction_slice(parafermi2, 3, 0, 3)
    with pytest.raises(ValueError):
        build_contraction_slice(parafermi2, 0, 0, 3)


def test_two_step_boundary_equals_composition(parafermi2):
    # The 2-fold boundary built in one go must agree with composing two
    # single splits through the (full) intermediate dual space.
    from nhomalg.koszul import _differential
    for n in (4, 5, 6):
        direct = _differential(parafermi2, n, 3, 2)
        first = _differential(parafermi2, n, 3, 1)
        second = _differential(parafermi2, n, 2, 1)
        assert second.mul(first) == direct


def _oracle_rank(matrix):
    rows = [{(col + 1,): value for col, value in row.items()}
            for row in matrix.rows.values()]
    return dense_rank(rows, matrix.ncols, 1)


def _dense(matrix):
    return [[matrix.entry(i, j) for j in range(matrix.ncols)]
            for i in range(matrix.nrows)]


def test_slice_ranks_match_dense_oracle(parafermi2, parafermi3, plactic2):
    generic = GradedAlgebra(artin_schelter(Fraction(682, 967), Fraction(361, 220)))
    free = GradedAlgebra(free_presentation(2, 3))
    matrices = []
    for algebra, n_max in ((parafermi3, 5), (plactic2, 6), (generic, 6), (free, 5)):
        for n in range(1, n_max + 1):
            matrices.extend(build_koszul_slice(algebra, n).matrices)
    for nu in range(9):
        matrices.extend(_dual_slice(parafermi2, nu).matrices)
    assert any(m.nrows == 0 or m.ncols == 0 for m in matrices)
    assert sum(m.rank() for m in matrices) > 0
    for matrix in matrices:
        assert matrix.rank() == _oracle_rank(matrix), matrix


def test_differential_is_the_sum_of_prefix_krons(parafermi3, plactic2):
    # Rebuild each boundary densely: sum over prefixes of right
    # multiplication by the prefix, Kronecker the tail coordinates.
    generic = GradedAlgebra(artin_schelter(Fraction(-3, 7), Fraction(5, 2)))
    for algebra in (parafermi3, plactic2, generic):
        for n, m, j in ((3, 1, 1), (4, 3, 2), (5, 4, 1), (5, 3, 2)):
            target_a = algebra.component_dim(n - m + j)
            source_a = algebra.component_dim(n - m)
            rows = target_a * algebra.dual_dim(m - j)
            cols = source_a * algebra.dual_dim(m)
            total = [[Fraction(0)] * cols for _ in range(rows)]
            for prefix, tails in _splitting_matrices(algebra, m, j).items():
                right = _dense(algebra.word_matrix(n - m, prefix, "right"))
                tail = _dense(tails)
                for i, right_row in enumerate(right):
                    for c, a in enumerate(right_row):
                        for k, tail_row in enumerate(tail):
                            for l, b in enumerate(tail_row):
                                total[i * tails.nrows + k][c * tails.ncols + l] += a * b
            assert _dense(_differential(algebra, n, m, j)) == total


def test_splitting_matrices_rebuild_the_dual_rows(parafermi3):
    # Prefix (x) (tail coordinates times the target rows) gives back each
    # source row; the generic member's dual rows have pivot coefficients
    # other than 1 in their integer form.
    generic = GradedAlgebra(artin_schelter(Fraction(-3, 7), Fraction(5, 2)))
    assert any(row[p] > 1 for p, row in generic.dual_space(4)._ints.items())
    for algebra in (parafermi3, generic):
        for m, j in ((3, 1), (3, 2), (4, 1), (4, 3)):
            source = algebra.dual_space(m).rows
            target = algebra.dual_space(m - j).rows
            rebuilt = [{} for _ in source]
            for prefix, tails in _splitting_matrices(algebra, m, j).items():
                for i, row in tails.rows.items():
                    for c, value in row.items():
                        for word, coeff in target[i].terms.items():
                            word = prefix + word
                            rebuilt[c][word] = rebuilt[c].get(word, 0) + value * coeff
            assert [TensorVector(m, terms) for terms in rebuilt] == list(source)


def test_differential_empty_shapes(parafermi2):
    # W_6 = 0 for two generators: no source columns.
    empty = _differential(parafermi2, 7, 6, 2)
    assert (empty.nrows, empty.ncols) == (6, 0)
    assert empty.rank() == 0
    # The free algebra has W_3 = 0.
    free = GradedAlgebra(free_presentation(2, 3))
    assert _differential(free, 4, 3, 2) == Matrix.zero(16, 0)
    # Full relations kill A_3: no target rows.
    full = GradedAlgebra(Presentation(2, 3, Subspace.full(2, 3)))
    assert _differential(full, 3, 1, 1) == Matrix.zero(0, 8)
    for n in range(1, 6):
        assert homology(build_koszul_slice(full, n)).is_acyclic


def test_homology_report_euler(parafermi3):
    s = build_koszul_slice(parafermi3, 5)
    report = homology(s)
    assert report.dims == (69, 117, 72, 18)
    assert report.euler == 69 - 117 + 72 - 18 == 6
    assert report.homology_dims == (0, 0, 6, 0)
    alt = sum((-1) ** i * h for i, h in enumerate(report.homology_dims))
    assert alt == report.euler


def test_euler_matches_chi(parafermi2, parafermi3):
    assert euler_agrees_with_chi(parafermi2, 6)
    assert euler_agrees_with_chi(parafermi3, 5)
    chi = chi_direct(parafermi3, 5)
    report = homology(build_koszul_slice(parafermi3, 5))
    assert sum((-1) ** i * h for i, h in enumerate(report.homology_dims)) == chi[5]


def test_koszul_probe_consistent_cases(parafermi2, plactic2):
    assert koszul_probe(parafermi2, 7).consistent
    assert koszul_probe(plactic2, 7).consistent
    assert koszul_probe(GradedAlgebra(paraboson(2)), 7).consistent
    assert koszul_probe(GradedAlgebra(artin_schelter(2, 1)), 7).consistent


def test_koszul_probe_refuted_cases(parafermi3):
    probe = koszul_probe(parafermi3, 5)
    assert probe.first_nonacyclic == 5
    assert not probe.consistent
    probe = koszul_probe(GradedAlgebra(plactic(3)), 5)
    assert probe.first_nonacyclic == 5
    assert "5" in probe.describe()


def test_homology_independent_of_word_order():
    plain = GradedAlgebra(parafermion(2))
    reversed_order = GradedAlgebra(parafermion(2), order="revlex")
    for n in range(1, 6):
        a = homology(build_koszul_slice(plain, n))
        b = homology(build_koszul_slice(reversed_order, n))
        assert a.homology_dims == b.homology_dims
        assert a.dims == b.dims


def test_gorenstein_parafermion_consistent(parafermi2):
    report = gorenstein_probe(parafermi2, 7)
    assert report.resolution_exact
    assert report.verdict == "consistent"
    assert report.interior_witnesses == ()
    assert len(report.terminal_dims) == 1
    assert report.terminal_dims[0][1] == 1


def test_gorenstein_paraboson_and_generic_member_consistent():
    assert gorenstein_probe(GradedAlgebra(paraboson(2)), 6).consistent
    assert gorenstein_probe(GradedAlgebra(artin_schelter(2, 1)), 6).consistent


def test_gorenstein_plactic_violated(plactic2):
    report = gorenstein_probe(plactic2, 7)
    assert report.resolution_exact
    assert report.verdict == "violated"
    assert report.interior_witnesses
    first_degree = report.interior_witnesses[0][0]
    assert first_degree <= 7


def test_gorenstein_singular_member_matches_plactic(plactic2):
    singular = gorenstein_probe(GradedAlgebra(artin_schelter(0, 1)), 6)
    reference = gorenstein_probe(plactic2, 6)
    assert singular.verdict == reference.verdict == "violated"
    assert singular.cohomology == reference.cohomology
    assert singular.interior_witnesses == reference.interior_witnesses


def test_gorenstein_refuses_noncubic():
    quadratic = GradedAlgebra(free_presentation(2, 2))
    with pytest.raises(ValueError):
        gorenstein_probe(quadratic, 4)


def test_gorenstein_refuses_large_dual():
    # A full relation space keeps every dual component full, so degree 5
    # fails the finite-length precondition.
    pres = Presentation(2, 3, Subspace.full(2, 3))
    algebra = GradedAlgebra(pres)
    with pytest.raises(ValueError, match="degree 5"):
        gorenstein_probe(algebra, 4)


def test_gorenstein_inapplicable_when_not_resolution(parafermi3):
    # Three-generator case: the dual components do vanish from degree 5 on
    # but the degree-5 slice has homology, so nothing is dualised.
    report = gorenstein_probe(parafermi3, 5)
    assert not report.resolution_exact
    assert report.resolution_failure == 5
    assert report.verdict == "inapplicable"
    assert report.cohomology is None
