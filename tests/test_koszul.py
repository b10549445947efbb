import dataclasses
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb

import pytest
from hypothesis import given, strategies as st

from _oracles import (
    dense_matrix_rank,
    full_contraction_slice,
    full_dual_slice,
    relabel,
    relabelled,
)
from nhomalg.algebra import GradedAlgebra, Presentation, _deficiency, free_presentation
from nhomalg.catalog import artin_schelter, paraboson, parafermion, plactic
from nhomalg import koszul
from nhomalg.koszul import (
    ComplexSlice,
    _differential,
    _dual_slice,
    build_contraction_slice,
    build_koszul_slice,
    contraction_dual_degrees,
    euler_agrees_with_chi,
    gorenstein_probe,
    homology,
    koszul_probe,
)
from nhomalg.linalg import (
    InternalConsistencyError,
    Matrix,
    Subspace,
    TensorVector,
    _column_labels,
    _echelon,
    rref,
)
from nhomalg.relfile import parse_relations
from nhomalg.series import IntSeries, chi_direct, chi_via_product, dual_q_series


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
        assert matrix.rank() == dense_matrix_rank(matrix), matrix


def test_differential_is_the_sum_of_prefix_krons(parafermi3, plactic2):
    # Rebuild each boundary densely: sum over prefixes u of right
    # multiplication by u in A, Kronecker the transposed left
    # multiplication by u in the dual algebra.
    generic = GradedAlgebra(artin_schelter(Fraction(-3, 7), Fraction(5, 2)))
    for algebra in (parafermi3, plactic2, generic):
        for n, m, j in ((3, 1, 1), (4, 3, 2), (5, 4, 1), (5, 3, 2)):
            target_a = algebra.component_dim(n - m + j)
            source_a = algebra.component_dim(n - m)
            rows = target_a * algebra.dual_dim(m - j)
            cols = source_a * algebra.dual_dim(m)
            total = [[Fraction(0)] * cols for _ in range(rows)]
            for prefix in product(range(1, algebra.D + 1), repeat=j):
                right = _dense(algebra.word_matrix(n - m, prefix, "right"))
                tails = algebra.dual().word_matrix(m - j, prefix, "left").transpose()
                tail = _dense(tails)
                for i, right_row in enumerate(right):
                    for c, a in enumerate(right_row):
                        for k, tail_row in enumerate(tail):
                            for l, b in enumerate(tail_row):
                                total[i * tails.nrows + k][c * tails.ncols + l] += a * b
            assert _dense(_differential(algebra, n, m, j)) == total


def test_generic_member_runs_the_scaled_matrices():
    # Its normal forms carry denominators on both sides, so its word
    # matrices and those of its dual algebra hold integer rows over a
    # scale above 1, and the slice tests on it run the scaled kron_sum,
    # mul and rank.
    generic = GradedAlgebra(artin_schelter(Fraction(-3, 7), Fraction(5, 2)))
    assert generic.word_matrix(2, (1,), "right").scale > 1
    assert generic.word_matrix(2, (2,), "left").scale > 1
    assert generic.dual().word_matrix(2, (1,), "left").scale > 1


def test_complexes_and_series_build_no_intersection_space():
    # Both sides of every cell come from the Groebner machinery, on A and
    # on its dual algebra; W_n by intersection is only the cross-check.
    for algebra in (GradedAlgebra(parafermion(3)),
                    GradedAlgebra(artin_schelter(Fraction(682, 967), Fraction(361, 220)))):
        koszul_probe(algebra, 5)
        gorenstein_probe(algebra, 5)
        chi_via_product(algebra, 6)
        dual_q_series(algebra, 6)
        assert algebra._dual == {}
        assert algebra.dual()._word_mats


def test_benchmark_slice_ranks_in_a_sparsest_column_order(parafermi3):
    # On the degree-7 slice some matrix pivots on a column order other
    # than greatest column first; the rank is the same either way.
    matrices = build_koszul_slice(parafermi3, 7).matrices
    reordered = 0
    for matrix in matrices:
        labels = _column_labels(list(matrix.rows.values()))
        order = sorted(labels, key=labels.get)
        reordered += order != sorted(labels)
        counts = [sum(j in row for row in matrix.rows.values()) for j in order]
        assert counts == sorted(counts, reverse=True)
        assert matrix.rank() == len(_echelon(matrix.rows.values()))
    assert reordered


def test_differential_empty_shapes(parafermi2):
    # W_6 = 0 for two generators: no source columns.
    empty = _differential(parafermi2, 7, 6, 2)
    assert (empty.nrows, empty.ncols) == (6, 0)
    assert empty.rank() == 0
    # The free algebra has W_3 = 0.
    free = GradedAlgebra(free_presentation(2, 3))
    assert _differential(free, 4, 3, 2) == Matrix(16, 0)
    # Full relations kill A_3: no target rows.
    full = GradedAlgebra(Presentation(2, 3, Subspace.full(2, 3)))
    assert _differential(full, 3, 1, 1) == Matrix(0, 8)
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


def test_euler_check_builds_no_slice(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a slice was built or ranked")

    monkeypatch.setattr(koszul, "build_contraction_slice", refuse)
    monkeypatch.setattr(Matrix, "rank", refuse)
    cases = ((GradedAlgebra(parafermion(3)), 7), (GradedAlgebra(plactic(3)), 6),
             (GradedAlgebra(artin_schelter(Fraction(682, 967), Fraction(361, 220))), 9))
    for algebra, n_max in cases:
        assert euler_agrees_with_chi(algebra, n_max)
        chi = chi_direct(algebra, n_max).coefficients()
        for n in range(1, n_max + 1):
            off = IntSeries([c + (k == n) for k, c in enumerate(chi)], n_max)
            monkeypatch.setattr(koszul, "chi_direct", lambda algebra, n_max: off)
            assert not euler_agrees_with_chi(algebra, n_max), n
        monkeypatch.setattr(koszul, "chi_direct", chi_direct)


def test_slice_refuses_a_nonzero_composition_and_accepts_cancelling_terms():
    ones = Matrix(2, 1, {0: {0: 1}, 1: {0: 1}})
    # The product with ``ones`` cancels to zero in rows 0 and 1, not in row 2.
    last_row = Matrix(3, 2, {0: {0: 1, 1: -1},
                             1: {0: Fraction(1, 2), 1: Fraction(-1, 2)},
                             2: {0: 1}})
    with pytest.raises(InternalConsistencyError,
                       match="composition nonzero between positions 2 and 0 "
                             "of the degree-4 slice"):
        ComplexSlice(4, ((4, 0), (3, 1), (2, 2)), (3, 2, 1), (last_row, ones))
    with pytest.raises(InternalConsistencyError, match="between positions 3 and 1 "):
        ComplexSlice(4, ((4, 0), (3, 1), (2, 2), (1, 3)), (1, 3, 2, 1),
                     (Matrix(1, 3), last_row, ones))
    cancelling = Matrix(2, 2, {0: {0: 3, 1: -3}, 1: {0: Fraction(-1, 4), 1: Fraction(1, 4)}})
    accepted = ComplexSlice(4, ((4, 0), (3, 1), (2, 2)), (2, 2, 1), (cancelling, ones))
    assert accepted.matrices == (cancelling, ones)
    assert cancelling.mul(ones).is_zero() and not last_row.mul(ones).is_zero()


def test_homology_refuses_a_negative_dimension():
    # The map into position 0 has rank 1, but position 0 has no cells.
    slice_ = ComplexSlice(1, ((1, 0), (0, 1)), (0, 1), (Matrix(1, 1, {0: {0: 1}}),))
    with pytest.raises(InternalConsistencyError, match="negative homology dimension"):
        homology(slice_)


def test_koszul_probe_checks_each_slice_euler_against_chi(parafermi3, monkeypatch):
    monkeypatch.setattr(koszul, "chi_direct",
                        lambda algebra, n_max: IntSeries([0] * (n_max + 1), n_max))
    with pytest.raises(InternalConsistencyError,
                       match=r"slice Euler characteristics differ from chi in degrees 1\.\.6"):
        koszul_probe(parafermi3, 6)


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
    # The relabelled presentation stands for the given one under the
    # reversed letter order; relabelling fixes parafermion and paraboson.
    for presentation, top in ((plactic(2), 6), (plactic(3), 5),
                              (artin_schelter(Fraction(2, 3), Fraction(5, 7)), 6)):
        plain = GradedAlgebra(presentation)
        reversed_order = GradedAlgebra(relabelled(presentation))
        assert reversed_order.presentation.relations != presentation.relations
        for n in range(1, top + 1):
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


def test_gorenstein_terminal_position_is_the_last_nonzero_dual_space():
    # At D = 1 every family has R = 0 and dual dims 1, 1, 1, 0, 0: A = k[x]
    # is resolved by A (x) W_1 -> A, and its dual has one class at the
    # terminal position 1 with nothing interior.
    for builder in (parafermion, paraboson, plactic):
        report = gorenstein_probe(GradedAlgebra(builder(1)), 7)
        assert report.verdict == "consistent", builder
        assert report.interior_witnesses == ()
        assert report.terminal_dims == ((3, 1),)
    # The free algebra on two letters also has W_3 = 0, but two classes
    # at its terminal position in total degree 3, and more above.
    report = gorenstein_probe(GradedAlgebra(parse_relations("D=2 N=3\n")), 6)
    assert report.verdict == "violated"
    assert report.interior_witnesses == ()
    assert report.terminal_dims[0] == (3, 2)


@pytest.mark.parametrize("D", [1, 2, 3])
def test_symmetric_and_exterior_algebras(D):
    """Beyond the catalogue: the quadratic algebras with known answers.

    Commutators give the symmetric algebra, series C(n+D-1, D-1); its
    dual is the exterior algebra, series C(D, n).  Both are Koszul, so
    neither has slice homology and chi_n = 0 for n >= 1.
    """
    letters = range(1, D + 1)
    commutators = [TensorVector(2, {(i, j): 1, (j, i): -1})
                   for i in letters for j in letters if i < j]
    symmetric = GradedAlgebra(Presentation(D, 2, rref(commutators, D, 2)))
    exterior = GradedAlgebra(symmetric.presentation.dual())
    n_max = 5
    for n in range(n_max + 1):
        assert symmetric.component_dim(n) == comb(n + D - 1, D - 1)
        assert exterior.component_dim(n) == comb(D, n)
        assert symmetric.dual_dim(n) == comb(D, n)
        assert exterior.dual_dim(n) == comb(n + D - 1, D - 1)
    for algebra in (symmetric, exterior):
        probe = koszul_probe(algebra, n_max)
        assert probe.consistent
        assert all(report.is_acyclic for report in probe.reports)
        assert list(chi_direct(algebra, n_max).coefficients()) == [1] + [0] * n_max


def antisymmetric_tensors(D, N):
    """A spanning set of Lambda^N E inside E^(x N): the antisymmetriser
    applied to each increasing word of N letters."""
    vectors = []
    for letters in combinations(range(1, D + 1), N):
        terms = {}
        for word in permutations(letters):
            inversions = sum(a > b for a, b in combinations(word, 2))
            terms[word] = (-1) ** inversions
        vectors.append(TensorVector(N, terms))
    return vectors


@pytest.mark.parametrize("relabel_letters", [False, True], ids=["lex", "revlex"])
@pytest.mark.parametrize("D, N", [(3, 3), (4, 3), (4, 4), (5, 3)])
def test_n_symmetric_algebras(D, N, relabel_letters):
    """R = Lambda^N E gives the N-symmetric algebra (Berger, J. Algebra 2001).

    Its dual spaces are W_n = Lambda^n E for n >= N, so dual_dim(n) is
    C(D, n), and it is N-Koszul: H(t) times
    sum_k (C(D, Nk) t^(Nk) - C(D, Nk+1) t^(Nk+1)) is 1, with the k = 0
    terms 1 - D t standing below N.
    """
    relations = rref(antisymmetric_tensors(D, N), D, N)
    if relabel_letters:
        # Lambda^N E is GL(D)-invariant: the relabelled span, which stands
        # for the reversed letter order, is the same span.
        assert relabel(relations) == relations
        relations = relabel(relations)
    algebra = GradedAlgebra(Presentation(D, N, relations))
    n_max = 7
    q = [0] * (n_max + 1)
    for k in range(n_max // N + 1):
        q[N * k] = comb(D, N * k)
        if N * k + 1 <= n_max:
            q[N * k + 1] = -comb(D, N * k + 1)
    hilbert = [1]
    for n in range(1, n_max + 1):
        hilbert.append(-sum(q[m] * hilbert[n - m] for m in range(1, n + 1)))
    assert [algebra.component_dim(n) for n in range(n_max + 1)] == hilbert
    dual_dims = [D ** n if n < N else comb(D, n) for n in range(n_max + 1)]
    dual_quotient = GradedAlgebra(algebra.presentation.dual())
    assert [dual_quotient.component_dim(n) for n in range(n_max + 1)] == dual_dims
    # The intersection route is D^n wide: two degrees above N suffice.
    assert [algebra.dual_space(n).dim for n in range(N + 2)] == dual_dims[:N + 2]


def assert_blocks_match_the_whole_slices(algebra, n_max):
    """Homology of every contraction slice of degree up to n_max, and of
    each dual slice of a cubic algebra, built one content block per
    S_D-orbit, against the same slices built whole."""
    N = algebra.N
    for p in range(1, N):
        for r in range(p):
            for n in range(n_max + 1):
                assert homology(build_contraction_slice(algebra, p, r, n)) == \
                    homology(full_contraction_slice(algebra, p, r, n)), (p, r, n)
    if N == 3:
        for nu in range(n_max + 1):
            assert homology(_dual_slice(algebra, nu)) == \
                homology(full_dual_slice(algebra, nu)), nu


@st.composite
def content_presentations(draw):
    """Relations on D = 2..4 letters in degree N = 2, 3, each row among the
    words of one letter content, with every letter permutation of each
    row added (closed under S_D) or as drawn.  Lists are ordered most
    telling first."""
    closed = draw(st.sampled_from((True, False)))
    D = draw(st.sampled_from([4, 3, 2]))
    N = draw(st.sampled_from([3, 2]))
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        content = sorted(draw(st.lists(st.integers(1, D), min_size=N, max_size=N)))
        words = sorted(set(permutations(content)))
        rows.append(draw(st.dictionaries(st.sampled_from(words),
                                         st.integers(-2, 2).filter(bool),
                                         min_size=1, max_size=3)))
    letters = tuple(range(1, D + 1))
    perms = list(permutations(letters)) if closed else [letters]
    vectors = [TensorVector(N, {tuple(sigma[x - 1] for x in w): c for w, c in row.items()})
               for row in rows for sigma in perms]
    presentation = Presentation(D, N, rref(vectors, D, N))
    assert presentation.letter_symmetric or not closed
    return GradedAlgebra(presentation)


@given(content_presentations())
def test_blocks_per_orbit_match_the_whole_slices(algebra):
    # At most 256 words in the top degree of A.
    assert_blocks_match_the_whole_slices(algebra, {2: 6, 3: 5, 4: 4}[algebra.D])


def test_blocks_per_orbit_on_the_edge_cases():
    cases = (
        # Fixed by (1 2), but its rows mix two contents: one block.
        (parse_relations("D=2 N=2\n1*11 - 1*22\n"), False),
        # Graded and fixed by (1 2), not by (1 2 3): every content is its own block.
        (parse_relations("D=3 N=3\n1*123 - 1*213\n1*333\n"), False),
        (free_presentation(1, 2), True),
        (free_presentation(1, 3), True),
        (Presentation(1, 2, Subspace.full(1, 2)), True),
        (Presentation(1, 3, Subspace.full(1, 3)), True),
        (parafermion(3), True),
        (plactic(3), False),
        (artin_schelter(-1, 1), True),
        (artin_schelter(2, 1), False),
    )
    for presentation, symmetric in cases:
        assert presentation.letter_symmetric == symmetric, presentation
        assert_blocks_match_the_whole_slices(GradedAlgebra(presentation), 5)


def assert_counts_per_orbit_equal_the_unweighted(algebra, n_max):
    """For the presentation and its dual, n = 0..n_max: dim W_n counted on
    top of a tower that holds W_{n-1}, one content block per S_D-orbit,
    against the same count with every row built, the level built and
    read, and the quotient route."""
    for presentation in (algebra.presentation, algebra.presentation.dual()):
        weighted = GradedAlgebra(presentation)
        # A copy whose letter symmetry is cached as False: every row, weight 1.
        unweighted = GradedAlgebra(dataclasses.replace(presentation))
        unweighted.presentation.__dict__["letter_symmetric"] = False
        for n in range(n_max + 1):
            counts = weighted.intersection_dims(n)[n], unweighted.intersection_dims(n)[n]
            assert counts == (len(weighted._dual_level(n).leads),) * 2, n
            assert counts[0] == weighted.intersection_dims(n)[n] == weighted.dual_dim(n), n


@given(content_presentations())
def test_intersection_counts_per_orbit_equal_the_unweighted(algebra):
    assert_counts_per_orbit_equal_the_unweighted(algebra, {2: 6, 3: 5, 4: 4}[algebra.D])


def test_intersection_counts_per_orbit_on_the_edge_cases():
    cases = (
        free_presentation(1, 2),
        Presentation(1, 3, Subspace.full(1, 3)),
        free_presentation(3, 2),
        Presentation(2, 3, Subspace.full(2, 3)),
        # Fixed by (1 2), but its rows mix two contents: every row built.
        parse_relations("D=2 N=2\n1*11 - 1*22\n"),
        # Graded and fixed by (1 2), not by (1 2 3): every row built.
        parse_relations("D=3 N=3\n1*123 - 1*213\n1*333\n"),
        parafermion(3),
        paraboson(2),
    )
    for presentation in cases:
        assert_counts_per_orbit_equal_the_unweighted(GradedAlgebra(presentation), 6)
    # The dual of parafermion(4) meets orbits of sizes 1, 4, 6, 12 and 24.
    algebra = GradedAlgebra(parafermion(4).dual())
    assert algebra.intersection_dims(6) == [1, 4, 16, 44, 116, 260, 560]


def assert_restricted_tower_equals_the_full_one(presentation, top):
    """For the presentation and its dual, n_max = 0..top: the dims on a
    fresh algebra, whose tower levels below n_max are built only on the
    contents that can still reach an orbit representative, against the
    levels of the full tower and the quotient route; then the dims on an
    algebra that already holds W_0..W_{N+2}.  After either call every
    level in the tower is the full one, and the word rows of W_n read
    off it equal a fresh algebra's."""
    for pres in (presentation, presentation.dual()):
        D, N = pres.D, pres.N
        full = GradedAlgebra(pres)
        dims = [D ** n for n in range(N)] + [
            len(full._dual_level(n).pivots) for n in range(N, top + 1)]
        assert dims == [full.dual_dim(n) for n in range(top + 1)]
        for n_max in range(top + 1):
            fresh = GradedAlgebra(pres)
            assert fresh.intersection_dims(n_max) == dims[:n_max + 1], n_max
        warm = GradedAlgebra(pres)
        warm.dual_space(N + 2)
        assert warm.intersection_dims(top) == dims
        for algebra in (fresh, warm):
            for n in range(N + 1, len(algebra._tower)):
                level, whole = algebra._tower[n], full._dual_level(n)
                assert (level.leads, level.pivots, level.tails, level.kernel) == \
                    (whole.leads, whole.pivots, whole.tails, whole.kernel), n
        for n in range(N + 3):
            assert fresh.dual_space(n) == full.dual_space(n), n


@given(content_presentations())
def test_restricted_tower_equals_the_full_one(algebra):
    # Any other R builds the full levels: two degrees above N reach them.
    presentation = algebra.presentation
    top = presentation.N + (4 if presentation.letter_symmetric else 2)
    assert_restricted_tower_equals_the_full_one(presentation, top)


def test_restricted_tower_on_the_edge_cases():
    cases = (
        free_presentation(1, 2),
        Presentation(1, 3, Subspace.full(1, 3)),
        free_presentation(3, 2),
        Presentation(2, 3, Subspace.full(2, 3)),
        parse_relations("D=2 N=2\n1*11 - 1*22\n"),
        parse_relations("D=3 N=3\n1*123 - 1*213\n1*333\n"),
        parafermion(3),
        paraboson(2),
    )
    for presentation in cases:
        assert_restricted_tower_equals_the_full_one(presentation, presentation.N + 2)
    # n_max = N, N + 1, N + 2 on the dual of parafermion(4).
    pres = parafermion(4).dual()
    for n_max, dims in ((3, [1, 4, 16, 44]), (4, [1, 4, 16, 44, 116]),
                        (5, [1, 4, 16, 44, 116, 260])):
        assert GradedAlgebra(pres).intersection_dims(n_max) == dims


def test_deficiency_counts_the_letters_that_sort_a_content():
    cases = {(): 0, (5,): 0, (0, 0, 0): 0, (3, 1, 0): 0, (2, 2, 1): 0, (0, 1): 1,
             (1, 2, 0): 1, (0, 2, 1): 2, (0, 0, 3): 6, (1, 0, 2, 0): 3}
    for content, letters in cases.items():
        assert _deficiency(content) == letters, content
