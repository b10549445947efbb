import pytest

from nhomalg.algebra import GradedAlgebra, free_presentation
from nhomalg.catalog import artin_schelter, paraboson, parafermion, plactic
from nhomalg.linalg import InternalConsistencyError
from nhomalg.series import (
    IntSeries,
    NonIntegerCoefficientError,
    TruncationError,
    chi_direct,
    chi_via_product,
    dual_q_series,
    koszul_necessary,
    poincare_series,
)

from _oracles import dual_dims_formula, paraboson_dims, parafermion_dims, pmul


@pytest.fixture(scope="module")
def parafermi2():
    return GradedAlgebra(parafermion(2))


@pytest.fixture(scope="module")
def parafermi3():
    return GradedAlgebra(parafermion(3))


@pytest.fixture(scope="module")
def plactic3():
    return GradedAlgebra(plactic(3))


def test_series_truncation_is_hard():
    s = IntSeries([1, 2, 3])
    assert s[2] == 3
    with pytest.raises(TruncationError):
        s[3]
    with pytest.raises(TruncationError):
        s[-1]


def test_series_product_truncates_to_minimum():
    a = IntSeries([1, 1, 1, 1])
    b = IntSeries([1, -1], order=1)
    product = a * b
    assert product.order == 1
    assert product.coefficients() == (1, 0)
    with pytest.raises(TruncationError):
        product[2]


def test_poincare_free_algebra():
    free = GradedAlgebra(free_presentation(2, 3))
    assert poincare_series(free, 4).coefficients() == (1, 2, 4, 8, 16)


def test_poincare_matches_closed_form(parafermi2):
    assert poincare_series(parafermi2, 7).coefficients() == \
        (1, 2, 4, 6, 9, 12, 16, 20)
    assert tuple(parafermion_dims(2, 7)) == (1, 2, 4, 6, 9, 12, 16, 20)


def test_paraboson_series_equals_parafermion():
    for D in range(1, 7):
        assert parafermion_dims(D, 14) == paraboson_dims(D, 14)
    boson = GradedAlgebra(paraboson(2))
    assert list(poincare_series(boson, 7).coefficients()) == paraboson_dims(2, 7)


def test_q_series_leading_coefficients(parafermi2, parafermi3):
    for algebra in (parafermi2, parafermi3):
        q = dual_q_series(algebra, 4)
        assert q[0] == 1
        assert q[1] == -algebra.D


def signed_dual_dims(D, order):
    """Q of the parafermionic algebra: the oracle's dual dimensions, with
    sign + in degrees 0 mod 3, - in degrees 1 mod 3 and 0 elsewhere."""
    return [(1, -1, 0)[n % 3] * dim
            for n, dim in enumerate(dual_dims_formula(D, order))]


def test_q_series_values(parafermi2, parafermi3):
    assert dual_q_series(parafermi2, 7).coefficients() == (1, -2, 0, 2, -1, 0, 0, 0)
    assert dual_q_series(parafermi3, 5).coefficients() == (1, -3, 0, 8, -6, 0)
    assert list(dual_q_series(parafermi2, 7).coefficients()) == signed_dual_dims(2, 7)
    assert list(dual_q_series(parafermi3, 5).coefficients()) == signed_dual_dims(3, 5)


def test_q_series_supported_mod_relation_degree(plactic3):
    q = dual_q_series(plactic3, 5)
    for n, coeff in enumerate(q.coefficients()):
        if n % 3 not in (0, 1):
            assert coeff == 0


def test_chi_direct_values(parafermi2, parafermi3):
    assert chi_direct(parafermi2, 7).coefficients() == (1, 0, 0, 0, 0, 0, 0, 0)
    assert chi_direct(parafermi3, 5).coefficients() == (1, 0, 0, 0, 0, 6)
    # 6 = D(D^2-1)(D^2-4)/20 at D = 3, with residual constant term one.
    assert 3 * 8 * 5 // 20 == 6


def test_chi_via_product_agrees(parafermi3, plactic3):
    assert chi_via_product(parafermi3, 5) == chi_direct(parafermi3, 5)
    assert chi_via_product(plactic3, 5) == chi_direct(parafermi3, 5)
    plactic2 = GradedAlgebra(plactic(2))
    assert chi_via_product(plactic2, 7).coefficients() == (1,) + (0,) * 7
    boson3 = GradedAlgebra(paraboson(3))
    assert chi_via_product(boson3, 5) == chi_direct(parafermi3, 5)


def test_chi_closed_form_matches_direct(parafermi2, parafermi3):
    # Against Q.H expanded by the oracle, Q the signed dual dimensions.
    for algebra, D, top in ((parafermi2, 2, 7), (parafermi3, 3, 5)):
        closed = pmul(signed_dual_dims(D, top), parafermion_dims(D, top), top)
        assert list(chi_direct(algebra, top).coefficients()) == closed


def test_koszul_necessary_verdicts(parafermi2, parafermi3, plactic3):
    assert koszul_necessary(parafermi2, 7).consistent
    refuted = koszul_necessary(parafermi3, 5)
    assert refuted.refuted_at == 5
    assert koszul_necessary(plactic3, 5).refuted_at == 5
    assert "refuted at 5" in refuted.describe()


def test_non_integer_series_coefficients_rejected():
    with pytest.raises(NonIntegerCoefficientError):
        IntSeries([1, 0.5])


def test_polynomial_growth_bound(parafermi2):
    # Fit the constant on low degrees, validate on the higher ones.
    exponent = 2 * 3 // 2 - 1  # D(D+1)/2 - 1 at D = 2
    dims = [parafermi2.component_dim(n) for n in range(8)]
    constant = max(dims[n] / n ** exponent for n in range(1, 4))
    for n in range(4, 8):
        assert dims[n] <= constant * n ** exponent


def test_chi_identity_for_generic_family_member():
    algebra = GradedAlgebra(artin_schelter(2, 1))
    assert chi_via_product(algebra, 7).coefficients() == (1,) + (0,) * 7


def test_internal_consistency_error_type():
    assert issubclass(InternalConsistencyError, RuntimeError)
