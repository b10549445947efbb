"""Truncated integer power series and the series attached to an algebra.

Covers the Poincare (Hilbert) series, the signed series Q built from the
dual components in degrees 0 and 1 mod N, the Euler-characteristic
series chi computed by two independent routes, the resulting necessary
condition for Koszulity, and exact closed-form expanders for the series
of the catalogued cubic algebras.  The closed forms are products of
:class:`IntSeries`; chi of the parafermionic algebra is Q.H from the
closed Q and H, the identity that :func:`chi_via_product` checks on an
algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

from .algebra import GradedAlgebra
from .linalg import InternalConsistencyError


class TruncationError(IndexError):
    """A coefficient beyond the reliable truncation order was requested."""


class NonIntegerCoefficientError(ValueError):
    """A closed form produced a non-integer coefficient: bad parameters."""


class IntSeries:
    """Integer power series known up to a truncation order (inclusive).

    Reading past the truncation order is a hard error, never a silent
    zero; arithmetic propagates the minimum order of the operands.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Sequence[int], order: int | None = None):
        coeffs = list(coeffs)
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        if len(coeffs) < order + 1:
            coeffs += [0] * (order + 1 - len(coeffs))
        else:
            coeffs = coeffs[:order + 1]
        for c in coeffs:
            if c != int(c):
                raise NonIntegerCoefficientError(f"non-integer coefficient {c}")
        self.coeffs = tuple(int(c) for c in coeffs)
        self.order = order

    def __getitem__(self, n: int) -> int:
        if not 0 <= n <= self.order:
            raise TruncationError(
                f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def coefficients(self) -> tuple[int, ...]:
        return self.coeffs

    def __add__(self, other: "IntSeries") -> "IntSeries":
        order = min(self.order, other.order)
        return IntSeries([self.coeffs[n] + other.coeffs[n] for n in range(order + 1)],
                         order)

    def __sub__(self, other: "IntSeries") -> "IntSeries":
        order = min(self.order, other.order)
        return IntSeries([self.coeffs[n] - other.coeffs[n] for n in range(order + 1)],
                         order)

    def __mul__(self, other: "IntSeries") -> "IntSeries":
        order = min(self.order, other.order)
        out = [0] * (order + 1)
        for i, a in enumerate(self.coeffs[:order + 1]):
            if not a:
                continue
            for j in range(order + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return IntSeries(out, order)

    def __eq__(self, other) -> bool:
        return (isinstance(other, IntSeries)
                and self.order == other.order and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self):
        return f"IntSeries({list(self.coeffs)!r})"


def series_one(order: int) -> IntSeries:
    return IntSeries([1], order)


def series_quotient(numerator: IntSeries, denominator: IntSeries) -> IntSeries:
    """Truncated division; the denominator's constant term must be a unit."""
    d0 = denominator.coeffs[0]
    if d0 not in (1, -1):
        raise ValueError("division needs a unit constant term")
    order = min(numerator.order, denominator.order)
    out = [0] * (order + 1)
    for n in range(order + 1):
        acc = numerator.coeffs[n]
        for k in range(1, n + 1):
            dk = denominator.coeffs[k]
            if dk:
                acc -= dk * out[n - k]
        out[n] = acc * d0  # d0 is +-1
    return IntSeries(out, order)


# ---------------------------------------------------------------------------
# Series of a graded algebra.

def poincare_series(algebra: GradedAlgebra, n_max: int) -> IntSeries:
    """Dimensions of the graded components, degrees 0..n_max."""
    return IntSeries([algebra.component_dim(n) for n in range(n_max + 1)], n_max)


def dual_q_series(algebra: GradedAlgebra, n_max: int) -> IntSeries:
    """Signed series of dual dimensions at degrees 0 and 1 mod N.

    Degree kN carries +dim of the dual component, degree kN+1 carries
    -dim; every other degree is zero.
    """
    N = algebra.N
    out = [0] * (n_max + 1)
    for n in range(n_max + 1):
        if n % N == 0:
            out[n] = algebra.dual_dim(n)
        elif n % N == 1:
            out[n] = -algebra.dual_dim(n)
    return IntSeries(out, n_max)


def chi_direct(algebra: GradedAlgebra, n_max: int) -> IntSeries:
    """Euler characteristics of the total-degree slices, from dimensions.

    chi(n) = sum_k [dim A_{n-kN} * dim A!_{kN} - dim A_{n-kN-1} * dim A!_{kN+1}]
    with dim A_m = 0 for m < 0.
    """
    N = algebra.N
    a_dims = [algebra.component_dim(n) for n in range(n_max + 1)]
    out = []
    for n in range(n_max + 1):
        acc = 0
        k = 0
        while k * N <= n:
            acc += a_dims[n - k * N] * algebra.dual_dim(k * N)
            if k * N + 1 <= n:
                acc -= a_dims[n - k * N - 1] * algebra.dual_dim(k * N + 1)
            k += 1
        out.append(acc)
    return IntSeries(out, n_max)


def chi_via_product(algebra: GradedAlgebra, n_max: int) -> IntSeries:
    """chi as the product of the Poincare series with the Q series.

    The two routes must agree coefficientwise; a mismatch signals an
    implementation bug and raises immediately.
    """
    product = poincare_series(algebra, n_max) * dual_q_series(algebra, n_max)
    direct = chi_direct(algebra, n_max)
    if product != direct:
        raise InternalConsistencyError(
            f"chi routes disagree: product {product.coeffs} vs direct {direct.coeffs}")
    return product


@dataclass(frozen=True)
class KoszulNecessaryVerdict:
    """Outcome of the chi-based necessary condition for Koszulity."""

    n_max: int
    refuted_at: int | None

    @property
    def consistent(self) -> bool:
        return self.refuted_at is None

    def describe(self) -> str:
        if self.refuted_at is None:
            return f"consistent up to degree {self.n_max}"
        return f"refuted at {self.refuted_at}"


def koszul_necessary(algebra: GradedAlgebra, n_max: int) -> KoszulNecessaryVerdict:
    """Least positive degree with nonzero chi, if any.

    A nonzero value refutes Koszulity; all zero is necessary but not
    sufficient.
    """
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    chi = chi_direct(algebra, n_max)
    for n in range(1, n_max + 1):
        if chi[n] != 0:
            return KoszulNecessaryVerdict(n_max, n)
    return KoszulNecessaryVerdict(n_max, None)


# ---------------------------------------------------------------------------
# Closed forms for the catalogued cubic algebras.

def _geometric(step: int, exponent: int, order: int) -> IntSeries:
    """(1 - t^step) ** -exponent, truncated."""
    factor = IntSeries([1] + [0] * (step - 1) + [-1], order)
    denominator = series_one(order)
    for _ in range(exponent):
        denominator = denominator * factor
    return series_quotient(series_one(order), denominator)


def _integer(value: Fraction, what: str) -> int:
    if value.denominator != 1:
        raise NonIntegerCoefficientError(f"{what} = {value} is not an integer")
    return int(value)


def parafermion_hilbert_closed(D: int, n_max: int) -> IntSeries:
    """Hilbert series of the parafermionic algebra on D generators.

    Product of a free polynomial part on D degree-1 variables with
    D(D-1)/2 degree-2 variables.
    """
    if D < 1:
        raise ValueError("D must be positive")
    return _geometric(1, D, n_max) * _geometric(2, D * (D - 1) // 2, n_max)


def paraboson_hilbert_closed(D: int, n_max: int) -> IntSeries:
    """Hilbert series of the parabosonic algebra on D generators.

    Exterior part on D degree-1 variables times D(D+1)/2 symmetric
    degree-2 variables; equal to the parafermionic series.
    """
    if D < 1:
        raise ValueError("D must be positive")
    binomial = IntSeries([comb(D, k) for k in range(D + 1)], n_max)
    return binomial * _geometric(2, D * (D + 1) // 2, n_max)


def parafermion_q_closed(D: int, n_max: int) -> IntSeries:
    """The signed dual-dimension series of the parafermionic algebra.

    1 - D t + D(D^2-1)/3 t^3 - D^2(D^2-1)/12 t^4; both cubic and quartic
    coefficients are integers for every D.
    """
    if D < 1:
        raise ValueError("D must be positive")
    c3 = _integer(Fraction(D * (D * D - 1), 3), "cubic coefficient")
    c4 = _integer(Fraction(D * D * (D * D - 1), 12), "quartic coefficient")
    return IntSeries([1, -D, 0, c3, -c4], n_max)


def parafermion_chi_closed(D: int, n_max: int) -> IntSeries:
    """chi of the parafermionic algebra, Q.H from the closed forms of both."""
    return parafermion_q_closed(D, n_max) * parafermion_hilbert_closed(D, n_max)


CLOSED_FORMS = {
    "parafermion-hilbert": parafermion_hilbert_closed,
    "paraboson-hilbert": paraboson_hilbert_closed,
    "parafermion-q": parafermion_q_closed,
    "parafermion-chi": parafermion_chi_closed,
}


def closed_form_series(name: str, D: int, n_max: int) -> IntSeries:
    try:
        fn = CLOSED_FORMS[name]
    except KeyError:
        raise ValueError(f"unknown closed form {name!r}; "
                         f"choose from {sorted(CLOSED_FORMS)}") from None
    return fn(D, n_max)
