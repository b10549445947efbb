"""Truncated integer power series and the series attached to an algebra.

Covers the Poincare (Hilbert) series, the signed series Q built from the
dual components in degrees 0 and 1 mod N, the Euler-characteristic
series chi computed by two independent routes, and the resulting
necessary condition for Koszulity.  Every series here is read off an
algebra; the closed forms of the catalogued families live with the
tests, as the references these series are compared with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .algebra import GradedAlgebra
from .linalg import InternalConsistencyError


class TruncationError(IndexError):
    """A coefficient beyond the reliable truncation order was requested."""


class NonIntegerCoefficientError(ValueError):
    """An :class:`IntSeries` was given a coefficient that is not an integer."""


class IntSeries:
    """Integer power series known up to a truncation order (inclusive).

    Reading past the truncation order is a hard error, never a silent
    zero; a product is known up to the lower order of its factors.
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
