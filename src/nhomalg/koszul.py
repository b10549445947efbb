"""Contractions of the canonical complex of a homogeneous algebra.

The boundary map sends a (x) (e_1 ... e_m) to (a e_1) (x) (e_2 ... e_m);
contracting the resulting N-complex by alternating two powers of the
boundary yields honest complexes.  This module builds their finite
total-degree slices as integer rows over one scale per matrix, computes
exact homology, runs the Koszulity probe (acyclicity of every
positive-degree slice of the distinguished contraction), and runs the
Gorenstein probe on the dualised resolution of a cubic algebra.  The
dual spaces are W_m = (A^!_m)^*, in the basis dual to the normal words
of the dual algebra A^!, so both factors of every cell come from the
word matrices of A and of A^!: each boundary map is a sum over word
prefixes u of Kronecker products, right multiplication by u in A times
sigma_u = (L^!_u)^T, the transposed left multiplication by u in A^!,
accumulated into one sparse matrix in a single pass.  A slice's Euler
characteristic depends only on its cell sizes (:func:`_cell_dim`), so
its identity with chi is checked with no slice built.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import GradedAlgebra
from .linalg import InternalConsistencyError, Matrix, all_words
from .series import chi_direct


@dataclass(frozen=True)
class ComplexSlice:
    """Total-degree slice of a contraction, as composable matrices.

    ``positions[i]`` is (algebra degree, dual degree); ``matrices[i]``
    maps position i+1 into position i; consecutive compositions vanish,
    exactly, on the integer rows, or the slice is not made.
    """

    total_degree: int
    positions: tuple[tuple[int, int], ...]
    dims: tuple[int, ...]
    matrices: tuple[Matrix, ...]

    def __post_init__(self):
        for i in range(len(self.matrices) - 1):
            if not self.matrices[i].mul(self.matrices[i + 1]).is_zero():
                raise InternalConsistencyError(
                    f"boundary composition nonzero between positions {i + 2} "
                    f"and {i} of the degree-{self.total_degree} slice")


@dataclass(frozen=True)
class HomologyReport:
    """Exact homology of a slice: per position the kernel dimension of the
    outgoing map, the rank of the incoming map, and their difference."""

    total_degree: int
    positions: tuple[tuple[int, int], ...]
    dims: tuple[int, ...]
    kernel_dims: tuple[int, ...]
    image_dims: tuple[int, ...]
    homology_dims: tuple[int, ...]
    euler: int

    @property
    def is_acyclic(self) -> bool:
        return all(h == 0 for h in self.homology_dims)


def contraction_dual_degrees(N: int, p: int, r: int, limit: int) -> list[int]:
    """Dual degrees of the contraction ending at r, ascending, up to limit.

    Starting from r the degrees alternately grow by N - p and by p, so
    the maps into them are alternately the (N-p)-fold and p-fold
    boundaries.
    """
    degrees = []
    m = r
    toggle = 0
    while m <= limit:
        degrees.append(m)
        m += (N - p) if toggle == 0 else p
        toggle ^= 1
    return degrees


def _cell_dim(algebra: GradedAlgebra, a: int, m: int) -> int:
    """Size of the slice position A_a (x) W_m; 0 for a < 0."""
    return algebra.component_dim(a) * algebra.dual_dim(m) if a >= 0 else 0


def _differential(algebra: GradedAlgebra, n: int, m: int, j: int) -> Matrix:
    """Matrix of the j-fold boundary from A_{n-m} (x) W_m into
    A_{n-m+j} (x) W_{m-j}, built in one sparse pass.

    W_m = (A^!_m)^* has the basis dual to the normal words of A^!_m:
    the functional w_b reads the coefficient at b of a word's normal
    form in A^!.  Split by its length-j prefixes u, w_b is
    sum_u u (x) sigma_u(w_b), and sigma_u(w_b) reads, on a normal word c
    of A^!_{m-j}, the coefficient at b of u.c: sigma_u is the transpose
    of left multiplication by u in A^!.  The boundary is the sum over u
    of (right multiplication by u in A) (x) sigma_u.  Another basis of
    W_m, such as the rows of W_m by intersection, multiplies each
    matrix by invertible factors on both sides, so no rank changes.
    """
    dual = algebra.dual()
    return _word_sum(
        algebra, _cell_dim(algebra, n - m + j, m - j), _cell_dim(algebra, n - m, m), j,
        lambda u: (algebra.word_matrix(n - m, u, "right"),
                   dual.word_matrix(m - j, u, "left").transpose()))


def _word_sum(algebra: GradedAlgebra, nrows: int, ncols: int, j: int, factors) -> Matrix:
    """The nrows x ncols sum over the words u of length j of the Kronecker
    products of the pairs ``factors(u)``, built in one sparse pass; the
    zero matrix, with no factor built, when either side is empty."""
    if nrows == 0 or ncols == 0:
        return Matrix(nrows, ncols)
    return Matrix.kron_sum(nrows, ncols, (factors(u) for u in all_words(algebra.D, j)))


def build_contraction_slice(algebra: GradedAlgebra, p: int, r: int,
                            n: int) -> ComplexSlice:
    """Total-degree-n slice of the contraction with parameters (p, r)."""
    N = algebra.N
    if not 0 <= r < p <= N - 1:
        raise ValueError(f"need 0 <= r < p <= N-1, got p={p}, r={r}, N={N}")
    if n < 0:
        raise ValueError("total degree must be nonnegative")
    degrees = contraction_dual_degrees(N, p, r, n)
    positions = tuple((n - m, m) for m in degrees)
    dims = tuple(_cell_dim(algebra, a, m) for a, m in positions)
    matrices = tuple(
        _differential(algebra, n, degrees[i + 1], degrees[i + 1] - degrees[i])
        for i in range(len(degrees) - 1))
    return ComplexSlice(n, positions, dims, matrices)


def build_koszul_slice(algebra: GradedAlgebra, n: int) -> ComplexSlice:
    """Slice of the distinguished contraction (the one whose acyclicity
    defines Koszulity): dual degrees 0, 1, N, N+1, 2N, ..."""
    return build_contraction_slice(algebra, algebra.N - 1, 0, n)


def homology(slice_: ComplexSlice) -> HomologyReport:
    count = len(slice_.dims)
    ranks = [matrix.rank() for matrix in slice_.matrices]
    kernel = [slice_.dims[i] - (ranks[i - 1] if i else 0) for i in range(count)]
    image = [ranks[i] if i < len(ranks) else 0 for i in range(count)]
    hom = [kernel[i] - image[i] for i in range(count)]
    if any(h < 0 for h in hom):
        raise InternalConsistencyError("negative homology dimension")
    euler = sum((-1) ** i * d for i, d in enumerate(slice_.dims))
    return HomologyReport(slice_.total_degree, slice_.positions, slice_.dims,
                          tuple(kernel), tuple(image), tuple(hom), euler)


@dataclass(frozen=True)
class KoszulProbeReport:
    n_max: int
    reports: tuple[HomologyReport, ...]
    first_nonacyclic: int | None

    @property
    def consistent(self) -> bool:
        return self.first_nonacyclic is None

    def describe(self) -> str:
        if self.consistent:
            return f"Koszul-consistent up to degree {self.n_max}"
        return f"nonzero homology at degree {self.first_nonacyclic}"


def koszul_probe(algebra: GradedAlgebra, n_max: int) -> KoszulProbeReport:
    """Homology of every positive-degree slice up to n_max, by degree.

    Each slice's Euler characteristic, read off its dimensions, must be
    the coefficient of chi in its degree (:func:`euler_agrees_with_chi`);
    a slice that differs was built with the wrong cells.
    """
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    reports = tuple(homology(build_koszul_slice(algebra, n))
                    for n in range(1, n_max + 1))
    chi = chi_direct(algebra, n_max)
    for n, report in enumerate(reports, 1):
        if report.euler != chi[n]:
            raise InternalConsistencyError(
                f"the degree-{n} slice has Euler characteristic {report.euler}, "
                f"but chi is {chi[n]}")
    first = next((r.total_degree for r in reports if not r.is_acyclic), None)
    return KoszulProbeReport(n_max, reports, first)


def euler_agrees_with_chi(algebra: GradedAlgebra, n_max: int) -> bool:
    """Alternating sums of the cell sizes of the distinguished slices,
    degrees 1..n_max, against chi; no slice is built.  For any ranks the
    alternating homology sum telescopes to this one."""
    chi = chi_direct(algebra, n_max)
    N = algebra.N
    return all(
        sum((-1) ** i * _cell_dim(algebra, n - m, m)
            for i, m in enumerate(contraction_dual_degrees(N, N - 1, 0, n))) == chi[n]
        for n in range(1, n_max + 1))


# ---------------------------------------------------------------------------
# Gorenstein probe on the dualised resolution (cubic, finite dual case).


@dataclass(frozen=True)
class GorensteinReport:
    """Outcome of dualising the finite free resolution of a cubic algebra.

    ``cohomology[nu]`` lists the cohomology dimensions of the total-degree
    slice nu at the four positions, ordered from the algebra end (0) to
    the terminal position (3); positions 1 and 2 are interior.  The total
    degree of an element b in the position of dual degree m is
    deg(b) + 4 - m, which the dual boundary maps preserve.
    """

    n_max: int
    resolution_exact: bool
    resolution_failure: int | None
    cohomology: tuple[tuple[int, int, int, int], ...] | None
    interior_witnesses: tuple[tuple[int, int, int], ...]
    terminal_dims: tuple[tuple[int, int], ...]
    verdict: str

    @property
    def consistent(self) -> bool:
        return self.verdict == "consistent"


def _dual_slice(algebra: GradedAlgebra, nu: int) -> ComplexSlice:
    """The dualised resolution in total degree nu, read backwards.

    Dualising turns each free left module on a dual space W_m into a free
    right module on its linear dual A^!_m; the tail splits
    sigma_u = (L^!_u)^T of :func:`_differential` transpose back to L^!_u,
    and the word factors act by left multiplication in A.  The positions
    are those of the distinguished contraction, dual degrees 0, 1, N and
    N + 1, and each coboundary, the sum over u of L^!_u (x) L_u, is
    assembled as the boundaries are (:func:`_word_sum`).  Listing the
    cochain from the terminal position down lets the chain homology
    mechanics apply unchanged.
    """
    N = algebra.N
    degrees = contraction_dual_degrees(N, N - 1, 0, N + 1)
    positions = [(nu - N - 1 + m, m) for m in degrees]
    dims = [_cell_dim(algebra, a, m) for a, m in positions]
    dual = algebra.dual()
    deltas = []
    for i in range(1, len(degrees)):
        a, m = positions[i - 1]
        deltas.append(_word_sum(
            algebra, dims[i], dims[i - 1], degrees[i] - m,
            lambda u: (dual.word_matrix(m, u, "left"), algebra.word_matrix(a, u, "left"))))
    return ComplexSlice(nu, tuple(reversed(positions)), tuple(reversed(dims)),
                        tuple(reversed(deltas)))


def gorenstein_probe(algebra: GradedAlgebra, n_max: int) -> GorensteinReport:
    """Dualise the finite free resolution and inspect its cohomology.

    Applicable to cubic algebras whose dual components vanish from
    degree 5 on, so the distinguished contraction is the finite complex
    on dual degrees 0, 1, 3, 4.  If that complex fails to resolve the
    trivial module the probe is inapplicable and says so; otherwise the
    verdict is consistent exactly when all interior cohomology vanishes
    and the terminal position carries a single one-dimensional class in
    exactly one total degree.
    """
    if algebra.N != 3:
        raise ValueError("the Gorenstein probe needs a cubic algebra")
    if algebra.dual_dim(5) != 0:
        raise ValueError(
            "the Gorenstein probe needs the dual components to vanish from "
            f"degree 5 on; got dimension {algebra.dual_dim(5)}")
    probe = koszul_probe(algebra, n_max)
    if not probe.consistent:
        return GorensteinReport(
            n_max=n_max,
            resolution_exact=False,
            resolution_failure=probe.first_nonacyclic,
            cohomology=None,
            interior_witnesses=(),
            terminal_dims=(),
            verdict="inapplicable",
        )
    cohomology = tuple(tuple(reversed(homology(_dual_slice(algebra, nu)).homology_dims))
                       for nu in range(n_max + 1))
    interior = tuple((nu, pos, dims[pos])
                     for nu, dims in enumerate(cohomology)
                     for pos in (1, 2) if dims[pos])
    terminal = tuple((nu, dims[3]) for nu, dims in enumerate(cohomology) if dims[3])
    consistent = (not interior
                  and len(terminal) == 1 and terminal[0][1] == 1
                  and not any(dims[0] for dims in cohomology))
    return GorensteinReport(
        n_max=n_max,
        resolution_exact=True,
        resolution_failure=None,
        cohomology=cohomology,
        interior_witnesses=interior,
        terminal_dims=terminal,
        verdict="consistent" if consistent else "violated",
    )
