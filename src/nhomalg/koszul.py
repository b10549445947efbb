"""Contractions of the canonical complex of a homogeneous algebra.

The boundary map sends a (x) (e_1 ... e_m) to (a e_1) (x) (e_2 ... e_m);
contracting the resulting N-complex by alternating two powers of the
boundary yields honest complexes.  This module builds their finite
total-degree slices as explicit rational matrices, computes exact
homology, runs the Koszulity probe (acyclicity of every positive-degree
slice of the distinguished contraction), and runs the Gorenstein probe
on the dualised resolution of a cubic algebra.  Each boundary map is a
sum of Kronecker products, one per word prefix, accumulated into one
sparse matrix in a single pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import GradedAlgebra
from .linalg import InternalConsistencyError, Matrix
from .series import chi_direct, koszul_necessary


@dataclass(frozen=True)
class ComplexSlice:
    """Total-degree slice of a contraction, as composable matrices.

    ``positions[i]`` is (algebra degree, dual degree); ``matrices[i]``
    maps position i+1 into position i; consecutive compositions vanish.
    """

    total_degree: int
    positions: tuple[tuple[int, int], ...]
    dims: tuple[int, ...]
    matrices: tuple[Matrix, ...]


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


def _splitting_matrices(algebra: GradedAlgebra, m: int, j: int) -> dict[tuple, Matrix]:
    """Tail coordinates of the dual spaces: one matrix per length-j prefix.

    Every row of the degree-m dual space splits as a sum of prefix words
    tensor tails, and nesting guarantees each tail lies in the degree
    m - j dual space; a tail escaping it is a construction bug.  On the
    integer rows, the coordinate of a tail of row c (pivot coefficient L)
    over the target row of pivot p is the tail's coefficient at p over L.
    """
    source = algebra.dual_space(m)
    target = algebra.dual_space(m - j)
    index = {p: i for i, p in enumerate(target.pivots)}
    by_prefix: dict[tuple, dict[int, dict]] = {}
    for c, (pivot, row) in enumerate(source._ints.items()):
        lead = row[pivot]
        tails: dict[tuple, dict] = {}
        for word, coeff in row.items():
            tails.setdefault(word[:j], {})[word[j:]] = coeff
        for prefix, tail in tails.items():
            if target._remainder(tail)[0]:
                raise InternalConsistencyError(
                    f"tail of a degree-{m} dual row escapes the degree-{m - j} "
                    "dual space")
            rows = by_prefix.setdefault(prefix, {})
            for i, value in sorted((index[p], v) for p, v in tail.items() if p in index):
                rows.setdefault(i, {})[c] = Fraction(value, lead)
    return {prefix: Matrix(target.dim, source.dim, rows)
            for prefix, rows in by_prefix.items()}


def _differential(algebra: GradedAlgebra, n: int, m: int, j: int) -> Matrix:
    """Matrix of the j-fold boundary from A_{n-m} (x) W_m into
    A_{n-m+j} (x) W_{m-j}, in normal-basis (x) dual-row coordinates:
    the sum over length-j prefixes of (right multiplication by the
    prefix) (x) (tail coordinates), built in one sparse pass."""
    a = n - m
    source_w = algebra.dual_dim(m)
    target_w = algebra.dual_dim(m - j)
    source_a = algebra.component_dim(a) if a >= 0 else 0
    target_a = algebra.component_dim(a + j) if a + j >= 0 else 0
    nrows, ncols = target_a * target_w, source_a * source_w
    if nrows == 0 or ncols == 0:
        return Matrix.zero(nrows, ncols)
    return Matrix.kron_sum(nrows, ncols, (
        (algebra.word_matrix(a, prefix, "right"), tails)
        for prefix, tails in sorted(_splitting_matrices(algebra, m, j).items())))


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
    dims = tuple(algebra.component_dim(a) * algebra.dual_dim(m)
                 for a, m in positions)
    matrices = tuple(
        _differential(algebra, n, degrees[i + 1], degrees[i + 1] - degrees[i])
        for i in range(len(degrees) - 1))
    for i in range(len(matrices) - 1):
        if not matrices[i].mul(matrices[i + 1]).is_zero():
            raise InternalConsistencyError(
                f"boundary composition nonzero between positions {i + 2} "
                f"and {i} of the degree-{n} slice")
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
    if sum((-1) ** i * h for i, h in enumerate(hom)) != euler:
        raise InternalConsistencyError(
            "alternating homology sum differs from the Euler characteristic")
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

    The verdict is checked against the series-level necessary condition:
    whenever chi refutes Koszulity the probe must have found homology no
    later.
    """
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    reports = tuple(homology(build_koszul_slice(algebra, n))
                    for n in range(1, n_max + 1))
    first = next((r.total_degree for r in reports if not r.is_acyclic), None)
    necessary = koszul_necessary(algebra, n_max)
    if necessary.refuted_at is not None and (first is None or first > necessary.refuted_at):
        raise InternalConsistencyError(
            f"chi refutes Koszulity at {necessary.refuted_at} but the probe "
            f"found no homology there")
    return KoszulProbeReport(n_max, reports, first)


def euler_agrees_with_chi(algebra: GradedAlgebra, n_max: int) -> bool:
    """Alternating homology sums of the slices against the chi series."""
    chi = chi_direct(algebra, n_max)
    for n in range(1, n_max + 1):
        report = homology(build_koszul_slice(algebra, n))
        if sum((-1) ** i * h for i, h in enumerate(report.homology_dims)) != chi[n]:
            return False
    return True


# ---------------------------------------------------------------------------
# Gorenstein probe on the dualised resolution (cubic, finite dual case).

_DUAL_PATTERN = (0, 1, 3, 4)


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

    Dualising turns each free left module on a dual space into a free
    right module on its linear dual; the structure tensors transpose and
    the word factors act by left multiplication.  Each coboundary is
    built in one sparse pass.  Listing the cochain from the terminal
    position down lets the chain homology mechanics apply unchanged.
    """
    top = _DUAL_PATTERN[-1]
    a_degrees = [nu - top + m for m in _DUAL_PATTERN]
    w_dims = [algebra.dual_dim(m) for m in _DUAL_PATTERN]
    a_dims = [algebra.component_dim(k) if k >= 0 else 0 for k in a_degrees]
    dims = [w * a for w, a in zip(w_dims, a_dims)]
    deltas = []
    for i in range(1, len(_DUAL_PATTERN)):
        j = _DUAL_PATTERN[i] - _DUAL_PATTERN[i - 1]
        if dims[i] and dims[i - 1]:
            delta = Matrix.kron_sum(dims[i], dims[i - 1], (
                (tails.transpose(), algebra.word_matrix(a_degrees[i - 1], prefix, "left"))
                for prefix, tails in sorted(
                    _splitting_matrices(algebra, _DUAL_PATTERN[i], j).items())))
        else:
            delta = Matrix.zero(dims[i], dims[i - 1])
        deltas.append(delta)
    for i in range(len(deltas) - 1):
        if not deltas[i + 1].mul(deltas[i]).is_zero():
            raise InternalConsistencyError(
                f"dual boundary composition nonzero in total degree {nu}")
    return ComplexSlice(
        nu,
        tuple((a_degrees[i], _DUAL_PATTERN[i]) for i in reversed(range(4))),
        tuple(reversed(dims)),
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
