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

When every relation keeps the letter content of its words and the
relations are fixed by every permutation of the letters
(:attr:`Presentation.letter_symmetric`, true of the parafermionic and
parabosonic algebras and of A_{1,1} and A_{-1,1}), each letter
permutation is an automorphism of A, of A^! and of every complex.  The
maps of a slice keep a grading by content in Z^D, content(a) +
content(c) on a cell a (x) w_c of a contraction and content(a) -
content(c) on the dualised resolution, so each slice splits into
content blocks, and the blocks of one S_D-orbit have equal ranks.  Only
the rows of one block per orbit are built, those whose content is
non-increasing (:func:`_blocks`), each weighted by the size of its
orbit; a rank is the weighted sum of the ranks of the built rows
(:func:`homology`).  Any other algebra builds every row with weight 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .algebra import GradedAlgebra, _orbit_size
from .linalg import InternalConsistencyError, Matrix, all_words
from .series import chi_direct


@dataclass(frozen=True)
class ComplexSlice:
    """Total-degree slice of a contraction, as composable matrices.

    ``positions[i]`` is (algebra degree, dual degree); ``matrices[i]``
    maps position i+1 into position i.  ``blocks[i]``, the row classes
    of ``matrices[i]`` and their weights (:func:`_blocks`), gives each
    stored row the size of the S_D-orbit of its letter content: a slice
    of a letter-symmetric algebra stores only the rows of one content per
    orbit, each matrix at its full shape.  Where ``blocks`` or its entry
    is missing, every row is stored and weighs 1.

    Consecutive compositions vanish, exactly, on the integer rows, or the
    slice is not made.  The maps keep the content, so the product of the
    stored rows of ``matrices[i]`` with ``matrices[i + 1]`` is the product
    of the whole maps on those rows: the check is exact on every row whose
    rank :func:`homology` reads.
    """

    total_degree: int
    positions: tuple[tuple[int, int], ...]
    dims: tuple[int, ...]
    matrices: tuple[Matrix, ...]
    blocks: tuple = ()

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


@cache
def _weight(left: tuple[int, ...], right: tuple[int, ...], sign: int, D: int) -> int:
    """The orbit size (:func:`nhomalg.algebra._orbit_size`) of the content
    sign content(left) + content(right)."""
    return _orbit_size(tuple(sign * left.count(x) + right.count(x) for x in range(1, D + 1)))


def _blocks(algebra: GradedAlgebra, left, right, sign: int):
    """``keep`` for :meth:`Matrix.kron_sum` on the rows (l, r), l and r
    running over the normal words ``left`` and ``right``: the content of
    row (l, r) is sign content(l) + content(r), the grading that the maps
    of a slice keep, and the table holds the orbit size of each
    representative content (:func:`_weight`) and 0 for the others.

    Every letter permutation is an automorphism of a letter-symmetric
    algebra, of its dual and of their complexes, so the content blocks of
    one orbit have equal ranks, and one block per orbit is built.  Any
    other algebra gets None: every row is built, with weight 1.
    """
    if not algebra.presentation.letter_symmetric:
        return None
    keys: tuple[dict, dict] = ({}, {})
    classes = [[ids.setdefault(tuple(sorted(w)), len(ids)) for w in words]
               for ids, words in zip(keys, (left, right))]
    table = [[_weight(lk, rk, sign, algebra.D) for rk in keys[1]] for lk in keys[0]]
    return classes[0], classes[1], table


def _differential(algebra: GradedAlgebra, n: int, m: int, j: int, keep=None) -> Matrix:
    """Matrix of the j-fold boundary from A_{n-m} (x) W_m into
    A_{n-m+j} (x) W_{m-j}, built in one sparse pass; with ``keep``
    (:func:`_blocks`) only its rows of one content per orbit.

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
                   dual.word_matrix(m - j, u, "left").transpose()), keep)


def _word_sum(algebra: GradedAlgebra, nrows: int, ncols: int, j: int, factors,
              keep=None) -> Matrix:
    """The nrows x ncols sum over the words u of length j of the Kronecker
    products of the pairs ``factors(u)``, built in one sparse pass; the
    zero matrix, with no factor built, when either side is empty."""
    if nrows == 0 or ncols == 0:
        return Matrix(nrows, ncols)
    return Matrix.kron_sum(nrows, ncols, (factors(u) for u in all_words(algebra.D, j)), keep)


def build_contraction_slice(algebra: GradedAlgebra, p: int, r: int,
                            n: int) -> ComplexSlice:
    """Total-degree-n slice of the contraction with parameters (p, r),
    graded by content(a) + content(c) on the cells a (x) w_c."""
    N = algebra.N
    if not 0 <= r < p <= N - 1:
        raise ValueError(f"need 0 <= r < p <= N-1, got p={p}, r={r}, N={N}")
    if n < 0:
        raise ValueError("total degree must be nonnegative")
    degrees = contraction_dual_degrees(N, p, r, n)
    positions = tuple((n - m, m) for m in degrees)
    dims = tuple(_cell_dim(algebra, a, m) for a, m in positions)
    dual = algebra.dual()
    blocks = tuple(_blocks(algebra, algebra.normal_basis(a), dual.normal_basis(m), 1)
                   if dims[i] and dims[i + 1] else None
                   for i, (a, m) in enumerate(positions[:-1]))
    matrices = tuple(
        _differential(algebra, n, degrees[i + 1], degrees[i + 1] - degrees[i], blocks[i])
        for i in range(len(degrees) - 1))
    return ComplexSlice(n, positions, dims, matrices, blocks)


def build_koszul_slice(algebra: GradedAlgebra, n: int) -> ComplexSlice:
    """Slice of the distinguished contraction (the one whose acyclicity
    defines Koszulity): dual degrees 0, 1, N, N+1, 2N, ..."""
    return build_contraction_slice(algebra, algebra.N - 1, 0, n)


def _rank(matrix: Matrix, keep) -> int:
    """The rank of a matrix built with ``keep`` (:func:`_blocks`): the sum
    over the weights w of w times the rank of the stored rows of weight
    w; without ``keep``, the rank."""
    if keep is None:
        return matrix.rank()
    left, right, table = keep
    width = len(right)
    groups: dict[int, list] = {}
    for i, row in matrix.rows.items():
        groups.setdefault(table[left[i // width]][right[i % width]], []).append(row)
    return sum(w * Matrix._from_ints(len(rows), matrix.ncols, dict(enumerate(rows))).rank()
               for w, rows in groups.items())


def homology(slice_: ComplexSlice) -> HomologyReport:
    """Homology of a slice from its orbit-weighted ranks: the rank of a map
    is the sum, over the orbits of contents, of the orbit size times the
    rank of the one block built (:func:`_rank`)."""
    count = len(slice_.dims)
    blocks = slice_.blocks or (None,) * len(slice_.matrices)
    ranks = [_rank(matrix, keep) for matrix, keep in zip(slice_.matrices, blocks)]
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

    The slices' Euler characteristics must be the coefficients of chi
    (:func:`euler_agrees_with_chi`, which sums the cell sizes that the
    slices are built on); if they are not, the cells are wrong and no
    homology is computed.
    """
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    if not euler_agrees_with_chi(algebra, n_max):
        raise InternalConsistencyError(
            f"slice Euler characteristics differ from chi in degrees 1..{n_max}")
    reports = tuple(homology(build_koszul_slice(algebra, n))
                    for n in range(1, n_max + 1))
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
    slice nu at the four positions, dual degrees 0, 1, 3 and 4, from the
    algebra end (0) on.  The terminal position, ``terminal_position``, is
    the last one whose W_m is nonzero, 3 unless W_4 = 0, and the positions
    strictly between it and 0 are interior.  The total degree of an
    element b in the position of dual degree m is deg(b) + 4 - m, which
    the dual boundary maps preserve.
    """

    n_max: int
    resolution_exact: bool
    resolution_failure: int | None
    cohomology: tuple[tuple[int, int, int, int], ...] | None
    interior_witnesses: tuple[tuple[int, int, int], ...]
    terminal_dims: tuple[tuple[int, int], ...]
    terminal_position: int
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
    assembled as the boundaries are (:func:`_word_sum`).  Both factors of
    a term gain the content of u, so the coboundaries keep content(a) -
    content(c) on a cell c (x) a, and only its representative rows are
    built (:func:`_blocks`).  Listing the cochain from the terminal
    position down lets the chain homology mechanics apply unchanged.
    """
    N = algebra.N
    degrees = contraction_dual_degrees(N, N - 1, 0, N + 1)
    positions = [(nu - N - 1 + m, m) for m in degrees]
    dims = [_cell_dim(algebra, a, m) for a, m in positions]
    dual = algebra.dual()
    deltas, blocks = [], []
    for i in range(1, len(degrees)):
        a, m = positions[i - 1]
        blocks.append(_blocks(algebra, dual.normal_basis(degrees[i]),
                              algebra.normal_basis(positions[i][0]), -1)
                      if dims[i] and dims[i - 1] else None)
        deltas.append(_word_sum(
            algebra, dims[i], dims[i - 1], degrees[i] - m,
            lambda u: (dual.word_matrix(m, u, "left"), algebra.word_matrix(a, u, "left")),
            blocks[-1]))
    return ComplexSlice(nu, tuple(reversed(positions)), tuple(reversed(dims)),
                        tuple(reversed(deltas)), tuple(reversed(blocks)))


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
    end = max(pos for pos, m in enumerate(contraction_dual_degrees(3, 2, 0, 4))
              if algebra.dual_dim(m))
    probe = koszul_probe(algebra, n_max)
    if not probe.consistent:
        return GorensteinReport(
            n_max=n_max,
            resolution_exact=False,
            resolution_failure=probe.first_nonacyclic,
            cohomology=None,
            interior_witnesses=(),
            terminal_dims=(),
            terminal_position=end,
            verdict="inapplicable",
        )
    cohomology = tuple(tuple(reversed(homology(_dual_slice(algebra, nu)).homology_dims))
                       for nu in range(n_max + 1))
    interior = tuple((nu, pos, dims[pos])
                     for nu, dims in enumerate(cohomology)
                     for pos in range(1, end) if dims[pos])
    terminal = tuple((nu, dims[end]) for nu, dims in enumerate(cohomology) if dims[end])
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
        terminal_position=end,
        verdict="consistent" if consistent else "violated",
    )
