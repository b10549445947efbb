"""The cubic algebras under study and their structural checkers.

Constructors return presentations of the parafermionic, parabosonic and
plactic algebras on D generators and of the two-parameter family on two
generators.  The closed forms are fed to ``rref`` as they stand: the
bracket relations from the index triples with i <= j only, the
parafermionic dual span from abc - cba with a < c and the symmetrisers
of the multisets, each row once.  The checkers verify the explicit dual
relation spans, the infinitesimal linear-group invariance of a relation
space on the 2D - 1 derivations that generate gl(D), and the centrality
of the quadratic element in the one-parameter family.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations_with_replacement, permutations

from .algebra import GradedAlgebra, Presentation
from .linalg import (
    Subspace,
    TensorVector,
    _map_words,
    rref,
    word_vector,
)

CATALOG_NAMES = ("parafermion", "paraboson", "plactic", "artin_schelter")


# The coefficients the closed forms produce, as Fractions made once.
_COEFFS = {c: Fraction(c) for c in (-2, -1, 1, 2)}


def _vectors(rows) -> list[TensorVector]:
    """Degree-3 vectors of rows of ``(word, integer coeff)`` terms, with
    coefficients in ``_COEFFS`` once added up; repeated words are added up
    and cancelled ones dropped, so no vector needs checks."""
    vectors = []
    for terms in rows:
        acc: dict = {}
        for word, coeff in terms:
            acc[word] = acc.get(word, 0) + coeff
        row = {word: _COEFFS[c] for word, c in acc.items() if c}
        if row:
            vectors.append(TensorVector._trusted(3, row))
    return vectors


def _bracket(D: int, sign: int) -> Presentation:
    """The span of ijk + sign jik - kij - sign kji: [[x,y],z] at sign -1,
    [{x,y},z] at sign 1.

    Swapping i and j multiplies the row by sign, as sign^2 = 1, so only
    the rows with i <= j are generated; every added-up coefficient is
    -2, -1, 1 or 2."""
    if D < 1:
        raise ValueError("D must be positive")
    letters = range(1, D + 1)
    rows = ((((i, j, k), 1), ((j, i, k), sign), ((k, i, j), -1), ((k, j, i), -sign))
            for i in letters for j in range(i, D + 1) for k in letters)
    return Presentation(D, 3, rref(_vectors(rows), D, 3))


def parafermion(D: int) -> Presentation:
    """Relations [[x,y],z] = 0: the span of ijk - jik - kij + kji."""
    return _bracket(D, -1)


def paraboson(D: int) -> Presentation:
    """Relations [{x,y},z] = 0: the span of ijk + jik - kij - kji."""
    return _bracket(D, 1)


def plactic(D: int) -> Presentation:
    """Knuth relations: lmk = lkm for k < l <= m and kml = mkl for k <= l < m."""
    if D < 1:
        raise ValueError("D must be positive")
    letters = range(1, D + 1)
    rows = []
    for k in letters:
        for l in letters:
            for m in letters:
                if k < l <= m:
                    rows.append((((l, m, k), 1), ((l, k, m), -1)))
                if k <= l < m:
                    rows.append((((k, m, l), 1), ((m, k, l), -1)))
    return Presentation(D, 3, rref(_vectors(rows), D, 3))


def artin_schelter(q, r) -> Presentation:
    """Two-generator cubic family: e2 e1^2 + qr e1^2 e2 - (q+r) e1 e2 e1 = 0
    and the relation with the generators swapped.  Symmetric in q and r;
    qr = 0 is the plactic degeneration."""
    q = Fraction(q)
    r = Fraction(r)
    qr = q * r
    s = q + r
    vectors = [
        TensorVector(3, [((2, 1, 1), 1), ((1, 1, 2), qr), ((1, 2, 1), -s)]),
        TensorVector(3, [((2, 2, 1), 1), ((1, 2, 2), qr), ((2, 1, 2), -s)]),
    ]
    return Presentation(2, 3, rref(vectors, 2, 3))


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    D: int
    presentation: Presentation
    q: Fraction | None = None
    r: Fraction | None = None


def make_entry(name: str, D: int | None = None, q=None, r=None) -> CatalogEntry:
    """Build a catalogue entry by name; the two-parameter family fixes D = 2."""
    if name in ("parafermion", "paraboson", "plactic"):
        if D is None:
            raise ValueError(f"{name} requires D")
        if q is not None or r is not None:
            raise ValueError(f"{name} takes no q or r parameters")
        builder = {"parafermion": parafermion, "paraboson": paraboson,
                   "plactic": plactic}[name]
        return CatalogEntry(name, D, builder(D))
    if name == "artin_schelter":
        if D not in (None, 2):
            raise ValueError("the two-parameter family is defined for D = 2 only")
        if q is None:
            raise ValueError("artin_schelter requires q")
        r = 1 if r is None else r
        return CatalogEntry(name, 2, artin_schelter(q, r),
                            Fraction(q), Fraction(r))
    raise ValueError(f"unknown catalogue name {name!r}; choose from {CATALOG_NAMES}")


# ---------------------------------------------------------------------------
# Dual relation spans.

def _parafermion_dual_span(D: int) -> list[TensorVector]:
    """abc - cba for a < c together with the symmetric tensors.

    The symmetric part is spanned by the symmetrisers of the multisets
    a <= b <= c, each the sum of the distinct permutations of abc; with
    a < c every abc - cba is nonzero and appears once up to sign."""
    letters = range(1, D + 1)
    rows = [[((a, b, c), 1), ((c, b, a), -1)]
            for a in letters for b in letters for c in range(a + 1, D + 1)]
    rows.extend([(word, 1) for word in dict.fromkeys(permutations(multiset))]
                for multiset in combinations_with_replacement(letters, 3))
    return _vectors(rows)


def _plactic_dual_span(D: int) -> list[TensorVector]:
    """The four explicit families spanning the annihilator of the Knuth span."""
    letters = range(1, D + 1)
    rows = []
    for i in letters:
        for j in letters:
            for k in letters:
                if i < j <= k:
                    rows.append((((j, k, i), 1), ((j, i, k), 1)))
                if i <= j < k:
                    rows.append((((i, k, j), 1), ((k, i, j), 1)))
                if i <= j <= k:
                    rows.append((((i, j, k), 1),))
                if i < j < k:
                    rows.append((((k, j, i), 1),))
    return _vectors(rows)


@dataclass(frozen=True)
class DualRelationsReport:
    name: str
    D: int
    dim_relations: int
    dim_annihilator: int
    ambient_dim: int
    dimension_identity: bool
    spans_match: bool

    @property
    def passed(self) -> bool:
        return self.dimension_identity and self.spans_match


def dual_relations_check(entry: CatalogEntry, ann: Subspace) -> DualRelationsReport:
    """Compare the computed annihilator ``ann`` of the entry's relations,
    which the caller holds as the relations of the dual presentation, with
    the explicit dual span.

    Only the parafermionic and plactic algebras come with explicit spans.
    """
    if entry.name not in ("parafermion", "plactic"):
        raise ValueError(f"no explicit dual span for {entry.name!r}")
    relations = entry.presentation.relations
    D = entry.D
    span = (_parafermion_dual_span(D) if entry.name == "parafermion"
            else _plactic_dual_span(D))
    explicit = rref(span, D, 3)
    return DualRelationsReport(
        name=entry.name,
        D=D,
        dim_relations=relations.dim,
        dim_annihilator=ann.dim,
        ambient_dim=D ** 3,
        dimension_identity=relations.dim + ann.dim == D ** 3,
        spans_match=explicit == ann,
    )


# ---------------------------------------------------------------------------
# Infinitesimal linear-group invariance.

def apply_derivation(v: TensorVector, i: int, j: int) -> TensorVector:
    """Derivation sending generator j to generator i (others to zero),
    extended over tensor factors by the Leibniz rule."""
    acc: dict = {}
    for word, coeff in v.terms.items():
        for pos, letter in enumerate(word):
            if letter == j:
                image = word[:pos] + (i,) + word[pos + 1:]
                acc[image] = acc.get(image, 0) + coeff
    return TensorVector(v.degree, acc)


@dataclass(frozen=True)
class DerivationFailure:
    i: int
    j: int
    row_index: int
    image: TensorVector
    witness: TensorVector


@dataclass(frozen=True)
class GlInvarianceReport:
    D: int
    results: tuple[tuple[int, int, bool], ...]
    failures: tuple[DerivationFailure, ...]

    @property
    def invariant(self) -> bool:
        return not self.failures


def gl_invariance(relations: Subspace) -> GlInvarianceReport:
    """Check that gl(D) maps the relation span into itself, on the 2D - 1
    elementary derivations E_11, E_{k,k+1} and E_{k+1,k} (k < D), in that
    order.

    The derivations that map a subspace into itself are closed under
    linear combinations and commutators, and these generate gl(D) as a
    Lie algebra: the E_{k,k+1} and E_{k+1,k} are the Chevalley generators
    of sl(D), and E_11 adds the trace.  So the span is invariant under
    every E_ij exactly when it is invariant under these; the tests
    compare the verdict with all D^2 of them.  Each image is formed on
    the canonical integer rows that use the letter j and tested by its
    remainder.  For a failing derivation the first escaping image is
    reported as a vector, with its canonical remainder normalised to
    leading coefficient 1 as the witness vector.
    """
    D = relations.alphabet
    rows = list(relations._ints.items())
    # A derivation sending j elsewhere kills the rows without the letter j.
    holding: dict[int, list[int]] = {}
    for index, (_, row) in enumerate(rows):
        for letter in set(chain.from_iterable(row)):
            holding.setdefault(letter, []).append(index)
    results = []
    failures = []
    generators = [(1, 1)] + [pair for k in range(1, D)
                             for pair in ((k, k + 1), (k + 1, k))]
    for i, j in generators:
        def images(word):
            return [word[:pos] + (i,) + word[pos + 1:]
                    for pos, letter in enumerate(word) if letter == j]
        index = next((index for index in holding.get(j, ())
                      if relations._remainder(_map_words(rows[index][1], images))[0]), None)
        if index is not None:
            pivot, row = rows[index]
            vector = TensorVector._trusted(
                relations.degree, {w: Fraction(c, row[pivot]) for w, c in row.items()})
            image = apply_derivation(vector, i, j)
            remainder = relations.reduce(image)
            lead = max(remainder.terms)
            witness = remainder * (1 / remainder.terms[lead])
            failures.append(DerivationFailure(i, j, index, image, witness))
        results.append((i, j, index is None))
    return GlInvarianceReport(D, tuple(results), tuple(failures))


# ---------------------------------------------------------------------------
# Centrality in the one-parameter family.

@dataclass(frozen=True)
class CentralityReport:
    q: Fraction
    n_max: int
    central: bool
    failure_degree: int | None = None
    failure_word: tuple | None = None


def centrality_check(algebra: GradedAlgebra, q, n_max: int) -> CentralityReport:
    """Verify e1 e2 - (1/q) e2 e1 commutes with the whole normal basis.

    Degree 3 covers the generators themselves; higher degrees check the
    propagated products.  Undefined at q = 0.
    """
    q = Fraction(q)
    if q == 0:
        raise ValueError("the central element is undefined at q = 0")
    if algebra.D != 2:
        raise ValueError("centrality check needs a two-generator algebra")
    if n_max < 3:
        raise ValueError("need n_max >= 3")
    central = TensorVector(2, [((1, 2), 1), ((2, 1), -1 / q)])
    for n in range(3, n_max + 1):
        for word in algebra.normal_basis(n - 2):
            b = word_vector(word)
            commutator = central.tensor(b) - b.tensor(central)
            if any(algebra.normal_coordinates(commutator)):
                return CentralityReport(q, n_max, False, n, word)
    return CentralityReport(q, n_max, True)
