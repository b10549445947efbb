"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as the
criteria execute.  All quantities are exact integers or rationals, so
every comparison is exact equality (zero tolerance).
"""

import functools
from fractions import Fraction

import pytest

from nhomalg.algebra import GradedAlgebra
from nhomalg.catalog import (
    artin_schelter,
    centrality_check,
    dual_relations_check,
    gl_invariance,
    make_entry,
    paraboson,
    parafermion,
    plactic,
)
from nhomalg.koszul import build_koszul_slice, gorenstein_probe, homology, koszul_probe
from nhomalg.linalg import TensorVector, all_words, word_vector
from nhomalg.series import chi_via_product, poincare_series
from nhomalg.tableaux import dimension_cross_check, word_to_tableau

from _oracles import parafermion_dims


def criterion(label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {label}: FAIL")
                raise
            print(f"ACCEPTANCE {label}: PASS")
        return wrapper
    return decorate


@functools.lru_cache(maxsize=None)
def algebra_of(name, D, q=None, r=None):
    builders = {"parafermion": parafermion, "paraboson": paraboson,
                "plactic": plactic}
    if name == "artin_schelter":
        return GradedAlgebra(artin_schelter(q, r))
    return GradedAlgebra(builders[name](D))


@criterion("1 hilbert-series-reproduction")
def test_criterion_1_hilbert_series():
    expected = {2: (1, 2, 4, 6, 9, 12, 16, 20), 3: (1, 3, 9, 19, 39, 69)}
    for D, dims in expected.items():
        top = len(dims) - 1
        assert tuple(parafermion_dims(D, top)) == dims
        for name in ("parafermion", "paraboson", "plactic"):
            series = poincare_series(algebra_of(name, D), top)
            assert series.coefficients() == dims, (name, D)


@criterion("2 dual-dimensions-both-routes")
def test_criterion_2_dual_dimensions():
    for D in (2, 3, 4):
        expected = [1, D, D * D, D * (D * D - 1) // 3,
                    D * D * (D * D - 1) // 12, 0, 0]
        for name in ("parafermion", "plactic"):
            algebra = algebra_of(name, D)
            via_intersection = [algebra.dual_space(n).dim for n in range(7)]
            via_quotient = [algebra.dual_dim(n) for n in range(7)]
            assert via_intersection == expected, (name, D)
            assert via_quotient == expected, (name, D)


@criterion("3 chi-identity-and-values")
def test_criterion_3_chi():
    # Identity at every catalogued algebra (the product route raises on
    # any coefficientwise mismatch with the dimension route).
    d2_algebras = [algebra_of("parafermion", 2), algebra_of("paraboson", 2),
                   algebra_of("plactic", 2),
                   algebra_of("artin_schelter", 2, q=2, r=1)]
    for algebra in d2_algebras:
        assert chi_via_product(algebra, 7).coefficients() == (1,) + (0,) * 7
    for name in ("parafermion", "plactic", "paraboson"):
        chi = chi_via_product(algebra_of(name, 3), 5)
        assert chi.coefficients()[1:5] == (0, 0, 0, 0), name
        assert chi[5] == 6 == 3 * (9 - 1) * (9 - 4) // 20, name


@criterion("4 koszulity-verdicts")
def test_criterion_4_koszul_probe():
    for algebra in (algebra_of("parafermion", 2), algebra_of("paraboson", 2),
                    algebra_of("plactic", 2),
                    algebra_of("artin_schelter", 2, q=2, r=1)):
        probe = koszul_probe(algebra, 7)
        assert probe.consistent, algebra
        assert all(report.is_acyclic for report in probe.reports)
    for name in ("parafermion", "plactic"):
        algebra = algebra_of(name, 3)
        probe = koszul_probe(algebra, 5)
        assert probe.first_nonacyclic == 5, name
        report = homology(build_koszul_slice(algebra, 5))
        alternating = sum((-1) ** i * h
                          for i, h in enumerate(report.homology_dims))
        assert alternating == 6, name


@criterion("5 family-coincidences")
def test_criterion_5_family():
    assert artin_schelter(1, 1).relations == parafermion(2).relations
    assert artin_schelter(-1, 1).relations == paraboson(2).relations
    assert artin_schelter(0, 1).relations == plactic(2).relations
    for q, r in ((2, 3), (1, 1), (Fraction(1, 2), Fraction(-2, 3))):
        assert artin_schelter(q, r).relations == artin_schelter(r, q).relations


@criterion("6 centrality")
def test_criterion_6_centrality():
    for q in (1, -1, 2, Fraction(1, 2)):
        algebra = algebra_of("artin_schelter", 2, q=Fraction(q), r=Fraction(1))
        report = centrality_check(algebra, q, 5)
        assert report.central, q


@criterion("7 combinatorial-oracle")
def test_criterion_7_combinatorics():
    assert dimension_cross_check(1, 6).counts == (1,) * 7
    assert dimension_cross_check(2, 7).counts == (1, 2, 4, 6, 9, 12, 16, 20)
    assert dimension_cross_check(3, 6).counts == (1, 3, 9, 19, 39, 69, 119)
    # Exhaustive agreement between tableau classes and quotient reduction.
    for D in (1, 2, 3):
        algebra = algebra_of("plactic", D)
        for n in range(6):
            classes = {}
            for w in all_words(D, n):
                coords = tuple(algebra.normal_coordinates(word_vector(w)))
                classes.setdefault(w, (word_to_tableau(w), coords))
            words = list(classes)
            for a in words:
                tab_a, coords_a = classes[a]
                for b in words:
                    tab_b, coords_b = classes[b]
                    assert (tab_a == tab_b) == (coords_a == coords_b), (a, b)


@criterion("8 gorenstein-probe")
def test_criterion_8_gorenstein():
    consistent = gorenstein_probe(algebra_of("parafermion", 2), 7)
    assert consistent.resolution_exact
    assert consistent.verdict == "consistent"
    violated = gorenstein_probe(algebra_of("plactic", 2), 7)
    assert violated.resolution_exact
    assert violated.verdict == "violated"
    assert violated.interior_witnesses, "expected interior cohomology"
    degree, position, dimension = violated.interior_witnesses[0]
    assert degree <= 7 and position in (1, 2) and dimension > 0
    print(f"  (plactic interior cohomology first at total degree {degree}, "
          f"position {position}, dimension {dimension})")


@criterion("9 invariance-checks")
def test_criterion_9_invariance():
    for D in (2, 3):
        assert gl_invariance(parafermion(D).relations).invariant, D
        assert gl_invariance(paraboson(D).relations).invariant, D
    report = gl_invariance(plactic(2).relations)
    assert not report.invariant
    target = TensorVector(3, {(1, 2, 2): 1, (2, 1, 2): -1})
    witnesses = [f.witness for f in report.failures]
    assert any(w == target or w == -1 * target for w in witnesses), \
        "witness 122 - 212 not produced"


@criterion("10 dual-relation-checks")
def test_criterion_10_dual_relations():
    for D in (2, 3):
        entry = make_entry("parafermion", D=D)
        report = dual_relations_check(entry, entry.presentation.dual().relations)
        assert report.passed, D
        assert report.dim_relations + report.dim_annihilator == D ** 3
    entry = make_entry("plactic", D=2)
    report = dual_relations_check(entry, entry.presentation.dual().relations)
    assert report.passed
    assert report.dim_relations + report.dim_annihilator == 8
