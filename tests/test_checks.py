from fractions import Fraction

from nhomalg.algebra import GradedAlgebra
from nhomalg.catalog import make_entry
from nhomalg.checks import run_checks
from nhomalg.relfile import parse_relations


def test_run_checks_parafermion_all_pass():
    entry = make_entry("parafermion", D=2)
    results = run_checks(GradedAlgebra(entry.presentation), 5, entry)
    assert results and all(r.passed for r in results)
    names = [r.name for r in results]
    assert any("rank-nullity" in n for n in names)
    assert any("invariant under all elementary derivations" in n for n in names)


def test_run_checks_plactic_includes_expected_failure_invariant():
    entry = make_entry("plactic", D=2)
    results = run_checks(GradedAlgebra(entry.presentation), 5, entry)
    assert all(r.passed for r in results)
    assert any("not invariant" in r.name for r in results)
    assert any("tableau counts" in r.name for r in results)


def test_run_checks_family_member():
    entry = make_entry("artin_schelter", q=2)
    results = run_checks(GradedAlgebra(entry.presentation), 4, entry)
    assert all(r.passed for r in results)
    assert any("central" in r.name for r in results)


def test_centrality_checked_only_where_the_element_is_central():
    # e1e2 - (1/q) e2e1 is central for r = 1, e1e2 - (1/r) e2e1 for q = 1;
    # elsewhere the family has no central element of that shape.
    for q, r, checked in ((2, 1, True), (1, 3, True), (Fraction(1, 2), 1, True),
                          (Fraction(682, 967), Fraction(361, 220), False),
                          (3, 2, False), (2, Fraction(1, 2), False)):
        entry = make_entry("artin_schelter", q=Fraction(q), r=Fraction(r))
        results = run_checks(GradedAlgebra(entry.presentation), 4, entry)
        assert all(result.passed for result in results), (q, r)
        names = [result.name for result in results]
        assert ("quadratic element is central" in names) == checked, (q, r)


def test_run_checks_on_file_algebra_without_entry():
    pres = parse_relations("D=2 N=3\n1*221 - 1*212\n1*211 - 1*121\n")
    results = run_checks(GradedAlgebra(pres), 4, None)
    assert results and all(r.passed for r in results)
