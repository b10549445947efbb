from fractions import Fraction

from nhomalg import checks
from nhomalg.algebra import GradedAlgebra
from nhomalg.catalog import make_entry
from nhomalg.checks import run_checks
from nhomalg.linalg import Subspace, shift
from nhomalg.relfile import parse_relations
from nhomalg.series import IntSeries


def test_run_checks_parafermion_all_pass():
    entry = make_entry("parafermion", D=2)
    results = run_checks(GradedAlgebra(entry.presentation), 5, entry)
    assert results and all(r.passed for r in results)
    names = [r.name for r in results]
    assert "annihilator is involutive" in names
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


class SwapsDualSpaceFour(GradedAlgebra):
    """A broken algebra: W_4 is replaced by E^a (x) W_3 (x) E^b for the
    side (a, b) given, so it lies in that shift of W_3 only."""

    def __init__(self, presentation, side):
        super().__init__(presentation)
        self.side = side

    def dual_space(self, n):
        if n == 4:
            return shift(super().dual_space(3), *self.side)
        return super().dual_space(n)


def test_nest_check_catches_a_dual_space_outside_the_left_shift():
    # W_3 (x) E is not inside E (x) W_3 for the parafermionic algebra
    # (dimension 4 against the meet's 1), so the checked half fails; the
    # mirror swap E (x) W_3 passes, since the other half is not checked.
    entry = make_entry("parafermion", D=2)
    name = "dual spaces nest on both sides"
    w3 = GradedAlgebra(entry.presentation).dual_space(3)
    assert not shift(w3, 1, 0).contains_subspace(shift(w3, 0, 1))
    for side, failed in (((0, 1), [name]), ((1, 0), [])):
        results = run_checks(SwapsDualSpaceFour(entry.presentation, side), 5, entry)
        assert [r.name for r in results if not r.passed] == failed, side


class DropsOneNormalWord(GradedAlgebra):
    """A broken algebra: the normal basis of degree 4 misses its last word."""

    def normal_basis(self, n):
        words = list(super().normal_basis(n))
        if n == 4:
            words.pop()
        return {w: i for i, w in enumerate(words)}


def test_normal_basis_check_catches_a_dropped_word(monkeypatch):
    # The product routes would trip over the missing word with a KeyError;
    # they are checked elsewhere, so here they report success.
    monkeypatch.setattr(checks.series, "chi_via_product", lambda algebra, n: IntSeries([], 0))
    monkeypatch.setattr(checks.koszul, "euler_agrees_with_chi", lambda algebra, n: True)
    entry = make_entry("parafermion", D=2)
    for algebra, failed in ((GradedAlgebra(entry.presentation), []),
                            (DropsOneNormalWord(entry.presentation),
                             ["component dimension equals the normal basis size"])):
        results = run_checks(algebra, 5, entry)
        assert [r.name for r in results if not r.passed] == failed
        assert any(r.name == "component dimension equals the normal basis size"
                   and r.detail == "degrees 0..5" for r in results)


class MiscountsDegreeFour(GradedAlgebra):
    """A broken algebra: the counted dimension of degree 4 is one too many,
    while its list of normal words is right."""

    def component_dim(self, n):
        return super().component_dim(n) + (n == 4)


def test_normal_basis_check_compares_the_count_with_the_list(monkeypatch):
    monkeypatch.setattr(checks.series, "chi_via_product", lambda algebra, n: IntSeries([], 0))
    monkeypatch.setattr(checks.koszul, "euler_agrees_with_chi", lambda algebra, n: True)
    entry = make_entry("parafermion", D=2)
    for cap, failed in ((3, []), (5, ["component dimension equals the normal basis size"])):
        results = run_checks(MiscountsDegreeFour(entry.presentation), cap, entry)
        assert [r.name for r in results if not r.passed] == failed


def test_ideal_check_catches_a_corrupted_cached_component():
    # I_{N+2} is swapped, once for a copy missing its last row and once for
    # a copy with a spurious normal word; the pivots of either miss the
    # complement of the normal words or their count.
    entry = make_entry("plactic", D=2)
    n = entry.presentation.N + 2
    algebra = GradedAlgebra(entry.presentation)
    good = algebra.ideal_component(n)
    missing = Subspace._from_ints(2, n, dict(list(good._ints.items())[:-1]))
    spurious = good._extend([{next(iter(algebra.normal_basis(n))): 1}])
    name = "component dimension equals the normal basis size"
    for bad in (missing, spurious):
        assert abs(bad.dim - good.dim) == 1
        algebra = GradedAlgebra(entry.presentation)
        algebra.ideal_component(n)
        algebra._ideal[n] = bad
        results = {r.name: r for r in run_checks(algebra, 6, entry)}
        assert not results[name].passed
        assert results[name].detail == "degrees 0..6"


def test_ideal_check_makes_two_joins_per_degree(monkeypatch):
    # One join builds the stepwise I_n at each degree above N; the other
    # checks make two joins, the annihilator of R, which the dual
    # presentation holds and the explicit-span item reads, and its own
    # annihilator.
    calls = []
    extend = Subspace._extend

    def counted(self, rows):
        calls.append(self.degree)
        return extend(self, rows)

    monkeypatch.setattr(Subspace, "_extend", counted)
    entry = make_entry("plactic", D=2)
    counts = []
    for n_max in (6, 9, 12):
        calls.clear()
        results = run_checks(GradedAlgebra(entry.presentation), n_max, entry)
        assert all(r.passed for r in results)
        counts.append(len(calls))
    assert counts == [5, 8, 11]


def test_involution_check_catches_a_dropped_annihilator_row(monkeypatch):
    # The double annihilator is one row short, so it no longer returns R;
    # nothing else reads this binding.
    real = checks.annihilator

    def dropped(space):
        ann = real(space)
        return Subspace._from_ints(ann.alphabet, ann.degree,
                                   dict(list(ann._ints.items())[:-1]))

    entry = make_entry("plactic", D=2)
    for patched, failed in ((False, []), (True, ["annihilator is involutive"])):
        if patched:
            monkeypatch.setattr(checks, "annihilator", dropped)
        results = run_checks(GradedAlgebra(entry.presentation), 5, entry)
        assert [r.name for r in results if not r.passed] == failed
        assert any(r.name == "annihilator is involutive"
                   and r.detail.endswith("dim R = 2, dim ann = 6, ambient = 8")
                   for r in results)


def test_checks_report_a_raised_mismatch_as_a_failed_row(monkeypatch):
    # A mismatch between the chi routes, or between the tableau counts and
    # the graded dimensions, raises; ``checks`` reports it as a failed row
    # with the error as its detail.
    entry = make_entry("plactic", D=2)
    monkeypatch.setattr(checks.series, "chi_direct",
                        lambda algebra, n_max: IntSeries([1] + [7] * n_max, n_max))
    monkeypatch.setattr(checks.tableaux, "count_tableaux",
                        lambda D, n_max, word_limit: [1] + [9] * n_max)
    results = run_checks(GradedAlgebra(entry.presentation), 4, entry)
    failed = {r.name: r.detail for r in results if not r.passed}
    assert failed == {
        "chi by product equals chi by dimensions":
            "chi routes disagree: product (1, 0, 0, 0, 0) vs direct (1, 7, 7, 7, 7)",
        "tableau counts match graded dimensions":
            "dimension mismatch at degree 1: 9 tableaux, plactic 2, parafermionic 2",
    }


class MiscountsIntersectionFour(GradedAlgebra):
    """A broken algebra: the intersection route counts one row too many
    in degree 4, while the quotient route and W_4 itself are right."""

    def intersection_dims(self, n_max):
        return [d + (n == 4) for n, d in enumerate(super().intersection_dims(n_max))]


def test_dual_routes_check_catches_an_intersection_off_by_one():
    entry = make_entry("parafermion", D=2)
    name = "dual dimensions by quotient and by intersection"
    for cap, failed in ((3, []), (5, [name])):
        results = run_checks(MiscountsIntersectionFour(entry.presentation), cap, entry)
        assert [r.name for r in results if not r.passed] == failed, cap
    detail = next(r.detail for r in results if r.name == name)
    assert detail == "quotient [1, 2, 4, 2, 1, 0], intersection [1, 2, 4, 2, 2, 0]"
