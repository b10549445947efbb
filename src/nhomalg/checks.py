"""Cross-module invariant battery behind the `checks` subcommand.

Runs the structural identities that must hold for every algebra at the
selected degree, plus the catalogue-specific expectations (explicit dual
spans, invariance or its known failure, centrality, tableau counts).
Each fact is checked once.  The annihilator is the relation space of the
dual algebra's presentation, which the dual dimensions are counted on,
so its involution also covers the double dual.  The series Q of signed
dual dimensions is reported in the detail of chi = H.Q: it is written
in degrees 0 and 1 mod N only, so its support needs no check.

The normal words are checked to be the complement of the pivots of the
stepwise ideal component I_n = I_{n-1} (x) E + E^(n-N) (x) R, built once
per degree, without listing the D^n words: words of degree n, none a
pivot, as many as D^n - dim I_n.  The rows of I_n themselves are
compared with the union of all shifts of R in the tests only.  A check
over a degree range that the maximum degree leaves empty says so in its
detail.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import catalog, koszul, series, tableaux
from .algebra import GradedAlgebra
from .linalg import (
    InternalConsistencyError,
    TensorVector,
    all_words,
    annihilator,
    rref,  # not called here; perfbench/test_perfbench.py checks this traced binding
    shift,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name, passed, detail=""):
    return CheckResult(name, bool(passed), detail)


def _degrees(label, low, high):
    """Detail of a check over degrees low..high, or of none when high < low."""
    if high < low:
        return f"none (max degree below {low})"
    return f"{label} {low}..{high}"


def run_checks(algebra: GradedAlgebra, n_max: int,
               entry: catalog.CatalogEntry | None = None) -> list[CheckResult]:
    checks: list[CheckResult] = []
    relations = algebra.presentation.relations
    D, N = algebra.D, algebra.N

    ann = algebra.dual().presentation.relations
    checks.append(_result(
        "rank-nullity of the relation space",
        relations.dim + ann.dim == D ** N,
        f"dim R = {relations.dim}, dim ann = {ann.dim}, ambient = {D ** N}"))
    checks.append(_result(
        "annihilator is involutive",
        annihilator(ann) == relations,
        "double annihilator returns the relation rows"))

    quotient = [algebra.dual_dim(n) for n in range(n_max + 1)]
    intersection = [algebra.dual_space(n).dim for n in range(n_max + 1)]
    checks.append(_result(
        "dual dimensions by quotient and by intersection",
        quotient == intersection,
        f"quotient {quotient}, intersection {intersection}"))

    nests = True
    for n in range(N, n_max + 1):
        wn = algebra.dual_space(n)
        if wn.dim == 0:
            continue
        prev = algebra.dual_space(n - 1)
        if not (shift(prev, 1, 0).contains_subspace(wn)
                and shift(prev, 0, 1).contains_subspace(wn)):
            nests = False
            break
    checks.append(_result(
        "dual spaces nest on both sides",
        nests, _degrees("checked degrees", N, n_max)))

    # The normal words are listed from the Groebner basis and counted by
    # the automaton of its leads, two routes: the list is checked to be
    # the complement of the pivots of the stepwise ideal component, and
    # its length against the count.
    dims_match = True
    for n in range(n_max + 1):
        basis = algebra.normal_basis(n)
        ideal = algebra.ideal_component(n)
        if not (all(len(w) == n and all(0 < x <= D for x in w) for w in basis)
                and not any(p in basis for p in ideal.pivots)
                and len(basis) + ideal.dim == D ** n
                and algebra.component_dim(n) == len(basis)):
            dims_match = False
            break
    checks.append(_result(
        "component dimension equals the normal basis size", dims_match,
        f"degrees 0..{n_max}"))

    try:
        chi = series.chi_via_product(algebra, n_max)
        q = series.dual_q_series(algebra, n_max)
        checks.append(_result(
            "chi by product equals chi by dimensions", True,
            f"chi = {list(chi.coefficients())}, q = {list(q.coefficients())}"))
    except InternalConsistencyError as err:
        checks.append(_result("chi by product equals chi by dimensions",
                              False, str(err)))

    checks.append(_result(
        "slice Euler characteristics match chi",
        koszul.euler_agrees_with_chi(algebra, n_max),
        _degrees("degrees", 1, n_max)))

    rng = random.Random(0)
    canonical = True
    if relations.dim:
        ambient = list(all_words(D, N))
        rows = relations.rows
        for _ in range(10):
            v = TensorVector(N, {w: rng.randint(-3, 3) for w in rng.sample(ambient, min(4, len(ambient)))})
            s = rows[rng.randrange(len(rows))] * rng.randint(1, 5)
            if relations.reduce(v) != relations.reduce(v + s):
                canonical = False
                break
    checks.append(_result(
        "reduction is canonical modulo the relation span", canonical,
        "remainders agree after adding relation elements"))

    if entry is not None:
        name = entry.name
        if name in ("parafermion", "plactic"):
            report = catalog.dual_relations_check(entry)
            checks.append(_result(
                f"explicit dual span matches the annihilator ({name})",
                report.passed,
                f"dim R = {report.dim_relations}, dim ann = {report.dim_annihilator}"))
        if name in ("parafermion", "paraboson"):
            report = catalog.gl_invariance(relations)
            checks.append(_result(
                "relation space invariant under all elementary derivations",
                report.invariant, f"{len(report.results)} derivations"))
        if name == "plactic":
            report = catalog.gl_invariance(relations)
            checks.append(_result(
                "relation space not invariant (expected for the plactic algebra)",
                (not report.invariant) if D >= 2 else report.invariant,
                "witness " + (str(report.failures[0].witness.terms)
                              if report.failures else "none")))
            cap = min(n_max, 5)
            try:
                tableaux.dimension_cross_check(D, cap, word_limit=algebra.word_limit)
                checks.append(_result(
                    "tableau counts match graded dimensions", True,
                    f"degrees 0..{cap}"))
            except InternalConsistencyError as err:
                checks.append(_result(
                    "tableau counts match graded dimensions", False, str(err)))
        # e1e2 - (1/q) e2e1 is central when r = 1; by the q <-> r symmetry
        # e1e2 - (1/r) e2e1 is central when q = 1.  Otherwise no element
        # of that shape is central, so there is nothing to check.
        if name == "artin_schelter" and 1 in (entry.q, entry.r):
            label, parameter = ("q", entry.q) if entry.r == 1 else ("r", entry.r)
            if parameter:
                report = catalog.centrality_check(algebra, parameter,
                                                  max(3, min(n_max, 5)))
                checks.append(_result(
                    "quadratic element is central", report.central,
                    f"{label} = {parameter}, degrees up to {report.n_max}"))

    return checks
