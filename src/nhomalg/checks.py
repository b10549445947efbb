"""Cross-module invariant battery behind the `checks` subcommand.

Runs the structural identities that must hold for every algebra at the
selected degree, plus the catalogue-specific expectations (explicit dual
spans, invariance or its known failure, centrality, tableau counts).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import catalog, koszul, series, tableaux
from .algebra import GradedAlgebra
from .linalg import (
    InternalConsistencyError,
    Subspace,
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


def direct_ideal_component(algebra: GradedAlgebra, n: int) -> Subspace:
    """I_n as the span of all n-N+1 shifts E^r (x) R (x) E^(n-N-r).

    The cross-check of the stepwise route that
    :meth:`GradedAlgebra.ideal_component` takes.
    """
    relations = algebra.presentation.relations
    space = Subspace.zero(algebra.D, n, algebra.order)
    for r in range(n - algebra.N + 1):
        space = space.join(shift(relations, r, n - algebra.N - r))
    return space


def run_checks(algebra: GradedAlgebra, n_max: int,
               entry: catalog.CatalogEntry | None = None) -> list[CheckResult]:
    checks: list[CheckResult] = []
    relations = algebra.presentation.relations
    D, N = algebra.D, algebra.N

    ann = annihilator(relations)
    checks.append(_result(
        "rank-nullity of the relation space",
        relations.dim + ann.dim == D ** N,
        f"dim R = {relations.dim}, dim ann = {ann.dim}, ambient = {D ** N}"))
    checks.append(_result(
        "annihilator is involutive",
        annihilator(ann) == relations,
        "double annihilator returns the relation rows"))
    checks.append(_result(
        "double dual presentation",
        algebra.presentation.dual().dual().relations == relations,
        "dual applied twice restores the relations"))

    dual_algebra = GradedAlgebra(algebra.presentation.dual(),
                                 word_limit=algebra.word_limit, order=algebra.order)
    quotient = [dual_algebra.component_dim(n) for n in range(n_max + 1)]
    intersection = [algebra.dual_dim(n) for n in range(n_max + 1)]
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
        nests, f"checked degrees {N}..{n_max}"))

    routes_agree = all(direct_ideal_component(algebra, n) == algebra.ideal_component(n)
                       for n in range(N + 1, n_max + 1))
    checks.append(_result(
        "ideal components agree with the stepwise route", routes_agree,
        f"checked degrees {N + 1}..{n_max}"))

    dims_match = all(
        algebra.component_dim(n) == len(algebra.normal_basis(n))
        for n in range(n_max + 1))
    checks.append(_result(
        "component dimension equals the normal basis size", dims_match,
        f"degrees 0..{n_max}"))

    try:
        chi = series.chi_via_product(algebra, n_max)
        checks.append(_result(
            "chi by product equals chi by dimensions", True,
            f"chi = {list(chi.coefficients())}"))
    except InternalConsistencyError as err:
        checks.append(_result("chi by product equals chi by dimensions",
                              False, str(err)))

    q_series = series.dual_q_series(algebra, n_max)
    q_support = all(c == 0 for n, c in enumerate(q_series.coefficients())
                    if n % N not in (0, 1))
    checks.append(_result(
        "q series supported on degrees 0 and 1 mod N", q_support,
        f"q = {list(q_series.coefficients())}"))

    try:
        checks.append(_result(
            "slice Euler characteristics match chi",
            koszul.euler_agrees_with_chi(algebra, n_max),
            f"degrees 1..{n_max}"))
    except InternalConsistencyError as err:
        checks.append(_result("slice Euler characteristics match chi", False, str(err)))

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
