"""Command line for the homogeneous-algebra workbench.

Pick a catalogued algebra or load one from a relation file, then run a
computation and print a table or a JSON report (schemaVersion 1) to
stdout; diagnostics go to stderr.  Exit status is 0 on success and
nonzero on invariant violations, refused resources, or parse errors.
Mathematical findings such as a refuted Koszulity are results, not
errors.
"""

from __future__ import annotations

import functools
import json
import sys
from fractions import Fraction

import click

from . import catalog, checks as checks_mod, koszul, relfile, series, tableaux
from .algebra import (DEFAULT_WORD_LIMIT, GradedAlgebra, MemoryGuardError,
                      guard_words)
from .linalg import InternalConsistencyError

SCHEMA_VERSION = 1


class RationalType(click.ParamType):
    name = "rational"

    def convert(self, value, param, ctx):
        if isinstance(value, Fraction):
            return value
        try:
            if "/" not in value:
                # Fraction() would multiply a decimal's exponent out before
                # anything checks its size: bound its digits from the text.
                mantissa, _, exponent = value.lower().partition("e")
                whole, _, decimals = (sum(c.isdigit() for c in part)
                                      for part in mantissa.partition("."))
                shift = int(exponent or 0)
                digits = max(whole + decimals + max(shift, 0),
                             decimals + max(-shift, 0) + 1)
                limit = sys.get_int_max_str_digits()
                if limit and digits > limit:
                    self.fail(f"{value!r} needs more than {limit} digits", param, ctx)
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            self.fail(f"{value!r} is not a rational number (use p/q)", param, ctx)


RATIONAL = RationalType()

_ALGEBRA_CHOICES = ("parafermion", "paraboson", "plactic", "as")


def algebra_options(fn):
    for option in reversed([
        click.option("--algebra", "algebra_name",
                     type=click.Choice(_ALGEBRA_CHOICES),
                     help="catalogued algebra ('as' is the two-parameter family)"),
        click.option("--D", "generators", type=click.IntRange(min=1),
                     help="number of generators for the catalogued families"),
        click.option("--q", type=RATIONAL, default=None,
                     help="first family parameter (exact rational)"),
        click.option("--r", type=RATIONAL, default=None,
                     help="second family parameter, default 1"),
        click.option("--file", "relation_file",
                     type=click.Path(exists=True, dir_okay=False),
                     help="load the algebra from a relation file instead"),
        click.option("--max-degree", type=click.IntRange(min=0), default=6,
                     show_default=True),
        click.option("--format", "fmt", type=click.Choice(("table", "json")),
                     default="table", show_default=True),
        click.option("--word-limit", type=click.IntRange(min=1),
                     default=DEFAULT_WORD_LIMIT, show_default=True,
                     help="refuse degrees needing more basis words than this"),
    ]):
        fn = option(fn)
    return fn


def resolve_algebra(algebra_name, generators, q, r, relation_file, word_limit):
    """Build the graded algebra and a JSON-friendly identity record.

    The relation degree itself must fit the word limit: the relations,
    and the annihilator behind the dual, span D^N words.
    """
    if (algebra_name is None) == (relation_file is None):
        raise click.UsageError("choose exactly one of --algebra or --file")
    if relation_file is not None:
        if generators is not None or q is not None or r is not None:
            raise click.UsageError("--D/--q/--r do not apply to --file")
        try:
            presentation = relfile.parse_relation_file(relation_file)
        except relfile.RelationParseError as err:
            raise click.ClickException(f"{relation_file}: {err}") from err
        except OSError as err:
            raise click.ClickException(f"{relation_file}: {err.strerror or err}") from err
        guard_words(presentation.D, presentation.N, word_limit)
        identity = {"source": "file", "path": str(relation_file),
                    "D": presentation.D, "N": presentation.N}
        entry = None
    else:
        name = "artin_schelter" if algebra_name == "as" else algebra_name
        if generators is not None:
            guard_words(generators, 3, word_limit)  # every family is cubic
        try:
            entry = catalog.make_entry(name, D=generators, q=q, r=r)
        except ValueError as err:
            raise click.UsageError(str(err)) from err
        presentation = entry.presentation
        identity = {"source": "catalog", "name": name, "D": entry.D}
        if entry.q is not None:
            identity["q"] = str(entry.q)
            identity["r"] = str(entry.r)
    return GradedAlgebra(presentation, word_limit=word_limit), identity, entry


def emit(payload, fmt, lines):
    if fmt == "json":
        click.echo(json.dumps(payload, indent=2))
    else:
        for line in lines:
            click.echo(line)


def guarded(fn):
    """Translate refusals and internal failures into nonzero exits."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except MemoryGuardError as err:
            raise click.ClickException(str(err)) from err
        except InternalConsistencyError as err:
            raise click.ClickException(f"internal consistency failure: {err}") from err
    return wrapper


@click.group()
def main():
    """Workbench for homogeneous algebras: graded dimensions, duals,
    Euler characteristics, Koszulity and Gorenstein probes, and plactic
    combinatorics."""


def algebra_command(name, min_degree=0):
    """Register ``compute`` as the algebra command ``name``.

    The command takes the shared options, refuses a ``--max-degree``
    below ``min_degree`` before building anything, resolves the algebra
    and prints the report: ``compute(algebra, entry, max_degree,
    payload)`` fills the JSON payload in and returns ``(lines,
    failure)``, the table lines and an exception to raise once the
    report is out, or None.
    """
    def register(compute):
        def command(algebra_name, generators, q, r, relation_file, max_degree, fmt,
                    word_limit):
            if max_degree < min_degree:
                raise click.UsageError(
                    f"--max-degree must be at least {min_degree} for this command")
            algebra, identity, entry = resolve_algebra(algebra_name, generators, q, r,
                                                       relation_file, word_limit)
            payload = {"schemaVersion": SCHEMA_VERSION, "command": name,
                       "algebra": identity, "maxDegree": max_degree}
            lines, failure = compute(algebra, entry, max_degree, payload)
            emit(payload, fmt, lines)
            if failure is not None:
                raise failure
        command.__doc__ = compute.__doc__
        return main.command(name)(algebra_options(guarded(command)))
    return register


@algebra_command("hilbert")
def hilbert(algebra, entry, max_degree, payload):
    """Graded dimensions (the Poincare series coefficients)."""
    coeffs = series.poincare_series(algebra, max_degree).coefficients()
    payload["coefficients"] = coeffs
    lines = ["degree  dimension"]
    lines += [f"{n:>6}  {c}" for n, c in enumerate(coeffs)]
    lines.append("series: " + ", ".join(str(c) for c in coeffs))
    return lines, None


@algebra_command("dual")
def dual(algebra, entry, max_degree, payload):
    """Dual algebra dimensions by both routes, plus the explicit-span check."""
    quotient = [algebra.dual_dim(n) for n in range(max_degree + 1)]
    intersection = algebra.intersection_dims(max_degree)
    agree = quotient == intersection
    payload["dualDimsViaQuotient"] = quotient
    payload["dualDimsViaIntersection"] = intersection
    payload["routesAgree"] = agree
    lines = ["degree  quotient  intersection"]
    lines += [f"{n:>6}  {a:>8}  {b:>12}"
              for n, (a, b) in enumerate(zip(quotient, intersection))]
    if entry is not None and entry.name in ("parafermion", "plactic"):
        report = catalog.dual_relations_check(
            entry, algebra.dual().presentation.relations)
        payload["dualRelationsCheck"] = {
            "passed": report.passed,
            "dimRelations": report.dim_relations,
            "dimAnnihilator": report.dim_annihilator,
            "dimensionIdentity": report.dimension_identity,
            "spansMatch": report.spans_match,
        }
        lines.append(f"explicit dual span check: "
                     f"{'pass' if report.passed else 'FAIL'}")
    return lines, (None if agree
                   else click.ClickException("dual dimension routes disagree"))


@algebra_command("chi")
def chi(algebra, entry, max_degree, payload):
    """Euler-characteristic series by both routes and the Koszulity
    necessary condition."""
    direct = series.chi_direct(algebra, max_degree)
    product = series.chi_via_product(algebra, max_degree)
    payload["chiDirect"] = direct.coefficients()
    payload["chiViaProduct"] = product.coefficients()
    lines = ["chi coefficients: " + ", ".join(str(c) for c in direct.coefficients())]
    if max_degree >= 1:
        verdict = series.koszul_necessary(algebra, max_degree)
        payload["koszulNecessary"] = {"consistent": verdict.consistent,
                                      "refutedAt": verdict.refuted_at}
        lines.append(f"necessary condition: {verdict.describe()}")
    else:
        payload["koszulNecessary"] = None
    return lines, None


def _homology_rows(report):
    return {
        "degree": report.total_degree,
        "positions": report.positions,
        "dims": report.dims,
        "kernelDims": report.kernel_dims,
        "imageDims": report.image_dims,
        "homology": report.homology_dims,
        "euler": report.euler,
    }


@algebra_command("koszul", min_degree=1)
def koszul_cmd(algebra, entry, max_degree, payload):
    """Koszulity probe: homology of every slice up to the degree bound."""
    probe = koszul.koszul_probe(algebra, max_degree)
    payload["verdict"] = probe.describe()
    payload["consistent"] = probe.consistent
    payload["firstNonacyclicDegree"] = probe.first_nonacyclic
    payload["perDegree"] = [_homology_rows(rep) for rep in probe.reports]
    lines = [f"degree {rep.total_degree}: homology {list(rep.homology_dims)}"
             for rep in probe.reports]
    lines.append(probe.describe())
    return lines, None


@algebra_command("homology", min_degree=1)
def homology(algebra, entry, max_degree, payload):
    """Per-degree homology tables of the distinguished contraction."""
    probe = koszul.koszul_probe(algebra, max_degree)
    payload["perDegree"] = [_homology_rows(rep) for rep in probe.reports]
    lines = []
    for rep in probe.reports:
        lines.append(f"total degree {rep.total_degree} "
                     f"(euler {rep.euler})")
        lines.append("  position (a, m)  dim  kernel  image  homology")
        for i, (pos, dim) in enumerate(zip(rep.positions, rep.dims)):
            lines.append(f"  {str(pos):>15}  {dim:>3}  {rep.kernel_dims[i]:>6}  "
                         f"{rep.image_dims[i]:>5}  {rep.homology_dims[i]:>8}")
    return lines, None


@algebra_command("gorenstein", min_degree=1)
def gorenstein(algebra, entry, max_degree, payload):
    """Gorenstein probe on the dualised finite resolution (cubic only)."""
    try:
        report = koszul.gorenstein_probe(algebra, max_degree)
    except ValueError as err:
        raise click.ClickException(str(err)) from err
    payload["resolutionExact"] = report.resolution_exact
    payload["verdict"] = report.verdict
    payload["interiorCohomology"] = report.interior_witnesses
    payload["terminalCohomology"] = report.terminal_dims
    payload["cohomologyByDegree"] = report.cohomology
    lines = [f"resolution exact: {report.resolution_exact}",
             f"verdict: {report.verdict}"]
    if report.cohomology is not None:
        end = report.terminal_position
        names = ["end"] + ["interior"] * (end - 1) + ["terminal"] + ["zero"] * (3 - end)
        lines.append(f"degree  cohomology ({', '.join(names)})")
        for nu, dims in enumerate(report.cohomology):
            lines.append(f"{nu:>6}  {list(dims)}")
    return lines, None


@main.group("plactic")
def plactic_cmds():
    """Plactic-monoid utilities: normal forms and tableau counts."""


@plactic_cmds.command("normal-form")
@click.argument("word")
@click.option("--D", "generators", type=click.IntRange(min=1), required=True)
@click.option("--format", "fmt", type=click.Choice(("table", "json")),
              default="table", show_default=True)
@guarded
def normal_form(word, generators, fmt):
    """Tableau normal form of WORD (a digit string over 1..D)."""
    letters = []
    for column, ch in enumerate(word, start=1):
        if not (ch.isascii() and ch.isdigit()) or not 1 <= int(ch) <= generators:
            raise click.ClickException(
                f"column {column}: letter {ch!r} outside 1..{generators}")
        letters.append(int(ch))
    tableau = tableaux.word_to_tableau(letters)
    payload = {"schemaVersion": SCHEMA_VERSION, "command": "plactic normal-form",
               "word": word, "D": generators,
               "tableau": tableau.rows}
    emit(payload, fmt, tableau.render_lines())


@plactic_cmds.command("count")
@click.option("--D", "generators", type=click.IntRange(min=1), required=True)
@click.option("--max-degree", type=click.IntRange(min=0), default=6,
              show_default=True)
@click.option("--format", "fmt", type=click.Choice(("table", "json")),
              default="table", show_default=True)
@guarded
def count(generators, max_degree, fmt):
    """Number of tableaux with entries up to D, per cell count."""
    counts = tableaux.count_tableaux(generators, max_degree)
    payload = {"schemaVersion": SCHEMA_VERSION, "command": "plactic count",
               "D": generators, "maxDegree": max_degree, "counts": counts}
    lines = ["cells  tableaux"]
    lines += [f"{n:>5}  {c}" for n, c in enumerate(counts)]
    emit(payload, fmt, lines)


@algebra_command("checks")
def checks_cmd(algebra, entry, max_degree, payload):
    """Run the full invariant suite; exit 0 only if everything passes."""
    results = checks_mod.run_checks(algebra, max_degree, entry)
    all_passed = all(result.passed for result in results)
    payload["results"] = [{"name": result.name, "passed": result.passed,
                           "detail": result.detail} for result in results]
    payload["allPassed"] = all_passed
    lines = [f"[{'pass' if result.passed else 'FAIL'}] {result.name}"
             for result in results]
    lines.append("all checks passed" if all_passed else "SOME CHECKS FAILED")
    return lines, None if all_passed else click.exceptions.Exit(1)


if __name__ == "__main__":
    main()
