"""Workloads of the nhomalg benchmark and the references their outputs must match.

A workload is a fixed list of CLI jobs.  Every job is checked against a
reference computed here from closed forms (truncated power series over
the integers), never by nhomalg itself, so a wrong answer from the
program cannot also corrupt its own reference.  The seed only draws the
parameters (q, r) of the two-parameter family A_{q,r}.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

# The check that nhomalg.checks.run_checks applies to every A_{q,r} with
# q != 0, although the central element it tests belongs to the
# one-parameter family r = 1.  With the seeded r != 1 it reports a
# failure that is a defect of the program, not of the algebra.
KNOWN_DEFECT_CHECK = "quadratic element is central"


@dataclass(frozen=True)
class Params:
    """Seeded inputs: the parameters of A_{q,r}, as exact rationals."""

    seed: int
    q: str
    r: str


def draw_params(seed: int) -> Params:
    """q and r with three-digit numerators and denominators, q*r != 0.

    By the PBW basis of down-up algebras every such A_{q,r} has the
    Hilbert series 1/((1-t)^2 (1-t^2)), and q*r != 0 keeps it
    Artin-Schelter regular, hence Koszul and Gorenstein.
    """
    rng = random.Random(seed)

    def rational() -> str:
        sign = rng.choice(("", "-"))
        return f"{sign}{rng.randint(100, 999)}/{rng.randint(100, 999)}"

    return Params(seed, rational(), rational())


# ---------------------------------------------------------------------------
# Closed forms, as integer coefficient lists truncated at degree n.

def _mul(a: list[int], b: list[int], n: int) -> list[int]:
    out = [0] * (n + 1)
    for i, x in enumerate(a[:n + 1]):
        for j, y in enumerate(b[:n + 1 - i]):
            out[i + j] += x * y
    return out


def _inverse_power(step: int, exponent: int, n: int) -> list[int]:
    """Coefficients of (1 - t^step)^(-exponent)."""
    out = [1] + [0] * n
    geometric = [1 if k % step == 0 else 0 for k in range(n + 1)]
    for _ in range(exponent):
        out = _mul(out, geometric, n)
    return out


def hilbert_parafermion(D: int, n: int) -> list[int]:
    """1/((1-t)^D (1-t^2)^(D(D-1)/2)).

    Also the series of the plactic algebra on D letters (it counts
    semistandard tableaux with entries up to D) and of A_{q,r} at D = 2.
    """
    return _mul(_inverse_power(1, D, n), _inverse_power(2, D * (D - 1) // 2, n), n)


def hilbert_paraboson(D: int, n: int) -> list[int]:
    """(1+t)^D / (1-t^2)^(D(D+1)/2)."""
    binomial = [1] + [0] * n
    for _ in range(D):
        binomial = _mul(binomial, [1, 1], n)
    return _mul(binomial, _inverse_power(2, D * (D + 1) // 2, n), n)


def parafermion_dual_dims(D: int, n: int) -> list[int]:
    """dim of the dual algebra: 1, D, D^2, D(D^2-1)/3, D^2(D^2-1)/12, 0, ..."""
    dims = [1, D, D * D, D * (D * D - 1) // 3, D * D * (D * D - 1) // 12]
    return (dims + [0] * n)[:n + 1]


def parafermion_chi(D: int, n: int) -> list[int]:
    """Q(t) * H(t) with Q the signed dual series 1 - Dt + c3 t^3 - c4 t^4."""
    dual = parafermion_dual_dims(D, max(n, 4))
    signed = [dual[0], -dual[1], 0, dual[3], -dual[4]]
    return _mul(signed, hilbert_parafermion(D, n), n)


# ---------------------------------------------------------------------------
# Jobs.

Checker = Callable[[dict, object], "list[str]"]


@dataclass
class Job:
    """One CLI command; ``check`` lists what its output gets wrong."""

    argv: list[str]
    check: Checker
    known_defects: tuple[str, ...] = ()
    workdir: Path | None = None

    @property
    def name(self) -> str:
        """The command line, with the run's input directory as <workdir>."""
        text = " ".join(self.argv)
        return text.replace(str(self.workdir), "<workdir>") if self.workdir else text


def _expect(problems: list[str], what: str, got, want):
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def _header(payload: dict, command: str, max_degree: int) -> list[str]:
    problems: list[str] = []
    _expect(problems, "schemaVersion", payload.get("schemaVersion"), 1)
    _expect(problems, "command", payload.get("command"), command)
    _expect(problems, "maxDegree", payload.get("maxDegree"), max_degree)
    return problems


def hilbert_check(series: list[int]) -> Checker:
    def check(payload, rc):
        problems = _header(payload, "hilbert", len(series) - 1)
        _expect(problems, "exit code", rc, None)
        _expect(problems, "coefficients", payload.get("coefficients"), series)
        return problems
    return check


def count_check(D: int, n: int) -> Checker:
    def check(payload, rc):
        problems = _header(payload, "plactic count", n)
        _expect(problems, "exit code", rc, None)
        _expect(problems, "counts", payload.get("counts"), hilbert_parafermion(D, n))
        return problems
    return check


def dual_check(quotient: list[int], intersection: list[int],
               span_check: bool) -> Checker:
    def check(payload, rc):
        problems = _header(payload, "dual", len(quotient) - 1)
        _expect(problems, "exit code", rc, None)
        _expect(problems, "dualDimsViaQuotient",
                payload.get("dualDimsViaQuotient"), quotient)
        _expect(problems, "dualDimsViaIntersection",
                payload.get("dualDimsViaIntersection"), intersection)
        _expect(problems, "routesAgree", payload.get("routesAgree"), True)
        if span_check:
            report = payload.get("dualRelationsCheck") or {}
            _expect(problems, "dualRelationsCheck.passed", report.get("passed"), True)
        return problems
    return check


def koszul_check(D: int, n: int, first_nonacyclic: int) -> Checker:
    def check(payload, rc):
        problems = _header(payload, "koszul", n)
        _expect(problems, "exit code", rc, None)
        _expect(problems, "firstNonacyclicDegree",
                payload.get("firstNonacyclicDegree"), first_nonacyclic)
        _expect(problems, "consistent", payload.get("consistent"), False)
        euler = [row.get("euler") for row in payload.get("perDegree", [])]
        _expect(problems, "euler", euler, parafermion_chi(D, n)[1:])
        return problems
    return check


def gorenstein_check(n: int, verdict: str) -> Checker:
    def check(payload, rc):
        problems = _header(payload, "gorenstein", n)
        _expect(problems, "exit code", rc, None)
        _expect(problems, "resolutionExact", payload.get("resolutionExact"), True)
        _expect(problems, "verdict", payload.get("verdict"), verdict)
        return problems
    return check


def checks_check(n: int) -> Checker:
    def check(payload, rc):
        problems = _header(payload, "checks", n)
        _expect(problems, "allPassed", payload.get("allPassed"), True)
        _expect(problems, "exit code", rc, None)
        for result in payload.get("results", []):
            if not result.get("passed"):
                problems.append(f"check failed: {result.get('name')}")
        if not payload.get("results"):
            problems.append("no check results")
        return problems
    return check


def centrality_defect(params: Params) -> tuple[str, ...]:
    """The one failure the seeded `checks` job is known to report.

    It is a defect only away from the one-parameter family (r != 1);
    at r = 1 the same failure would be a real error.
    """
    if Fraction(params.r) == 1:
        return ()
    return (f"check failed: {KNOWN_DEFECT_CHECK}",)


# ---------------------------------------------------------------------------
# Workloads.

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[Params, Path], "list[Job]"]
    prepare: Callable[[Path], None] = lambda workdir: None


def _algebra(name: str, D: int, n: int) -> list[str]:
    return ["--algebra", name, "--D", str(D), "--max-degree", str(n)]


def _family(params: Params, n: int) -> list[str]:
    return ["--algebra", "as", "--q", params.q, "--r", params.r,
            "--max-degree", str(n)]


def hilbert_jobs(params: Params, workdir: Path) -> list[Job]:
    return [
        Job(["hilbert", *_algebra("parafermion", 3, 8)],
            hilbert_check(hilbert_parafermion(3, 8))),
        Job(["hilbert", *_algebra("paraboson", 4, 7)],
            hilbert_check(hilbert_paraboson(4, 7))),
        Job(["hilbert", *_algebra("plactic", 2, 13)],
            hilbert_check(hilbert_parafermion(2, 13))),
        Job(["hilbert", *_family(params, 11)],
            hilbert_check(hilbert_parafermion(2, 11))),
        Job(["plactic", "count", "--D", "4", "--max-degree", "8"], count_check(4, 8)),
    ]


# Relation files of the dual presentations: (catalogue name, D, max degree).
DUAL_FILES = (("parafermion", 3, 7), ("plactic", 3, 7), ("parafermion", 2, 10))


def dual_path(workdir: Path, name: str, D: int) -> Path:
    return workdir / f"{name}{D}-dual.rel"


def write_dual_files(workdir: Path):
    """Relation files of the dual presentations, for the `dual` jobs."""
    from nhomalg import catalog, relfile

    for name, D, _ in DUAL_FILES:
        entry = catalog.make_entry(name, D=D)
        relfile.write_relation_file(dual_path(workdir, name, D),
                                    entry.presentation.dual())


def dual_jobs(params: Params, workdir: Path) -> list[Job]:
    """Dualising the dual gives back R, so on the files both routes must
    reproduce the original algebra's Hilbert series."""
    jobs = []
    for name, D, n in DUAL_FILES:
        series = hilbert_parafermion(D, n)
        jobs.append(Job(["dual", "--file", str(dual_path(workdir, name, D)),
                         "--max-degree", str(n)],
                        dual_check(series, series, span_check=False),
                        workdir=workdir))
    dims = parafermion_dual_dims(4, 6)
    jobs.append(Job(["dual", *_algebra("parafermion", 4, 6)],
                    dual_check(dims, dims, span_check=True)))
    return jobs


def koszul_jobs(params: Params, workdir: Path) -> list[Job]:
    return [
        Job(["koszul", *_algebra("parafermion", 3, 7)], koszul_check(3, 7, 5)),
        Job(["gorenstein", *_algebra("parafermion", 2, 10)],
            gorenstein_check(10, "consistent")),
        Job(["gorenstein", *_algebra("plactic", 2, 12)],
            gorenstein_check(12, "violated")),
        Job(["gorenstein", *_family(params, 10)], gorenstein_check(10, "consistent")),
        Job(["checks", *_algebra("plactic", 3, 6)], checks_check(6)),
        Job(["checks", *_family(params, 9)], checks_check(9),
            known_defects=centrality_defect(params)),
    ]


WORKLOADS = {
    "hilbert": Workload(
        "hilbert",
        "cold caches; time in ideal_component and rref on sparse, redundant "
        "shifted-relation stacks; no Matrix, so a koszul-layer change "
        "should not move it",
        hilbert_jobs),
    "dual": Workload(
        "dual",
        "dual-of-dual relation files keep the intersection route "
        "nonvanishing at every degree, so rref runs on wide, dense "
        "annihilator stacks",
        dual_jobs, write_dual_files),
    "koszul": Workload(
        "koszul",
        "slice assembly (Matrix add/kron), Matrix.rank and zero-composition "
        "products on warm caches; at the seed the seeded checks job fails "
        "once per pass: known centrality defect",
        koszul_jobs),
}


def check_output(job: Job, text: str, rc) -> tuple[list[str], list[str]]:
    """Problems of one job's output, split into (unexpected, known defects).

    Any problem counts the job as failed; only the unexpected ones make
    the run incorrect.
    """
    try:
        payload = json.loads(text)
    except ValueError as err:
        return [f"output is not JSON: {err}"], []
    if not isinstance(payload, dict):
        return ["output is not a JSON object"], []
    problems = job.check(payload, rc)
    failed_checks = {p for p in problems if p.startswith("check failed: ")}
    if failed_checks and failed_checks <= set(job.known_defects):
        # A failing check also flips allPassed and the exit code; those
        # follow from it and are not separate errors.
        follow = {"allPassed: got False, expected True",
                  "exit code: got 1, expected None"}
        defects = [p for p in problems if p in failed_checks or p in follow]
        return [p for p in problems if p not in defects], defects
    return problems, []
