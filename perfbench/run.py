"""Benchmark of the nhomalg command line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload hilbert --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload runs in its own process as a closed loop: one client, one
CLI job after another, no threads.  A job calls the same entry point
users run, ``nhomalg.cli.main([...], standalone_mode=False)`` with
``--format json``, in-process, so interpreter start-up is left out.
Whole passes over the workload's job list repeat for about ``--seconds``
seconds and the timings are medians over passes.  Every job's output is
checked against an independent reference (see ``workloads.py``).

With ``--trace 0`` the last line of stdout is the end-to-end result:
wall_s and cpu_s of the job list and slowest_job_s, from each job's
median over passes; setup_s, the median over fresh processes that import
nhomalg and build the inputs; and peak_rss_mb of the workload process.
The times are scaled to a nominal machine speed by a reference loop run
between jobs (see ``reference_loop``); the raw seconds are reported
too.

With ``--trace 1`` untraced and traced passes alternate; the traced ones
give the per-layer numbers (``tracer.py``), and every traced job must
print byte-identical JSON to its untraced run.  The line before the
result is a JSON report with the seed, the drawn parameters, the
environment, per-job timings and the failures.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
WORK_DIR = ROOT / ".perfbench-tmp"
SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 170
DEFAULT_SECONDS = 36


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no nhomalg source, bad child)."""


def import_cli():
    """Import nhomalg from this checkout's source tree, never another copy."""
    if not (SOURCE / "nhomalg" / "__init__.py").is_file():
        raise SetupError(f"no nhomalg source under {SOURCE}")
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))
    from nhomalg import cli

    location = Path(cli.__file__).resolve()
    if SOURCE not in location.parents:
        raise SetupError(f"imported nhomalg from {location}, not from {SOURCE}")
    return cli


def git_sha() -> str | None:
    """The checked-out commit, or None outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "git_sha": git_sha(),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# Machine speed.  On a shared host the same code runs up to ~40% slower
# for minutes at a time, in CPU time as well as in wall time (seen with a
# fixed loop while nothing else ran in the container), so raw seconds from
# two runs are not comparable.  Each job is therefore also timed against
# a fixed reference loop run just before and just after it.  The loop
# does the kind of work nhomalg does (tuple-keyed dicts, Fractions, big
# integer gcds) but calls none of its code, so no change to the program
# moves it.  Wall times are scaled by the loop's wall time and CPU times
# by its CPU time, so that time the process spends descheduled does not
# shrink CPU figures.  Each is the median of REFERENCE_REPEATS short
# loops, so one stall or collection cannot set it.  Not the minimum: the
# host switches between a fast and a slow state within a second, so a
# minimum follows only the fast spells, and job times scaled by it spread
# more (per-job log-SD over passes 0.107 against 0.091-0.098 for the
# median, in runs of hilbert and koszul on a shared 2-core x86-64 host).
# End-to-end times are converted back to seconds at NOMINAL_REFERENCE_S
# per loop; the raw seconds are in the report.

NOMINAL_REFERENCE_S = 0.025
REFERENCE_REPEATS = 3


def _reference_work():
    table: dict[tuple, int] = {}
    x = Fraction(1, 3)
    for i in range(15000):
        key = (i % 7, i % 11, i % 13)
        table[key] = table.get(key, 0) + i * 7919
        if i % 8 == 0:
            x = x * Fraction(i + 2, i + 3) + Fraction(1, i + 5)
            x = Fraction(x.numerator % 1000003, x.denominator % 1000003 or 1)
    for value in table.values():
        gcd(value, 1234567)


def reference_loop() -> dict[str, float]:
    """Wall and CPU time of the fixed pure-Python work, each a median."""
    walls, cpus = [], []
    for _ in range(REFERENCE_REPEATS):
        t0, cpu0 = time.perf_counter(), time.process_time()
        _reference_work()
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - cpu0)
    return {"wall_s": statistics.median(walls), "cpu_s": statistics.median(cpus)}


def nominal(seconds: float, reference_s: float) -> float:
    """Seconds at the nominal machine speed."""
    return seconds * NOMINAL_REFERENCE_S / reference_s


# ---------------------------------------------------------------------------
# Jobs and passes.

def run_job(cli, job, tracer=None) -> dict:
    """One CLI call; times it and checks its output against the reference."""
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    cpu0, t0 = time.process_time(), time.perf_counter()
    index = tracer.begin("cli") if tracer else None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(job.argv + ["--format", "json"], standalone_mode=False)
    except Exception as exc:  # a failed job is counted, the run goes on
        error = f"{type(exc).__name__}: {exc}"
    except SystemExit as exc:
        error = f"SystemExit: {exc.code}"
    finally:
        if tracer:
            tracer.end(index)
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    text = out.getvalue()
    if error is not None:
        unexpected, known = [error], []
    else:
        unexpected, known = workloads.check_output(job, text, rc)
    return {"job": job.name, "wall_s": wall, "cpu_s": cpu, "output": text,
            "unexpected": unexpected, "known": known}


def run_pass(cli, jobs, tracer=None, label="") -> dict:
    """All jobs once, with the reference loop between consecutive jobs."""
    records = []
    reference = [reference_loop()]
    for job in jobs:
        if tracer:
            tracer.job = f"{label}:{job.name}"
        records.append(run_job(cli, job, tracer))
        reference.append(reference_loop())
    for i, record in enumerate(records):
        record["reference"] = {clock: (reference[i][clock] + reference[i + 1][clock]) / 2
                               for clock in ("wall_s", "cpu_s")}
    return {"records": records}


def repeat_passes(seconds: float, one_pass) -> list:
    """Whole passes while the next one is expected to end within ``seconds``."""
    start = time.perf_counter()
    results, lengths = [], []
    while True:
        t0 = time.perf_counter()
        results.append(one_pass(len(results)))
        lengths.append(time.perf_counter() - t0)
        if time.perf_counter() + statistics.median(lengths) > start + seconds:
            return results


# ---------------------------------------------------------------------------
# Set-up: import nhomalg and build the workload's inputs.

def setup_probe(workload, seed: int) -> dict:
    """Set-up time of this fresh process; the inputs go to a temporary dir."""
    t0 = time.perf_counter()
    import_cli()
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        workload.prepare(Path(tmp))
        workload.build(workloads.draw_params(seed), Path(tmp))
        seconds = time.perf_counter() - t0
    return {"setup_s": seconds, "reference_s": reference_loop()["wall_s"]}


def setup_samples(name: str, seed: int) -> list[dict]:
    """Set-up of ``SETUP_REPEATS`` fresh processes, run one at a time."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


# ---------------------------------------------------------------------------
# Metrics.

def _median(values):
    return statistics.median(values) if values else 0.0


def failures(passes) -> tuple[int, int, list, list]:
    attempted = failed = 0
    unexpected, known = [], []
    for one in passes:
        for record in one["records"]:
            attempted += 1
            if record["unexpected"] or record["known"]:
                failed += 1
            for problem in record["unexpected"]:
                unexpected.append(f"{record['job']}: {problem}")
            for problem in record["known"]:
                known.append(f"{record['job']}: {problem}")
    return attempted, failed, sorted(set(unexpected)), sorted(set(known))


def job_table(passes) -> list[dict]:
    table = []
    for i, record in enumerate(passes[0]["records"]):
        walls = [one["records"][i]["wall_s"] for one in passes]
        table.append({"job": record["job"], "median_wall_s": _median(walls),
                      "walls_s": walls})
    return table


def per_layer_metrics(trace, traced_passes, untraced_passes) -> tuple[dict, dict]:
    """The traced run's per-layer numbers, per pass (averaged over passes)."""
    n = len(traced_passes)
    # The set-up spans are recorded once; pass spans are averaged.
    summary = tracing.summarize(
        trace.spans, lambda s: 1.0 if s[4] == "setup" else 1.0 / n)

    def get(name, key):
        return summary[name][key] if name in summary else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    put("linalg.rref.calls", get("linalg.rref", "calls"), "count")
    put("linalg.rref.self_s", get("linalg.rref", "self_s"), "s")
    put("linalg.rref.rows_in", get("linalg.rref", "rows_in"), "count")
    put("linalg.rref.rank_out", get("linalg.rref", "rank_out"), "count")
    put("linalg.rref.yield", ratio(get("linalg.rref", "rank_out"),
                                   get("linalg.rref", "rows_in")), "ratio")
    put("linalg.rref.max_coeff_bits", get("linalg.rref", "max_coeff_bits"), "bits")
    put("linalg.shifted_span.self_s", get("linalg.shifted_span", "self_s"), "s")
    put("linalg.shifted_span.vectors", get("linalg.shifted_span", "vectors"), "count")
    put("linalg.annihilator.self_s", get("linalg.annihilator", "self_s"), "s")
    put("linalg.intersect.calls", get("linalg.intersect", "calls"), "count")
    put("linalg.intersect.self_s", get("linalg.intersect", "self_s"), "s")
    put("linalg.Subspace.reduce.calls", get("linalg.Subspace.reduce", "calls"), "count")
    put("linalg.Subspace.reduce.self_s", get("linalg.Subspace.reduce", "self_s"), "s")
    for op in ("add", "kron", "mul", "rank"):
        put(f"linalg.Matrix.{op}.self_s", get(f"linalg.Matrix.{op}", "self_s"), "s")
    put("linalg.Matrix.rank.cells", get("linalg.Matrix.rank", "cells"), "count")
    for name in ("ideal_component", "dual_space", "word_matrix"):
        span = f"algebra.{name}"
        if name != "dual_space":
            put(f"{span}.calls", get(span, "calls"), "count")
        put(f"{span}.self_s", get(span, "self_s"), "s")
        put(f"{span}.hit_ratio", ratio(get(span, "hits"), get(span, "calls")), "ratio")
    put("algebra.ideal_component_stepwise.self_s",
        get("algebra.ideal_component_stepwise", "self_s"), "s")
    put("algebra.normal_basis.self_s", get("algebra.normal_basis", "self_s"), "s")
    slice_span = "koszul.build_contraction_slice"
    put(f"{slice_span}.self_s", get(slice_span, "self_s"), "s")
    put("koszul.slice.cells", get(slice_span, "cells"), "count")
    put("koszul.slice.density",
        ratio(get(slice_span, "nonzero"), get(slice_span, "cells")), "ratio")
    for name in ("koszul.homology", "koszul.gorenstein_probe", "series.chi_direct",
                 "catalog.make_entry", "catalog.dual_relations_check",
                 "catalog.gl_invariance", "catalog.centrality_check",
                 "tableaux.count_tableaux", "tableaux.dimension_cross_check",
                 "relfile.write_relation_file", "relfile.parse_relation_file",
                 "checks.run_checks", "cli"):
        put(f"{name}.self_s", get(name, "self_s"), "s")
    for layer in tracing.LAYERS:
        put(f"layer.{layer}.self_s",
            sum(entry["self_s"] for name, entry in summary.items()
                if name == layer or name.startswith(layer + ".")), "s")
    put("python.gc.collections", trace.gc_collections / n, "count")
    put("python.gc.pause_s", trace.gc_pause_s / n, "s")
    put("trace.coverage",
        tracing.coverage(trace.spans, lambda s: s[4] != "setup"), "ratio")
    def pass_wall(one):
        return sum(nominal(r["wall_s"], r["reference"]["wall_s"])
                   for r in one["records"])

    traced = _median([pass_wall(p) for p in traced_passes])
    untraced = _median([pass_wall(p) for p in untraced_passes])
    put("trace.overhead", ratio(traced - untraced, untraced), "ratio")
    return metrics, summary


# ---------------------------------------------------------------------------

def measure(name: str, seed: int, seconds: float, trace: bool,
            spans_path: Path | None = None) -> tuple[dict, dict]:
    workload = workloads.WORKLOADS[name]
    env = environment()
    params = workloads.draw_params(seed)
    cli = import_cli()
    setups = [] if trace else setup_samples(name, seed)
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR))
    report = {"workload": name, "seed": seed,
              "params": {"q": params.q, "r": params.r},
              "env": env, "setup_samples": setups}
    try:
        if trace:
            result = measure_traced(cli, workload, params, workdir, seconds, report,
                                    spans_path)
        else:
            result = measure_untraced(cli, workload, params, workdir, seconds, report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not trace:
        result["metrics"]["setup_s"] = {
            "value": _median([nominal(x["setup_s"], x["reference_s"]) for x in setups]),
            "unit": "s"}
        report["raw"]["setup_s"] = _median([x["setup_s"] for x in setups])
        result["metrics"]["peak_rss_mb"] = {"value": report["peak_rss_mb"], "unit": "MB"}
    return report, result


def _finish(report, passes, metrics) -> dict:
    attempted, failed, unexpected, known = failures(passes)
    report.update({"passes": len(passes), "jobs": job_table(passes),
                   "attempted": attempted, "failed": failed,
                   "error_rate": failed / attempted,
                   "unexpected_failures": unexpected, "known_defects": known})
    return {"correct": not unexpected, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def measure_untraced(cli, workload, params, workdir, seconds, report) -> dict:
    workload.prepare(workdir)
    jobs = workload.build(params, workdir)
    passes = repeat_passes(seconds, lambda i: run_pass(cli, jobs))

    def per_job(key, scale):
        # Each job's median over passes, so a slow spell of the machine
        # during one job does not move the whole pass.
        return [_median([scale(p["records"][i][key], p["records"][i]["reference"][key])
                         for p in passes]) for i in range(len(jobs))]

    raw = lambda seconds, reference: seconds
    walls, cpus = per_job("wall_s", nominal), per_job("cpu_s", nominal)
    raw_walls = per_job("wall_s", raw)
    report["raw"] = {"wall_s": sum(raw_walls), "cpu_s": sum(per_job("cpu_s", raw)),
                     "slowest_job_s": max(raw_walls),
                     "reference_wall_s": _median([r["reference"]["wall_s"]
                                                  for p in passes for r in p["records"]]),
                     "reference_cpu_s": _median([r["reference"]["cpu_s"]
                                                 for p in passes for r in p["records"]])}
    metrics = {
        "wall_s": {"value": sum(walls), "unit": "s"},
        "cpu_s": {"value": sum(cpus), "unit": "s"},
        "slowest_job_s": {"value": max(walls), "unit": "s"},
    }
    return _finish(report, passes, metrics)


def measure_traced(cli, workload, params, workdir, seconds, report,
                   spans_path=None) -> dict:
    trace = tracing.Tracer()
    with tracing.Patch(trace) as patch:
        trace.job = "setup"
        root = trace.begin("setup")
        try:
            workload.prepare(workdir)
            jobs = workload.build(params, workdir)
        finally:
            trace.end(root)
    untraced, traced = [], []

    def pair(i):
        untraced.append(run_pass(cli, jobs))
        with tracing.Patch(trace):
            trace.watch_gc()
            try:
                traced.append(run_pass(cli, jobs, trace, label=f"pass{i}"))
            finally:
                trace.unwatch_gc()

    repeat_passes(seconds, pair)
    for plain, one in zip(untraced, traced):
        for a, b in zip(plain["records"], one["records"]):
            if a["output"] != b["output"]:
                b["unexpected"].append("traced output differs from untraced output")
    metrics, summary = per_layer_metrics(trace, traced, untraced)
    if spans_path is not None:
        write_spans(trace, spans_path)
    report["absent"] = patch.absent
    report["probe_failures"] = sorted(trace.probe_failures)
    report["spans"] = len(trace.spans)
    report["span_summary"] = {name: {k: round(v, 6) for k, v in entry.items()}
                              for name, entry in sorted(summary.items())}
    result = _finish(report, untraced + traced, metrics)
    report["jobs"] = job_table(untraced)
    return result


def write_spans(trace, path: Path):
    """Every span as one JSON line: name, start, end, parent, job, counts."""
    with open(path, "w") as out:
        for index, (name, start, end, parent, job, counts) in enumerate(trace.spans):
            out.write(json.dumps({"id": index, "name": name, "start": start,
                                  "end": end, "parent": parent, "job": job,
                                  "counts": counts or {}}) + "\n")


# ---------------------------------------------------------------------------

def help_epilog() -> str:
    params = workloads.draw_params(1)
    lines = ["workloads (jobs shown for --seed 1; each job adds --format json):"]
    for workload in workloads.WORKLOADS.values():
        lines.append(f"  {workload.name}: {workload.why}")
        for job in workload.build(params, Path("<workdir>")):
            lines.append(f"      nhomalg {job.name}")
    return "\n".join(lines)


def run_all(seed: int, seconds: float) -> int:
    """Each workload in a fresh process; a table of every end-to-end metric."""
    rows = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
            timeout=2 * seconds + CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
        metrics = dict(result["metrics"])
        metrics["error_rate"] = {"value": report["error_rate"], "unit": "ratio"}
        for key, value in report["raw"].items():
            metrics[f"raw_{key}"] = {"value": value, "unit": "s"}
        rows[name] = metrics
        for defect in report["known_defects"] + report["unexpected_failures"]:
            print(f"{name}: {defect}")
    names = list(rows)
    print(f"{'metric':<24}{'unit':<8}" + "".join(f"{n:>12}" for n in names))
    for metric, first in rows[names[0]].items():
        cells = "".join(f"{rows[n][metric]['value']:>12.4f}" for n in names)
        print(f"{metric:<24}{first['unit']:<8}{cells}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark of the nhomalg CLI, one workload per process.",
        epilog=help_epilog(), formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="how long to keep starting passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, metavar="PATH",
                        help="with --trace 1, also write every span to PATH "
                             "as JSON lines")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            print(json.dumps(setup_probe(workloads.WORKLOADS[args.workload],
                                         args.seed)))
            return 0
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        report, result = measure(args.workload, args.seed, args.seconds,
                                 bool(args.trace), args.spans)
    except SetupError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
