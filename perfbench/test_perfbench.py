"""Tests of the benchmark itself: spans, self times, references, set-up.

Run from the root of the checkout: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer as tracing
import workloads

cli = run.import_cli()

SMALL_JOBS = [
    workloads.Job(["hilbert", "--algebra", "parafermion", "--D", "2", "--max-degree", "6"],
                  workloads.hilbert_check(workloads.hilbert_parafermion(2, 6))),
    workloads.Job(["koszul", "--algebra", "parafermion", "--D", "2", "--max-degree", "4"],
                  lambda payload, rc: []),
    workloads.Job(["checks", "--algebra", "plactic", "--D", "2", "--max-degree", "4"],
                  workloads.checks_check(4)),
]


@pytest.fixture(scope="module")
def traced():
    trace = tracing.Tracer()
    plain = run.run_pass(cli, SMALL_JOBS)
    with tracing.Patch(trace) as patch:
        one = run.run_pass(cli, SMALL_JOBS, trace, label="pass0")
    return trace, patch, plain, one


def test_spans_nest(traced):
    trace, _, _, _ = traced
    spans = trace.spans
    assert spans and all(span[2] is not None for span in spans)
    names = {span[0] for span in spans}
    assert {"cli", "linalg.rref", "algebra.ideal_component",
            "koszul.build_contraction_slice", "linalg.Matrix.rank"} <= names
    for span in spans:
        assert span[1] <= span[2]
        if span[3] is None:
            assert span[0] == "cli"
            continue
        parent = spans[span[3]]
        assert parent[1] <= span[1] and span[2] <= parent[2]
        assert parent[4] == span[4]


def test_self_times_add_up_to_traced_wall(traced):
    trace, _, _, _ = traced
    own = tracing.self_times(trace.spans)
    assert min(own) >= -1e-9
    wall = sum(span[2] - span[1] for span in trace.spans if span[3] is None)
    assert sum(own) == pytest.approx(wall, abs=1e-6)
    summary = tracing.summarize(trace.spans)
    assert sum(entry["self_s"] for entry in summary.values()) == pytest.approx(wall, abs=1e-6)
    assert 0.0 < tracing.coverage(trace.spans) <= 1.0


def test_spans_are_written_as_json_lines(traced, tmp_path):
    trace, _, _, _ = traced
    run.write_spans(trace, tmp_path / "spans.jsonl")
    lines = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert len(lines) == len(trace.spans)
    spans = [json.loads(line) for line in lines]
    for span in spans:
        if span["parent"] is not None:
            assert spans[span["parent"]]["start"] <= span["start"]
            assert span["end"] <= spans[span["parent"]]["end"]
    assert any(span["counts"].get("rows_in") for span in spans)


def test_traced_output_is_byte_identical(traced):
    _, _, plain, one = traced
    for a, b in zip(plain["records"], one["records"]):
        assert a["output"] == b["output"]
        assert not a["unexpected"] and not b["unexpected"]


def test_patch_reaches_every_binding_and_is_removed():
    import nhomalg
    from nhomalg import algebra, catalog, checks, linalg, relfile

    original = linalg.rref
    with tracing.Patch(tracing.Tracer()) as patch:
        assert not patch.absent
        for module in (nhomalg, linalg, algebra, catalog, checks, relfile):
            assert module.rref is not original
            assert module.rref.__wrapped__ is original
    for module in (nhomalg, linalg, algebra, catalog, checks, relfile):
        assert module.rref is original
    assert "__wrapped__" not in vars(linalg.Matrix.rank)


def test_absent_names_are_skipped(monkeypatch):
    monkeypatch.setattr(tracing, "TRACED", tracing.TRACED + (
        ("linalg", "Gone.method", "linalg.Gone.method"),
        ("nosuchmodule", "f", "nosuchmodule.f"),
    ))
    trace = tracing.Tracer()
    with tracing.Patch(trace) as patch:
        record = run.run_job(cli, SMALL_JOBS[0], trace)
    assert patch.absent == ["linalg.Gone.method", "nosuchmodule.f"]
    assert not record["unexpected"]


def test_probe_that_no_longer_fits_drops_counts_only(monkeypatch):
    def broken(result, counts):
        raise AttributeError("no such field")

    monkeypatch.setitem(tracing.PROBES, "linalg.rref", (None, broken))
    trace = tracing.Tracer()
    with tracing.Patch(trace):
        record = run.run_job(cli, SMALL_JOBS[0], trace)
    assert not record["unexpected"]
    assert trace.probe_failures == {"linalg.rref"}


def _output(job):
    return run.run_job(cli, job)["output"]


def test_reference_rejects_corrupted_output():
    job = SMALL_JOBS[0]
    text = _output(job)
    assert workloads.check_output(job, text, None) == ([], [])
    payload = json.loads(text)
    payload["coefficients"][4] += 1
    unexpected, known = workloads.check_output(job, json.dumps(payload), None)
    assert unexpected and not known
    assert workloads.check_output(job, text[:-3], None)[0]
    assert workloads.check_output(job, text, 1)[0]


def test_koszul_reference_rejects_wrong_euler_and_degree():
    job = workloads.Job(["koszul"], workloads.koszul_check(3, 7, 5))
    good = {"schemaVersion": 1, "command": "koszul", "maxDegree": 7,
            "consistent": False, "firstNonacyclicDegree": 5,
            "perDegree": [{"euler": e} for e in workloads.parafermion_chi(3, 7)[1:]]}
    assert workloads.check_output(job, json.dumps(good), None) == ([], [])
    bad = json.loads(json.dumps(good))
    bad["perDegree"][4]["euler"] += 1
    assert workloads.check_output(job, json.dumps(bad), None)[0]
    bad = dict(good, firstNonacyclicDegree=6)
    assert workloads.check_output(job, json.dumps(bad), None)[0]


def test_known_defect_is_failed_but_not_unexpected():
    params = workloads.Params(1, "682/967", "361/220")
    job = workloads.Job(["checks"], workloads.checks_check(9),
                        known_defects=workloads.centrality_defect(params))
    results = [{"name": "rank-nullity of the relation space", "passed": True},
               {"name": workloads.KNOWN_DEFECT_CHECK, "passed": False}]
    payload = {"schemaVersion": 1, "command": "checks", "maxDegree": 9,
               "results": results, "allPassed": False}
    unexpected, known = workloads.check_output(job, json.dumps(payload), 1)
    assert not unexpected and len(known) == 3
    results[0]["passed"] = False
    unexpected, known = workloads.check_output(job, json.dumps(payload), 1)
    assert unexpected
    # At r = 1 the centrality check is meant to pass, so its failure is an error.
    at_one = workloads.Job(["checks"], workloads.checks_check(9),
                           known_defects=workloads.centrality_defect(
                               workloads.Params(1, "682/967", "1")))
    results[0]["passed"] = True
    assert workloads.check_output(at_one, json.dumps(payload), 1)[0]


def test_closed_forms_match_small_degrees():
    from nhomalg import GradedAlgebra, catalog, series

    for name, D, closed in (("parafermion", 2, workloads.hilbert_parafermion),
                            ("paraboson", 2, workloads.hilbert_paraboson),
                            ("plactic", 3, workloads.hilbert_parafermion)):
        algebra = GradedAlgebra(catalog.make_entry(name, D=D).presentation)
        assert list(series.poincare_series(algebra, 5).coefficients()) == closed(D, 5)
    algebra = GradedAlgebra(catalog.parafermion(3))
    assert [algebra.dual_dim(n) for n in range(7)] == workloads.parafermion_dual_dims(3, 6)
    assert list(series.chi_direct(algebra, 6).coefficients()) == workloads.parafermion_chi(3, 6)


def test_seeded_parameters():
    from fractions import Fraction

    assert workloads.draw_params(7) == workloads.draw_params(7)
    draws = {workloads.draw_params(seed) for seed in range(50)}
    assert len(draws) == 50
    for params in draws:
        for value in (params.q, params.r):
            num, den = value.lstrip("-").split("/")
            assert len(num) == len(den) == 3
        assert Fraction(params.q) * Fraction(params.r) != 0


def test_help_lists_every_workload_with_its_jobs():
    text = run.help_epilog()
    for workload in workloads.WORKLOADS.values():
        assert f"{workload.name}: {workload.why}" in text
    assert text.count("nhomalg ") == 15


def test_refuses_a_checkout_without_the_source(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hilbert", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no nhomalg source" in proc.stderr


def test_benchmark_json_matches_the_benchmark(traced):
    trace, _, _, one = traced
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()}
    metrics, _ = run.per_layer_metrics(trace, [one], [one])
    assert [m["name"] for m in spec["per_layer"]] == list(metrics)
    assert [m["unit"] for m in spec["per_layer"]] == [m["unit"] for m in metrics.values()]
    assert [m["name"] for m in spec["end_to_end"]] == [
        "wall_s", "cpu_s", "slowest_job_s", "setup_s", "peak_rss_mb"]
