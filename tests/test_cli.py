import json
import os
import subprocess
import sys

from click.testing import CliRunner

from nhomalg.cli import main


def run_cli(*args):
    runner = CliRunner()
    return runner.invoke(main, list(args))


def test_hilbert_table():
    result = run_cli("hilbert", "--algebra", "parafermion", "--D", "2",
                     "--max-degree", "7")
    assert result.exit_code == 0
    assert "series: 1, 2, 4, 6, 9, 12, 16, 20" in result.output


def test_hilbert_json_schema():
    result = run_cli("hilbert", "--algebra", "parafermion", "--D", "2",
                     "--max-degree", "7", "--format", "json")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["schemaVersion"] == 1
    assert payload["maxDegree"] == 7
    assert payload["algebra"]["name"] == "parafermion"
    assert payload["coefficients"] == [1, 2, 4, 6, 9, 12, 16, 20]


def test_json_output_is_stable():
    args = ("chi", "--algebra", "plactic", "--D", "2", "--max-degree", "5",
            "--format", "json")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.exit_code == second.exit_code == 0
    assert first.output == second.output


def test_chi_refuted_verdict():
    result = run_cli("chi", "--algebra", "parafermion", "--D", "3",
                     "--max-degree", "5", "--format", "json")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["chiDirect"] == [1, 0, 0, 0, 0, 6]
    assert payload["chiViaProduct"] == [1, 0, 0, 0, 0, 6]
    assert payload["koszulNecessary"] == {"consistent": False, "refutedAt": 5}


def test_dual_reports_both_routes():
    result = run_cli("dual", "--algebra", "parafermion", "--D", "3",
                     "--max-degree", "5", "--format", "json")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["dualDimsViaQuotient"] == [1, 3, 9, 8, 6, 0]
    assert payload["dualDimsViaIntersection"] == [1, 3, 9, 8, 6, 0]
    assert payload["routesAgree"] is True
    assert payload["dualRelationsCheck"]["passed"] is True


def test_koszul_probe_command():
    result = run_cli("koszul", "--algebra", "plactic", "--D", "3",
                     "--max-degree", "5", "--format", "json", "--jobs", "2")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["consistent"] is False
    assert payload["firstNonacyclicDegree"] == 5
    assert payload["perDegree"][-1]["homology"] == [0, 0, 6, 0]


def test_homology_command_orders_by_degree():
    result = run_cli("homology", "--algebra", "parafermion", "--D", "2",
                     "--max-degree", "4", "--format", "json", "--jobs", "3")
    payload = json.loads(result.output)
    degrees = [row["degree"] for row in payload["perDegree"]]
    assert degrees == [1, 2, 3, 4]


def test_gorenstein_command():
    result = run_cli("gorenstein", "--algebra", "plactic", "--D", "2",
                     "--max-degree", "6", "--format", "json")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["resolutionExact"] is True
    assert payload["verdict"] == "violated"
    assert payload["interiorCohomology"]
    result = run_cli("gorenstein", "--algebra", "parafermion", "--D", "2",
                     "--max-degree", "6", "--format", "json")
    assert json.loads(result.output)["verdict"] == "consistent"


def test_family_selector():
    result = run_cli("checks", "--algebra", "as", "--q", "2", "--r", "1",
                     "--max-degree", "4", "--format", "json")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["algebra"]["q"] == "2"
    assert payload["allPassed"] is True


def test_rational_flag_parsing():
    result = run_cli("checks", "--algebra", "as", "--q", "1/2",
                     "--max-degree", "4", "--format", "json")
    assert result.exit_code == 0
    assert json.loads(result.output)["algebra"]["q"] == "1/2"
    result = run_cli("checks", "--algebra", "as", "--q", "x")
    assert result.exit_code != 0


def test_checks_pass_for_catalog_algebras():
    for name, d in (("parafermion", "2"), ("plactic", "2"), ("paraboson", "2")):
        result = run_cli("checks", "--algebra", name, "--D", d,
                         "--max-degree", "5")
        assert result.exit_code == 0, result.output
        assert "all checks passed" in result.output


def test_checks_exit_nonzero_on_violation(tmp_path, monkeypatch):
    import nhomalg.checks as checks_mod
    from nhomalg.checks import CheckResult

    def broken(algebra, n_max, entry=None):
        return [CheckResult("forced failure", False, "injected")]

    monkeypatch.setattr("nhomalg.cli.checks_mod.run_checks", broken)
    result = run_cli("checks", "--algebra", "parafermion", "--D", "2")
    assert result.exit_code == 1
    assert "SOME CHECKS FAILED" in result.output


def test_plactic_normal_form():
    result = run_cli("plactic", "normal-form", "121", "--D", "2")
    assert result.exit_code == 0
    assert result.output.splitlines() == ["1 1", "2"]
    result = run_cli("plactic", "normal-form", "131", "--D", "2")
    assert result.exit_code != 0
    assert "column 2" in result.output


def test_plactic_count():
    result = run_cli("plactic", "count", "--D", "2", "--max-degree", "7",
                     "--format", "json")
    payload = json.loads(result.output)
    assert payload["counts"] == [1, 2, 4, 6, 9, 12, 16, 20]


def _assert_clean_error(result):
    assert result.exit_code != 0
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    errors = [line for line in result.output.splitlines() if line.startswith("Error")]
    assert len(errors) == 1


def test_plactic_count_rejects_bad_degrees_cleanly():
    _assert_clean_error(run_cli("plactic", "count", "--D", "0"))
    _assert_clean_error(run_cli("plactic", "count", "--D", "2",
                                "--max-degree", "-1"))
    _assert_clean_error(run_cli("plactic", "normal-form", "1", "--D", "0"))


def test_plactic_count_refusal_is_clean():
    result = run_cli("plactic", "count", "--D", "12", "--max-degree", "9")
    _assert_clean_error(result)
    assert result.output.splitlines() == [
        "Error: cell count 9 needs up to D^n = 5159780352 tableaux, "
        "above the configured limit of 10000000"]


def test_checks_two_parameter_member_away_from_r_one():
    result = run_cli("checks", "--algebra", "as", "--q", "682/967",
                     "--r", "361/220", "--max-degree", "5", "--format", "json")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["allPassed"] is True
    assert "quadratic element is central" not in [
        r["name"] for r in payload["results"]]
    result = run_cli("checks", "--algebra", "as", "--q", "682/967",
                     "--r", "1", "--max-degree", "5", "--format", "json")
    assert result.exit_code == 0
    assert "quadratic element is central" in [
        r["name"] for r in json.loads(result.output)["results"]]


def test_relation_file_source(tmp_path):
    path = tmp_path / "rels.txt"
    path.write_text("D=2 N=3\n1*221 - 1*212\n1*211 - 1*121\n")
    result = run_cli("hilbert", "--file", str(path), "--max-degree", "5",
                     "--format", "json")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["coefficients"] == [1, 2, 4, 6, 9, 12]
    assert payload["algebra"]["source"] == "file"


def test_relation_file_parse_error_location(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("D=2 N=3\n1*131 - 1*211\n")
    result = run_cli("hilbert", "--file", str(path))
    assert result.exit_code != 0
    assert "line 2, column 4" in result.output


def test_exactly_one_source_required(tmp_path):
    result = run_cli("hilbert")
    assert result.exit_code != 0
    path = tmp_path / "rels.txt"
    path.write_text("D=2 N=3\n")
    result = run_cli("hilbert", "--file", str(path), "--algebra", "plactic",
                     "--D", "2")
    assert result.exit_code != 0


def test_memory_guard_refusal_mentions_estimate():
    result = run_cli("hilbert", "--algebra", "parafermion", "--D", "2",
                     "--max-degree", "7", "--word-limit", "100")
    assert result.exit_code != 0
    assert "128" in result.output


def test_module_entry_point():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "nhomalg", "hilbert", "--algebra", "parafermion",
         "--D", "2", "--max-degree", "4", "--format", "json"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["coefficients"] == [1, 2, 4, 6, 9]
