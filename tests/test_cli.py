import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from click.testing import CliRunner
from hypothesis import given, strategies as st

from nhomalg.algebra import GradedAlgebra
from nhomalg.catalog import parafermion, plactic
from nhomalg.cli import main
from nhomalg.relfile import write_relation_file

from _oracles import paraboson_dims, parafermion_dims


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


def test_chi_at_degree_zero_has_no_necessary_condition():
    result = run_cli("chi", "--algebra", "plactic", "--D", "2", "--max-degree", "0",
                     "--format", "json")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert '"koszulNecessary": null' in result.output
    assert payload["chiDirect"] == payload["chiViaProduct"] == [1]


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
                     "--max-degree", "5", "--format", "json")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["consistent"] is False
    assert payload["firstNonacyclicDegree"] == 5
    assert payload["perDegree"][-1]["homology"] == [0, 0, 6, 0]


def test_homology_command_orders_by_degree():
    result = run_cli("homology", "--algebra", "parafermion", "--D", "2",
                     "--max-degree", "4", "--format", "json")
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


def test_benchmark_inputs_pin_their_full_tables():
    # The benchmark checks only the Euler characteristics and verdicts of
    # these jobs; every kernel, image, homology and cohomology dimension
    # is pinned here.
    result = run_cli("koszul", "--algebra", "parafermion", "--D", "3",
                     "--max-degree", "7", "--format", "json")
    assert result.exit_code == 0
    tables = [(row["kernelDims"], row["imageDims"], row["homology"])
              for row in json.loads(result.output)["perDegree"]]
    assert tables == [
        ([3, 0], [3, 0], [0, 0]),
        ([9, 0], [9, 0], [0, 0]),
        ([19, 8, 0], [19, 8, 0], [0, 0, 0]),
        ([39, 18, 6, 0], [39, 18, 6, 0], [0, 0, 0, 0]),
        ([69, 48, 24, 0], [69, 48, 18, 0], [0, 0, 6, 0]),
        ([119, 88, 64, 0, 0], [119, 88, 54, 0, 0], [0, 0, 10, 0, 0]),
        ([189, 168, 144, 0, 0, 0], [189, 168, 114, 0, 0, 0], [0, 0, 30, 0, 0, 0]),
    ]
    for name, n, expected in (
            ("parafermion", 10, [[0, 0, 0, 1]] + [[0, 0, 0, 0]] * 10),
            ("plactic", 12, [[0, 0, 0, 1]] + [[0, 0, k, k] for k in range(1, 13)])):
        result = run_cli("gorenstein", "--algebra", name, "--D", "2",
                         "--max-degree", str(n), "--format", "json")
        assert result.exit_code == 0
        assert json.loads(result.output)["cohomologyByDegree"] == expected, name


def test_dual_benchmark_inputs_pin_their_full_tables(tmp_path):
    # The dual-of-dual relation files give back R, so both routes read the
    # original algebra's dimensions; parafermion(4) reads A^!'s.
    cases = []
    for name, make, D, n, dims in (
            ("parafermion", parafermion, 3, 7, [1, 3, 9, 19, 39, 69, 119, 189]),
            ("plactic", plactic, 3, 7, [1, 3, 9, 19, 39, 69, 119, 189]),
            ("parafermion", parafermion, 2, 10, [1, 2, 4, 6, 9, 12, 16, 20, 25, 30, 36])):
        path = tmp_path / f"{name}{D}-dual.rel"
        write_relation_file(path, make(D).dual())
        cases.append((("--file", str(path), "--max-degree", str(n)), dims))
    cases.append((("--algebra", "parafermion", "--D", "4", "--max-degree", "6"),
                  [1, 4, 16, 20, 20, 0, 0]))
    for args, dims in cases:
        result = run_cli("dual", *args, "--format", "json")
        assert result.exit_code == 0, args
        payload = json.loads(result.output)
        assert payload["dualDimsViaQuotient"] == dims, args
        assert payload["dualDimsViaIntersection"] == dims, args
        assert payload["routesAgree"] is True


def test_checks_jobs_pin_every_result():
    # Every check's name, verdict and detail, including the normal-word
    # check that lists no D^n words.
    def shared(dims, dual, top, chi, q):
        return [
            ("annihilator is involutive", True,
             "double annihilator returns the relation rows; "
             "dim R = {}, dim ann = {}, ambient = {}".format(*dims)),
            ("dual dimensions by quotient and by intersection", True,
             f"quotient {dual}, intersection {dual}"),
            ("dual spaces nest on both sides", True,
             f"W_n in E (x) W_{{n-1}}: degrees 4..{top}; W_n in W_{{n-1}} (x) E by construction"),
            ("component dimension equals the normal basis size", True, f"degrees 0..{top}"),
            ("chi by product equals chi by dimensions", True, f"chi = {chi}, q = {q}"),
            ("slice Euler characteristics match chi", True, f"degrees 1..{top}"),
        ]

    plactic = shared((8, 19, 27), "[1, 3, 9, 8, 6, 0, 0]", 6,
                     "[1, 0, 0, 0, 0, 6, 10]", "[1, -3, 0, 8, -6, 0, 0]") + [
        ("explicit dual span matches the annihilator (plactic)", True, "dim R = 8, dim ann = 19"),
        ("relation space not invariant (expected for the plactic algebra)", True,
         "witness 1*321 - 1*213"),
        ("tableau counts match graded dimensions", True, "degrees 0..5"),
    ]
    family = shared((2, 6, 8), "[1, 2, 4, 2, 1, 0, 0, 0, 0, 0]", 9,
                    "[1, 0, 0, 0, 0, 0, 0, 0, 0, 0]", "[1, -2, 0, 2, -1, 0, 0, 0, 0, 0]")
    for args, expected in (
            (("--algebra", "plactic", "--D", "3", "--max-degree", "6"), plactic),
            (("--algebra", "as", "--q", "706/657", "--r", "478/718", "--max-degree", "9"),
             family)):
        result = run_cli("checks", *args, "--format", "json")
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert [(r["name"], r["passed"], r["detail"]) for r in payload["results"]] == expected
        assert payload["allPassed"] is True


def test_checks_say_when_a_degree_range_is_empty():
    # Up to the relation degree (3) nothing nests that could fail to, and
    # at max degree 0 no slice has positive degree: the details say that
    # no degree was checked.
    nest = ("W_n in E (x) W_{n-1}: none (max degree below 4); "
            "W_n in W_{n-1} (x) E by construction")
    expected = {
        0: (nest, "none (max degree below 1)"),
        1: (nest, "degrees 1..1"),
        2: (nest, "degrees 1..2"),
        3: (nest, "degrees 1..3"),
    }
    for n, details in expected.items():
        result = run_cli("checks", "--algebra", "plactic", "--D", "2",
                         "--max-degree", str(n), "--format", "json")
        assert result.exit_code == 0, n
        payload = json.loads(result.output)
        found = {r["name"]: r["detail"] for r in payload["results"]}
        assert (found["dual spaces nest on both sides"],
                found["slice Euler characteristics match chi"]) == details, n
        assert payload["allPassed"] is True


def test_readme_command_lines_run():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line.split() for line in block.splitlines() if line.startswith("nhomalg ")]
    assert len(lines) == 9
    for words in lines:
        result = run_cli(*words[1:])
        assert result.exit_code == 0, (words, result.output)
        if "--format" not in words:
            result = run_cli(*words[1:], "--format", "json")
            assert result.exit_code == 0, (words, result.output)
            assert json.loads(result.output)["schemaVersion"] == 1


def test_koszul_tables_where_rank_pivots_on_sparsest_columns():
    # Rank pivots on the sparsest columns first, so these slices are
    # eliminated along another path than greatest column first; the full
    # tables are those of the greatest-column order.
    expected = {
        ("parafermion", 9): [
            ([3, 0], [3, 0], [0, 0]),
            ([9, 0], [9, 0], [0, 0]),
            ([19, 8, 0], [19, 8, 0], [0, 0, 0]),
            ([39, 18, 6, 0], [39, 18, 6, 0], [0, 0, 0, 0]),
            ([69, 48, 24, 0], [69, 48, 18, 0], [0, 0, 6, 0]),
            ([119, 88, 64, 0, 0], [119, 88, 54, 0, 0], [0, 0, 10, 0, 0]),
            ([189, 168, 144, 0, 0, 0], [189, 168, 114, 0, 0, 0], [0, 0, 30, 0, 0, 0]),
            ([294, 273, 279, 0, 0, 0], [294, 273, 234, 0, 0, 0], [0, 0, 45, 0, 0, 0]),
            ([434, 448, 504, 0, 0, 0, 0], [434, 448, 414, 0, 0, 0, 0],
             [0, 0, 90, 0, 0, 0, 0]),
        ],
        ("plactic", 8): [
            ([3, 0], [3, 0], [0, 0]),
            ([9, 0], [9, 0], [0, 0]),
            ([19, 8, 0], [19, 8, 0], [0, 0, 0]),
            ([39, 18, 6, 0], [39, 18, 6, 0], [0, 0, 0, 0]),
            ([69, 48, 24, 0], [69, 48, 18, 0], [0, 0, 6, 0]),
            ([119, 88, 64, 8, 0], [119, 88, 46, 0, 0], [0, 0, 18, 8, 0]),
            ([189, 168, 144, 15, 0, 0], [189, 168, 99, 0, 0, 0], [0, 0, 45, 15, 0, 0]),
            ([294, 273, 279, 45, 0, 0], [294, 273, 189, 0, 0, 0], [0, 0, 90, 45, 0, 0]),
        ],
    }
    for (name, n), tables in expected.items():
        result = run_cli("koszul", "--algebra", name, "--D", "3",
                         "--max-degree", str(n), "--format", "json")
        assert result.exit_code == 0
        assert [(row["kernelDims"], row["imageDims"], row["homology"])
                for row in json.loads(result.output)["perDegree"]] == tables, name


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
    # The report is printed in full and the failure adds no error message.
    result = run_cli("checks", "--algebra", "parafermion", "--D", "2",
                     "--format", "json")
    assert result.exit_code == 1
    assert json.loads(result.stdout)["allPassed"] is False
    assert result.stderr == ""


def test_dual_prints_its_report_before_failing_on_disagreeing_routes(monkeypatch):
    monkeypatch.setattr("nhomalg.algebra.GradedAlgebra.intersection_dim",
                        lambda self, n: -1)
    result = run_cli("dual", "--algebra", "paraboson", "--D", "2",
                     "--max-degree", "3", "--format", "json")
    assert result.exit_code == 1
    payload = json.loads(result.stdout)
    assert payload["dualDimsViaIntersection"] == [-1, -1, -1, -1]
    assert payload["routesAgree"] is False
    assert result.stderr == "Error: dual dimension routes disagree\n"


def test_slice_commands_need_a_positive_degree():
    for command in ("koszul", "homology", "gorenstein"):
        result = run_cli(command, "--algebra", "plactic", "--D", "2",
                         "--max-degree", "0")
        assert result.exit_code == 2  # click's usage error
        assert result.stdout == ""
        assert "Error: --max-degree must be at least 1 for this command" in result.stderr


def test_gorenstein_refuses_a_quadratic_file(tmp_path):
    path = tmp_path / "quadratic.txt"
    path.write_text("D=2 N=2\n1*12 - 1*21\n")
    result = run_cli("gorenstein", "--file", str(path), "--max-degree", "3")
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == "Error: the Gorenstein probe needs a cubic algebra\n"


def _dual_file(tmp_path, D):
    path = tmp_path / f"parafermion{D}-dual.rel"
    write_relation_file(path, parafermion(D).dual())
    return str(path)


def test_chi_of_the_dual_of_parafermion_3_is_pinned(tmp_path):
    # The dual algebra here is parafermion(3) itself, infinite, and the
    # dual dimensions are those of the finite parafermion(3)^!.
    result = run_cli("chi", "--file", _dual_file(tmp_path, 3), "--max-degree", "10",
                     "--format", "json")
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    chi = [1, 0, 0, 0, 0, 36, -80, -30, 270, -315, -126]
    assert payload["chiDirect"] == payload["chiViaProduct"] == chi
    assert payload["koszulNecessary"] == {"consistent": False, "refutedAt": 5}


def test_dual_builds_no_word_row_above_the_relation_degree(tmp_path, monkeypatch):
    # The intersection side of ``dual`` reads the dims of the tower of
    # kernels; the word rows of a W_n above N are assembled only for the
    # readers of ``dual_space``.
    import nhomalg.algebra

    assembled = []
    assemble = nhomalg.algebra._assemble

    def counted(ys, kernel):
        assembled.append(len(kernel))
        return assemble(ys, kernel)

    monkeypatch.setattr(nhomalg.algebra, "_assemble", counted)
    result = run_cli("dual", "--file", _dual_file(tmp_path, 3), "--max-degree", "7",
                     "--format", "json")
    assert result.exit_code == 0
    assert json.loads(result.stdout)["dualDimsViaIntersection"] == parafermion_dims(3, 7)
    assert assembled == []
    # The counter sits on the path that builds word rows.
    assert GradedAlgebra(parafermion(3).dual()).dual_space(4).dim == 39
    assert assembled == [39]


def test_dual_of_parafermion_duals_to_high_degrees(tmp_path):
    # Degrees past the benchmark's, where a slip in the scale or the
    # read-off of the tower would show.
    for D, top in ((3, 9), (2, 14)):
        result = run_cli("dual", "--file", _dual_file(tmp_path, D), "--max-degree", str(top),
                         "--format", "json")
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        assert payload["dualDimsViaIntersection"] == parafermion_dims(D, top), D
        assert payload["routesAgree"] is True


# Per degree: dims, kernel dims, image dims, homology.
DUAL_PARAFERMION_2_KOSZUL = [
    ([2, 2], [2, 0], [2, 0], [0, 0]),
    ([4, 4], [4, 0], [4, 0], [0, 0]),
    ([2, 8, 6], [2, 6, 0], [2, 6, 0], [0, 0, 0]),
    ([1, 4, 12, 9], [1, 3, 9, 0], [1, 3, 9, 0], [0, 0, 0, 0]),
    ([0, 2, 24, 18], [0, 2, 22, 0], [0, 2, 18, 0], [0, 0, 4, 0]),
    ([0, 0, 12, 36, 16], [0, 0, 12, 24, 0], [0, 0, 12, 16, 0], [0, 0, 0, 8, 0]),
    ([0, 0, 6, 18, 32, 20], [0, 0, 6, 12, 20, 0], [0, 0, 6, 12, 20, 0],
     [0, 0, 0, 0, 0, 0]),
    ([0, 0, 0, 9, 64, 40], [0, 0, 0, 9, 55, 0], [0, 0, 0, 9, 40, 0], [0, 0, 0, 0, 15, 0]),
    ([0, 0, 0, 0, 32, 80, 30], [0, 0, 0, 0, 32, 48, 0], [0, 0, 0, 0, 32, 30, 0],
     [0, 0, 0, 0, 0, 18, 0]),
    ([0, 0, 0, 0, 16, 40, 60, 36], [0, 0, 0, 0, 16, 24, 36, 0],
     [0, 0, 0, 0, 16, 24, 36, 0], [0, 0, 0, 0, 0, 0, 0, 0]),
    ([0, 0, 0, 0, 0, 20, 120, 72], [0, 0, 0, 0, 0, 20, 100, 0],
     [0, 0, 0, 0, 0, 20, 72, 0], [0, 0, 0, 0, 0, 0, 28, 0]),
    ([0, 0, 0, 0, 0, 0, 60, 144, 49], [0, 0, 0, 0, 0, 0, 60, 84, 0],
     [0, 0, 0, 0, 0, 0, 60, 49, 0], [0, 0, 0, 0, 0, 0, 0, 35, 0]),
]


def test_koszul_of_the_dual_of_parafermion_2_is_pinned(tmp_path):
    result = run_cli("koszul", "--file", _dual_file(tmp_path, 2), "--max-degree", "12",
                     "--format", "json")
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["firstNonacyclicDegree"] == 5
    assert [(r["dims"], r["kernelDims"], r["imageDims"], r["homology"])
            for r in payload["perDegree"]] == DUAL_PARAFERMION_2_KOSZUL


def test_gorenstein_cohomology_of_a_generic_member_is_pinned():
    result = run_cli("gorenstein", "--algebra", "as", "--q", "682/967", "--r", "361/220",
                     "--max-degree", "10", "--format", "json")
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["verdict"] == "consistent"
    assert payload["cohomologyByDegree"] == [[0, 0, 0, 1]] + [[0, 0, 0, 0]] * 10


HELP_COMMANDS = ([], ["hilbert"], ["dual"], ["chi"], ["koszul"], ["homology"],
                 ["gorenstein"], ["checks"], ["plactic"], ["plactic", "normal-form"],
                 ["plactic", "count"])


def test_help_texts_are_pinned():
    """Every command's --help, at an 80-column terminal, as in cli_help.txt."""
    texts = []
    for command in HELP_COMMANDS:
        result = CliRunner().invoke(main, command + ["--help"], terminal_width=80)
        assert result.exit_code == 0
        texts.append(f"$ nhomalg {' '.join(command + ['--help'])}\n" + result.stdout)
    pinned = Path(__file__).with_name("cli_help.txt").read_text()
    assert "\n".join(texts) == pinned


def test_plactic_normal_form():
    result = run_cli("plactic", "normal-form", "121", "--D", "2")
    assert result.exit_code == 0
    assert result.output.splitlines() == ["1 1", "2"]
    result = run_cli("plactic", "normal-form", "131", "--D", "2")
    assert result.exit_code != 0
    assert "column 2" in result.output


def test_plactic_normal_form_takes_ascii_digits_only():
    # Both are digits to str.isdigit; the superscript two is not one to int().
    for word, letter in (("1\u00b2", "\u00b2"), ("1\u0662", "\u0662")):
        result = run_cli("plactic", "normal-form", word, "--D", "2")
        _assert_clean_error(result)
        assert f"column 2: letter {letter!r} outside 1..2" in result.output


def test_plactic_count():
    result = run_cli("plactic", "count", "--D", "2", "--max-degree", "7",
                     "--format", "json")
    payload = json.loads(result.output)
    assert payload["counts"] == [1, 2, 4, 6, 9, 12, 16, 20]


def test_hilbert_at_the_north_star_size():
    # Counted, not listed: dim A_12 = 170,340 normal words.
    result = run_cli("hilbert", "--algebra", "paraboson", "--D", "5",
                     "--max-degree", "12", "--word-limit", "10000000000",
                     "--format", "json")
    assert result.exit_code == 0
    assert json.loads(result.output)["coefficients"] == paraboson_dims(5, 12)


def test_plactic_count_at_the_north_star_size():
    # 6^9 is above the default word limit, so degree 8 is the last allowed.
    result = run_cli("plactic", "count", "--D", "6", "--max-degree", "8",
                     "--format", "json")
    assert result.exit_code == 0
    assert json.loads(result.output)["counts"] == parafermion_dims(6, 8)


def _assert_clean_error(result):
    assert result.exit_code != 0
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    errors = [line for line in result.output.splitlines() if line.startswith("Error")]
    assert len(errors) == 1


def test_plactic_count_counts_every_degree_in_one_pass(monkeypatch):
    # At D = 1 every degree has one tableau; counting each degree from
    # scratch made --max-degree 4000 take seconds.
    import nhomalg.tableaux as module

    calls, walks = [], []
    count, shapes = module.count_tableaux, module._shapes

    def counting(*args, **kwargs):
        calls.append(args)
        return count(*args, **kwargs)

    def walking(n, rows):
        walks.append((n, rows))
        return shapes(n, rows)

    monkeypatch.setattr(module, "count_tableaux", counting)
    monkeypatch.setattr(module, "_shapes", walking)
    result = run_cli("plactic", "count", "--D", "1", "--max-degree", "4000",
                     "--format", "json")
    assert result.exit_code == 0
    assert json.loads(result.output)["counts"] == [1] * 4001
    assert calls == [(1, 4000)]
    # The shapes of each cell count are walked once.
    assert walks == [(n, 1) for n in range(4001)]


def test_plactic_count_refuses_too_many_shapes_at_once():
    # 1^n = 1 passes the word guard at every degree; the n + 1 one-row
    # shapes the count would hold do not.
    start = time.perf_counter()
    result = run_cli("plactic", "count", "--D", "1", "--max-degree", "10000000")
    assert time.perf_counter() - start < 1
    _assert_clean_error(result)
    assert result.output.splitlines() == [
        "Error: 10000000 cells need 10000001 one-row shapes, "
        "above the configured limit of 10000000"]


def test_plactic_count_rejects_bad_degrees_cleanly():
    _assert_clean_error(run_cli("plactic", "count", "--D", "0"))
    _assert_clean_error(run_cli("plactic", "count", "--D", "2",
                                "--max-degree", "-1"))
    _assert_clean_error(run_cli("plactic", "normal-form", "1", "--D", "0"))


def test_plactic_count_refusal_is_clean():
    result = run_cli("plactic", "count", "--D", "12", "--max-degree", "9")
    _assert_clean_error(result)
    assert result.output.splitlines() == [
        "Error: degree 9 needs D^n = 5159780352 basis words, "
        "above the configured limit of 10000000"]


def test_plactic_count_refuses_a_huge_degree_at_once():
    start = time.perf_counter()
    result = run_cli("plactic", "count", "--D", "3", "--max-degree", "10000000")
    assert time.perf_counter() - start < 1
    _assert_clean_error(result)
    assert result.output.splitlines() == [
        "Error: degree 10000000 needs D^n = 3^10000000 basis words, "
        "above the configured limit of 10000000"]


def test_rational_with_too_many_digits_is_refused_before_it_is_built():
    for q in ("1e10000000", "1e-5000"):
        result = run_cli("hilbert", "--algebra", "as", "--q", q, "--max-degree", "2")
        _assert_clean_error(result)
        assert f"'{q}' needs more than 4300 digits" in result.output


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


def test_relation_file_that_is_not_utf8_is_a_clean_error(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"D=2 N=3\n1*121 - 1*2\xff1\n")
    result = run_cli("hilbert", "--file", str(path))
    _assert_clean_error(result)
    assert "line 2, column 12: byte 0xff is not UTF-8" in result.output
    path.write_bytes(b"\xff")
    result = run_cli("hilbert", "--file", str(path))
    _assert_clean_error(result)
    assert "line 1, column 1: byte 0xff is not UTF-8" in result.output


def test_unreadable_relation_file_is_a_clean_error(tmp_path, monkeypatch):
    path = tmp_path / "rels.txt"
    path.write_text("D=2 N=3\n")

    def unreadable(path):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr("nhomalg.cli.relfile.parse_relation_file", unreadable)
    result = run_cli("hilbert", "--file", str(path))
    _assert_clean_error(result)
    assert f"Error: {path}: Permission denied" in result.output


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


def test_relation_degree_refused_before_the_relations_are_built(tmp_path):
    # Degrees 0..2 fit the limit; the D^3 = 8000 relation words do not.
    result = run_cli("hilbert", "--algebra", "parafermion", "--D", "20",
                     "--max-degree", "2", "--word-limit", "1000")
    _assert_clean_error(result)
    assert "degree 3 needs D^n = 8000 basis words" in result.output
    # The annihilator behind `dual` spans all 2^12 words of the relation degree.
    path = tmp_path / "long.txt"
    path.write_text("D=2 N=12\n1*121212121212 - 1*212121212121\n")
    result = run_cli("dual", "--file", str(path), "--word-limit", "1000")
    _assert_clean_error(result)
    assert "degree 12 needs D^n = 4096 basis words" in result.output


def test_relation_degree_too_large_to_write_out_is_refused(tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text("D=2 N=20000\n")
    result = run_cli("hilbert", "--file", str(path))
    _assert_clean_error(result)
    assert "degree 20000 needs D^n = 2^20000 basis words" in result.output


def test_overlong_numeral_in_a_file_is_a_clean_error(tmp_path):
    path = tmp_path / "long_numeral.txt"
    path.write_text("D=2 N=3\n" + "9" * 5000 + "*121\n")
    result = run_cli("hilbert", "--file", str(path))
    _assert_clean_error(result)
    assert "line 2, column 1: numeral too long" in result.output


def test_jobs_option_is_gone():
    result = run_cli("koszul", "--algebra", "plactic", "--D", "2",
                     "--max-degree", "3", "--jobs", "2")
    assert result.exit_code == 2  # click's usage error
    assert "No such option" in result.output and "--jobs" in result.output
    assert "Traceback" not in result.output


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


def _assert_done_or_clean_error(result):
    if result.exit_code != 0:
        _assert_clean_error(result)


# Any character, or one that Unicode counts as a digit or a number; a
# word is taken only if it is ASCII digits 1..D.
@given(st.text(st.one_of(st.characters(), st.characters(categories=("Nd", "No"))),
               max_size=12))
def test_plactic_normal_form_of_any_text_is_a_tableau_or_a_clean_error(text):
    result = run_cli("plactic", "normal-form", "--D", "3", "--", text)
    _assert_done_or_clean_error(result)
    if result.exit_code == 0:
        assert set(text) <= set("123"), text


@given(st.one_of(st.binary(max_size=40),
                 st.binary(max_size=40).map(lambda tail: b"D=2 N=3\n" + tail)))
def test_any_bytes_as_a_relation_file_give_a_result_or_a_clean_error(data):
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "rels.txt"
        path.write_bytes(data)
        _assert_done_or_clean_error(run_cli("hilbert", "--file", str(path),
                                            "--max-degree", "4"))
