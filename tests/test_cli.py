"""CLI surface: exit codes, JSON round trips, report shape."""

import json
import time

import pytest

from psilab.cli import main
from psilab.homology import ResourceLimit
from psilab.poly import element_from_json, parse_element
from psilab.psi import PsiIdeal


def run_json(capsys, argv):
    code = main(["--json", *argv])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_sample_roundtrip(tmp_path, capsys):
    out = tmp_path / "f.txt"
    code, rep = run_json(
        capsys, ["sample", "--n", "4", "--d", "2", "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    f = element_from_json(rep["results"]["json"])
    assert parse_element(out.read_text(), n=4) == f
    # determinism: same seed reproduces the polynomial
    code2, rep2 = run_json(capsys, ["sample", "--n", "4", "--d", "2", "--seed", "3"])
    assert rep2["results"]["json"] == rep["results"]["json"]


def test_construct_reports_hypotheses(capsys):
    code, rep = run_json(capsys, ["construct", "--d", "2"])
    assert code == 0
    assert rep["results"]["minimal_n"] == 8
    assert rep["results"]["hypotheses"]["n_greater_than_3d"] is True


def test_orbit_dim_from_file(tmp_path, capsys):
    poly = tmp_path / "quad.txt"
    poly.write_text("x1^2 - x2^2 + x1*x2\n")
    code, rep = run_json(capsys, ["orbit-dim", "--poly", str(poly), "--n", "3"])
    assert code == 0
    assert rep["results"]["dimension"] == 5


def test_inverse_component(tmp_path, capsys):
    poly = tmp_path / "quad.txt"
    poly.write_text("x1^2 - x2^2 + x1*x2\n")
    code, rep = run_json(
        capsys, ["inverse", "--poly", str(poly), "--n", "3", "--degree", "2"]
    )
    assert code == 0
    assert rep["results"]["dimension"] == 1


def test_classify_quadratic_example(tmp_path, capsys):
    poly = tmp_path / "quad.txt"
    poly.write_text("x1^2 - x2^2 + x1*x2\n")
    code, rep = run_json(capsys, ["classify", "--poly", str(poly), "--n", "4"])
    assert code == 0
    r = rep["results"]
    assert r["narrow"] and r["extremely_narrow"] and r["gorenstein"]


def test_betti_both_modes_verdict(capsys):
    code, rep = run_json(capsys, ["betti", "--n", "5", "--d", "3", "--seed", "7"])
    assert code == 0
    assert rep["verdicts"][0]["name"] == "oracle == formula"
    assert rep["verdicts"][0]["pass"] is True


def test_linrel_command(capsys):
    code, rep = run_json(capsys, ["linrel", "--n", "6", "--d", "4", "--t-seed", "2"])
    assert code == 0
    assert rep["results"]["kernel_dim"] == 1


def test_equivariant_command(capsys):
    code, rep = run_json(
        capsys,
        ["equivariant", "--n", "4", "--d", "2", "--seed", "1", "--i", "4", "--j", "6"],
    )
    assert code == 0
    assert rep["results"]["multiplicities"] == {"[1, 1, 1, 1]": 1}


def test_restrict_command(capsys):
    code, rep = run_json(capsys, ["restrict", "--schur", "1", "--n", "4"])
    assert code == 0
    assert rep["results"]["multiplicities"] == {"[4]": 1, "[3, 1]": 1}


def test_verify_paper_single_suite(capsys):
    code, rep = run_json(capsys, ["verify-paper", "--suite", "cubic-n5"])
    assert code == 0
    assert all(v["pass"] for v in rep["verdicts"])


def test_verify_paper_reports_suite_time(capsys):
    code, rep = run_json(capsys, ["verify-paper", "--suite", "restrict"])
    assert code == 0
    assert rep["seconds"] > 0
    assert set(rep["verdicts"][0]) == {"name", "pass", "provenance", "detail", "known_defect"}


def test_usage_error_exit_code(capsys):
    code = main(["orbit-dim"])  # no polynomial source given
    assert code == 2


def test_unreadable_poly_file_is_a_config_error(tmp_path, capsys):
    missing = tmp_path / "missing.txt"
    code = main(["orbit-dim", "--poly", str(missing), "--n", "3"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err


def test_failing_verdict_exits_nonzero(tmp_path, capsys):
    # a pure square is not generic: its orbit is the complete intersection
    # (x_1^2..x_n^2) whose table differs from the closed form
    poly = tmp_path / "power.txt"
    poly.write_text("x1^2\n")
    code, rep = run_json(capsys, ["betti", "--poly", str(poly), "--n", "4"])
    assert code == 1
    assert rep["verdicts"][0]["pass"] is False


def test_out_of_regime_formula_is_reported(tmp_path, capsys):
    poly = tmp_path / "power.txt"
    poly.write_text("x1^3\n")
    code = main(["betti", "--poly", str(poly), "--n", "2", "--formula"])
    assert code == 2


def test_field_flag(capsys):
    code, rep = run_json(
        capsys,
        ["orbit-dim", "--n", "4", "--d", "2", "--seed", "1", "--field", "fp:97"],
    )
    assert code == 0
    assert rep["results"]["dimension"] == 9


@pytest.mark.parametrize(
    "argv",
    [
        ["betti", "--n", "3", "--d", "2", "--seed", "1"],
        ["golod-check", "--n", "3", "--d", "2", "--seed", "1", "--max-i", "2"],
        ["equivariant", "--n", "3", "--d", "2", "--seed", "1", "--i", "1", "--j", "2"],
        ["orbit-dim", "--n", "3", "--d", "2", "--seed", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_seconds_cover_the_whole_command(monkeypatch, capsys, argv):
    # every command's clock runs from entry to main until the report, so a
    # slow orbit span is part of its reported time
    orbit_span = PsiIdeal.from_polynomial

    def slow_orbit_span(cls, f):
        time.sleep(0.2)
        return orbit_span(f)

    monkeypatch.setattr(PsiIdeal, "from_polynomial", classmethod(slow_orbit_span))
    code, rep = run_json(capsys, argv)
    assert code == 0
    assert rep["seconds"] >= 0.2


def test_resource_limit_exits_3(monkeypatch, capsys):
    def too_large(A, max_i, gen_limit=20000):
        raise ResourceLimit("resolution step 2 exceeds generator limit 1", {(0, 0): 1})

    monkeypatch.setattr("psilab.cli.residue_field_resolution", too_large)
    code = main(["golod-check", "--n", "3", "--d", "2", "--seed", "1", "--max-i", "2"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "generator limit" in err
