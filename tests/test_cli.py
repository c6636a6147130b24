import io
import json
import pathlib
import sys

import pytest

from qclab import cli
from qclab.catalog import _heisenberg_coeff_strings
from tests.test_catalog import bad_config_text

EINSTEIN = (pathlib.Path(__file__).resolve().parents[1] / "perfbench"
            / "qc_einstein.qc")


def run_cli(*argv):
    stdout = io.StringIO()
    old = sys.stdout
    sys.stdout = stdout
    try:
        code = cli.main(list(argv))
    finally:
        sys.stdout = old
    return code, stdout.getvalue()


def test_list_contains_builtins():
    code, out = run_cli("list")
    assert code == 0
    assert "heisenberg-1" in out
    assert "heisenberg-2" in out


def test_list_json_is_array():
    code, out = run_cli("list", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert isinstance(data["rows"], list)
    assert any(row["name"] == "heisenberg-1" for row in data["rows"])
    assert data["schema_version"] == 1


def test_validate_passes_on_flat_chart():
    code, out = run_cli("validate", "--chart", "heisenberg-1",
                        "--points", "3", "--seed", "1")
    assert code == 0
    assert "failed=0" in out


def test_validate_reproducible_byte_identical():
    args = ("validate", "--chart", "heisenberg-1", "--points", "4",
            "--seed", "1", "--format", "json")
    code1, out1 = run_cli(*args)
    code2, out2 = run_cli(*args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_validate_fails_on_corrupt_config(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(bad_config_text())
    code, out = run_cli("validate", "--config", str(path), "--no-validate",
                        "--points", "3", "--seed", "2")
    assert code == 1
    assert "BiquardConditionFail" in out


def test_invariants_csv_column_order():
    code, out = run_cli("invariants", "--chart", "heisenberg-1",
                        "--points", "1", "--seed", "3", "--format", "csv")
    assert code == 0
    header = out.splitlines()[0]
    assert header == ("index,u1,u2,u3,u4,u5,u6,u7,"
                      "t0_norm,u_norm,scal,tau,ricci_residual")
    value = float(out.splitlines()[1].split(",")[8])
    assert value <= 1e-6


def test_invariants_deformed_chart_nonzero_torsion():
    code, out = run_cli("invariants", "--chart", "heisenberg-1-conformal",
                        "--points", "2", "--seed", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert all(row["t0_norm"] > 1e-4 for row in data["rows"])
    assert data["summary"]["max_ricci_residual"] <= 1e-4


def test_normality_summary_flat():
    code, out = run_cli("normality", "--chart", "heisenberg-1",
                        "--points", "1", "--fiber", "2", "--seed", "4",
                        "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["summary"]["verdict"] == "normal"
    assert all(row["verdict"] == "normal" for row in data["rows"])


def test_normality_summary_deformed_with_oracle():
    code, out = run_cli("normality", "--chart", "heisenberg-1-conformal",
                        "--points", "1", "--fiber", "1", "--seed", "4",
                        "--oracle", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["summary"]["verdict"] == "not_normal"
    assert data["summary"]["max_oracle_deviation"] <= 1e-4


def test_identities_full_suite_passes():
    code, out = run_cli("identities", "--chart", "heisenberg-1",
                        "--points", "1", "--seed", "5", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["summary"]["failed"] == 0
    names = {row["check"] for row in data["rows"]}
    assert "ricci-decomposition" in names
    assert "torsion-reconstruction" in names
    assert "cr-integrability" in names


def test_identities_bad_config_reports_failure_and_skips(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(bad_config_text())
    code, out = run_cli("identities", "--config", str(path), "--no-validate",
                        "--points", "1", "--seed", "2", "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert data["rows"][0]["check"] == "BiquardConditionFail"
    assert data["summary"]["failed"] >= 1
    assert len(data["rows"]) == 1  # downstream checks skipped


def test_sweep_deterministic_across_threads():
    args = ("sweep", "--chart", "heisenberg-1", "--points", "2",
            "--fiber", "2", "--seed", "6")
    code1, out1 = run_cli(*args, "--threads", "1")
    code2, out2 = run_cli(*args, "--threads", "3")
    assert code1 == code2 == 0
    assert out1 == out2
    header = out1.splitlines()[0]
    assert header.startswith("index,fiber,u1")
    assert header.endswith("normality_residual,verdict")


def test_sweep_on_qc_einstein_point_with_a_failing_stencil_before():
    # with largest-norm pivots, a displaced stencil point of this base point
    # failed QPreservationFail (residual 2.6e4) and the call exited 2
    code, out = run_cli("sweep", "--config", str(EINSTEIN), "--fiber", "8",
                        "--points=-0.6429,-0.2075,-0.9884,-0.4750,"
                        "-0.1576,-0.7882,0.2663", "--format", "json")
    assert code == 0
    assert [row["verdict"] for row in json.loads(out)["rows"]] == \
        ["normal"] * 8


def test_exit_code_on_usage_error():
    code, _ = run_cli("validate", "--chart", "not-a-chart")
    assert code == 2
    code, _ = run_cli("validate")  # neither --chart nor --config
    assert code == 2


@pytest.mark.parametrize("flag", ["--fd-step", "--curv-step"])
def test_zero_step_is_usage_error(flag):
    # 0 is rejected like any other non-positive step, not taken as unset
    code, _ = run_cli("validate", "--chart", "heisenberg-1", "--points", "1",
                      flag, "0")
    assert code == 2


def test_explicit_point_list():
    code, out = run_cli("validate", "--chart", "heisenberg-1",
                        "--points", "0,0,0,0,0,0,0;0.1,0,0,0,0,0,0",
                        "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["rows"]) == 2
    assert data["rows"][0]["u1"] == 0.0


def test_thread_default_from_environment(monkeypatch):
    monkeypatch.setenv("QCLAB_THREADS", "3")
    assert cli._thread_default() == 3
    monkeypatch.setenv("QCLAB_THREADS", "not-a-number")
    assert cli._thread_default() == 1
    monkeypatch.delenv("QCLAB_THREADS")
    assert cli._thread_default() == 1


def test_tolerance_flag_changes_report():
    code, out = run_cli("normality", "--chart", "heisenberg-1",
                        "--points", "1", "--fiber", "1", "--seed", "7",
                        "--tol-normal", "1e-2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["tolerances"]["normal"] == 1e-2


@pytest.mark.parametrize("command,fiber", [
    ("normality", "0"), ("normality --oracle", "0"), ("identities", "0"),
    ("sweep", "-2")])
def test_nonpositive_fiber_is_usage_error(command, fiber, capsys):
    # no fibre points means no rows, so no verdict may be given
    code, out = run_cli(*command.split(), "--chart", "heisenberg-1-conformal",
                        "--points", "0.1,0,0,0,0,0,0", "--fiber", fiber)
    assert code == 2
    assert out == ""
    assert "--fiber must be positive" in capsys.readouterr().err


def test_domain_error_names_the_point(tmp_path, capsys):
    lines = ["[chart]", "version = 1", "name = log-factor", "n = 1",
             "coords = " + ", ".join(f"u{i + 1}" for i in range(7)),
             "factor = log(2+u1)", "", "[eta]"]
    for s, row in enumerate(_heisenberg_coeff_strings(1)):
        lines.append(f"eta{s + 1} = " + ", ".join(row))
    path = tmp_path / "log.cfg"
    path.write_text("\n".join(lines) + "\n")
    code, out = run_cli("invariants", "--config", str(path), "--no-validate",
                        "--points=-2.5,0.1,0,0,0,0,0")
    assert code == 2
    err = capsys.readouterr().err
    assert "log of a non-positive value" in err
    assert "-2.5" in err


def test_fiber_flag_belongs_to_fibre_commands(capsys):
    # validate and invariants have no fibre points, so no --fiber flag
    for command in ("invariants", "validate"):
        code, out = run_cli(command, "--chart", "heisenberg-1", "--points",
                            "1", "--fiber", "3")
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --fiber" in capsys.readouterr().err
