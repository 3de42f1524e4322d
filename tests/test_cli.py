"""End-to-end runs of the command-line front end on small configs."""

import json
import os
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from highcontrast import cli, dtn


def write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def med1d(eps=1e-2, bc="dirichlet", h=0.005):
    return {"dim": 1, "domain": [-1.0, 1.0], "inclusions": [[-0.5, 0.5]],
            "h": h, "epsilon": eps, "bc": bc}


def test_spectrum_csv(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {"medium": med1d(), "count": 3})
    assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "j,lambda,residual"
    assert len(lines) == 4
    j, lam, res = lines[1].split(",")
    assert j == "1" and float(lam) > 0 and float(res) < 1e-6


def test_spectrum_json_format(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {"medium": med1d(), "count": 2})
    assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path),
                     "--format", "json"]) == 0
    recs = json.loads((tmp_path / "spectrum.json").read_text())
    assert len(recs) == 2 and set(recs[0]) == {"j", "lambda", "residual"}


def test_limit_writes_grid_and_exact_tables(tmp_path):
    cfg = write_cfg(tmp_path, "c.json",
                    {"medium": med1d(eps=0.0, h=0.002), "lambda_max": 45.0,
                     "task": "limit"})
    assert cli.main(["limit", "--config", cfg, "--out", str(tmp_path)]) == 0
    lim = (tmp_path / "limit.csv").read_text().splitlines()
    assert lim[0] == "branch,lambda,c_1,flux_residual,pde_residual"
    assert all(len(l.split(",")) == 5 for l in lim[1:])
    assert {l.split(",")[0] for l in lim[1:]} == {"constant_trace", "zero_flux"}
    exact = (tmp_path / "exact_limit.csv").read_text().splitlines()
    assert exact[0] == "branch,index,lambda,omega,residual"
    for row in exact[1:]:
        _branch, _i, lam, om, _res = row.split(",")
        assert float(om) == pytest.approx(np.sqrt(float(lam)))
    # same eigenvalue content, grid vs closed form
    grid_lams = sorted(float(l.split(",")[1]) for l in lim[1:])
    ref_lams = sorted(float(l.split(",")[2]) for l in exact[1:])
    assert len(grid_lams) == len(ref_lams)
    for g, r in zip(grid_lams, ref_lams):
        assert g == pytest.approx(r, rel=1e-4)


def test_limit_radial(tmp_path):
    cfg = write_cfg(tmp_path, "c.json",
                    {"medium": {"dim": "radial", "inclusions": [0.5],
                                "epsilon": 0.0, "bc": "dirichlet"},
                     "lambda_max": 45.0})
    assert cli.main(["limit", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "limit.csv").read_text().splitlines()
    assert float(lines[1].split(",")[1]) == pytest.approx(10.710706579361926,
                                                          abs=1e-9)


def test_dispersion_outputs(tmp_path):
    cfg = write_cfg(tmp_path, "c.json",
                    {"medium": med1d(bc={"bloch": 0.5}),
                     "k_grid": [0.3, 0.7], "branch_count": 2,
                     "eps_list": [1e-2, 0.0]})
    assert cli.main(["dispersion", "--config", cfg, "--out", str(tmp_path)]) == 0
    bands = (tmp_path / "bands.csv").read_text().splitlines()
    assert bands[0] == "k,epsilon,branch,lambda,omega"
    assert len(bands) == 1 + 2 * 2 * 2
    for row in bands[1:]:
        _k, _eps, _br, lam, om = row.split(",")
        assert float(om) == pytest.approx(np.sqrt(float(lam)))
    assert (tmp_path / "gaps.csv").read_text().splitlines()[0] == "epsilon,gap_lo,gap_hi"


@pytest.mark.parametrize("task, cfg, outputs", [
    ("spectrum", {"medium": med1d(), "count": 2}, {"spectrum.json"}),
    ("limit", {"medium": med1d(eps=0.0), "lambda_max": 45.0},
     {"limit.json", "exact_limit.json"}),
    ("dispersion", {"medium": med1d(bc={"bloch": 0.5}), "k_grid": [0.3],
                    "eps_list": [0.0]}, {"bands.json", "gaps.json"}),
    ("converge", {"medium": med1d(), "count": 1}, {"converge.json"}),
    ("validate", {"medium": med1d()}, {"validate.json"}),
])
def test_json_format_writes_no_csv(tmp_path, task, cfg, outputs):
    path = write_cfg(tmp_path, "c.json", cfg)
    out = tmp_path / "out"
    assert cli.main([task, "--config", path, "--out", str(out),
                     "--format", "json"]) == 0
    assert {p.name for p in out.iterdir()} == outputs
    for name in outputs:
        json.loads((out / name).read_text())


def test_converge_passes_against_limit(tmp_path):
    cfg = write_cfg(tmp_path, "c.json",
                    {"medium": med1d(h=0.002),
                     "eps_list": [1e-1, 1e-2, 1e-3, 1e-4], "count": 1})
    assert cli.main(["converge", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "converge.json").read_text())
    assert report["passed"]
    b = report["branches"][0]
    assert b["extrapolated"] == pytest.approx(2.9606955375799444, abs=1e-4)
    lines = (tmp_path / "converge.csv").read_text().splitlines()
    assert lines[0] == "epsilon,branch,lambda"
    assert len(lines) == 5


@pytest.mark.parametrize("eps_list, code", [
    ([1e-4, 1e-5, 1e-6, 1e-7], cli.EXIT_CONFIG),
    ([1e-3, 1e-4, 1e-5, 1e-6], cli.EXIT_OK),
])
def test_converge_refuses_contrasts_below_noise_floor(tmp_path, capsys, eps_list, code):
    cfg = write_cfg(tmp_path, "c.json",
                    {"medium": med1d(), "eps_list": eps_list, "count": 1})
    assert cli.main(["converge", "--config", cfg, "--out", str(tmp_path)]) == code
    if code == cli.EXIT_CONFIG:
        assert "1e-06" in capsys.readouterr().err
        assert not (tmp_path / "converge.json").exists()


def test_validate_verdict(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {"medium": med1d(h=0.005)})
    assert cli.main(["validate", "--config", cfg, "--out", str(tmp_path)]) == 0
    verdict = json.loads((tmp_path / "validate.json").read_text())
    assert verdict["passed"]
    names = {c["name"] for c in verdict["criteria"]}
    assert {"dtn_identity", "exterior_constants_negative",
            "limit_matches_exact"} <= names


def test_unknown_field_exit_2(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {"medium": med1d(), "frobnicate": 1})
    assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_validate_builds_one_dtn_system(tmp_path, monkeypatch):
    calls = []
    build = dtn.build_dtn

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(dtn, "build_dtn", counted)
    verdict = cli.run_validate({"medium": med1d(h=0.005)}, str(tmp_path))
    assert verdict["passed"] and len(calls) == 1

    def failing(*args, **kwargs):
        raise RuntimeError("singular block")

    monkeypatch.setattr(dtn, "build_dtn", failing)
    verdict = cli.run_validate({"medium": med1d(h=0.005)}, str(tmp_path))
    result = {c["name"]: c for c in verdict["criteria"]}
    for name in ("dtn_identity", "exterior_constants_negative"):
        assert not result[name]["passed"]
        assert "singular block" in result[name]["detail"]
    assert result["limit_matches_exact"]["passed"]


@pytest.mark.parametrize("key, value", [("refine", [8, 16]), ("branch", 1)])
def test_unread_config_keys_exit_2(tmp_path, key, value):
    cfg = write_cfg(tmp_path, "c.json", {"medium": med1d(), key: value})
    assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_config_schema_is_valid():
    cls = jsonschema.validators.validator_for(cli.CONFIG_SCHEMA)
    cls.check_schema(cli.CONFIG_SCHEMA)
    # the class jsonschema.validate would pick for this schema
    assert type(cli._VALIDATOR) is cls is jsonschema.Draft202012Validator


def test_load_config_skips_schema_check(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("schema re-checked on a config load")

    monkeypatch.setattr(type(cli._VALIDATOR), "check_schema", refuse)
    good = write_cfg(tmp_path, "good.json", {"medium": med1d(), "count": 2})
    assert cli.load_config(good)["count"] == 2
    bad = write_cfg(tmp_path, "bad.json", {"medium": med1d(), "count": 0})
    with pytest.raises(cli.ConfigError):
        cli.load_config(bad)


@pytest.mark.parametrize("cfg", [
    {"medium": med1d(), "frobnicate": 1},
    {"medium": med1d(), "count": 0},
    {"medium": med1d(), "count": 2.5, "lambda_max": -1.0},
    {"medium": {**med1d(), "bc": {"bloch": "x"}}},
    {"medium": {**med1d(), "epsilon": -1.0, "h": 0}},
    {"medium": {"dim": 3, "epsilon": 0.0}},
    {"count": 2},
    [],
])
def test_config_error_message_matches_jsonschema(tmp_path, cfg):
    with pytest.raises(jsonschema.ValidationError) as ref:
        jsonschema.validate(cfg, cli.CONFIG_SCHEMA)
    with pytest.raises(cli.ConfigError) as got:
        cli.load_config(write_cfg(tmp_path, "c.json", cfg))
    assert str(got.value) == f"invalid config: {ref.value.message}"


def test_task_mismatch_exit_2(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {"medium": med1d(), "task": "limit"})
    assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_unreadable_config_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["spectrum", "--config", str(bad), "--out", str(tmp_path)]) == 2


def test_misaligned_grid_exit_2(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {"medium": med1d(h=2.0 / 257)})
    assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_solver_failure_exit_3(tmp_path):
    # radial eigencount beyond the grid size trips the solver, not the config
    cfg = write_cfg(tmp_path, "c.json",
                    {"medium": {"dim": "radial", "inclusions": [0.5],
                                "h": 0.1, "epsilon": 1e-2, "bc": "dirichlet"},
                     "count": 40})
    assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 3


def test_validation_failure_exit_4(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "run_validate",
                        lambda *a, **k: {"criteria": [], "passed": False})
    cfg = write_cfg(tmp_path, "c.json", {"medium": med1d()})
    assert cli.main(["validate", "--config", cfg, "--out", str(tmp_path)]) == 4


def test_cli_import_skips_ndimage_and_optimize():
    code = ("import sys, highcontrast.cli\n"
            "print([m for m in ('scipy.ndimage', 'scipy.optimize') if m in sys.modules])")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         check=True, capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_two_processes_write_identical_spectra(tmp_path):
    # the residuals (and lambda_1 in its 12th digit) moved between runs
    # while ARPACK started from a random vector
    cfg = write_cfg(tmp_path, "c.json", {"medium": med1d(), "count": 3})
    src = os.path.dirname(os.path.dirname(cli.__file__))
    written = []
    for run in ("a", "b"):
        out = tmp_path / run
        subprocess.run([sys.executable, "-m", "highcontrast.cli", "spectrum", "--config", cfg,
                        "--out", str(out)], env={**os.environ, "PYTHONPATH": src},
                       check=True, capture_output=True, timeout=120)
        written.append((out / "spectrum.csv").read_bytes())
    assert written[0] == written[1]
