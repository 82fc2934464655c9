import json
import math

import numpy as np
import pytest

import calabi.cli as cli
from calabi import evaluate, geodesic_dirichlet, load_density, project_to_space

PI_12 = 0.2617993877991494


def write_d2_pair(tmp_path):
    domain = {"weights": [0.125, 0.125]}
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"domain": domain, "u": [0.0, 0.0]}))
    b.write_text(
        json.dumps({"domain": domain, "density": [1.5, 0.5]})
    )
    return str(a), str(b)


def read_frame(path):
    rows = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    header, data = rows
    values = [float(x) for x in data.split(",")]
    return header.split(","), values[0], np.array(values[1:])


def test_interpolate_two_frames_reproduce_inputs(tmp_path):
    a, b = write_d2_pair(tmp_path)
    out = tmp_path / "frames"
    code = cli.main(["interpolate", a, b, "--frames", "2", "--out-dir", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["t0"] == pytest.approx(PI_12, abs=1e-13)
    assert manifest["d"] == pytest.approx(PI_12, abs=1e-13)
    assert manifest["n_frames"] == 2
    header, t0, dens0 = read_frame(out / "frame_0000.csv")
    assert header == ["t", "node_0", "node_1"]
    assert t0 == 0.0
    assert np.allclose(dens0, [1.0, 1.0], atol=1e-13)
    _, t1, dens1 = read_frame(out / "frame_0001.csv")
    assert t1 == pytest.approx(PI_12, abs=1e-13)
    assert np.allclose(dens1, [1.5, 0.5], atol=1e-12)


def test_interpolate_frames_preserve_mass(tmp_path):
    a, b = write_d2_pair(tmp_path)
    out = tmp_path / "frames"
    code = cli.main(["interpolate", a, b, "--frames", "7", "--out-dir", str(out)])
    assert code == 0
    for i in range(7):
        _, _, dens = read_frame(out / f"frame_{i:04d}.csv")
        assert np.dot(dens, [0.125, 0.125]) == pytest.approx(0.25, rel=1e-12)


def test_interpolate_is_deterministic(tmp_path):
    a, b = write_d2_pair(tmp_path)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert cli.main(["interpolate", a, b, "--out-dir", str(out1), "--seed", "5"]) == 0
    assert cli.main(["interpolate", a, b, "--out-dir", str(out2), "--seed", "5"]) == 0
    for name in ("manifest.json", "curve.csv", "frame_0003.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_interpolate_headers_carry_config(tmp_path):
    a, b = write_d2_pair(tmp_path)
    out = tmp_path / "frames"
    cli.main(["interpolate", a, b, "--out-dir", str(out), "--seed", "9"])
    text = (out / "curve.csv").read_text()
    assert "# tool=calabi version=" in text
    assert "# seed=9" in text
    assert "# config=" in text


def test_interpolate_degenerate_endpoints(tmp_path):
    a, _ = write_d2_pair(tmp_path)
    out = tmp_path / "frames"
    assert cli.main(["interpolate", a, a, "--out-dir", str(out)]) == cli.EXIT_INPUT


def test_interpolate_missing_file(tmp_path):
    a, _ = write_d2_pair(tmp_path)
    missing = str(tmp_path / "nope.json")
    assert cli.main(["interpolate", a, missing, "--out-dir", str(tmp_path)]) == cli.EXIT_INPUT


def test_interpolate_mismatched_domains(tmp_path):
    a, _ = write_d2_pair(tmp_path)
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"domain": {"weights": [0.1, 0.1]}, "u": [0.0, 0.0]}))
    code = cli.main(["interpolate", a, str(other), "--out-dir", str(tmp_path)])
    assert code == cli.EXIT_INPUT


def test_verify_command_passes(tmp_path):
    report_path = tmp_path / "report.json"
    code = cli.main(["verify", "32", "--report", str(report_path), "--seed", "2"])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["passed"] is True
    assert report["sectional_curvature"] == pytest.approx(1.0, abs=1e-3)
    assert report["meta"]["seed"] == 2
    assert not report["failures"]


def test_verify_failure_exit_code(tmp_path, monkeypatch):
    monkeypatch.setattr(
        cli, "run_report", lambda domain, seed: {"passed": False, "failures": ["x"]}
    )
    assert cli.main(["verify", "16"]) == cli.EXIT_VERIFY


def test_verify_accepts_domain_file(tmp_path):
    domain_path = tmp_path / "dom.json"
    domain_path.write_text(json.dumps({"weights": [1.0 / 32] * 8}))
    report_path = tmp_path / "report.json"
    code = cli.main(["verify", str(domain_path), "--report", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["node_count"] == 8


def test_distance_csv_and_json(tmp_path, capsys):
    a, b = write_d2_pair(tmp_path)
    assert cli.main(["distance", a, b]) == 0
    csv_out = capsys.readouterr().out
    assert "a.json" in csv_out and "b.json" in csv_out
    row = [line for line in csv_out.splitlines() if line.startswith("a.json")][0]
    assert float(row.split(",")[2]) == pytest.approx(PI_12, abs=1e-13)

    out = tmp_path / "m.json"
    assert cli.main(["distance", a, b, "--json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    matrix = np.array(payload["matrix"])
    assert matrix[0, 0] == 0.0
    assert matrix[0, 1] == pytest.approx(PI_12, abs=1e-13)


def test_distance_of_identical_inputs_is_zero(tmp_path, capsys):
    a, _ = write_d2_pair(tmp_path)
    assert cli.main(["distance", a, a, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["matrix"][0][1] == 0.0


def write_shared_domain_files(tmp_path, count):
    domain_path = tmp_path / "domain.json"
    domain_path.write_text(json.dumps({"weights": [1.0 / 64] * 16}))
    rng = np.random.default_rng(7)
    paths = []
    for i in range(count):
        p = tmp_path / f"d{i}.json"
        dens = np.exp(0.3 * rng.standard_normal(16))
        p.write_text(json.dumps({"domain": str(domain_path), "density": dens.tolist()}))
        paths.append(str(p))
    return paths


def test_distance_reads_a_shared_domain_file_once(tmp_path, monkeypatch, capsys):
    paths = write_shared_domain_files(tmp_path, 5)
    calls = []
    real = cli.load_domain

    def counting(path):
        calls.append(path)
        return real(path)

    monkeypatch.setattr(cli, "load_domain", counting)
    assert cli.main(["distance", *paths, "--json"]) == 0
    assert len(calls) == 1
    matrix = np.array(json.loads(capsys.readouterr().out)["matrix"])
    assert matrix.shape == (5, 5)
    assert np.all(matrix[~np.eye(5, dtype=bool)] > 0.0)


@pytest.mark.parametrize("inline", [True, False])
def test_later_file_with_a_different_domain_is_rejected(tmp_path, capsys, inline):
    paths = write_shared_domain_files(tmp_path, 3)
    other_domain = {"weights": [1.0 / 32] * 16}
    if not inline:
        other_path = tmp_path / "other_domain.json"
        other_path.write_text(json.dumps(other_domain))
        other_domain = str(other_path)
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"domain": other_domain, "u": [0.0] * 16}))
    assert cli.main(["distance", paths[0], paths[1], str(other), paths[2]]) == cli.EXIT_INPUT
    assert "other.json carries a domain different" in capsys.readouterr().err


def test_normalize_flag_rescales_volume(tmp_path, capsys):
    domain = {"weights": [0.5, 0.5]}  # vol 1, radius 2
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"domain": domain, "u": [0.0, 0.0]}))
    b.write_text(json.dumps({"domain": domain, "density": [1.5, 0.5]}))
    assert cli.main(["distance", str(a), str(b), "--json"]) == 0
    d_raw = json.loads(capsys.readouterr().out)["matrix"][0][1]
    assert cli.main(["distance", str(a), str(b), "--json", "--normalize"]) == 0
    d_norm = json.loads(capsys.readouterr().out)["matrix"][0][1]
    assert d_raw == pytest.approx(2.0 * d_norm, rel=1e-12)
    assert d_norm == pytest.approx(PI_12, abs=1e-13)


def test_mean_command_matches_midpoint(tmp_path, capsys):
    a, b = write_d2_pair(tmp_path)
    assert cli.main(["mean", a, b]) == 0
    payload = json.loads(capsys.readouterr().out)
    from calabi.quadrature import domain_from_dict

    dom = domain_from_dict({"weights": [0.125, 0.125]})
    u0 = load_density(json.loads((tmp_path / "a.json").read_text()), domain=dom)
    u1 = load_density(json.loads((tmp_path / "b.json").read_text()), domain=dom)
    seg, t0 = geodesic_dirichlet(u0, u1)
    midpoint = evaluate(seg, t0 / 2.0)
    assert np.allclose(payload["u"], midpoint.values, atol=1e-9)


def test_mean_convergence_exit_code(tmp_path, rng):
    domain = {"weights": [1.0 / 64] * 16}
    paths = []
    for i in range(3):
        u = rng.standard_normal(16)
        p = tmp_path / f"p{i}.json"
        p.write_text(json.dumps({"domain": domain, "density": list(np.exp(u))}))
        paths.append(str(p))
    code = cli.main(["mean", *paths, "--max-iter", "0", "--tol", "1e-16"])
    assert code == cli.EXIT_CONVERGENCE


def test_output_dir_env_var(tmp_path, monkeypatch):
    a, b = write_d2_pair(tmp_path)
    target = tmp_path / "from_env"
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(target))
    assert cli.main(["interpolate", a, b, "--frames", "2"]) == 0
    assert (target / "manifest.json").exists()


def test_run_config_validation():
    with pytest.raises(ValueError, match="positive"):
        cli.RunConfig(tol=-1.0)
    cfg = cli.RunConfig(seed=3)
    assert len(cfg.hash()) == 12
    assert cfg.meta()["tool"] == "calabi"
